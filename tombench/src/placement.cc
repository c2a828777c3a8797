/**
 * @file
 * The `placement` workload: a closed loop with one client running
 * TomographyPipeline::run() over the whole registry in a fixed
 * round-robin. Each program draws its pipeline seeds from a fixed pool
 * of kPoolSeeds; the benchmark seed picks the order in which every
 * program walks its pool, so the outcome of every run can be checked
 * against expected_placement.tsv.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "api/pipeline.hh"
#include "bench.hh"
#include "exec/thread_pool.hh"
#include "layout/placement.hh"
#include "stats/metrics.hh"
#include "stats/rng.hh"
#include "workloads/workload.hh"

namespace tombench {

namespace {

using namespace ct;

/** Pipeline seeds per program; run seeds are 1..kPoolSeeds. */
constexpr size_t kPoolSeeds = 8;

/** What one pipeline run must reproduce exactly. */
struct Expected
{
    uint64_t natural = 0;
    uint64_t tomography = 0;
    uint64_t perfect = 0;
    uint64_t tomographyMispredicted = 0;
    double branchMae = 0.0;
};

using ExpectedTable = std::map<std::pair<std::string, uint64_t>, Expected>;

Expected
expectedOf(const api::PipelineResult &result)
{
    Expected e;
    e.natural = result.outcome("natural").totalCycles;
    e.tomography = result.outcome("tomography").totalCycles;
    e.perfect = result.outcome("perfect").totalCycles;
    e.tomographyMispredicted = result.outcome("tomography").mispredicted;
    e.branchMae = result.branchMae;
    return e;
}

ExpectedTable
loadExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read expected outcomes " + path);
    ExpectedTable table;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        std::string name;
        uint64_t seed = 0;
        Expected e;
        if (!(row >> name >> seed >> e.natural >> e.tomography >>
              e.perfect >> e.tomographyMispredicted >> e.branchMae))
            throw std::runtime_error("malformed expected row: " + line);
        table[{name, seed}] = e;
    }
    return table;
}

/** Compare one run with its expected row; empty when it matches. */
std::string
mismatch(const std::string &name, uint64_t seed, const Expected &got,
         const ExpectedTable &table)
{
    auto it = table.find({name, seed});
    if (it == table.end())
        return name + " seed " + std::to_string(seed) + ": no expected row";
    const Expected &want = it->second;
    // Integers are exact; the MAE tolerates last-bit differences only.
    bool same = got.natural == want.natural &&
                got.tomography == want.tomography &&
                got.perfect == want.perfect &&
                got.tomographyMispredicted == want.tomographyMispredicted &&
                std::fabs(got.branchMae - want.branchMae) <= 1e-12;
    if (same)
        return {};
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s seed %llu: cycles %llu/%llu/%llu mispred %llu mae "
                  "%.17g; expected %llu/%llu/%llu %llu %.17g",
                  name.c_str(), (unsigned long long)seed,
                  (unsigned long long)got.natural,
                  (unsigned long long)got.tomography,
                  (unsigned long long)got.perfect,
                  (unsigned long long)got.tomographyMispredicted,
                  got.branchMae, (unsigned long long)want.natural,
                  (unsigned long long)want.tomography,
                  (unsigned long long)want.perfect,
                  (unsigned long long)want.tomographyMispredicted,
                  want.branchMae);
    return buf;
}

api::PipelineConfig
pipelineConfig(uint64_t seed)
{
    api::PipelineConfig cfg;
    cfg.seed = seed;
    cfg.jobs = exec::hardwareJobs();
    return cfg;
}

/** The run's inputs: the registry plus each program's pool order. */
struct Setup
{
    std::vector<workloads::Workload> programs;
    /** order[p][r] = pool seed of program p's r-th run (mod pool). */
    std::vector<std::vector<uint64_t>> order;
    ExpectedTable expected;
};

Setup
makeSetup(const Options &options)
{
    Setup s;
    s.programs = workloads::allWorkloads();
    Rng rng(options.seed ^ 0x706c6163656d656eULL);
    for (size_t p = 0; p < s.programs.size(); ++p) {
        std::vector<uint64_t> seeds(kPoolSeeds);
        for (size_t k = 0; k < kPoolSeeds; ++k)
            seeds[k] = k + 1;
        for (size_t k = kPoolSeeds - 1; k > 0; --k)
            std::swap(seeds[k], seeds[rng.below(k + 1)]);
        s.order.push_back(std::move(seeds));
    }
    s.expected = loadExpected(options.expectedPath);
    // Warm-up: one run per program, so lazy initialization and the
    // allocator's first growth are paid here, not in the first
    // measured runs.
    for (size_t p = 0; p < s.programs.size(); ++p)
        api::TomographyPipeline(s.programs[p], pipelineConfig(s.order[p][0]))
            .run();
    return s;
}

/** One run of the closed loop: program and pool seed of iteration i. */
struct Step
{
    size_t program = 0;
    uint64_t seed = 0;
};

Step
stepOf(const Setup &s, size_t i)
{
    size_t programs = s.programs.size();
    size_t p = i % programs;
    return {p, s.order[p][(i / programs) % kPoolSeeds]};
}

/** Quality over the distinct (program, seed) pairs a loop visited. */
struct Quality
{
    std::map<std::pair<size_t, uint64_t>, std::pair<double, double>> seen;

    void add(const Step &step, const api::PipelineResult &r)
    {
        seen[{step.program, step.seed}] = {r.cyclesImprovementPct(),
                                           r.branchMae};
    }
};

/** The untraced closed loop, until its runs add up to @p seconds;
 *  returns per-run latencies in ns. */
std::vector<double>
closedLoop(const Setup &s, double seconds, Outcome &out, Quality &quality)
{
    std::vector<double> latencies;
    double measured = 0.0;
    for (size_t i = 0; measured < seconds * 1e9; ++i) {
        Step step = stepOf(s, i);
        const auto &program = s.programs[step.program];
        int64_t t0 = nowNs();
        api::TomographyPipeline pipeline(program, pipelineConfig(step.seed));
        auto result = pipeline.run();
        latencies.push_back(double(nowNs() - t0));
        measured += latencies.back();

        ++out.attempted;
        std::string bad = mismatch(program.name, step.seed,
                                   expectedOf(result), s.expected);
        if (!bad.empty()) {
            ++out.failed;
            out.mismatches.push_back(bad);
        }
        quality.add(step, result);
    }
    return latencies;
}

/** Per-stage spans of one traced run (ns). */
struct StageTimes
{
    double run = 0, measure = 0, estimate = 0, orders = 0, optimize = 0;
    double fanout = 0, evaluateSum = 0, evaluateMax = 0;
    double emIterations = 0, rewardClasses = 0;
};

/**
 * One pipeline run composed from the pipeline's public stages, with a
 * span around each call — the same stages, seeds and candidate order
 * as TomographyPipeline::run(), so the result is checked against the
 * same expected row.
 */
api::PipelineResult
tracedRun(const workloads::Workload &program, uint64_t seed, StageTimes &t)
{
    int64_t run0 = nowNs();
    api::PipelineConfig cfg = pipelineConfig(seed);
    api::TomographyPipeline pipeline(program, cfg);
    api::PipelineResult result;

    int64_t t0 = nowNs();
    result.measureRun = pipeline.measure();
    int64_t t1 = nowNs();
    result.estimate = pipeline.estimate(result.measureRun.trace);
    int64_t t2 = nowNs();
    t.measure = double(t1 - t0);
    t.estimate = double(t2 - t1);
    for (const auto &r : result.estimate.results) {
        t.emIterations += double(r.iterations);
        t.rewardClasses += double(r.rewardClasses);
    }

    const auto &module = *program.module;
    result.branchMae =
        branchMae(module, result.measureRun.profile,
                  result.measureRun.invocations, result.estimate.thetas);

    const char *names[] = {"natural", "random", "dfs", "tomography",
                           "perfect"};
    std::vector<std::vector<sim::BlockOrder>> orders(5);
    Rng rng(seed ^ 0x72616e64);
    const auto &truth = result.measureRun.profile;
    int64_t o0 = nowNs();
    orders[0] = layout::computeModuleOrders(module, truth,
                                            layout::LayoutKind::Natural, rng);
    orders[1] = layout::computeModuleOrders(module, truth,
                                            layout::LayoutKind::Random, rng);
    orders[2] =
        layout::computeModuleOrders(module, truth, layout::LayoutKind::Dfs, rng);
    int64_t o1 = nowNs();
    orders[3] = pipeline.optimize(result.estimate.profile);
    int64_t o2 = nowNs();
    orders[4] = layout::computeModuleOrders(
        module, truth, layout::LayoutKind::ProfileGuided, rng);
    int64_t o3 = nowNs();
    t.orders = double((o1 - o0) + (o3 - o2));
    t.optimize = double(o2 - o1);

    std::vector<double> evals(5);
    int64_t f0 = nowNs();
    {
        exec::ThreadPool pool(cfg.jobs);
        result.outcomes = exec::parallelMap(pool, 5, [&](size_t i) {
            int64_t e0 = nowNs();
            auto outcome = pipeline.evaluate(names[i], orders[i]);
            evals[i] = double(nowNs() - e0);
            return outcome;
        });
    }
    int64_t f1 = nowNs();
    t.fanout = double(f1 - f0);
    t.evaluateMax = *std::max_element(evals.begin(), evals.end());
    for (double e : evals)
        t.evaluateSum += e;
    t.run = double(nowNs() - run0);
    return result;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / double(v.size());
}

} // namespace

double
branchMae(const ir::Module &module, const ir::ModuleProfile &truth,
          const std::vector<uint64_t> &invocations,
          const std::vector<std::vector<double>> &thetas)
{
    std::vector<double> want, got;
    for (ir::ProcId id = 0; id < module.procedureCount(); ++id) {
        const auto &proc = module.procedure(id);
        if (invocations[id] == 0 || proc.branchBlocks().empty())
            continue;
        auto t = truth[id].branchProbabilities(proc);
        want.insert(want.end(), t.begin(), t.end());
        got.insert(got.end(), thetas[id].begin(), thetas[id].end());
    }
    return want.empty() ? 0.0 : meanAbsoluteError(got, want);
}

Outcome
runPlacement(const Options &options)
{
    Outcome out;
    out.workload = "placement";

    std::vector<double> setups;
    Setup s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        int64_t t0 = nowNs();
        s = makeSetup(options);
        setups.push_back(double(nowNs() - t0) / 1e9);
    }
    Summary setup = summarize(setups);

    Quality quality;
    if (!options.trace) {
        auto latencies = closedLoop(s, options.seconds, out, quality);
        // Throughput per pass over the registry (one run of every
        // program), median over passes: robust to a pass that stalls on
        // a shared machine.
        const size_t programs = s.programs.size();
        std::vector<double> passRate;
        for (size_t i = 0; i + programs <= latencies.size(); i += programs) {
            double pass = 0.0;
            for (size_t j = i; j < i + programs; ++j)
                pass += latencies[j];
            passRate.push_back(double(programs) / (pass / 1e9));
        }
        Summary lat = summarize(latencies, kEndToEndTailCap);
        double pairs = double(s.programs.size() * kPoolSeeds);
        double saved = 0.0, mae = 0.0;
        for (const auto &[key, q] : quality.seen) {
            saved += q.first;
            mae += q.second;
        }
        saved /= double(quality.seen.size());
        mae /= double(quality.seen.size());
        if (double(quality.seen.size()) < pairs)
            out.lines.push_back("finding: the loop visited " +
                                std::to_string(quality.seen.size()) +
                                " of the pool's pairs; quality covers those");

        out.add("setup_s", "s", setup.p50,
                "median of " + std::to_string(kSetupRepeats));
        out.add("ops_per_s", "1/s", median(passRate),
                "placements/s, median of " + std::to_string(passRate.size()) +
                    " registry passes");
        const std::string n = "n=" + std::to_string(lat.n);
        out.add("latency_p50_us", "us", lat.p50 / 1e3, n);
        out.add("latency_p95_us", "us", lat.tail / 1e3,
                "p" + std::to_string(lat.tailPct) + ", " + n);
        out.add("cycles_saved_pct", "%", saved, "tomography vs natural");
        out.add("branch_mae", "prob", mae);
        out.add("peak_rss_mb", "MiB", peakRssMb());
        return out;
    }

    // Traced run: half the time untraced (the overhead baseline), half
    // composed from the stages with a span around each.
    auto untraced = closedLoop(s, options.seconds / 2, out, quality);
    std::vector<StageTimes> runs;
    std::vector<double> estimates;
    double measured = 0.0;
    for (size_t i = 0; measured < options.seconds / 2 * 1e9; ++i) {
        Step step = stepOf(s, i);
        const auto &program = s.programs[step.program];
        StageTimes t;
        auto result = tracedRun(program, step.seed, t);
        runs.push_back(t);
        estimates.push_back(t.estimate);
        measured += t.run;
        ++out.attempted;
        std::string bad = mismatch(program.name, step.seed,
                                   expectedOf(result), s.expected);
        if (!bad.empty()) {
            ++out.failed;
            out.mismatches.push_back("traced " + bad);
        }
    }

    const double n = double(runs.size());
    const api::PipelineConfig cfg = pipelineConfig(1);
    const double invocations =
        double(cfg.measureInvocations + 5 * cfg.evalInvocations);
    StageTimes sum;
    double overhead = 0.0;
    for (const auto &t : runs) {
        sum.run += t.run;
        sum.measure += t.measure;
        sum.estimate += t.estimate;
        sum.orders += t.orders;
        sum.optimize += t.optimize;
        sum.fanout += t.fanout;
        sum.evaluateSum += t.evaluateSum;
        sum.evaluateMax += t.evaluateMax;
        sum.emIterations += t.emIterations;
        sum.rewardClasses += t.rewardClasses;
        overhead += t.run - t.measure - t.estimate - t.optimize -
                    t.evaluateMax;
    }
    Summary est = summarize(estimates);

    out.add("sim.measure_ms", "ms", sum.measure / n / 1e6);
    out.add("sim.evaluate_ms", "ms", sum.evaluateSum / n / 1e6,
            "sum of the five evaluate() calls");
    out.add("sim.evaluate_max_ms", "ms", sum.evaluateMax / n / 1e6);
    out.add("sim.invocations", "count", invocations, "per run");
    out.add("sim.invocations_per_busy_s", "1/s",
            invocations * n / ((sum.measure + sum.evaluateSum) / 1e9));
    out.add("tomography.estimate_p50_ms", "ms", est.p50 / 1e6,
            "n=" + std::to_string(est.n));
    out.add("tomography.estimate_p99_ms", "ms", est.tail / 1e6,
            "p" + std::to_string(est.tailPct) + ", n=" +
                std::to_string(est.n));
    out.add("tomography.em_iterations", "count", sum.emIterations / n,
            "per run, all procedures");
    out.add("tomography.em_reward_classes", "count", sum.rewardClasses / n,
            "per run, all procedures");
    out.add("layout.optimize_us", "us", sum.optimize / n / 1e3);
    out.add("exec.fanout_overhead_ms", "ms", overhead / n / 1e6,
            "run - measure - estimate - optimize - slowest evaluate");
    out.add("bench.trace_overhead_frac", "frac",
            (sum.run / n) / mean(untraced) - 1.0,
            "composed traced run vs run()");

    // The critical path of one run: measure, estimate, the serial
    // layout work, then the fan-out (whose self time is what the
    // slowest evaluate does not cover).
    closeLedger(out, "placement run", sum.run,
                {{"sim.measure", n, sum.measure},
                 {"tomography.estimate", n, sum.estimate},
                 {"layout.optimize", n, sum.optimize},
                 {"layout.candidate_orders", 4 * n, sum.orders},
                 {"sim.evaluate (slowest of 5)", n, sum.evaluateMax},
                 {"exec.fanout self", n, sum.fanout - sum.evaluateMax}});
    return out;
}

int
writePlacementExpected(const std::string &path)
{
    std::ofstream file(path);
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    file << "# program seed natural_cycles tomography_cycles "
            "perfect_cycles tomography_mispredicted branch_mae\n"
            "# Outcomes of TomographyPipeline::run() with the default "
            "PipelineConfig; regenerate with tombench --write-expected.\n";
    for (const auto &program : workloads::allWorkloads()) {
        for (uint64_t seed = 1; seed <= kPoolSeeds; ++seed) {
            auto result =
                api::TomographyPipeline(program, pipelineConfig(seed)).run();
            Expected e = expectedOf(result);
            char buf[256];
            std::snprintf(buf, sizeof buf, "%s %llu %llu %llu %llu %llu %.17g\n",
                          program.name.c_str(), (unsigned long long)seed,
                          (unsigned long long)e.natural,
                          (unsigned long long)e.tomography,
                          (unsigned long long)e.perfect,
                          (unsigned long long)e.tomographyMispredicted,
                          e.branchMae);
            file << buf;
        }
    }
    return file ? 0 : 1;
}

} // namespace tombench
