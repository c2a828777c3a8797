/**
 * @file
 * E9 — google-benchmark microbenchmarks of the harness itself: mote
 * simulation throughput, absorbing-chain math, path enumeration, and
 * the estimators. These are not paper results; they document that the
 * reproduction is fast enough to sweep.
 */

#include <benchmark/benchmark.h>

#include <sys/stat.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/pipeline.hh"
#include "exec/thread_pool.hh"
#include "markov/paths.hh"
#include "sim/machine.hh"
#include "tomography/estimator.hh"
#include "tomography/streaming.hh"
#include "workloads/workload.hh"

using namespace ct;

namespace {

/** --jobs value (resolved); settable before benchmark::Initialize. */
size_t g_jobs = 1;

void
BM_SimulateCrc16(benchmark::State &state)
{
    auto workload = workloads::makeCrc16();
    sim::SimConfig config;
    config.maxGapCycles = 0;
    auto inputs = workload.makeInputs(1);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 2);
    for (auto _ : state) {
        auto result = simulator.run(workload.entry, 100);
        benchmark::DoNotOptimize(result.totalCycles);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 100);
}
BENCHMARK(BM_SimulateCrc16);

void
BM_FundamentalMatrix(benchmark::State &state)
{
    const size_t n = size_t(state.range(0));
    markov::AbsorbingChain chain(n);
    for (size_t i = 0; i + 1 < n; ++i) {
        chain.setTransition(i, i + 1, 0.7);
        if (i > 0)
            chain.setTransition(i, i - 1, 0.2);
    }
    for (auto _ : state) {
        auto matrix = chain.fundamentalMatrix();
        benchmark::DoNotOptimize(matrix.at(0, n - 1));
    }
}
BENCHMARK(BM_FundamentalMatrix)->Arg(8)->Arg(16)->Arg(32);

void
BM_PathEnumerationCrc16(benchmark::State &state)
{
    auto workload = workloads::makeCrc16();
    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    tomography::TimingModel model(
        workload.entryProc(), lowered.procs[workload.entry],
        sim::telosCostModel(), sim::PredictPolicy::NotTaken, 4, no_callees,
        4.0);
    std::vector<double> theta(model.paramCount(), 0.5);
    auto chain = model.chainFor(theta);
    for (auto _ : state) {
        auto paths = markov::enumeratePaths(chain, 0);
        benchmark::DoNotOptimize(paths.paths.size());
    }
}
BENCHMARK(BM_PathEnumerationCrc16);

void
BM_Estimator(benchmark::State &state)
{
    auto kind = tomography::EstimatorKind(state.range(0));
    auto workload = workloads::makeEventDispatch();
    sim::SimConfig config;
    config.cyclesPerTick = 4;
    auto inputs = workload.makeInputs(1);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 2);
    auto run = simulator.run(workload.entry, 1000);
    auto lowered = sim::lowerModule(*workload.module);
    auto estimator = tomography::makeEstimator(kind, {});

    for (auto _ : state) {
        auto estimate = tomography::estimateModule(
            *workload.module, lowered, config.costs, config.policy, 4,
            2.0 * config.costs.timerRead, run.trace, *estimator);
        benchmark::DoNotOptimize(estimate.thetas.size());
    }
    state.SetLabel(tomography::estimatorName(kind));
}
BENCHMARK(BM_Estimator)
    ->Arg(int(tomography::EstimatorKind::Linear))
    ->Arg(int(tomography::EstimatorKind::Em))
    ->Arg(int(tomography::EstimatorKind::Moment));

/**
 * The EM solve alone on a prebuilt trace: dominated by the E-step over
 * the flattened kernel — the hot loop the contiguous-kernel +
 * responsibility-hoisting optimization targets.
 */
void
BM_EmSolveCrc16(benchmark::State &state)
{
    auto workload = workloads::makeCrc16();
    sim::SimConfig config;
    config.cyclesPerTick = 4;
    auto inputs = workload.makeInputs(1);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 2);
    auto run = simulator.run(workload.entry, 2000);
    auto lowered = sim::lowerModule(*workload.module);
    auto estimator =
        tomography::makeEstimator(tomography::EstimatorKind::Em, {});

    for (auto _ : state) {
        auto estimate = tomography::estimateModule(
            *workload.module, lowered, config.costs, config.policy, 4,
            2.0 * config.costs.timerRead, run.trace, *estimator);
        benchmark::DoNotOptimize(estimate.thetas.size());
    }
}
BENCHMARK(BM_EmSolveCrc16);

/**
 * The full pipeline at the configured --jobs count: with jobs > 1 the
 * five placement evaluations run concurrently. Results are identical
 * for every jobs value; only the wall time moves.
 */
void
BM_PipelineRun(benchmark::State &state)
{
    auto workload = workloads::makeEventDispatch();
    api::PipelineConfig config;
    config.measureInvocations = 500;
    config.evalInvocations = 1000;
    config.sim.cyclesPerTick = 4;
    config.seed = 3;
    config.jobs = g_jobs;
    for (auto _ : state) {
        api::TomographyPipeline pipeline(workload, config);
        auto result = pipeline.run();
        benchmark::DoNotOptimize(result.outcomes.size());
    }
    state.SetLabel("jobs=" + std::to_string(g_jobs));
}
BENCHMARK(BM_PipelineRun);

/** One StreamingEstimator::observe per iteration on crc16 (1022
 *  latent paths) at 4 cycles per tick, cycling through a simulated
 *  trace; @p jitter_sigma_ticks widens every path's support window. */
void
streamingObserve(benchmark::State &state, double jitter_sigma_ticks)
{
    auto workload = workloads::makeCrc16();
    sim::SimConfig config;
    config.cyclesPerTick = 4;
    auto inputs = workload.makeInputs(1);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 2);
    auto run = simulator.run(workload.entry, 2000);
    auto durations = run.trace.durations(workload.entry);

    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    tomography::TimingModel model(
        workload.entryProc(), lowered.procs[workload.entry], config.costs,
        config.policy, 4, no_callees, 2.0 * config.costs.timerRead);

    tomography::EstimatorOptions options;
    options.jitterSigmaTicks = jitter_sigma_ticks;
    size_t cursor = 0;
    tomography::StreamingEstimator streaming(model, options);
    for (auto _ : state) {
        streaming.observe(durations[cursor]);
        cursor = (cursor + 1) % durations.size();
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}

void
BM_StreamingObserve(benchmark::State &state)
{
    streamingObserve(state, 0.0);
}
BENCHMARK(BM_StreamingObserve);

/** Wide windows: 3 ticks of timestamp jitter. */
void
BM_StreamingObserveWideWindow(benchmark::State &state)
{
    streamingObserve(state, 3.0);
}
BENCHMARK(BM_StreamingObserveWideWindow);

} // namespace

/**
 * Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects
 * unknown flags, so --jobs is peeled off first, and a JSON report under
 * results/ is requested by default so every run leaves a record.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> passthrough;
    passthrough.reserve(size_t(argc) + 2);
    bool has_out = false;
    long jobs_arg = 0;
    std::string jobs_value;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            jobs_value = argv[i] + 7;
            continue;
        }
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            jobs_value = argv[++i];
            continue;
        }
        if (std::strncmp(argv[i], "--benchmark_out", 15) == 0)
            has_out = true;
        passthrough.push_back(argv[i]);
    }
    if (!jobs_value.empty())
        jobs_arg = std::atol(jobs_value.c_str());
    g_jobs = exec::resolveJobs(jobs_arg > 0 ? size_t(jobs_arg) : 0);

    std::string out_flag = "--benchmark_out=results/bench_micro.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        ::mkdir("results", 0755); // EEXIST is fine
        passthrough.push_back(out_flag.data());
        passthrough.push_back(fmt_flag.data());
    }

    int pass_argc = int(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
