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
#include "tomography/path_workspace.hh"
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
 * The whole-module EM fit of crc16 on a prebuilt trace at 4 cycles per
 * tick: per procedure, two path-set builds (the second re-enumerates
 * 7153 paths on the entry procedure), one exp per decision signature
 * per iteration, and the E- and M-steps.
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

/** crc16's entry model at the pipeline default of 8 cycles per tick. */
struct Crc16Model
{
    workloads::Workload workload = workloads::makeCrc16();
    sim::SimConfig config;
    sim::LoweredModule lowered = sim::lowerModule(*workload.module);
    std::vector<double> noCallees =
        std::vector<double>(workload.module->procedureCount(), 0.0);
    tomography::TimingModel model{workload.entryProc(),
                                  lowered.procs[workload.entry],
                                  config.costs,
                                  config.policy,
                                  config.cyclesPerTick,
                                  noCallees,
                                  2.0 * config.costs.timerRead};
};

/** Path enumeration alone (1022 paths under the agnostic prior). */
void
BM_EnumeratePathsCrc16(benchmark::State &state)
{
    Crc16Model crc;
    std::vector<double> theta(crc.model.paramCount(), 0.5);
    auto chain = crc.model.chainFor(theta);
    for (auto _ : state) {
        auto paths = markov::enumeratePaths(chain, crc.workload.entryProc()
                                                       .entry());
        benchmark::DoNotOptimize(paths.paths.size());
    }
}
BENCHMARK(BM_EnumeratePathsCrc16);

/** One batch workspace build: enumeration, decision signatures,
 *  duration histogram and kernel fill over a 2000-invocation trace. */
void
BM_PathWorkspaceBuildCrc16(benchmark::State &state)
{
    Crc16Model crc;
    auto inputs = crc.workload.makeInputs(1);
    sim::Simulator simulator(*crc.workload.module, crc.lowered, crc.config,
                             *inputs, 2);
    auto durations = simulator.run(crc.workload.entry, 2000)
                         .trace.durations(crc.workload.entry);
    std::vector<double> theta(crc.model.paramCount(), 0.5);
    for (auto _ : state) {
        auto ws = tomography::PathWorkspace::build(crc.model, durations, {},
                                                   theta);
        benchmark::DoNotOptimize(ws.kernel.data());
    }
}
BENCHMARK(BM_PathWorkspaceBuildCrc16);

/**
 * TomographyPipeline::estimate per program on a default-config
 * measurement run (2000 invocations, 8 cycles per tick): the per-
 * program estimate cost a placement run pays.
 */
void
BM_PipelineEstimate(benchmark::State &state)
{
    const auto names = workloads::workloadNames();
    const auto &name = names[size_t(state.range(0))];
    api::PipelineConfig config;
    config.seed = 2;
    api::TomographyPipeline pipeline(workloads::workloadByName(name),
                                     config);
    auto measured = pipeline.measure();
    for (auto _ : state) {
        auto estimate = pipeline.estimate(measured.trace);
        benchmark::DoNotOptimize(estimate.thetas.size());
    }
    state.SetLabel(name);
}
BENCHMARK(BM_PipelineEstimate)->DenseRange(0, 10);

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
