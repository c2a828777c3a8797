/**
 * @file
 * Tests for the streaming (online EM) estimator: convergence toward the
 * batch estimate, order robustness, outlier counting, memory profile,
 * and the support-windowed E-step's bitwise equality with the full
 * E-step over every path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "ir/builder.hh"
#include "obs/metrics.hh"
#include "sim/machine.hh"
#include "tomography/streaming.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::ir;
using namespace ct::tomography;

namespace {

struct StreamFixture
{
    workloads::Workload workload;
    sim::RunResult run;
    sim::LoweredModule lowered;
    std::vector<double> noCallees;
    std::unique_ptr<TimingModel> model;
    std::vector<double> truth;

    explicit StreamFixture(const std::string &name, size_t samples = 4000,
                           uint64_t ticks = 1)
        : workload(workloads::workloadByName(name))
    {
        sim::SimConfig config;
        config.cyclesPerTick = ticks;
        auto inputs = workload.makeInputs(77);
        sim::Simulator simulator(*workload.module,
                                 sim::lowerModule(*workload.module), config,
                                 *inputs, 78);
        run = simulator.run(workload.entry, samples);
        lowered = sim::lowerModule(*workload.module);
        noCallees.assign(workload.module->procedureCount(), 0.0);
        model = std::make_unique<TimingModel>(
            workload.entryProc(), lowered.procs[workload.entry],
            config.costs, config.policy, ticks, noCallees,
            2.0 * config.costs.timerRead);
        truth = run.profile[workload.entry].branchProbabilities(
            workload.entryProc());
    }
};

} // namespace

TEST(Streaming, ConvergesToTruthOnDispatch)
{
    StreamFixture fx("event_dispatch");
    StreamingEstimator streaming(*fx.model);
    streaming.observeAll(fx.run.trace.durations(fx.workload.entry));

    ASSERT_EQ(streaming.theta().size(), fx.truth.size());
    for (size_t b = 0; b < fx.truth.size(); ++b)
        EXPECT_NEAR(streaming.theta()[b], fx.truth[b], 0.03) << "b" << b;
    EXPECT_EQ(streaming.observations(), 4000u);
    EXPECT_EQ(streaming.outliers(), 0u);
}

TEST(Streaming, HandlesLoopsViaPathSet)
{
    StreamFixture fx("crc16");
    StreamingEstimator streaming(*fx.model);
    streaming.observeAll(fx.run.trace.durations(fx.workload.entry));
    for (size_t b = 0; b < fx.truth.size(); ++b)
        EXPECT_NEAR(streaming.theta()[b], fx.truth[b], 0.05) << "b" << b;
}

TEST(Streaming, EarlyEstimateIsRoughLateIsTight)
{
    StreamFixture fx("alarm_threshold");
    StreamingEstimator streaming(*fx.model);
    auto durations = fx.run.trace.durations(fx.workload.entry);

    for (size_t i = 0; i < 25; ++i)
        streaming.observe(durations[i]);
    double early_err = 0.0;
    for (size_t b = 0; b < fx.truth.size(); ++b)
        early_err = std::max(early_err,
                             std::abs(streaming.theta()[b] - fx.truth[b]));

    for (size_t i = 25; i < durations.size(); ++i)
        streaming.observe(durations[i]);
    double late_err = 0.0;
    for (size_t b = 0; b < fx.truth.size(); ++b)
        late_err = std::max(late_err,
                            std::abs(streaming.theta()[b] - fx.truth[b]));

    EXPECT_LT(late_err, 0.05);
    EXPECT_LE(late_err, early_err + 0.02);
}

TEST(Streaming, ShuffledOrderSameBallpark)
{
    StreamFixture fx("event_dispatch", 3000);
    auto durations = fx.run.trace.durations(fx.workload.entry);

    StreamingEstimator forward(*fx.model);
    forward.observeAll(durations);

    std::reverse(durations.begin(), durations.end());
    StreamingEstimator backward(*fx.model);
    backward.observeAll(durations);

    // Stochastic-approximation EM is order-dependent at finite n (the
    // decaying step size weights early observations differently); both
    // orders must still land in the same ballpark around the truth.
    for (size_t b = 0; b < fx.truth.size(); ++b) {
        EXPECT_NEAR(forward.theta()[b], backward.theta()[b], 0.12);
        EXPECT_NEAR(forward.theta()[b], fx.truth[b], 0.12);
        EXPECT_NEAR(backward.theta()[b], fx.truth[b], 0.12);
    }
}

TEST(Streaming, OutliersCountedNotAbsorbed)
{
    StreamFixture fx("event_dispatch", 500);
    StreamingEstimator streaming(*fx.model);
    auto durations = fx.run.trace.durations(fx.workload.entry);
    streaming.observeAll(durations);
    auto before = streaming.theta();

    // A duration far outside any path's support must be rejected.
    streaming.observe(1'000'000);
    EXPECT_EQ(streaming.outliers(), 1u);
    for (size_t b = 0; b < before.size(); ++b)
        EXPECT_DOUBLE_EQ(streaming.theta()[b], before[b]);
}

TEST(Streaming, BranchFreeProcedureIsNoop)
{
    Module module("m");
    ProcedureBuilder b(module, "straight");
    b.setBlock(0);
    b.nop();
    b.ret();
    ProcId id = b.finish();

    auto lowered = sim::lowerModule(module);
    std::vector<double> no_callees(1, 0.0);
    TimingModel model(module.procedure(id), lowered.procs[id],
                      sim::telosCostModel(), sim::PredictPolicy::NotTaken, 1,
                      no_callees, 0.0);
    StreamingEstimator streaming(model);
    streaming.observe(5);
    EXPECT_TRUE(streaming.theta().empty());
    EXPECT_EQ(streaming.observations(), 1u);
}

TEST(Streaming, MatchesBatchEmClosely)
{
    StreamFixture fx("surge_route");
    // Batch EM over the same data.
    auto estimator = makeEstimator(EstimatorKind::Em, {});
    auto batch = estimator->estimate(
        *fx.model, fx.run.trace.durations(fx.workload.entry));

    StreamingEstimator streaming(*fx.model);
    streaming.observeAll(fx.run.trace.durations(fx.workload.entry));

    for (size_t b = 0; b < batch.theta.size(); ++b)
        EXPECT_NEAR(streaming.theta()[b], batch.theta[b], 0.05) << "b" << b;
}

TEST(Streaming, SameStreamIsBitwiseDeterministic)
{
    // The collector's dedup/in-order guarantees only buy exact
    // sink == mote estimates because the estimator itself is a pure
    // function of the observation sequence. Pin that down.
    StreamFixture fx("event_dispatch", 1000);
    auto durations = fx.run.trace.durations(fx.workload.entry);

    StreamingEstimator a(*fx.model), b(*fx.model);
    a.observeAll(durations);
    b.observeAll(durations);
    ASSERT_EQ(a.theta().size(), b.theta().size());
    for (size_t i = 0; i < a.theta().size(); ++i)
        EXPECT_DOUBLE_EQ(a.theta()[i], b.theta()[i]);
}

TEST(Streaming, DuplicatedObservationsStayBoundedAndCounted)
{
    // Why the collector dedupes by sequence number: feeding each
    // observation twice is not a no-op for stochastic-approximation EM
    // (duplicates are extra, correlated evidence). The estimate must
    // nevertheless stay a valid, ballpark-correct theta, and
    // observations() must account for every fold exactly — so any
    // dedup failure upstream is visible, not silent.
    StreamFixture fx("event_dispatch", 2000);
    auto durations = fx.run.trace.durations(fx.workload.entry);

    StreamingEstimator doubled(*fx.model);
    for (int64_t d : durations) {
        doubled.observe(d);
        doubled.observe(d);
    }
    EXPECT_EQ(doubled.observations(), 2 * durations.size());
    for (size_t b = 0; b < fx.truth.size(); ++b) {
        EXPECT_GT(doubled.theta()[b], 0.0);
        EXPECT_LT(doubled.theta()[b], 1.0);
        EXPECT_NEAR(doubled.theta()[b], fx.truth[b], 0.1) << "b" << b;
    }
}

TEST(Streaming, RngShuffledOrderLandsNearTruth)
{
    // Why the collector releases records in sequence order: the
    // estimate is order-dependent at finite n. Any reordering still
    // lands near the truth (the property the skip-ahead path leans
    // on), but only identical order reproduces identical estimates —
    // see SameStreamIsBitwiseDeterministic.
    StreamFixture fx("event_dispatch", 3000);
    auto durations = fx.run.trace.durations(fx.workload.entry);

    Rng rng(99);
    for (size_t i = durations.size(); i > 1; --i)
        std::swap(durations[i - 1], durations[rng.below(i)]);

    StreamingEstimator shuffled(*fx.model);
    shuffled.observeAll(durations);
    for (size_t b = 0; b < fx.truth.size(); ++b)
        EXPECT_NEAR(shuffled.theta()[b], fx.truth[b], 0.12) << "b" << b;
}

TEST(Streaming, AdversarialDurationsKeepThetaFiniteAndInterior)
{
    // Radio corruption can slip records with arbitrary durations past
    // everything except the CRC (and the decoder's magnitude caps).
    // Whatever arrives, theta must remain finite and strictly inside
    // (0, 1) — degenerate estimates would poison the placement stage.
    StreamFixture fx("event_dispatch", 200);
    StreamingEstimator streaming(*fx.model);

    Rng rng(123);
    for (int i = 0; i < 2'000; ++i) {
        int64_t duration;
        switch (rng.below(4)) {
          case 0:
            duration = int64_t(rng.below(1'000'000));
            break;
          case 1:
            duration = -int64_t(rng.below(10'000));
            break;
          case 2:
            duration = int64_t(uint64_t(1) << 40);
            break;
          default:
            duration = int64_t(rng.below(60));
            break;
        }
        streaming.observe(duration);
        for (double t : streaming.theta()) {
            ASSERT_TRUE(std::isfinite(t));
            ASSERT_GE(t, 1e-6);
            ASSERT_LE(t, 1.0 - 1e-6);
        }
    }
    EXPECT_GT(streaming.outliers(), 0u);
}

TEST(StreamingDeathTest, BadStepExponentPanics)
{
    StreamFixture fx("blink", 10);
    EXPECT_DEATH(StreamingEstimator(*fx.model, {}, 0.3), "exponent");
    EXPECT_DEATH(StreamingEstimator(*fx.model, {}, 1.5), "exponent");
}

namespace {

/**
 * Streaming EM with the E-step over *every* path and no support
 * window: the bitwise reference the windowed estimator must
 * reproduce.
 */
struct DenseReference
{
    const PathTable &table;
    NoiseKernel noise;
    double stepExponent;
    double forgetting;
    double smoothing;
    StreamingState state;

    DenseReference(const PathTable &path_table, const TimingModel &model,
                   const EstimatorOptions &options, double step_exponent,
                   double forgetting_step)
        : table(path_table),
          noise(model.cyclesPerTick(), options.jitterSigmaTicks),
          stepExponent(step_exponent), forgetting(forgetting_step),
          smoothing(options.smoothing)
    {
        state.theta.assign(model.paramCount(), 0.5);
        state.statTaken.assign(model.paramCount(), 0.0);
        state.statFall.assign(model.paramCount(), 0.0);
    }

    void observe(int64_t duration_ticks)
    {
        auto &theta = state.theta;
        if (theta.empty()) {
            ++state.count;
            return;
        }
        const LatentPaths &latent = table.paths;
        const size_t paths = latent.pathCount();
        std::vector<double> resp(paths);
        double denom = 0.0;
        for (size_t p = 0; p < paths; ++p) {
            // log P(path | theta), parameter by parameter, each log
            // taken afresh under the clamp.
            const uint32_t *taken = latent.takenCounts(latent.signature[p]);
            const uint32_t *fall = latent.fallCounts(latent.signature[p]);
            double lp = 0.0;
            for (size_t b = 0; b < theta.size(); ++b) {
                double q = std::clamp(theta[b], 1e-12, 1.0 - 1e-12);
                if (taken[b] > 0)
                    lp += double(taken[b]) * std::log(q);
                if (fall[b] > 0)
                    lp += double(fall[b]) * std::log1p(-q);
            }
            resp[p] = std::exp(lp) *
                      noise.prob(duration_ticks, latent.rewards[p],
                                 latent.extraVarTicks2[p]);
            denom += resp[p];
        }
        ++state.count;
        if (denom <= 0.0) {
            ++state.outliers;
            return;
        }
        double rho = forgetting > 0.0
                         ? forgetting
                         : std::pow(double(state.count), -stepExponent);
        for (size_t b = 0; b < theta.size(); ++b) {
            double taken = 0.0;
            double fall = 0.0;
            for (size_t p = 0; p < paths; ++p) {
                const uint32_t sig = latent.signature[p];
                double w = resp[p] / denom;
                taken += w * latent.takenCounts(sig)[b];
                fall += w * latent.fallCounts(sig)[b];
            }
            state.statTaken[b] =
                (1.0 - rho) * state.statTaken[b] + rho * taken;
            state.statFall[b] = (1.0 - rho) * state.statFall[b] + rho * fall;
            double total = state.statTaken[b] + state.statFall[b];
            double s = smoothing / double(state.count);
            theta[b] = (state.statTaken[b] + s) / (total + 2.0 * s);
            theta[b] = std::clamp(theta[b], 1e-6, 1.0 - 1e-6);
        }
    }
};

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i]))
            return false;
    return true;
}

bool
sameBits(const StreamingState &a, const StreamingState &b)
{
    return a.count == b.count && a.outliers == b.outliers &&
           sameBits(a.theta, b.theta) &&
           sameBits(a.statTaken, b.statTaken) &&
           sameBits(a.statFall, b.statFall);
}

/** Durations no trace produces: int64_t extremes, negatives, zero, and
 *  values just and far past either end of @p window's support range. */
std::vector<int64_t>
adversarialDurations(const PathWindow &window)
{
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    const int64_t lowest = window.lo.front();
    const int64_t highest = *std::max_element(window.hi.begin(),
                                              window.hi.end());
    return {kMin,        kMin + 1,          kMax,
            kMax - 1,    -1,                -1'000'000,
            0,           lowest - 1,        lowest,
            highest,     highest + 1,       highest + window.maxWidth + 7,
            int64_t(1) << 40, -(int64_t(1) << 40)};
}

/** Every procedure × tick × jitter × schedule of one program. */
class StreamingWindowOracle : public testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(StreamingWindowOracle, WindowedEStepMatchesDenseBitwise)
{
    auto workload = workloads::workloadByName(GetParam());
    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);

    for (uint64_t ticks : {uint64_t(1), uint64_t(4)}) {
        sim::SimConfig config;
        config.cyclesPerTick = ticks;
        auto inputs = workload.makeInputs(5);
        sim::Simulator simulator(*workload.module, lowered, config, *inputs,
                                 6);
        auto run = simulator.run(workload.entry, 60);

        for (ProcId proc = 0; proc < workload.module->procedureCount();
             ++proc) {
            auto durations = run.trace.durations(proc);
            if (durations.empty())
                continue;
            TimingModel model(workload.module->procedure(proc),
                              lowered.procs[proc], config.costs,
                              config.policy, ticks, no_callees,
                              2.0 * config.costs.timerRead);

            for (double jitter : {0.0, 0.5, 3.0}) {
                EstimatorOptions options;
                options.jitterSigmaTicks = jitter;
                auto table = PathTable::build(model, options);

                // Measured durations, each followed by a neighbour up
                // to one window width away (both window edges and the
                // second quantization tick), with the adversarial set
                // at the start and again mid-stream.
                auto adversarial = adversarialDurations(table->window);
                std::vector<int64_t> stream = adversarial;
                Rng rng(proc * 31 + ticks);
                const int64_t reach = table->window.maxWidth + 2;
                for (size_t i = 0; i < durations.size(); ++i) {
                    stream.push_back(durations[i]);
                    stream.push_back(durations[i] - reach +
                                     int64_t(rng.below(2 * reach + 1)));
                    if (i == durations.size() / 2)
                        stream.insert(stream.end(), adversarial.begin(),
                                      adversarial.end());
                }

                for (double forgetting : {0.0, 0.05}) {
                    StreamingEstimator windowed(model, table, options, 0.7,
                                                forgetting);
                    DenseReference dense(*table, model, options, 0.7,
                                         forgetting);
                    for (size_t i = 0; i < stream.size(); ++i) {
                        windowed.observe(stream[i]);
                        dense.observe(stream[i]);
                        ASSERT_TRUE(sameBits(windowed.snapshot(), dense.state))
                            << "proc " << proc << " ticks " << ticks
                            << " jitter " << jitter << " forgetting "
                            << forgetting << " observation " << i
                            << " duration " << stream[i];
                    }
                    if (model.paramCount() > 0)
                        EXPECT_GT(windowed.outliers(), 0u);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, StreamingWindowOracle,
    testing::ValuesIn(workloads::workloadNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(StreamingWindow, CandidatesAreExactlyTheContainingWindowsInPathOrder)
{
    for (double jitter : {0.0, 3.0}) {
        StreamFixture fx("crc16", 10, 4);
        EstimatorOptions options;
        options.jitterSigmaTicks = jitter;
        auto table = PathTable::build(*fx.model, options);
        const PathWindow &window = table->window;
        NoiseKernel noise(4, jitter);

        std::vector<int64_t> lo(table->pathCount()), hi(table->pathCount());
        for (size_t p = 0; p < table->pathCount(); ++p)
            std::tie(lo[p], hi[p]) = noise.support(
                table->paths.rewards[p], table->paths.extraVarTicks2[p]);

        auto probes = adversarialDurations(window);
        for (int64_t d = window.lo.front() - 3;
             d <= *std::max_element(hi.begin(), hi.end()) + 3; ++d)
            probes.push_back(d);

        std::vector<uint32_t> got;
        for (int64_t d : probes) {
            window.candidates(d, got);
            std::vector<uint32_t> want;
            for (size_t p = 0; p < lo.size(); ++p) {
                if (lo[p] <= d && d <= hi[p])
                    want.push_back(uint32_t(p));
                else
                    ASSERT_EQ(noise.prob(d, table->paths.rewards[p],
                                         table->paths.extraVarTicks2[p]),
                              0.0)
                        << "path " << p << " has mass outside its window";
            }
            ASSERT_EQ(got, want) << "duration " << d;
        }
    }
}

TEST(StreamingWindow, StatsMatchBruteForce)
{
    StreamFixture fx("crc16", 10);
    auto table = PathTable::build(*fx.model, {});
    const PathWindow &window = table->window;
    WindowStats stats = window.stats();

    const int64_t first = window.lo.front();
    const int64_t last = *std::max_element(window.hi.begin(),
                                           window.hi.end());
    size_t max_candidates = 0;
    double total = 0.0;
    std::vector<uint32_t> candidates;
    for (int64_t d = first; d <= last; ++d) {
        window.candidates(d, candidates);
        max_candidates = std::max(max_candidates, candidates.size());
        total += double(candidates.size());
    }
    EXPECT_EQ(stats.paths, table->pathCount());
    EXPECT_EQ(stats.maxCandidates, max_candidates);
    EXPECT_DOUBLE_EQ(stats.meanCandidates,
                     total / double(last - first + 1));
    EXPECT_LT(stats.meanCandidates, double(stats.paths));
}

TEST(StreamingWindow, StatsRecordedOncePerTableWhenMetricsOn)
{
    StreamFixture fx("crc16", 10);
    obs::metrics().clear();
    obs::setMetricsEnabled(true);
    auto table = PathTable::build(*fx.model, {});
    StreamingEstimator a(*fx.model, table), b(*fx.model, table);
    a.observeAll(fx.run.trace.durations(fx.workload.entry));
    b.observeAll(fx.run.trace.durations(fx.workload.entry));
    obs::setMetricsEnabled(false);

    WindowStats stats = table->window.stats();
    const auto &series = obs::metrics().allSeries();
    ASSERT_EQ(series.at("tomography.streaming.window_paths").values(),
              std::vector<double>{double(stats.paths)});
    ASSERT_EQ(
        series.at("tomography.streaming.window_max_candidates").values(),
        std::vector<double>{double(stats.maxCandidates)});
    ASSERT_EQ(
        series.at("tomography.streaming.window_mean_candidates").values(),
        std::vector<double>{stats.meanCandidates});
    obs::metrics().clear();
}

TEST(StreamingDeathTest, TableForAnotherJitterPanics)
{
    StreamFixture fx("blink", 10);
    auto table = PathTable::build(*fx.model, {});
    EstimatorOptions options;
    options.jitterSigmaTicks = 1.0;
    EXPECT_DEATH(StreamingEstimator(*fx.model, table, options), "jitter");
}
