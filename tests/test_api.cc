/**
 * @file
 * Tests for the TomographyPipeline facade.
 */

#include <gtest/gtest.h>

#include "api/pipeline.hh"
#include "api/report.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace ct;
using namespace ct::api;

namespace {

PipelineConfig
fastConfig()
{
    PipelineConfig config;
    config.measureInvocations = 800;
    config.evalInvocations = 1500;
    config.sim.cyclesPerTick = 1;
    config.seed = 3;
    return config;
}

/** Every outcome field and the accuracy vectors, bit for bit. */
void
expectSameResult(const PipelineResult &rs, const PipelineResult &rp,
                 const std::string &name)
{
    ASSERT_EQ(rs.outcomes.size(), rp.outcomes.size()) << name;
    for (size_t i = 0; i < rs.outcomes.size(); ++i) {
        const auto &a = rs.outcomes[i];
        const auto &b = rp.outcomes[i];
        EXPECT_EQ(a.name, b.name) << name;
        EXPECT_EQ(a.totalCycles, b.totalCycles) << name << "/" << a.name;
        EXPECT_EQ(a.mispredicted, b.mispredicted) << name << "/" << a.name;
        EXPECT_EQ(a.branchesExecuted, b.branchesExecuted)
            << name << "/" << a.name;
        EXPECT_EQ(a.dynamicJumps, b.dynamicJumps) << name << "/" << a.name;
        EXPECT_DOUBLE_EQ(a.mispredictRate, b.mispredictRate)
            << name << "/" << a.name;
        EXPECT_DOUBLE_EQ(a.takenRate, b.takenRate) << name << "/" << a.name;
        EXPECT_DOUBLE_EQ(a.energyMicrojoules, b.energyMicrojoules)
            << name << "/" << a.name;
    }
    EXPECT_DOUBLE_EQ(rs.branchMae, rp.branchMae) << name;
    EXPECT_DOUBLE_EQ(rs.branchMaxError, rp.branchMaxError) << name;
    EXPECT_EQ(rs.estimatedTheta, rp.estimatedTheta) << name;
    EXPECT_EQ(rs.trueTheta, rp.trueTheta) << name;
    EXPECT_EQ(rs.measureRun.totalCycles, rp.measureRun.totalCycles)
        << name;
}

} // namespace

TEST(Pipeline, StagesComposeLikeRun)
{
    auto workload = workloads::makeEventDispatch();
    TomographyPipeline pipeline(workload, fastConfig());

    auto measured = pipeline.measure();
    EXPECT_EQ(measured.trace.size(), 800u);

    auto estimate = pipeline.estimate(measured.trace);
    EXPECT_EQ(estimate.thetas.size(), workload.module->procedureCount());

    auto orders = pipeline.optimize(estimate.profile);
    EXPECT_EQ(orders.size(), workload.module->procedureCount());

    auto outcome = pipeline.evaluate("check", orders);
    EXPECT_EQ(outcome.name, "check");
    EXPECT_GT(outcome.totalCycles, 0u);
}

TEST(Pipeline, ProducesAllFiveOutcomes)
{
    TomographyPipeline pipeline(workloads::makeEventDispatch(),
                                fastConfig());
    auto result = pipeline.run();
    ASSERT_EQ(result.outcomes.size(), 5u);
    for (const char *name :
         {"natural", "random", "dfs", "tomography", "perfect"}) {
        EXPECT_NO_FATAL_FAILURE(result.outcome(name));
    }
}

TEST(Pipeline, TomographyTracksOracleAtFineResolution)
{
    for (const char *name : {"event_dispatch", "crc16", "alarm_threshold"}) {
        TomographyPipeline pipeline(workloads::workloadByName(name),
                                    fastConfig());
        auto result = pipeline.run();
        EXPECT_LT(result.branchMae, 0.05) << name;
        // Tomography-guided placement must land within a whisker of the
        // perfect-profile placement.
        EXPECT_NEAR(double(result.outcome("tomography").totalCycles),
                    double(result.outcome("perfect").totalCycles),
                    0.002 * double(result.outcome("perfect").totalCycles))
            << name;
    }
}

TEST(Pipeline, OptimizedBeatsNaturalOnMispredicts)
{
    TomographyPipeline pipeline(workloads::makeAlarmThreshold(),
                                fastConfig());
    auto result = pipeline.run();
    EXPECT_LE(result.outcome("tomography").mispredictRate,
              result.outcome("natural").mispredictRate);
    EXPECT_GE(result.mispredictReduction(), 0.0);
}

TEST(Pipeline, ImprovementPercentagesConsistent)
{
    TomographyPipeline pipeline(workloads::makeSurgeRoute(), fastConfig());
    auto result = pipeline.run();
    double tomo = result.cyclesImprovementPct();
    double perfect = result.perfectImprovementPct();
    // The oracle can't lose to the estimate by more than noise.
    EXPECT_GE(perfect, tomo - 0.5);
    EXPECT_LT(perfect, 100.0);
}

TEST(Pipeline, AccuracyVectorsAligned)
{
    TomographyPipeline pipeline(workloads::makeTrickle(), fastConfig());
    auto result = pipeline.run();
    EXPECT_EQ(result.trueTheta.size(), result.estimatedTheta.size());
    EXPECT_FALSE(result.trueTheta.empty());
    EXPECT_GE(result.branchMaxError, result.branchMae);
}

TEST(Pipeline, DeterministicGivenSeed)
{
    auto config = fastConfig();
    TomographyPipeline a(workloads::makeCrc16(), config);
    TomographyPipeline b(workloads::makeCrc16(), config);
    auto ra = a.run();
    auto rb = b.run();
    EXPECT_EQ(ra.outcome("tomography").totalCycles,
              rb.outcome("tomography").totalCycles);
    EXPECT_DOUBLE_EQ(ra.branchMae, rb.branchMae);
}

TEST(Pipeline, ResultIdenticalForAnyJobsCount)
{
    // The parallel evaluation fan-out must be invisible in the numbers:
    // every field of every outcome bit-identical between the serial
    // path (jobs=1) and a saturated pool (jobs=4).
    for (const char *name : {"crc16", "collection_tree"}) {
        auto serial_config = fastConfig();
        serial_config.jobs = 1;
        auto parallel_config = fastConfig();
        parallel_config.jobs = 4;

        TomographyPipeline serial(workloads::workloadByName(name),
                                  serial_config);
        TomographyPipeline parallel(workloads::workloadByName(name),
                                    parallel_config);
        auto rs = serial.run();
        auto rp = parallel.run();

        expectSameResult(rs, rp, name);
    }
}

TEST(Pipeline, OverlappedStagesMatchSerialWithObsAndBudget)
{
    // The reference evaluations run on the pool while the caller
    // estimates, scores and plans the budget, and all of them write the
    // metrics registry and the span tracer. A saturated pool must still
    // reproduce the serial run exactly (the TSan lane runs this too).
    struct ObsOn
    {
        ObsOn()
        {
            obs::tracer().setEnabled(true);
            obs::setMetricsEnabled(true);
        }
        ~ObsOn()
        {
            obs::tracer().setEnabled(false);
            obs::tracer().clear();
            obs::setMetricsEnabled(false);
            obs::metrics().clear();
        }
    } obs_on;

    auto config = fastConfig();
    config.transport.enabled = true;
    config.causalProfile.enabled = true;
    config.budget.enabled = true;
    config.budget.spec.flashPages = 1;
    auto serial_config = config;
    serial_config.jobs = 1;
    auto parallel_config = config;
    parallel_config.jobs = 4;

    auto rs = TomographyPipeline(workloads::makeCrc16(), serial_config).run();
    auto rp =
        TomographyPipeline(workloads::makeCrc16(), parallel_config).run();
    ASSERT_EQ(rp.outcomes.size(), 6u);
    EXPECT_EQ(rp.outcomes.back().name, "budget");
    expectSameResult(rs, rp, "crc16");
    EXPECT_EQ(rs.budget.plan.assignment.choice,
              rp.budget.plan.assignment.choice);
    EXPECT_EQ(rs.transport.recordsDelivered, rp.transport.recordsDelivered);
    EXPECT_GE(obs::metrics().histogram("pipeline.evaluate_us").count(), 12u);
}

TEST(PipelineDeathTest, UnknownOutcomeIsFatal)
{
    TomographyPipeline pipeline(workloads::makeBlink(), fastConfig());
    auto result = pipeline.run();
    EXPECT_EXIT(result.outcome("bogus"), testing::ExitedWithCode(1),
                "no layout outcome");
}

TEST(Pipeline, AllEstimatorKindsRunEndToEnd)
{
    for (auto kind :
         {tomography::EstimatorKind::Linear, tomography::EstimatorKind::Em,
          tomography::EstimatorKind::Moment}) {
        auto config = fastConfig();
        config.estimator = kind;
        TomographyPipeline pipeline(workloads::makeEventDispatch(), config);
        auto result = pipeline.run();
        EXPECT_EQ(result.outcomes.size(), 5u)
            << tomography::estimatorName(kind);
        // Single-scope dispatch is identifiable for every estimator.
        EXPECT_LT(result.branchMae, 0.1)
            << tomography::estimatorName(kind);
    }
}

TEST(Pipeline, EnergyOutcomesPopulated)
{
    TomographyPipeline pipeline(workloads::makeSenseAndSend(), fastConfig());
    auto result = pipeline.run();
    for (const auto &out : result.outcomes)
        EXPECT_GT(out.energyMicrojoules, 0.0) << out.name;
    // Improvements in cycles and energy point the same way.
    if (result.cyclesImprovementPct() > 0.1)
        EXPECT_GT(result.energyImprovementPct(), 0.0);
}

TEST(Pipeline, MultiProcWorkloadEstimatesCallees)
{
    auto config = fastConfig();
    TomographyPipeline pipeline(workloads::makeCollectionTree(), config);
    auto result = pipeline.run();
    // All six procedures were invoked and the branchy ones estimated.
    auto workload = workloads::makeCollectionTree();
    for (ir::ProcId id = 0; id < workload.module->procedureCount(); ++id)
        EXPECT_GT(result.measureRun.invocations[id], 0u)
            << workload.module->procedure(id).name();
    EXPECT_LT(result.branchMae, 0.06);
    EXPECT_NEAR(double(result.outcome("tomography").totalCycles),
                double(result.outcome("perfect").totalCycles),
                0.003 * double(result.outcome("perfect").totalCycles));
}

TEST(Report, ContainsEverySection)
{
    auto workload = workloads::makeCrc16();
    auto config = fastConfig();
    TomographyPipeline pipeline(workload, config);
    auto result = pipeline.run();
    auto text = renderReport(workload, config, result);

    for (const char *needle :
         {"Code Tomography report: crc16", "timing records",
          "estimated vs true", "estimator diagnostics",
          "placement outcomes", "bottom line", "tomography", "perfect"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(Report, OptionsSuppressSections)
{
    auto workload = workloads::makeBlink();
    auto config = fastConfig();
    TomographyPipeline pipeline(workload, config);
    auto result = pipeline.run();

    ReportOptions options;
    options.includeAccuracy = false;
    options.includeDiagnostics = false;
    auto text = renderReport(workload, config, result, options);
    EXPECT_EQ(text.find("estimated vs true"), std::string::npos);
    EXPECT_EQ(text.find("estimator diagnostics"), std::string::npos);
    EXPECT_NE(text.find("placement outcomes"), std::string::npos);
}
