/**
 * @file
 * Tests for the fleet driver and the pipeline's transport call:
 * jobs-count invariance (the subsystem's determinism contract),
 * delivery under loss, graceful fire-and-forget degradation, and the
 * net.* observability counters.
 */

#include <gtest/gtest.h>

#include "api/pipeline.hh"
#include "net/fleet.hh"
#include "obs/metrics.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::net;

namespace {

FleetConfig
faultyConfig(size_t motes, size_t invocations)
{
    FleetConfig config;
    config.motes = motes;
    config.invocations = invocations;
    config.seed = 5;
    config.channel.dropRate = 0.2;
    config.channel.duplicateRate = 0.05;
    config.channel.reorderWindow = 3;
    config.channel.bitFlipRate = 0.02;
    return config;
}

} // namespace

TEST(NetFleet, JobsCountDoesNotChangeAnyField)
{
    auto workload = workloads::workloadByName("event_dispatch");
    auto config = faultyConfig(6, 150);

    config.jobs = 1;
    auto serial = runFleet(workload, config);
    config.jobs = 4;
    auto parallel = runFleet(workload, config);

    ASSERT_EQ(serial.motes.size(), parallel.motes.size());
    for (size_t i = 0; i < serial.motes.size(); ++i) {
        const auto &a = serial.motes[i];
        const auto &b = parallel.motes[i];
        EXPECT_EQ(a.mote, b.mote);
        EXPECT_EQ(a.recordsSent, b.recordsSent);
        EXPECT_EQ(a.recordsDelivered, b.recordsDelivered);
        EXPECT_EQ(a.wireBytes, b.wireBytes);
        EXPECT_EQ(a.packets, b.packets);
        EXPECT_EQ(a.complete, b.complete);
        EXPECT_EQ(a.rounds, b.rounds);
        EXPECT_EQ(a.channel.dropped, b.channel.dropped);
        EXPECT_EQ(a.channel.corrupted, b.channel.corrupted);
        EXPECT_EQ(a.uplink.transmissions, b.uplink.transmissions);
        EXPECT_EQ(a.uplink.retransmissions, b.uplink.retransmissions);
        EXPECT_EQ(a.estObservations, b.estObservations);
        ASSERT_EQ(a.sinkTheta.size(), b.sinkTheta.size());
        for (size_t t = 0; t < a.sinkTheta.size(); ++t)
            EXPECT_DOUBLE_EQ(a.sinkTheta[t], b.sinkTheta[t]); // bitwise
        EXPECT_DOUBLE_EQ(a.maxThetaError, b.maxThetaError);
    }
}

TEST(NetFleet, RetransmitsCompleteEveryMoteAtTwentyPercentLoss)
{
    auto workload = workloads::workloadByName("event_dispatch");
    auto config = faultyConfig(4, 300);
    auto fleet = runFleet(workload, config);

    EXPECT_EQ(fleet.completeMotes(), 4u);
    EXPECT_EQ(fleet.totalRecordsDelivered(), fleet.totalRecordsSent());
    // Complete delivery means the sink saw exactly what the mote
    // measured; the streaming estimate lands near that mote's truth.
    EXPECT_LT(fleet.maxThetaError(), 0.15);
    // The faults actually happened.
    uint64_t dropped = 0;
    for (const auto &mote : fleet.motes)
        dropped += mote.channel.dropped;
    EXPECT_GT(dropped, 0u);
}

TEST(NetFleet, FireAndForgetDegradesGracefully)
{
    auto workload = workloads::workloadByName("event_dispatch");
    auto config = faultyConfig(4, 300);
    config.uplink.retransmit = false;

    auto fleet = runFleet(workload, config);
    double fraction = double(fleet.totalRecordsDelivered()) /
                      double(fleet.totalRecordsSent());
    // ~20% drop + 2% corruption, partly offset by duplicates: the
    // delivered fraction tracks the survival rate instead of
    // collapsing — "fewer samples", not "no samples".
    EXPECT_GT(fraction, 0.6);
    EXPECT_LT(fraction, 1.0);
    for (const auto &mote : fleet.motes) {
        EXPECT_EQ(mote.uplink.retransmissions, 0u);
        EXPECT_GT(mote.recordsDelivered, 0u);
    }
}

TEST(NetFleet, ExportsNetCountersWhenMetricsEnabled)
{
    auto workload = workloads::workloadByName("blink");
    FleetConfig config;
    config.motes = 2;
    config.invocations = 50;
    config.channel.dropRate = 0.1;

    obs::metrics().clear();
    obs::setMetricsEnabled(true);
    auto fleet = runFleet(workload, config);
    obs::setMetricsEnabled(false);

    auto &m = obs::metrics();
    uint64_t sent = 0;
    for (const auto &mote : fleet.motes)
        sent += mote.uplink.transmissions;
    EXPECT_EQ(m.counter("net.packets_sent").value(), sent);
    EXPECT_EQ(m.counter("net.records_delivered").value(),
              fleet.totalRecordsDelivered());
    EXPECT_EQ(m.counter("net.motes_complete").value(),
              fleet.completeMotes());
    obs::metrics().clear();

    // With the flag off, nothing records.
    runFleet(workload, config);
    EXPECT_EQ(m.counter("net.packets_sent").value(), 0u);
}

TEST(NetFleet, PipelineTransportStageFeedsEstimator)
{
    api::PipelineConfig config;
    config.measureInvocations = 300;
    config.evalInvocations = 300;
    config.jobs = 1;
    api::TransportConfig transport;
    transport.channel.dropRate = 0.15;
    transport.channel.reorderWindow = 2;
    transport.channel.bitFlipRate = 0.02;

    api::TomographyPipeline pipeline(
        workloads::workloadByName("event_dispatch"), config);
    auto result = pipeline.run();
    api::TransportOutcome outcome;
    auto delivered =
        pipeline.transport(result.measureRun.trace, transport, outcome);

    EXPECT_TRUE(outcome.complete); // retransmits on by default
    EXPECT_GT(outcome.packets, 0u);
    EXPECT_EQ(outcome.recordsDelivered, outcome.recordsSent);
    EXPECT_GT(outcome.channel.dropped, 0u);
    // Complete transport delivers the identical trace, so the estimate
    // from what the sink received is the direct one, bit for bit.
    auto estimate = pipeline.estimate(delivered);
    EXPECT_EQ(estimate.thetas, result.estimate.thetas);
    EXPECT_LT(result.branchMaxError, 0.1);
    EXPECT_EQ(result.outcomes.size(), 5u);
}
