/**
 * @file
 * Golden-result regression tests (check/golden.hh): deterministic
 * summaries of the workload suite, of two full pipeline runs and of
 * every call composed around a pipeline run are compared byte-for-byte
 * against snapshots in tests/golden/. Any
 * behaviour drift — an estimator tweak, a cost-model change, a CSV
 * formatting change — fails here with the first differing line before
 * a human would notice a number moved. Intentional changes are
 * re-snapshotted with CT_GOLDEN_UPDATE=1 (see docs/TESTING.md).
 */

#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "api/pipeline.hh"
#include "check/golden.hh"
#include "ir/analysis.hh"
#include "pgo/pgo.hh"
#include "workloads/workload.hh"

namespace {

using namespace ct;

#ifndef CT_GOLDEN_DIR
#error "ct_prop_tests must be built with CT_GOLDEN_DIR"
#endif

std::string
goldenPath(const std::string &file)
{
    return std::string(CT_GOLDEN_DIR) + "/" + file;
}

std::string
fmtRow(const char *format, ...)
{
    char buf[512];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

TEST(PropGolden, UpdateModeIsOffDuringNormalRuns)
{
    // Running the suite with CT_GOLDEN_UPDATE set would silently bless
    // whatever the code currently produces; fail loudly instead so CI
    // (and absent-minded local runs) can never do that.
    EXPECT_FALSE(check::goldenUpdateMode())
        << "unset CT_GOLDEN_UPDATE before running the test suite; update "
           "mode is only for regenerating snapshots";
}

TEST(PropGolden, WorkloadStructureMatchesSnapshot)
{
    // Static structure of every workload in canonical order: integers
    // only, so the snapshot is platform-independent by construction.
    std::string csv =
        "workload,procedures,entry_blocks,entry_edges,entry_branches,"
        "entry_insts,entry_loops,entry_acyclic_paths\n";
    for (const auto &workload : workloads::allWorkloads()) {
        const auto &proc = workload.entryProc();
        csv += fmtRow("%s,%zu,%zu,%zu,%zu,%zu,%zu,%llu\n",
                      workload.name.c_str(),
                      workload.module->procedureCount(), proc.blockCount(),
                      proc.edges().size(), proc.branchBlocks().size(),
                      proc.instCount(), ir::findNaturalLoops(proc).size(),
                      (unsigned long long)ir::countAcyclicPaths(proc));
    }
    auto result =
        check::compareGolden(goldenPath("workload_structure.csv"), csv);
    EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropGolden, PipelineSummaryMatchesSnapshot)
{
    // Two full measure -> estimate -> optimize -> evaluate runs with
    // pinned seeds; cycle counts are integers, error metrics printed
    // with fixed precision.
    std::string csv = "workload,layout,total_cycles,mispredicted,"
                      "branches_executed,dynamic_jumps\n";
    std::string accuracy = "workload,branch_mae,branch_max_error\n";
    for (const char *name : {"blink", "crc16"}) {
        api::PipelineConfig config;
        config.seed = 7;
        config.measureInvocations = 300;
        config.evalInvocations = 400;
        config.jobs = 1;
        api::TomographyPipeline pipeline(workloads::workloadByName(name),
                                         config);
        auto result = pipeline.run();
        for (const auto &outcome : result.outcomes)
            csv += fmtRow("%s,%s,%llu,%llu,%llu,%llu\n", name,
                          outcome.name.c_str(),
                          (unsigned long long)outcome.totalCycles,
                          (unsigned long long)outcome.mispredicted,
                          (unsigned long long)outcome.branchesExecuted,
                          (unsigned long long)outcome.dynamicJumps);
        accuracy += fmtRow("%s,%.6f,%.6f\n", name, result.branchMae,
                           result.branchMaxError);
    }
    auto summary =
        check::compareGolden(goldenPath("pipeline_summary.csv"), csv);
    EXPECT_TRUE(summary.ok) << summary.message;
    auto acc =
        check::compareGolden(goldenPath("pipeline_accuracy.csv"), accuracy);
    EXPECT_TRUE(acc.ok) << acc.message;
}

/** FNV-1a over a byte string (the PGO decision log's fingerprint). */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t hash = 14695981039346656037ULL;
    for (unsigned char byte : text) {
        hash ^= byte;
        hash *= 1099511628211ULL;
    }
    return hash;
}

TEST(PropGolden, PipelineStagesMatchSnapshot)
{
    // The four pipeline stages, then every call composed around them:
    // transport over a lossy link into a durable store, the causal
    // ranking, a binding budget plan evaluated as "budget", two relay
    // hops ending in a snapshot-derived estimate, and continuous PGO,
    // on three programs and two seeds. Doubles are printed as hex
    // floats, so any bit of drift in any call's output fails here.
    std::string text;
    for (const char *name : {"crc16", "collection_tree", "event_dispatch"}) {
        for (uint64_t seed : {3u, 8u}) {
            auto workload = workloads::workloadByName(name);
            api::PipelineConfig config;
            config.seed = seed;
            config.measureInvocations = 400;
            config.evalInvocations = 500;
            config.jobs = 1;
            api::TomographyPipeline pipeline(workload, config);
            auto r = pipeline.run();

            api::TransportConfig transport;
            transport.channel.dropRate = 0.1;
            transport.channel.reorderWindow = 2;
            transport.channel.bitFlipRate = 0.01;
            transport.collector.storeDir = testing::TempDir() +
                                           "ct_golden_stages_" + name +
                                           "_" + std::to_string(seed);
            std::filesystem::remove_all(transport.collector.storeDir);
            api::TransportOutcome t;
            auto delivered =
                pipeline.transport(r.measureRun.trace, transport, t);
            std::filesystem::remove_all(transport.collector.storeDir);

            api::CausalConfig causal_cfg;
            causal_cfg.perBlock = true;
            auto causal = pipeline.causalProfile(r.measureRun, r.estimate,
                                                 causal_cfg);

            api::BudgetConfig budget_cfg;
            budget_cfg.spec.pageBytes = 1;
            budget_cfg.spec.flashPages = 40;
            auto budget = pipeline.planBudget(r.estimate, budget_cfg);
            r.outcomes.push_back(pipeline.evaluate("budget", budget.orders));

            // The sink condenses what it received into a bank and ships
            // its snapshot sink -> region -> root.
            const auto &module = *workload.module;
            auto lowered = sim::lowerModule(module);
            net::EstimatorBank bank(
                module, lowered, config.sim.costs, config.sim.policy,
                config.sim.cyclesPerTick, config.estimatorOptions,
                2.0 * double(config.sim.costs.timerRead));
            for (const auto &record : delivered.records())
                bank.observe(transport.moteId, record);
            auto snapshot = relay::snapshotFromBank(bank, seed, 0);
            size_t slots = snapshot.slots.size();
            uint64_t source_digest = snapshot.digest();
            relay::ShipConfig ship;
            ship.channel.dropRate = 0.2;
            std::vector<relay::ShipOutcome> shipments(2);
            for (size_t hop = 0; hop < shipments.size(); ++hop) {
                snapshot.sourceNode = uint16_t(hop);
                auto received = relay::shipAndReceive(
                    snapshot, ship,
                    (seed ^ 0x72656c79) + 0x9e3779b97f4a7c15ULL * hop,
                    shipments[hop]);
                ASSERT_TRUE(received.has_value());
                snapshot = std::move(*received);
            }
            auto adopted = pipeline.adoptFromSnapshot(snapshot);

            pgo::PgoConfig pgo_cfg;
            pgo_cfg.windowInvocations = 100;
            pgo_cfg.regimes = {pgo::Regime{.windows = 2},
                               pgo::Regime{.windows = 2,
                                           .senseScale = 1.5,
                                           .senseOffset = 40.0}};
            pgo_cfg.estimator = config.estimator;
            pgo_cfg.estimatorOptions = config.estimatorOptions;
            pgo_cfg.sim = config.sim;
            pgo_cfg.seed = seed;
            pgo_cfg.jobs = config.jobs;
            pgo_cfg.measureInvocations = config.measureInvocations;
            auto loop = pgo::ContinuousPgo(workload, pgo_cfg).run();

            text += fmtRow("== %s seed %llu\n", name,
                           (unsigned long long)seed);
            text += fmtRow("accuracy mae %a max %a\n", r.branchMae,
                           r.branchMaxError);
            for (const auto &o : r.outcomes)
                text += fmtRow("layout %s mispredict %a taken %a cycles "
                               "%llu mispredicted %llu branches %llu "
                               "jumps %llu energy %a\n",
                               o.name.c_str(), o.mispredictRate,
                               o.takenRate,
                               (unsigned long long)o.totalCycles,
                               (unsigned long long)o.mispredicted,
                               (unsigned long long)o.branchesExecuted,
                               (unsigned long long)o.dynamicJumps,
                               o.energyMicrojoules);
            text += fmtRow("transport complete %d packets %zu rounds %llu "
                           "sent %zu delivered %zu persisted %llu "
                           "recovered %llu\n",
                           int(t.complete), t.packets,
                           (unsigned long long)t.rounds, t.recordsSent,
                           t.recordsDelivered,
                           (unsigned long long)t.recordsPersisted,
                           (unsigned long long)t.recordsRecovered);
            text += fmtRow("transport channel dropped %llu duplicated %llu "
                           "corrupted %llu uplink transmissions %llu "
                           "retransmissions %llu collector rejected %llu "
                           "duplicates %llu\n",
                           (unsigned long long)t.channel.dropped,
                           (unsigned long long)t.channel.duplicated,
                           (unsigned long long)t.channel.corrupted,
                           (unsigned long long)t.uplink.transmissions,
                           (unsigned long long)t.uplink.retransmissions,
                           (unsigned long long)t.collector.rejected,
                           (unsigned long long)t.collector.duplicates);
            for (const auto &p : causal.procs)
                text += fmtRow("causal %s rank %zu flat %zu delta %a "
                               "energy %a\n",
                               p.name.c_str(), p.causalRank, p.flatRank,
                               p.deltaCyclesPerEvent,
                               p.deltaEnergyMicrojoulesPerEvent);
            text += fmtRow("causal blocks %zu disagreements %zu\n",
                           causal.blocks.size(), causal.rankDisagreements);
            for (const auto &c : budget.choices)
                text += fmtRow("budget %s %s gain %a flash %llu\n",
                               c.proc.c_str(), c.candidate.c_str(),
                               c.gainCyclesPerEvent,
                               (unsigned long long)c.flashBytes);
            text += fmtRow("budget upgrades %zu deferred %zu baseline %a\n",
                           budget.plan.upgrades, budget.plan.deferred,
                           budget.baselineCyclesPerEvent);
            text += fmtRow("relay source %016llx root %016llx slots %zu\n",
                           (unsigned long long)source_digest,
                           (unsigned long long)snapshot.digest(), slots);
            for (const auto &hop : shipments)
                text += fmtRow("relay hop adopted %d wire %llu rounds %llu\n",
                               int(hop.adopted),
                               (unsigned long long)hop.wireBytes,
                               (unsigned long long)hop.rounds);
            std::string thetas;
            for (const auto &theta : adopted.thetas)
                for (double value : theta)
                    thetas += fmtRow("%a,", value);
            text += fmtRow("adopted thetas %016llx\n",
                           (unsigned long long)fnv1a(thetas));
            text += fmtRow("pgo log %016llx initial %016llx final %016llx "
                           "swaps %zu\n",
                           (unsigned long long)fnv1a(loop.decisionLog),
                           (unsigned long long)loop.initialLayoutDigest,
                           (unsigned long long)loop.finalLayoutDigest,
                           loop.swaps);
        }
    }
    auto result =
        check::compareGolden(goldenPath("pipeline_stages.txt"), text);
    EXPECT_TRUE(result.ok) << result.message;
}

} // namespace
