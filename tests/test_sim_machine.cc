/**
 * @file
 * Tests for the mote simulator: instruction semantics, exact cycle
 * accounting, branch statistics under each prediction policy, profile
 * collection, timing probes, devices, and failure handling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "check/golden.hh"
#include "ir/builder.hh"
#include "layout/placement.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::ir;
using namespace ct::sim;

namespace {

SimConfig
quietConfig()
{
    SimConfig config;
    config.maxGapCycles = 0;  // deterministic cycle counts
    config.cyclesPerTick = 1; // exact timing
    return config;
}

/** Run a single-procedure module once and return the result. */
RunResult
runOnce(const Module &module, ProcId entry, InputSource &inputs,
        SimConfig config = quietConfig(), size_t count = 1)
{
    Simulator simulator(module, lowerModule(module), config, inputs, 42);
    return simulator.run(entry, count);
}

/**
 * Every observable output of one run, one line per field: the totals,
 * the branch and activity counters, and each procedure's invocation
 * count and EdgeProfile cells. Counts print with %.17g, so two runs
 * render equal only if every double is bitwise equal.
 */
std::string
renderRun(const std::string &label, const RunResult &r)
{
    auto num = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return std::string(buf);
    };
    std::string out = "run " + label + "\n";
    out += "  cycles=" + std::to_string(r.totalCycles) +
           " insts=" + std::to_string(r.instructions) +
           " jumps=" + std::to_string(r.dynamicJumps) +
           " far=" + std::to_string(r.farCalls) +
           " isr=" + std::to_string(r.isrFirings) +
           " br=" + std::to_string(r.branches.executed) + "/" +
           std::to_string(r.branches.taken) + "/" +
           std::to_string(r.branches.mispredicted) + "\n";
    out += "  activity=";
    for (size_t a = 0; a < kActivityCount; ++a)
        out += (a ? "," : "") + std::to_string(r.activity.cycles[a]);
    out += "\n";
    for (ProcId id = 0; id < r.profile.size(); ++id) {
        const auto &profile = r.profile[id];
        out += "  proc " + std::to_string(id) +
               " inv=" + num(profile.invocations()) + " cells=";
        for (const auto &[edge, count] : profile.cells())
            out += " " + std::to_string(edge.first) + ">" +
                   std::to_string(edge.second) + ":" + num(count);
        out += "\n";
    }
    return out;
}

/** Store every register to RAM so tests can inspect architectural state. */
void
dumpRegs(ProcedureBuilder &b, Reg upto)
{
    b.li(13, 100);
    for (Reg r = 0; r <= upto; ++r)
        b.st(13, r, r);
}

} // namespace

TEST(Machine, AluSemantics)
{
    Module module("m");
    ProcedureBuilder b(module, "alu");
    b.setBlock(0);
    b.li(1, 6)
        .li(2, 3)
        .add(3, 1, 2)   // 9
        .sub(4, 1, 2)   // 3
        .mul(5, 1, 2)   // 18
        .band(6, 1, 2)  // 2
        .bor(7, 1, 2)   // 7
        .bxor(8, 1, 2)  // 5
        .shl(9, 1, 2)   // 48
        .shr(10, 1, 2)  // 0
        .addi(11, 1, -10) // -4
        .shri(12, 2, 1);  // 1
    dumpRegs(b, 12);
    b.ret();
    ProcId id = b.finish();

    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs);
    const auto &ram = result.finalRam;
    EXPECT_EQ(ram[103], 9);
    EXPECT_EQ(ram[104], 3);
    EXPECT_EQ(ram[105], 18);
    EXPECT_EQ(ram[106], 2);
    EXPECT_EQ(ram[107], 7);
    EXPECT_EQ(ram[108], 5);
    EXPECT_EQ(ram[109], 48);
    EXPECT_EQ(ram[110], 0);
    EXPECT_EQ(ram[111], -4);
    EXPECT_EQ(ram[112], 1);
}

TEST(Machine, ShrIsLogical)
{
    Module module("m");
    ProcedureBuilder b(module, "shr");
    b.setBlock(0);
    b.li(1, -1).shri(2, 1, 28);
    dumpRegs(b, 2);
    b.ret();
    ProcId id = b.finish();
    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs);
    EXPECT_EQ(result.finalRam[102], 15); // 0xFFFFFFFF >> 28
}

TEST(Machine, LoadStoreRoundTrip)
{
    Module module("m");
    ProcedureBuilder b(module, "mem");
    b.setBlock(0);
    b.li(1, 50)
        .li(2, 1234)
        .st(1, 3, 2) // ram[53] = 1234
        .ld(3, 1, 3);
    dumpRegs(b, 3);
    b.ret();
    ProcId id = b.finish();
    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs);
    EXPECT_EQ(result.finalRam[53], 1234);
    EXPECT_EQ(result.finalRam[103], 1234);
}

TEST(Machine, StraightLineCycleAccountingExact)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    b.setBlock(0);
    b.li(1, 5)     // alu: 1
        .mul(2, 1, 1) // mul: 8
        .ld(3, 0, 0)  // load: 3
        .st(0, 1, 3)  // store: 3
        .sleep(10);   // 10
    b.ret();          // ret: 4
    ProcId id = b.finish();

    SimConfig config = quietConfig();
    config.timingProbes = false;
    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs, config);
    CostModel costs = telosCostModel();
    uint64_t expected = costs.alu + costs.mul + costs.load + costs.store +
                        10 + costs.retOverhead;
    EXPECT_EQ(result.totalCycles, expected);
}

TEST(Machine, ProbeCyclesAddedWhenEnabled)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    b.setBlock(0);
    b.nop();
    b.ret();
    ProcId id = b.finish();

    SimConfig with = quietConfig();
    SimConfig without = quietConfig();
    without.timingProbes = false;
    ScriptedInputs in1(1), in2(1);
    auto r_with = runOnce(module, id, in1, with);
    auto r_without = runOnce(module, id, in2, without);
    CostModel costs = telosCostModel();
    EXPECT_EQ(r_with.totalCycles,
              r_without.totalCycles + 2 * costs.timerRead);
    EXPECT_EQ(r_with.trace.size(), 1u);
    EXPECT_EQ(r_without.trace.size(), 0u);
}

TEST(Machine, TimingRecordMatchesTrueCycles)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    b.setBlock(0);
    b.sleep(100);
    b.ret();
    ProcId id = b.finish();

    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs); // cyclesPerTick = 1
    ASSERT_EQ(result.trace.size(), 1u);
    const auto &record = result.trace[0];
    CostModel costs = telosCostModel();
    EXPECT_EQ(record.trueCycles, 100u + costs.retOverhead);
    EXPECT_EQ(uint64_t(record.durationTicks()), record.trueCycles);
}

TEST(Machine, QuantizationBoundsDuration)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    b.setBlock(0);
    b.sleep(100);
    b.ret();
    ProcId id = b.finish();

    SimConfig config = quietConfig();
    config.cyclesPerTick = 8;
    config.maxGapCycles = 97;
    ScriptedInputs inputs(1);
    Simulator simulator(module, lowerModule(module), config, inputs, 7);
    auto result = simulator.run(id, 200);
    for (const auto &record : result.trace.records()) {
        double exact = double(record.trueCycles) / 8.0;
        EXPECT_GE(double(record.durationTicks()), std::floor(exact) - 0.0);
        EXPECT_LE(double(record.durationTicks()), std::floor(exact) + 1.0);
    }
}

TEST(Machine, BranchStatsNotTakenPolicy)
{
    // Branch always taken under NotTaken policy -> every one mispredicts.
    Module module("m");
    ProcedureBuilder b(module, "p");
    // Create "f" first so the always-true taken target is physically
    // non-adjacent and the transfer is genuinely taken every time.
    auto f = b.newBlock("f");
    auto t = b.newBlock("t");
    b.setBlock(0);
    b.li(1, 1).li(2, 2);
    b.br(CondCode::Lt, 1, 2, t, f); // 1 < 2: always true
    b.setBlock(t);
    b.ret();
    b.setBlock(f);
    b.ret();
    ProcId id = b.finish();

    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs, quietConfig(), 10);
    EXPECT_EQ(result.branches.executed, 10u);
    EXPECT_EQ(result.branches.taken, 10u);
    EXPECT_EQ(result.branches.mispredicted, 10u);
    EXPECT_DOUBLE_EQ(result.branches.mispredictRate(), 1.0);
}

TEST(Machine, BranchStatsTakenPolicy)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    // Create "f" first so the always-true taken target is physically
    // non-adjacent and the transfer is genuinely taken every time.
    auto f = b.newBlock("f");
    auto t = b.newBlock("t");
    b.setBlock(0);
    b.li(1, 1).li(2, 2);
    b.br(CondCode::Lt, 1, 2, t, f);
    b.setBlock(t);
    b.ret();
    b.setBlock(f);
    b.ret();
    ProcId id = b.finish();

    SimConfig config = quietConfig();
    config.policy = PredictPolicy::Taken;
    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs, config, 10);
    EXPECT_EQ(result.branches.mispredicted, 0u);
}

TEST(Machine, MispredictPenaltyInCycles)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    // Create "f" first so the always-true taken target is physically
    // non-adjacent and the transfer is genuinely taken every time.
    auto f = b.newBlock("f");
    auto t = b.newBlock("t");
    b.setBlock(0);
    b.li(1, 1).li(2, 2);
    b.br(CondCode::Lt, 1, 2, t, f);
    b.setBlock(t);
    b.ret();
    b.setBlock(f);
    b.ret();
    ProcId id = b.finish();

    SimConfig miss = quietConfig();
    miss.timingProbes = false;
    SimConfig hit = miss;
    hit.policy = PredictPolicy::Taken;
    ScriptedInputs in1(1), in2(1);
    auto r_miss = runOnce(module, id, in1, miss);
    auto r_hit = runOnce(module, id, in2, hit);
    EXPECT_EQ(r_miss.totalCycles,
              r_hit.totalCycles + telosCostModel().mispredictPenalty);
}

TEST(Machine, ProfileRecordsLogicalEdges)
{
    // Loop with known trip count: profile must show exact edge counts.
    Module module("m");
    ProcedureBuilder b(module, "p");
    auto loop = b.newBlock("loop");
    auto done = b.newBlock("done");
    b.setBlock(0);
    b.li(1, 0).li(2, 5);
    b.jmp(loop);
    b.setBlock(loop);
    b.addi(1, 1, 1);
    b.br(CondCode::Lt, 1, 2, loop, done);
    b.setBlock(done);
    b.ret();
    ProcId id = b.finish();

    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs, quietConfig(), 3);
    const auto &profile = result.profile[id];
    EXPECT_DOUBLE_EQ(profile.invocations(), 3.0);
    EXPECT_DOUBLE_EQ(profile.edgeCount(0, 1), 3.0);       // entry -> loop
    EXPECT_DOUBLE_EQ(profile.edgeCount(1, 1), 3.0 * 4.0); // back edge
    EXPECT_DOUBLE_EQ(profile.edgeCount(1, 2), 3.0);       // exit edge
}

TEST(Machine, SenseReadsConfiguredChannel)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    b.setBlock(0);
    b.sense(1, 3);
    dumpRegs(b, 1);
    b.ret();
    ProcId id = b.finish();

    ScriptedInputs inputs(1);
    inputs.setChannel(3, std::make_unique<DiscreteDist>(
                             std::vector<double>{77.0},
                             std::vector<double>{1.0}));
    auto result = runOnce(module, id, inputs);
    EXPECT_EQ(result.finalRam[101], 77);
    EXPECT_EQ(inputs.senseCount(), 1u);
}

TEST(Machine, CallExecutesCalleeAndAccountsLinkage)
{
    Module module("m");
    {
        ProcedureBuilder callee(module, "callee");
        callee.setBlock(0);
        callee.li(1, 9).li(13, 100).st(13, 20, 1); // ram[120] = 9
        callee.ret();
        callee.finish();
    }
    ProcedureBuilder b(module, "caller");
    b.setBlock(0);
    b.call("callee");
    b.ret();
    ProcId id = b.finish();

    SimConfig config = quietConfig();
    config.timingProbes = false;
    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs, config);
    EXPECT_EQ(result.finalRam[120], 9);
    EXPECT_EQ(result.invocations[module.findProcedure("callee")], 1u);
    CostModel costs = telosCostModel();
    // caller: call(5) + ret(4); callee: 3 alu/st + ret.
    uint64_t expected = costs.callOverhead + costs.retOverhead +
                        2 * costs.alu + costs.store + costs.retOverhead;
    EXPECT_EQ(result.totalCycles, expected);
}

TEST(Machine, CalleeRegistersIsolated)
{
    Module module("m");
    {
        ProcedureBuilder callee(module, "clobber");
        callee.setBlock(0);
        callee.li(1, 999);
        callee.ret();
        callee.finish();
    }
    ProcedureBuilder b(module, "caller");
    b.setBlock(0);
    b.li(1, 5);
    b.call("clobber");
    dumpRegs(b, 1);
    b.ret();
    ProcId id = b.finish();

    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs);
    EXPECT_EQ(result.finalRam[101], 5); // caller's r1 unchanged
}

TEST(Machine, RamPersistsAcrossInvocations)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    b.setBlock(0);
    b.li(1, 10).ld(2, 1, 0).addi(2, 2, 1).st(1, 0, 2);
    b.ret();
    ProcId id = b.finish();

    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs, quietConfig(), 7);
    EXPECT_EQ(result.finalRam[10], 7);
}

TEST(Machine, TimerReadReturnsTicks)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    b.setBlock(0);
    b.sleep(64).timerRead(1);
    dumpRegs(b, 1);
    b.ret();
    ProcId id = b.finish();

    SimConfig config = quietConfig();
    config.cyclesPerTick = 8;
    config.timingProbes = false;
    ScriptedInputs inputs(1);
    auto result = runOnce(module, id, inputs, config);
    EXPECT_EQ(result.finalRam[101], 8); // 64 cycles / 8
}

TEST(MachineDeathTest, RamOutOfBoundsIsFatal)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    b.setBlock(0);
    b.li(1, 100000).ld(2, 1, 0);
    b.ret();
    ProcId id = b.finish();

    ScriptedInputs inputs(1);
    EXPECT_EXIT(runOnce(module, id, inputs), testing::ExitedWithCode(1),
                "out of RAM");
}

TEST(MachineDeathTest, RunawayLoopIsFatal)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    auto spin = b.newBlock("spin");
    auto never = b.newBlock("never");
    b.setBlock(0);
    b.li(1, 0).li(2, 1);
    b.jmp(spin);
    b.setBlock(spin);
    b.nop();
    b.br(CondCode::Lt, 1, 2, spin, never); // 0 < 1 forever
    b.setBlock(never);
    b.ret();
    ProcId id = b.finish();

    SimConfig config = quietConfig();
    config.maxStepsPerInvocation = 1000;
    ScriptedInputs inputs(1);
    EXPECT_EXIT(runOnce(module, id, inputs, config),
                testing::ExitedWithCode(1), "non-terminating");
}

TEST(MachineDeathTest, UnconfiguredSensorIsFatal)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    b.setBlock(0);
    b.sense(1, 0);
    b.ret();
    ProcId id = b.finish();
    ScriptedInputs inputs(1);
    EXPECT_EXIT(runOnce(module, id, inputs), testing::ExitedWithCode(1),
                "unconfigured sensor");
}

TEST(Machine, IdenticalSeedsReproduceExactly)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    auto t = b.newBlock("t");
    auto f = b.newBlock("f");
    b.setBlock(0);
    b.sense(1, 0).li(2, 500);
    b.br(CondCode::Lt, 1, 2, t, f);
    b.setBlock(t);
    b.ret();
    b.setBlock(f);
    b.ret();
    ProcId id = b.finish();

    auto run = [&](uint64_t seed) {
        ScriptedInputs inputs(seed);
        inputs.setChannel(0, ct::makeGaussian(500, 100));
        Simulator simulator(module, lowerModule(module), quietConfig(),
                            inputs, 3);
        return simulator.run(id, 500);
    };
    auto a = run(5);
    auto b2 = run(5);
    auto c = run(6);
    EXPECT_EQ(a.totalCycles, b2.totalCycles);
    EXPECT_EQ(a.branches.taken, b2.branches.taken);
    EXPECT_NE(a.branches.taken, c.branches.taken);
}

namespace {

/**
 * One procedure whose lowered entry is a CondBr with condTarget ==
 * otherTarget: the builder refuses identical successors, so the
 * lowered form is edited after lowering. The condition alternates with
 * a RAM counter, so both directions execute and land on block 1.
 */
RunResult
runSameTargetCondBr(size_t count, PredictPolicy policy)
{
    Module module("m");
    ProcedureBuilder b(module, "p");
    auto join = b.newBlock("join");
    auto other = b.newBlock("other");
    b.setBlock(0);
    b.ld(1, 0, 0).addi(1, 1, 1).st(0, 0, 1).li(3, 1).band(4, 1, 3);
    b.br(CondCode::Eq, 4, 0, other, join);
    b.setBlock(join);
    b.ret();
    b.setBlock(other);
    b.ret();
    ProcId id = b.finish();

    LoweredModule lowered = lowerModule(module);
    LoweredBlock &lb = lowered.procs[id].order[0];
    EXPECT_EQ(lb.ctrl, CtrlKind::CondBr);
    EXPECT_EQ(lb.otherTarget, join);
    lb.condTarget = join;

    SimConfig config;
    config.policy = policy;
    ScriptedInputs inputs(1);
    Simulator simulator(module, std::move(lowered), config, inputs, 11);
    return simulator.run(id, count);
}

} // namespace

TEST(Machine, SameTargetCondBrFoldsBothDirectionsIntoOneCell)
{
    auto r = runSameTargetCondBr(9, PredictPolicy::NotTaken);
    EXPECT_EQ(r.branches.executed, 9u);
    EXPECT_GT(r.branches.taken, 0u);
    EXPECT_LT(r.branches.taken, 9u);
    ASSERT_EQ(r.profile[0].cells().size(), 1u);
    EXPECT_EQ(r.profile[0].edgeCount(0, 1), 9.0);
    EXPECT_EQ(r.profile[0].invocations(), 9.0);
}

TEST(Machine, OutputsMatchGolden)
{
    // Pins every simulator output — profile cells, invocation counts,
    // cycles, branch/jump/far-call/ISR counters and activity classes —
    // over every registry program, three layouts and every prediction
    // policy, plus an ISR variant, a zero-penalty variant, a far-call
    // variant and the same-target CondBr. Re-snapshot deliberately
    // with CT_GOLDEN_UPDATE=1 (docs/TESTING.md).
    constexpr size_t kInvocations = 300;
    const PredictPolicy policies[] = {PredictPolicy::NotTaken,
                                      PredictPolicy::Taken,
                                      PredictPolicy::BTFN};
    const layout::LayoutKind layouts[] = {layout::LayoutKind::Natural,
                                          layout::LayoutKind::Dfs,
                                          layout::LayoutKind::Random};

    std::string text;
    auto simulate = [&](const workloads::Workload &w,
                        const std::vector<BlockOrder> &orders,
                        const SimConfig &config) {
        auto inputs = w.makeInputs(5);
        Simulator simulator(*w.module, lowerModule(*w.module, orders),
                            config, *inputs, 17);
        return simulator.run(w.entry, kInvocations);
    };
    for (const auto &w : workloads::allWorkloads()) {
        ir::ModuleProfile empty(w.module->procedureCount());
        for (auto kind : layouts) {
            Rng rng(23);
            auto orders =
                layout::computeModuleOrders(*w.module, empty, kind, rng);
            for (auto policy : policies) {
                SimConfig config;
                config.policy = policy;
                text += renderRun(w.name + " " + layout::layoutName(kind) +
                                      " " + policyName(policy),
                                  simulate(w, orders, config));
            }
        }
        std::vector<BlockOrder> natural(w.module->procedureCount());
        SimConfig isr;
        isr.isrPerBlockProb = 0.05;
        text += renderRun(w.name + " isr", simulate(w, natural, isr));
        SimConfig zeroed;
        zeroed.policy = PredictPolicy::Taken;
        zeroed.zeroCtrlPenalty.assign(w.module->procedureCount(), 1);
        text += renderRun(w.name + " zero-penalty",
                          simulate(w, natural, zeroed));
        SimConfig far;
        far.costs.farCallExtra = 4;
        far.costs.nearCallWindow = 0;
        text += renderRun(w.name + " far-call", simulate(w, natural, far));
    }
    for (auto policy : policies)
        text += renderRun(std::string("same-target-condbr ") +
                              policyName(policy),
                          runSameTargetCondBr(40, policy));

    auto golden = check::compareGolden(
        std::string(CT_GOLDEN_DIR) + "/sim_profiles.txt", text);
    EXPECT_TRUE(golden.ok) << golden.message;
}
