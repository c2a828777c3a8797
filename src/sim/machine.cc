#include "sim/machine.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace ct::sim {

Simulator::Simulator(const ir::Module &module, LoweredModule lowered,
                     SimConfig config, InputSource &inputs, uint64_t seed)
    : module_(module), lowered_(std::move(lowered)), config_(config),
      inputs_(inputs), timer_(config.cyclesPerTick), gapRng_(seed),
      ram_(config.ramWords, 0)
{
    CT_ASSERT(lowered_.procs.size() == module.procedureCount(),
              "lowered module does not match the logical module");
    size_t total = 0;
    for (const auto &placed : lowered_.procs) {
        edgeBase_.push_back(total);
        total += placed.order.size();
    }
    edgeCounts_.resize(total);
}

RunResult
Simulator::run(ir::ProcId entry, size_t count)
{
    CT_ASSERT(entry < module_.procedureCount(), "run: bad entry procedure");
    CT_SPAN("sim.run");

    RunResult result;
    result.profile.resize(module_.procedureCount());
    result.invocations.assign(module_.procedureCount(), 0);
    result.procCycles.assign(module_.procedureCount(), 0);

    std::fill(ram_.begin(), ram_.end(), 0);
    std::fill(edgeCounts_.begin(), edgeCounts_.end(), EdgeCounts{});
    cycles_ = 0;

    for (size_t i = 0; i < count; ++i) {
        execProcedure(entry, result, 0);
        if (config_.maxGapCycles > 0) {
            uint64_t gap = gapRng_.below(config_.maxGapCycles + 1);
            cycles_ += gap;
            result.activity[Activity::Idle] += gap;
        }
    }
    result.totalCycles = cycles_;
    result.finalRam = ram_;
    foldProfile(result);

    // Batch-level self-measurement: recorded once per run() so the
    // per-instruction path stays unobserved (and unperturbed).
    if (obs::metricsEnabled() && count > 0) {
        auto &m = obs::metrics();
        m.counter("sim.runs").add(1);
        m.counter("sim.invocations").add(count);
        m.counter("sim.instructions").add(result.instructions);
        m.counter("sim.branches").add(result.branches.executed);
        m.histogram("sim.cycles_per_invocation")
            .record(int64_t(result.totalCycles / count));
    }
    return result;
}

void
Simulator::foldProfile(RunResult &result) const
{
    for (ir::ProcId id = 0; id < lowered_.procs.size(); ++id) {
        ir::EdgeProfile &profile = result.profile[id];
        profile.addInvocations(double(result.invocations[id]));
        const auto &order = lowered_.procs[id].order;
        const EdgeCounts *counts = edgeCounts_.data() + edgeBase_[id];
        for (size_t pos = 0; pos < order.size(); ++pos) {
            const LoweredBlock &lb = order[pos];
            if (counts[pos].cond)
                profile.addEdge(lb.block, lb.condTarget,
                                double(counts[pos].cond));
            if (counts[pos].other)
                profile.addEdge(lb.block, lb.otherTarget,
                                double(counts[pos].other));
        }
    }
}

uint64_t
Simulator::execProcedure(ir::ProcId proc_id, RunResult &result,
                         uint32_t depth)
{
    if (depth > config_.maxCallDepth)
        fatal("call depth exceeds ", config_.maxCallDepth,
              " (runaway recursion?)");

    const ir::Procedure &proc = module_.procedure(proc_id);
    const LoweredProc &placed = lowered_.procs[proc_id];
    const CostModel &costs = config_.costs;
    EdgeCounts *edges = edgeCounts_.data() + edgeBase_[proc_id];

    uint64_t invocation = result.invocations[proc_id]++;

    auto spend = [&](uint64_t n, Activity act) {
        cycles_ += n;
        result.activity[act] += n;
    };

    trace::TimingRecord record;
    if (config_.timingProbes) {
        spend(costs.timerRead, Activity::CpuActive);
        record.proc = proc_id;
        record.invocation = invocation;
        record.startTick = timer_.ticksAt(cycles_);
    }
    const uint64_t body_start = cycles_;

    ir::Word regs[ir::kNumRegs] = {};
    size_t pos = 0; // entry is always physically first
    uint64_t steps = 0;
    bool running = true;

    while (running) {
        if (++steps > config_.maxStepsPerInvocation)
            fatal("invocation of '", proc.name(), "' exceeded ",
                  config_.maxStepsPerInvocation,
                  " blocks; non-terminating loop?");

        const LoweredBlock &lb = placed.order[pos];
        const ir::BasicBlock &bb = proc.block(lb.block);

        // Unrelated interrupt preemption at the block boundary.
        if (config_.isrPerBlockProb > 0.0 &&
            gapRng_.bernoulli(config_.isrPerBlockProb)) {
            spend(config_.isrCycles, Activity::CpuActive);
            ++result.isrFirings;
        }

        // Straight-line body: one dispatch per instruction. Each case
        // spends the instruction's cycles *before* executing its effect
        // (TimerRead must observe a timer that already includes its own
        // cost), so the cost model is identical to the historical
        // two-switch form — this is purely a dispatch merge.
        for (const auto &inst : bb.insts) {
            using ir::Opcode;
            const uint64_t cost = costs.cyclesFor(inst);
            switch (inst.op) {
              case Opcode::Nop:
                spend(cost, Activity::CpuActive);
                break;
              case Opcode::Sleep:
                spend(cost, Activity::Sleep);
                break;
              case Opcode::Li:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = inst.imm;
                break;
              case Opcode::Mov:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = regs[inst.rs1];
                break;
              case Opcode::Add:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = regs[inst.rs1] + regs[inst.rs2];
                break;
              case Opcode::AddI:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = regs[inst.rs1] + inst.imm;
                break;
              case Opcode::Sub:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = regs[inst.rs1] - regs[inst.rs2];
                break;
              case Opcode::Mul:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = regs[inst.rs1] * regs[inst.rs2];
                break;
              case Opcode::And:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = regs[inst.rs1] & regs[inst.rs2];
                break;
              case Opcode::Or:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = regs[inst.rs1] | regs[inst.rs2];
                break;
              case Opcode::Xor:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = regs[inst.rs1] ^ regs[inst.rs2];
                break;
              case Opcode::Shl:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = regs[inst.rs1] << (regs[inst.rs2] & 31);
                break;
              case Opcode::Shr:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = ir::Word(uint32_t(regs[inst.rs1]) >>
                                         (regs[inst.rs2] & 31));
                break;
              case Opcode::ShrI:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] =
                    ir::Word(uint32_t(regs[inst.rs1]) >> (inst.imm & 31));
                break;
              case Opcode::Ld: {
                spend(cost, Activity::CpuActive);
                int64_t addr = int64_t(regs[inst.rs1]) + inst.imm;
                if (addr < 0 || size_t(addr) >= ram_.size())
                    fatal("'", proc.name(), "': load address ", addr,
                          " out of RAM (", ram_.size(), " words)");
                regs[inst.rd] = ram_[size_t(addr)];
                break;
              }
              case Opcode::St: {
                spend(cost, Activity::CpuActive);
                int64_t addr = int64_t(regs[inst.rs1]) + inst.imm;
                if (addr < 0 || size_t(addr) >= ram_.size())
                    fatal("'", proc.name(), "': store address ", addr,
                          " out of RAM (", ram_.size(), " words)");
                ram_[size_t(addr)] = regs[inst.rs2];
                break;
              }
              case Opcode::Sense:
                spend(cost, Activity::Sense);
                regs[inst.rd] = inputs_.sense(int(inst.imm));
                break;
              case Opcode::RadioTx:
                spend(cost, Activity::RadioTx);
                break; // payload value has no architectural effect
              case Opcode::RadioRx:
                spend(cost, Activity::RadioRx);
                regs[inst.rd] = inputs_.radioRx();
                break;
              case Opcode::TimerRead:
                spend(cost, Activity::CpuActive);
                regs[inst.rd] = ir::Word(timer_.ticksAt(cycles_));
                break;
              case Opcode::Call: {
                // Linkage charged before the recursive body, like every
                // other case's cost.
                spend(cost, Activity::CpuActive);
                ir::ProcId callee = ir::ProcId(inst.imm);
                if (costs.farCallExtra > 0 &&
                    lowered_.procDistance(proc_id, callee) >
                        costs.nearCallWindow) {
                    spend(costs.farCallExtra, Activity::CpuActive);
                    ++result.farCalls;
                }
                execProcedure(callee, result, depth + 1);
                break;
              }
            }
        }

        result.instructions += bb.insts.size();

        // Control transfer.
        switch (lb.ctrl) {
          case CtrlKind::Ret:
            spend(costs.retOverhead, Activity::CpuActive);
            running = false;
            break;
          case CtrlKind::Fallthrough:
            ++edges[pos].other;
            pos = pos + 1;
            break;
          case CtrlKind::Jmp:
            spend(costs.jump, Activity::CpuActive);
            ++result.dynamicJumps;
            ++edges[pos].other;
            pos = placed.positionOf[lb.otherTarget];
            break;
          case CtrlKind::CondBr:
          case CtrlKind::CondBrPlusJmp: {
            spend(costs.branchBase, Activity::CpuActive);
            bool transfer = ir::evalCond(lb.cond, regs[lb.lhs], regs[lb.rhs]);
            bool predicted = predictsTaken(config_.policy, pos,
                                           placed.positionOf[lb.condTarget]);
            // Counterfactual mode: the penalties vanish but the events
            // still count, so profiles and branch stats match baseline.
            bool zeroed = proc_id < config_.zeroCtrlPenalty.size() &&
                          config_.zeroCtrlPenalty[proc_id];
            ++result.branches.executed;
            if (transfer)
                ++result.branches.taken;
            if (transfer != predicted) {
                ++result.branches.mispredicted;
                if (!zeroed)
                    spend(costs.mispredictPenalty, Activity::CpuActive);
            }
            ir::BlockId next_block;
            if (transfer) {
                next_block = lb.condTarget;
                ++edges[pos].cond;
            } else {
                next_block = lb.otherTarget;
                if (lb.ctrl == CtrlKind::CondBrPlusJmp) {
                    if (!zeroed)
                        spend(costs.jump, Activity::CpuActive);
                    ++result.dynamicJumps;
                }
                ++edges[pos].other;
            }
            // For CondBr with the transfer untaken, positionOf[next_block]
            // is pos + 1 by construction of the lowering.
            pos = placed.positionOf[next_block];
            break;
          }
        }
    }

    uint64_t body_cycles = cycles_ - body_start;
    result.procCycles[proc_id] += body_cycles;

    if (config_.timingProbes) {
        record.endTick = timer_.ticksAt(cycles_);
        record.trueCycles = body_cycles;
        spend(config_.costs.timerRead, Activity::CpuActive);
        result.trace.add(record);
    }
    return body_cycles;
}

} // namespace ct::sim
