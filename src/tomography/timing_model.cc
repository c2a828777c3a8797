#include "tomography/timing_model.hh"

#include <algorithm>
#include <functional>

#include "util/logging.hh"

namespace ct::tomography {

TimingModel::TimingModel(const ir::Procedure &proc,
                         const sim::LoweredProc &placed,
                         const sim::CostModel &costs,
                         sim::PredictPolicy policy, uint64_t cycles_per_tick,
                         const std::vector<double> &callee_mean_cycles,
                         double nested_probe_cycles,
                         const std::vector<double> &callee_var_cycles)
    : proc_(&proc), cyclesPerTick_(cycles_per_tick)
{
    CT_ASSERT(cycles_per_tick >= 1, "cyclesPerTick must be >= 1");
    CT_ASSERT(placed.proc == proc.id(), "placement/procedure mismatch");
    CT_ASSERT(callee_var_cycles.empty() ||
                  callee_var_cycles.size() == callee_mean_cycles.size(),
              "callee variance vector size mismatch");

    // Deterministic per-block cycles: straight-line body (with callee
    // bodies folded in at their expected durations) plus the terminator's
    // base cost. Each stochastic callee also leaves residual variance on
    // its block.
    blockCycles_.assign(proc.blockCount(), 0.0);
    blockVariance_.assign(proc.blockCount(), 0.0);
    for (const auto &bb : proc.blocks()) {
        double cycles = 0.0;
        for (const auto &inst : bb.insts) {
            cycles += double(costs.cyclesFor(inst));
            if (inst.op == ir::Opcode::Call) {
                ir::ProcId callee = ir::ProcId(inst.imm);
                CT_ASSERT(callee < callee_mean_cycles.size(),
                          "callee mean cycles missing for proc#", callee,
                          " (process procedures bottom-up)");
                cycles += callee_mean_cycles[callee] + nested_probe_cycles;
                if (!callee_var_cycles.empty())
                    blockVariance_[bb.id] += callee_var_cycles[callee];
            }
        }

        const auto &lb = placed.order[placed.positionOf[bb.id]];
        switch (lb.ctrl) {
          case sim::CtrlKind::Ret:
            cycles += double(costs.retOverhead);
            break;
          case sim::CtrlKind::Fallthrough:
            break;
          case sim::CtrlKind::Jmp:
            cycles += double(costs.jump);
            break;
          case sim::CtrlKind::CondBr:
          case sim::CtrlKind::CondBrPlusJmp:
            cycles += double(costs.branchBase);
            break;
        }
        blockCycles_[bb.id] = cycles;
    }

    // Per-edge extras: misprediction penalties and trailing jumps, which
    // depend on which logical successor the walk takes.
    edges_ = proc.edges();
    edgeCycles_.assign(edges_.size(), 0.0);
    for (size_t i = 0; i < edges_.size(); ++i) {
        const ir::Edge &edge = edges_[i];
        const auto &lb = placed.order[placed.positionOf[edge.from]];
        if (lb.ctrl != sim::CtrlKind::CondBr &&
            lb.ctrl != sim::CtrlKind::CondBrPlusJmp) {
            continue; // Jmp cost already in the block reward
        }
        bool transfer = edge.to == lb.condTarget;
        bool predicted =
            sim::predictsTaken(policy, placed.positionOf[edge.from],
                               placed.positionOf[lb.condTarget]);
        double extra = 0.0;
        if (transfer != predicted)
            extra += double(costs.mispredictPenalty);
        if (!transfer && lb.ctrl == sim::CtrlKind::CondBrPlusJmp)
            extra += double(costs.jump);
        edgeCycles_[i] = extra;
    }

    // One free parameter per conditional branch block.
    for (ir::BlockId block : proc.branchBlocks()) {
        const auto &term = proc.block(block).term;
        params_.push_back({block, term.taken, term.fallthrough});
    }
}

double
TimingModel::blockCycles(ir::BlockId block) const
{
    CT_ASSERT(block < blockCycles_.size(), "blockCycles: bad block");
    return blockCycles_[block];
}

double
TimingModel::blockVariance(ir::BlockId block) const
{
    CT_ASSERT(block < blockVariance_.size(), "blockVariance: bad block");
    return blockVariance_[block];
}

double
TimingModel::edgeCycles(ir::BlockId from, ir::BlockId to) const
{
    for (size_t i = 0; i < edges_.size(); ++i) {
        if (edges_[i].from == from && edges_[i].to == to)
            return edgeCycles_[i];
    }
    panic("edgeCycles: no edge ", from, " -> ", to, " in ", proc_->name());
}

markov::AbsorbingChain
TimingModel::chainFor(const std::vector<double> &theta) const
{
    CT_ASSERT(theta.size() == params_.size(),
              "theta size ", theta.size(), " != param count ",
              params_.size());

    markov::AbsorbingChain chain(proc_->blockCount());
    for (ir::BlockId block = 0; block < proc_->blockCount(); ++block)
        chain.setStateReward(block, blockCycles_[block]);

    // Unconditional transitions.
    for (size_t i = 0; i < edges_.size(); ++i) {
        const ir::Edge &edge = edges_[i];
        if (edge.kind == ir::EdgeKind::Jump) {
            chain.setTransition(edge.from, edge.to, 1.0);
            chain.setEdgeReward(edge.from, edge.to, edgeCycles_[i]);
        }
    }
    // Branch transitions from theta.
    for (size_t p = 0; p < params_.size(); ++p) {
        const BranchParam &param = params_[p];
        double prob = std::clamp(theta[p], 0.0, 1.0);
        chain.setTransition(param.block, param.takenTarget, prob);
        chain.setTransition(param.block, param.fallTarget, 1.0 - prob);
        chain.setEdgeReward(param.block, param.takenTarget,
                            edgeCycles(param.block, param.takenTarget));
        chain.setEdgeReward(param.block, param.fallTarget,
                            edgeCycles(param.block, param.fallTarget));
    }
    return chain;
}

double
TimingModel::meanCycles(const std::vector<double> &theta) const
{
    return chainFor(theta).meanReward(proc_->entry());
}

double
TimingModel::varianceCycles(const std::vector<double> &theta) const
{
    auto chain = chainFor(theta);
    double variance = chain.varianceReward(proc_->entry());
    // Residual callee variance: independent draws per visit, so the
    // expected-visit-weighted sum adds (law of total variance, ignoring
    // the small cross term between visit counts and callee draws).
    auto visits = chain.expectedVisits(proc_->entry());
    for (ir::BlockId block = 0; block < proc_->blockCount(); ++block)
        variance += visits[block] * blockVariance_[block];
    return variance;
}

std::vector<double>
TimingModel::thetaFromProfile(const ir::EdgeProfile &profile,
                              double fallback) const
{
    return profile.branchProbabilities(*proc_, fallback);
}

std::vector<double>
TimingModel::edgeFrequencies(const std::vector<double> &theta) const
{
    auto chain = chainFor(theta);
    auto visits = chain.expectedVisits(proc_->entry());
    std::vector<double> out(edges_.size(), 0.0);
    for (size_t i = 0; i < edges_.size(); ++i) {
        const ir::Edge &edge = edges_[i];
        out[i] = visits[edge.from] * chain.transition(edge.from, edge.to);
    }
    return out;
}

ir::EdgeProfile
TimingModel::profileFor(const std::vector<double> &theta) const
{
    ir::EdgeProfile profile;
    profile.addInvocations(1.0);
    auto freqs = edgeFrequencies(theta);
    for (size_t i = 0; i < edges_.size(); ++i)
        profile.addEdge(edges_[i].from, edges_[i].to, freqs[i]);
    return profile;
}

std::vector<TimingModel::BranchDiagnostics>
TimingModel::branchDiagnostics(const std::vector<double> &theta) const
{
    auto chain = chainFor(theta);
    auto to_exit = chain.meanRewardVector();
    auto visits = chain.expectedVisits(proc_->entry());

    std::vector<BranchDiagnostics> out;
    out.reserve(params_.size());
    for (const BranchParam &param : params_) {
        // Reward-to-go difference between the two decisions, measured
        // from the moment the branch resolves (first-traversal view;
        // loop-carried revisits share the same local separation).
        double taken_arm = edgeCycles(param.block, param.takenTarget) +
                           to_exit[param.takenTarget];
        double fall_arm = edgeCycles(param.block, param.fallTarget) +
                          to_exit[param.fallTarget];
        BranchDiagnostics diag;
        diag.separationCycles = std::abs(taken_arm - fall_arm);
        diag.separationTicks = diag.separationCycles / double(cyclesPerTick_);
        diag.visitRate = visits[param.block];
        out.push_back(diag);
    }
    return out;
}

std::vector<ir::ProcId>
bottomUpOrder(const ir::Module &module)
{
    std::vector<ir::ProcId> order;
    std::vector<int> state(module.procedureCount(), 0);

    std::function<void(ir::ProcId)> visit = [&](ir::ProcId id) {
        if (state[id] != 0)
            return;
        state[id] = 1;
        for (ir::ProcId callee : module.procedure(id).callees())
            visit(callee);
        state[id] = 2;
        order.push_back(id);
    };
    for (ir::ProcId id = 0; id < module.procedureCount(); ++id)
        visit(id);
    return order;
}

std::vector<double>
meanCyclesBottomUp(const ir::Module &module,
                   const sim::LoweredModule &lowered,
                   const sim::CostModel &costs, sim::PredictPolicy policy,
                   uint64_t cycles_per_tick,
                   const ir::ModuleProfile &profile,
                   double nested_probe_cycles)
{
    std::vector<double> means(module.procedureCount(), 0.0);
    for (ir::ProcId id : bottomUpOrder(module)) {
        const auto &proc = module.procedure(id);
        TimingModel model(proc, lowered.procs[id], costs, policy,
                          cycles_per_tick, means, nested_probe_cycles);
        auto theta = model.thetaFromProfile(profile[id]);
        means[id] = model.meanCycles(theta);
    }
    return means;
}

} // namespace ct::tomography
