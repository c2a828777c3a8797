#include "sim/costs.hh"

#include "util/logging.hh"

namespace ct::sim {

const char *
policyName(PredictPolicy policy)
{
    switch (policy) {
      case PredictPolicy::NotTaken: return "not-taken";
      case PredictPolicy::Taken: return "taken";
      case PredictPolicy::BTFN: return "btfn";
    }
    panic("policyName: bad policy ", int(policy));
}

uint64_t
CostModel::blockBodyCycles(const ir::BasicBlock &bb) const
{
    uint64_t total = 0;
    for (const auto &inst : bb.insts)
        total += cyclesFor(inst);
    return total;
}

CostModel
telosCostModel()
{
    return CostModel{};
}

CostModel
micazCostModel()
{
    CostModel m;
    m.load = 2;
    m.store = 2;
    m.mul = 12;
    m.mispredictPenalty = 4;
    m.sense = 16;
    return m;
}

} // namespace ct::sim
