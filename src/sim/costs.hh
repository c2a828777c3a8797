/**
 * @file
 * Cycle cost model of the simulated mote core.
 *
 * Defaults approximate an MSP430-class in-order MCU (TelosB): single-
 * cycle ALU, 2-3 cycle memory, multi-cycle software-assisted multiply,
 * expensive radio access, and a flush penalty on mispredicted (taken,
 * under the default static not-taken scheme) control transfers.
 */

#ifndef CT_SIM_COSTS_HH
#define CT_SIM_COSTS_HH

#include <cstdint>

#include "ir/block.hh"
#include "util/logging.hh"

namespace ct::sim {

/** Static branch prediction scheme of the core. */
enum class PredictPolicy : uint8_t {
    NotTaken, //!< predict every conditional branch not-taken (default)
    Taken,    //!< predict every conditional branch taken
    BTFN,     //!< backward taken, forward not-taken
};

const char *policyName(PredictPolicy policy);

/** Per-operation cycle costs. */
struct CostModel
{
    /// @name Straight-line instruction cycles
    /// @{
    uint32_t alu = 1;        //!< add/sub/logic/shift/mov/li
    uint32_t mul = 8;        //!< software-assisted multiply
    uint32_t load = 3;
    uint32_t store = 3;
    uint32_t sense = 12;     //!< ADC conversion wait
    uint32_t radioTx = 32;   //!< SPI handoff of one payload word
    uint32_t radioRx = 24;
    uint32_t timerRead = 2;  //!< timer capture register read
    uint32_t nop = 1;
    /// @}

    /// @name Control transfer cycles
    /// @{
    uint32_t branchBase = 2;       //!< conditional branch, before penalty
    uint32_t jump = 2;             //!< unconditional jump
    uint32_t callOverhead = 5;     //!< call linkage
    uint32_t retOverhead = 4;      //!< return linkage
    uint32_t mispredictPenalty = 3; //!< pipeline flush on a mispredict
    /**
     * Extra cycles when the callee lies outside the near-call window in
     * flash (long-call encoding / extra fetch). 0 disables procedure-
     * placement effects entirely (the default, so estimation models
     * that ignore flash layout stay exact).
     */
    uint32_t farCallExtra = 0;
    /** Flash-slot distance up to which a call is "near". */
    uint32_t nearCallWindow = 1;
    /// @}

    /**
     * Cycles of one straight-line instruction (Sleep uses its imm).
     * Inline: the simulator calls it once per executed instruction,
     * right before its own dispatch on the same opcode.
     */
    uint64_t cyclesFor(const ir::Inst &inst) const
    {
        using ir::Opcode;
        switch (inst.op) {
          case Opcode::Nop:
            return nop;
          case Opcode::Li:
          case Opcode::Mov:
          case Opcode::Add:
          case Opcode::AddI:
          case Opcode::Sub:
          case Opcode::And:
          case Opcode::Or:
          case Opcode::Xor:
          case Opcode::Shl:
          case Opcode::Shr:
          case Opcode::ShrI:
            return alu;
          case Opcode::Mul:
            return mul;
          case Opcode::Ld:
            return load;
          case Opcode::St:
            return store;
          case Opcode::Sense:
            return sense;
          case Opcode::RadioTx:
            return radioTx;
          case Opcode::RadioRx:
            return radioRx;
          case Opcode::TimerRead:
            return timerRead;
          case Opcode::Sleep:
            return uint64_t(inst.imm);
          case Opcode::Call:
            // The linkage cycles; the callee body is accounted separately.
            return callOverhead;
        }
        panic("cyclesFor: bad opcode ", int(inst.op));
    }

    /** Total straight-line cycles of a block (terminator excluded). */
    uint64_t blockBodyCycles(const ir::BasicBlock &bb) const;
};

/** The default TelosB-flavoured model. */
CostModel telosCostModel();

/**
 * A MicaZ/AVR-flavoured variant: cheaper memory, pricier multiply and a
 * deeper-flush control path. Used by the sensitivity ablation.
 */
CostModel micazCostModel();

} // namespace ct::sim

#endif // CT_SIM_COSTS_HH
