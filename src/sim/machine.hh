/**
 * @file
 * The mote simulator: executes a placed module, accounting cycles under
 * the cost model and static branch prediction, while collecting the
 * ground-truth edge profile and (optionally) boundary timing records.
 */

#ifndef CT_SIM_MACHINE_HH
#define CT_SIM_MACHINE_HH

#include <vector>

#include "ir/module.hh"
#include "ir/profile.hh"
#include "sim/costs.hh"
#include "sim/devices.hh"
#include "sim/energy.hh"
#include "sim/lower.hh"
#include "stats/rng.hh"
#include "trace/timing_trace.hh"

namespace ct::sim {

/** Simulator configuration. */
struct SimConfig
{
    CostModel costs = telosCostModel();
    PredictPolicy policy = PredictPolicy::NotTaken;
    size_t ramWords = 1024;
    uint64_t cyclesPerTick = 8;      //!< timer quantization quantum
    bool timingProbes = true;        //!< capture start/end timestamps
    uint32_t maxGapCycles = 97;      //!< random idle gap between events
    uint64_t maxStepsPerInvocation = 5'000'000;
    uint32_t maxCallDepth = 64;

    /**
     * Per-ProcId counterfactual flags: when a procedure's entry is set,
     * the core charges none of its control-placement penalties — no
     * mispredict flush and no trailing untaken jump cycles — while still
     * counting the events in the run statistics. This is the "genuinely
     * zero-penalty layout" ct::causal prices analytically; the
     * differential oracle in ct::check re-simulates it here. Shorter
     * than the procedure count (or empty, the default) means no
     * procedure is zeroed.
     */
    std::vector<uint8_t> zeroCtrlPenalty;

    /// @name Interrupt preemption model
    /// @{
    /** Probability that an unrelated ISR fires at a block boundary
     *  (radio/timer housekeeping stealing cycles mid-procedure). */
    double isrPerBlockProb = 0.0;
    /** Cycles one such ISR steals. */
    uint32_t isrCycles = 30;
    /// @}
};

/** Dynamic conditional-branch statistics. */
struct BranchStats
{
    uint64_t executed = 0;
    uint64_t taken = 0;
    uint64_t mispredicted = 0;

    double mispredictRate() const
    {
        return executed ? double(mispredicted) / double(executed) : 0.0;
    }
    double takenRate() const
    {
        return executed ? double(taken) / double(executed) : 0.0;
    }
};

/** Everything one measurement campaign produces. */
struct RunResult
{
    ir::ModuleProfile profile;  //!< ground-truth logical edge counts
    trace::TimingTrace trace;   //!< boundary timing records (if probed)
    uint64_t totalCycles = 0;   //!< all cycles including probes and gaps
    BranchStats branches;
    uint64_t instructions = 0;  //!< straight-line instructions executed
    uint64_t dynamicJumps = 0;  //!< executed unconditional jumps
    uint64_t isrFirings = 0;    //!< interrupt preemptions simulated
    uint64_t farCalls = 0;      //!< calls that paid the far-call extra
    ActivityCycles activity;    //!< cycle classification for energy
    std::vector<uint64_t> invocations; //!< per-ProcId invocation counts
    std::vector<uint64_t> procCycles;  //!< per-ProcId body cycles (inclusive)
    std::vector<ir::Word> finalRam;    //!< RAM snapshot after the run
};

/**
 * Executes procedures of one placed module. RAM persists across
 * invocations within a run (mote globals); registers are per-frame.
 */
class Simulator
{
  public:
    /**
     * @param module  the logical program (must outlive the simulator)
     * @param lowered its placed form
     * @param config  machine parameters
     * @param inputs  sensor/radio streams (must outlive the simulator)
     * @param seed    seeds the inter-invocation gap stream
     */
    Simulator(const ir::Module &module, LoweredModule lowered,
              SimConfig config, InputSource &inputs, uint64_t seed);

    /**
     * Run @p count invocations of @p entry back-to-back (with small
     * random idle gaps), collecting profile/trace/stats.
     */
    RunResult run(ir::ProcId entry, size_t count);

    const SimConfig &config() const { return config_; }
    const LoweredModule &lowered() const { return lowered_; }

  private:
    /** Execute one invocation of @p proc; returns its body cycles. */
    uint64_t execProcedure(ir::ProcId proc, RunResult &result,
                           uint32_t depth);

    /** Traversals out of one lowered block, by successor. */
    struct EdgeCounts
    {
        uint64_t cond = 0;  //!< to LoweredBlock::condTarget
        uint64_t other = 0; //!< to LoweredBlock::otherTarget
    };

    /** Fold edgeCounts_ and the invocation counts into result.profile. */
    void foldProfile(RunResult &result) const;

    const ir::Module &module_;
    LoweredModule lowered_;
    SimConfig config_;
    InputSource &inputs_;
    Timer timer_;
    Rng gapRng_;
    std::vector<ir::Word> ram_;
    uint64_t cycles_ = 0; //!< absolute cycle counter across the run
    /**
     * Per (procedure, physical position) edge counters. The per-block
     * loop only increments these; run() folds them into the profile
     * once, which gives the same cells as one addEdge per transfer
     * (every count is an integer below 2^53, so exact as a double).
     */
    std::vector<EdgeCounts> edgeCounts_;
    std::vector<size_t> edgeBase_; //!< ProcId -> first counter
};

} // namespace ct::sim

#endif // CT_SIM_MACHINE_HH
