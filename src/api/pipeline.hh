/**
 * @file
 * TomographyPipeline: the library's top-level public API.
 *
 * One call runs the complete Code Tomography workflow on a workload:
 *
 *   1. measure  — simulate the natural-layout binary with boundary
 *                 timing probes, producing the timing trace (and, for
 *                 evaluation only, the ground-truth edge profile);
 *   2. estimate — run a tomography estimator on the trace to recover
 *                 branch probabilities / edge frequencies;
 *   3. optimize — feed the estimated profile to the code placement
 *                 pass;
 *   4. evaluate — re-simulate every candidate placement (probes off)
 *                 and report misprediction rates and cycle counts,
 *                 alongside an oracle placement computed from the true
 *                 profile.
 *
 * The reference placements (natural, random, dfs and the "perfect"
 * oracle) need only the measured profile, so run() submits their
 * evaluations to the pool right after measure; they overlap estimate
 * on the calling thread, which then optimizes and evaluates
 * "tomography" itself. Outcomes keep the order natural, random, dfs,
 * tomography, perfect.
 *
 * Everything beyond those four stages is a call the caller composes
 * around run(), each taking its own config:
 *
 *   auto result = pipeline.run();
 *   api::TransportOutcome shipped;
 *   auto delivered = pipeline.transport(result.measureRun.trace,
 *                                       transport_cfg, shipped);
 *   auto ranking = pipeline.causalProfile(result.measureRun,
 *                                         result.estimate, causal_cfg);
 *   auto plan = pipeline.planBudget(result.estimate, budget_cfg);
 *   result.outcomes.push_back(pipeline.evaluate("budget", plan.orders));
 *
 * Relay shipping composes the public ct::relay calls (EstimatorBank ->
 * relay::snapshotFromBank -> relay::shipAndReceive per hop ->
 * adoptFromSnapshot; docs/RELAY.md), and continuous PGO constructs a
 * pgo::ContinuousPgo directly (docs/PGO.md).
 */

#ifndef CT_API_PIPELINE_HH
#define CT_API_PIPELINE_HH

#include <string>
#include <vector>

#include "budget/budget.hh"
#include "causal/causal.hh"
#include "layout/placement.hh"
#include "net/channel.hh"
#include "net/collector.hh"
#include "net/uplink.hh"
#include "relay/relay.hh"
#include "sim/machine.hh"
#include "tomography/estimator.hh"
#include "workloads/workload.hh"

namespace ct::api {

/**
 * transport(): ship a measurement trace through a simulated lossy
 * radio link (ct::net), so an estimate from the result sees only what
 * a real sink would have collected.
 */
struct TransportConfig
{
    /** Mote id stamped on the packets (1-based by convention). */
    uint16_t moteId = 1;
    size_t mtu = net::kDefaultMtu;
    net::ChannelConfig channel;
    net::UplinkConfig uplink;
    /** Sink knobs; collector.storeDir persists every delivered
     *  record to a durable store (WAL + crash recovery, docs/STORE.md). */
    net::CollectorConfig collector;
    /** Channel seed; 0 = derive from the pipeline seed. */
    uint64_t seed = 0;
    /**
     * Resume a persisted campaign: records recovered from
     * collector.storeDir are prepended to this run's delivered trace
     * (invocations renumbered per procedure), so an interrupted
     * campaign restarted on the same directory estimates from the
     * union of both runs.
     */
    bool resumeFromStore = false;
};

/**
 * causalProfile(): a ct::causal what-if profile on the natural layout,
 * ranking procedures by the end-to-end cycles (and TelosB energy) a
 * perfect placement of each would recover — the prioritizer that
 * tells the placement loop which procedure to fix first
 * (docs/CAUSAL.md). Costs one chain solve per procedure plus one
 * linear fold per (procedure, dial).
 */
struct CausalConfig
{
    /** Dial sweep per procedure (1.0 is always implied). */
    std::vector<double> dials = {0.25, 0.5, 0.75, 1.0};
    /** Also rank individual branch blocks. */
    bool perBlock = false;
    /**
     * Parameterize the chains from the measured ground-truth edge
     * profile instead of the estimator's thetas. With the true profile
     * the analytic deltas match re-simulation exactly (the ct::check
     * differential oracle); with estimated thetas the ranking reflects
     * what tomography alone can see.
     */
    bool useTrueProfile = false;
    /** When non-empty, write the ranked profile as JSON / CSV here. */
    std::string jsonOut;
    std::string csvOut;
};

/**
 * planBudget() (docs/BUDGET.md): price per-procedure candidate layouts
 * from an estimate with the causal model and select the best set that
 * fits a reprogramming budget (flash pages, RAM bytes, energy).
 * Evaluating the plan's orders next to the unconstrained candidates
 * shows directly what the constraint costs against the tomography
 * placement.
 */
struct BudgetConfig
{
    /** The mote's reprogramming budget (default: unlimited, in which
     *  case the plan degenerates to the tomography placement). */
    budget::BudgetSpec spec;
    /** Candidate pricing knobs (strategies, cost model, energy
     *  weight). */
    budget::InstanceOptions options;
    budget::Solver solver = budget::Solver::Auto;
    budget::DpLimits limits;
};

/** Pipeline configuration. */
struct PipelineConfig
{
    tomography::EstimatorKind estimator = tomography::EstimatorKind::Em;
    tomography::EstimatorOptions estimatorOptions;
    sim::SimConfig sim;
    /** Invocations in the timing-measurement campaign. */
    size_t measureInvocations = 2'000;
    /** Invocations when evaluating each candidate placement. */
    size_t evalInvocations = 5'000;
    uint64_t seed = 1;
    /**
     * Worker threads for the reference-placement evaluations, which
     * overlap estimation (see the file comment). 0 = auto:
     * the CT_JOBS environment variable when set, else the hardware
     * thread count. 1 = the exact historical serial path (no worker
     * threads at all). Every evaluation derives its seeds from the
     * placement, never from the executing thread, so results are
     * bit-identical for every jobs value — see exec/thread_pool.hh.
     */
    size_t jobs = 0;

    /// @name Observability exporters (see docs/OBSERVABILITY.md)
    /// @{
    /**
     * Where run() writes the span trace (Chrome trace-event JSON,
     * loadable in Perfetto). Empty: fall back to $CT_TRACE_OUT;
     * tracing stays off when that is also unset.
     */
    std::string traceOut;
    /**
     * Where run() writes the metrics registry JSON (stage latencies,
     * simulator totals, estimator convergence series). Empty: fall
     * back to $CT_METRICS_OUT; recording stays off when that is also
     * unset.
     */
    std::string metricsOut;
    /// @}
};

/** What transport() did. */
struct TransportOutcome
{
    bool complete = false; //!< sink accepted every packet
    size_t packets = 0;
    uint64_t rounds = 0;
    size_t recordsSent = 0;
    size_t recordsDelivered = 0;
    /** Records appended to the durable store this run (0 without one). */
    uint64_t recordsPersisted = 0;
    /** Records recovered from the store and prepended on resume. */
    uint64_t recordsRecovered = 0;
    net::ChannelStats channel;
    net::UplinkStats uplink;
    net::CollectorStats collector;
};

/** One procedure's budget decision, for reporting. */
struct BudgetChoice
{
    std::string proc;
    std::string candidate; //!< "keep" or the chosen layout's name
    double gainCyclesPerEvent = 0.0;
    uint64_t flashBytes = 0;
};

/** What planBudget() decided. */
struct BudgetOutcome
{
    /** The solved plan: chosen assignment, solver gap, binding
     *  dimensions, upgrade/deferred counts. */
    budget::BudgetPlan plan;
    /** Instance shape, for reporting. */
    size_t groups = 0;
    size_t candidates = 0;
    double baselineCyclesPerEvent = 0.0;
    /** Chosen candidate per group, in group (procedure id) order. */
    std::vector<BudgetChoice> choices;
    /** Materialized per-procedure orders of the chosen assignment
     *  (empty order = keep = natural, the pipeline's current layout);
     *  what a "budget" evaluation runs. */
    std::vector<sim::BlockOrder> orders;
};

/** Simulated outcome of one placement. */
struct LayoutOutcome
{
    std::string name; //!< natural/random/dfs/tomography/perfect
    double mispredictRate = 0.0;
    double takenRate = 0.0;
    uint64_t totalCycles = 0;
    uint64_t mispredicted = 0;
    uint64_t branchesExecuted = 0;
    uint64_t dynamicJumps = 0;
    /** Energy of the evaluation run under the TelosB energy model. */
    double energyMicrojoules = 0.0;
};

/** Everything one pipeline run produces. */
struct PipelineResult
{
    /** The measurement campaign (trace + ground truth). */
    sim::RunResult measureRun;
    /** Tomography's output, estimated from measureRun.trace. */
    tomography::ModuleEstimate estimate;

    /// @name Estimation accuracy (evaluation-only; uses ground truth)
    /// @{
    /** Concatenated true branch probabilities over estimated procs. */
    std::vector<double> trueTheta;
    /** Concatenated estimated branch probabilities (same order). */
    std::vector<double> estimatedTheta;
    double branchMae = 0.0;
    double branchMaxError = 0.0;
    /// @}

    /** Outcomes in order: natural, random, dfs, tomography, perfect
     *  (callers may append their own evaluations, e.g. "budget"). */
    std::vector<LayoutOutcome> outcomes;

    /** Convenience accessors; fatal() if the name is absent. */
    const LayoutOutcome &outcome(const std::string &name) const;

    /** % cycles saved by the tomography placement vs natural. */
    double cyclesImprovementPct() const;
    /** % cycles saved by the oracle placement vs natural. */
    double perfectImprovementPct() const;
    /** Misprediction-rate reduction (absolute) vs natural. */
    double mispredictReduction() const;
    /** % energy saved by the tomography placement vs natural. */
    double energyImprovementPct() const;
};

/** Runs the measure -> estimate -> optimize -> evaluate workflow. */
class TomographyPipeline
{
  public:
    TomographyPipeline(workloads::Workload workload, PipelineConfig config);

    /**
     * Execute all four stages. When a trace/metrics output is
     * configured (config fields or environment), the process-wide
     * obs exporters are enabled for the duration and the files are
     * written before returning.
     */
    PipelineResult run();

    /// @name Individual stages (for callers composing their own flow)
    /// @{
    sim::RunResult measure();
    /**
     * Ship @p trace through the lossy link @p config describes and
     * return what the sink reassembled (identical to the input when
     * nothing was lost past the retransmit budget).
     */
    trace::TimingTrace transport(const trace::TimingTrace &trace,
                                 const TransportConfig &config,
                                 TransportOutcome &outcome);
    /**
     * Reconstruct the durable record prefix of a store directory as a
     * timing trace (invocations assigned in replay order per
     * procedure, oracle cycles unknown — wire records do not carry
     * them). This is what a resumed run prepends; exposed for
     * offline inspection of an interrupted campaign. A sharded fleet
     * root (holding `shard-NNN` subdirectories, see docs/FLEET.md) is
     * recovered shard by shard in shard order, each shard's prefix
     * replayed via the unchanged single-store invariant.
     */
    static trace::TimingTrace recoverTrace(const std::string &store_dir);
    tomography::ModuleEstimate estimate(const trace::TimingTrace &trace);
    /**
     * Derive the pipeline's estimate from a shipped relay snapshot
     * instead of a trace: a fresh root (new process, no WAL, no
     * telemetry) adopts a campaign wholesale and proceeds straight to
     * placement. Per-(mote, proc) states collapse onto one estimate
     * per procedure (relay::estimateFromSnapshot).
     */
    tomography::ModuleEstimate
    adoptFromSnapshot(const relay::Snapshot &snapshot);
    /** Same, reading a `.ctsnap` image file; nullopt when the file is
     *  unreadable or fails the all-or-nothing validation. */
    std::optional<tomography::ModuleEstimate>
    adoptFromSnapshotFile(const std::string &path);
    /**
     * Build the what-if causal profile per @p config from a
     * measurement run and the estimate derived from it (the estimate is
     * unused when useTrueProfile is set). Writes the configured JSON /
     * CSV exports and records causal.* metrics.
     */
    causal::CausalProfile causalProfile(
        const sim::RunResult &measure_run,
        const tomography::ModuleEstimate &estimate,
        const CausalConfig &config);
    std::vector<sim::BlockOrder> optimize(const ir::ModuleProfile &profile);
    /**
     * Budget-constrained placement selection per @p config: price
     * candidate layouts from @p estimate with the causal model against
     * the natural layout and solve the knapsack.
     */
    BudgetOutcome planBudget(const tomography::ModuleEstimate &estimate,
                             const BudgetConfig &config);
    LayoutOutcome evaluate(const std::string &name,
                           const std::vector<sim::BlockOrder> &orders);
    /// @}

    const workloads::Workload &workload() const { return workload_; }
    const PipelineConfig &config() const { return config_; }

  private:
    /** The four stages under one root span, sans exporter handling. */
    PipelineResult runStages();

    /// @name Stage bodies taking an already-lowered module
    /// runStages() lowers the natural layout once and feeds it to both;
    /// the public measure()/estimate() wrappers lower on demand.
    /// @{
    sim::RunResult measureWith(const sim::LoweredModule &lowered);
    tomography::ModuleEstimate estimateWith(const trace::TimingTrace &trace,
                                            const sim::LoweredModule &lowered);
    /// @}

    workloads::Workload workload_;
    PipelineConfig config_;
};

} // namespace ct::api

#endif // CT_API_PIPELINE_HH
