/**
 * @file
 * Streaming Code Tomography: online EM over the bounded path set.
 *
 * The batch estimators need the full duration trace in memory. A sink
 * node receiving one timestamp report per packet wants to fold each
 * observation in as it arrives and keep little state: O(params) per
 * (mote, procedure) estimator, plus one immutable PathTable per
 * procedure shared by every estimator of it. This estimator implements
 * stochastic-approximation EM (Cappe & Moulines style): per
 * observation it computes path responsibilities under the current
 * theta and blends the resulting decision counts into exponentially-
 * weighted sufficient statistics with a decaying step size, then
 * re-normalizes theta.
 *
 * Support window. The noise kernel has bounded support: path p can
 * explain a measured duration d only when d lies inside
 * NoiseKernel::support() of p's reward, [lo_p, hi_p]; everywhere else
 * its responsibility is exactly 0. The shared PathTable indexes those
 * intervals once (PathWindow), so observe() evaluates the prior and
 * the kernel only for the candidate paths whose window contains d —
 * on loop-heavy procedures a small fraction of the path set.
 *
 * Why summation stays in path order. Candidates are visited in
 * ascending path index, the order the full loop over every path used,
 * and each skipped path would have contributed an exact +0.0 (theta is
 * clamped, so every prior is finite and positive, and the kernel is 0
 * outside the support). Floating-point addition is not associative,
 * so any other order (by window, or with aliased paths collapsed into
 * classes) would change the low bits of theta; this order keeps every
 * estimate, snapshot and digest bitwise equal to the full E-step.
 */

#ifndef CT_TOMOGRAPHY_STREAMING_HH
#define CT_TOMOGRAPHY_STREAMING_HH

#include <memory>

#include "tomography/latent_paths.hh"

namespace ct::tomography {

/** How selective a PathWindow is (estimator health, exported as
 *  metrics; see docs/OBSERVABILITY.md). */
struct WindowStats
{
    size_t paths = 0;
    /** Most paths whose support contains any one tick. */
    size_t maxCandidates = 0;
    /** Candidates per tick, averaged over every tick from the lowest
     *  support start to the highest support end. */
    double meanCandidates = 0.0;
};

/**
 * Index of the per-path support windows [lo, hi] (in ticks) of a path
 * set: entries sorted by lo (ties by path index), so the paths whose
 * window contains d are among those with lo in [d - maxWidth, d].
 */
struct PathWindow
{
    std::vector<int64_t> lo;    //!< window starts, ascending
    std::vector<int64_t> hi;    //!< window end of the same entry
    std::vector<uint32_t> path; //!< path index of the same entry
    int64_t maxWidth = 0;       //!< largest hi - lo

    /** Index the windows of @p rewards / @p extra_var_ticks2 (path
     *  order) under @p noise. */
    static PathWindow build(const NoiseKernel &noise,
                            const std::vector<double> &rewards,
                            const std::vector<double> &extra_var_ticks2);

    /** Replace @p out with the paths whose window contains
     *  @p duration_ticks, in ascending path order. Any int64_t value
     *  is valid input. */
    void candidates(int64_t duration_ticks,
                    std::vector<uint32_t> &out) const;

    /** Candidate-count summary; O(paths log paths), not for hot paths. */
    WindowStats stats() const;
};

/**
 * The latent path set one streaming estimator ranges over (per-path
 * decision signatures, rewards, residual variance and quantized
 * kernel operands; see LatentPaths) and its support windows. A pure
 * function of (model, options.pathEnum,
 * options.jitterSigmaTicks), so every estimator of the same
 * procedure can share one immutable table — at fleet scale
 * (one estimator per (mote, procedure), 10^5..10^6 motes) this turns
 * the per-estimator construction cost from a full path enumeration
 * into three vector handles, and the per-estimator footprint into the
 * mutable state alone.
 */
struct PathTable
{
    LatentPaths paths;
    /** The noise model the window was built under. */
    double jitterSigmaTicks = 0.0;
    PathWindow window;

    size_t pathCount() const { return paths.pathCount(); }

    /**
     * Enumerate under the agnostic prior and index the support
     * windows; fatal() when no path fits the enumeration bounds (same
     * contract as the estimator ctor). With metrics on, records the
     * window's stats() once per table.
     */
    static std::shared_ptr<const PathTable>
    build(const TimingModel &model, const EstimatorOptions &options);
};

/**
 * The complete mutable state of a StreamingEstimator, exposed so a
 * sink can persist online estimation across process restarts (see
 * store/checkpoint.hh). The latent path set, rewards and variances are
 * *not* part of the state: they are a pure function of the timing
 * model and enumeration options, rebuilt identically by the
 * constructor. Restoring a snapshot into a freshly constructed
 * estimator for the same (model, options) therefore continues the
 * observation stream bit-for-bit where the snapshot left off.
 */
struct StreamingState
{
    std::vector<double> theta;
    std::vector<double> statTaken;
    std::vector<double> statFall;
    uint64_t count = 0;
    uint64_t outliers = 0;

    bool operator==(const StreamingState &other) const = default;
};

/**
 * Divergence between two theta vectors over the same branch set — the
 * statistic the continuous-PGO drift detector (src/pgo) watches. All
 * three views compare per-branch Bernoulli distributions:
 * element-wise absolute deltas (mean and max) and the mean per-branch
 * Jensen-Shannon divergence in nats (bounded, symmetric, defined even
 * at the clamped extremes).
 */
struct DriftStats
{
    double meanAbsDelta = 0.0;
    double maxAbsDelta = 0.0;
    double jsDivergence = 0.0;
    size_t branches = 0;
};

/** Drift of @p current away from @p reference. The vectors must have
 *  equal length (same procedure, same branch order); both empty is
 *  allowed and yields all-zero stats. */
DriftStats thetaDrift(const std::vector<double> &reference,
                      const std::vector<double> &current);

class StreamingEstimator
{
  public:
    /**
     * @param model   the procedure's timing model (must outlive this)
     * @param options shared estimator knobs; pathEnum bounds the latent
     *        path set (enumerated once, under the agnostic prior)
     * @param step_exponent decay of the stochastic-EM step size
     *        rho_t = t^-exponent; must lie in (0.5, 1].
     * @param forgetting when > 0, overrides the decaying schedule with
     *        a constant step (rho = forgetting): the estimator then
     *        tracks *nonstationary* behaviour — a drifting environment
     *        changes branch probabilities, and an exponentially
     *        weighted window follows it at the cost of steady-state
     *        variance. Must lie in (0, 1).
     */
    StreamingEstimator(const TimingModel &model,
                       const EstimatorOptions &options = {},
                       double step_exponent = 0.7,
                       double forgetting = 0.0);

    /**
     * Same, but adopt an already-built @p table instead of enumerating
     * paths again — the fleet-scale constructor. @p table must have
     * been built for the same (model, options) pair; paramCount and
     * the jitter the window was built under are checked, deeper
     * mismatches are the caller's contract.
     */
    StreamingEstimator(const TimingModel &model,
                       std::shared_ptr<const PathTable> table,
                       const EstimatorOptions &options = {},
                       double step_exponent = 0.7,
                       double forgetting = 0.0);

    /** Fold one measured duration (ticks) in. */
    void observe(int64_t duration_ticks);

    /** Fold a whole sequence in, in order. */
    void observeAll(const std::vector<int64_t> &durations);

    /** Current estimate (params() order). */
    const std::vector<double> &theta() const { return theta_; }

    /** Observations processed so far. */
    uint64_t observations() const { return count_; }

    /** Observations that matched no path (likely outliers). */
    uint64_t outliers() const { return outliers_; }

    /// @name Drift diagnostics (nonstationary tracking; docs/PGO.md)
    /// @{
    /** The constant forgetting step, 0 when on the decaying schedule. */
    double forgetting() const { return forgetting_; }
    /**
     * How many recent observations effectively shape the current
     * estimate: 1/forgetting under the constant step (the exponential
     * window's time constant), the full count on the decaying
     * schedule. The drift detector uses this to ignore estimators
     * whose window holds too little evidence to compare.
     */
    double effectiveWindowObservations() const
    {
        return forgetting_ > 0.0 ? 1.0 / forgetting_ : double(count_);
    }
    /** Drift of the current theta away from @p reference (the frozen
     *  layout-time estimate in the continuous-PGO loop). */
    DriftStats driftFrom(const std::vector<double> &reference) const
    {
        return thetaDrift(reference, theta_);
    }
    /// @}

    /** Size of the latent path set. */
    size_t pathCount() const { return table_->pathCount(); }

    /** The (possibly shared) latent path table. */
    const std::shared_ptr<const PathTable> &table() const { return table_; }

    /** Copy out the mutable state (checkpointing). */
    StreamingState snapshot() const;

    /**
     * Adopt @p state wholesale, as if this estimator had processed the
     * snapshot's observation stream itself. The vectors must match
     * this model's paramCount() — panics otherwise (a snapshot from a
     * different procedure or module version must never be folded in
     * silently).
     */
    void restore(const StreamingState &state);

    /**
     * Fold another estimator's state into this one — the mergeable-
     * summary half of sharded collection (docs/FLEET.md). Semantics:
     *
     *   - @p other empty: no-op. This estimator empty: identical to
     *     restore(other). Both cases are *exact*: the result equals
     *     replaying the concatenated observation streams, bit for bit
     *     — and these are the only cases fleet sharding produces,
     *     because every (mote, procedure) stream lives wholly inside
     *     one shard, so two shards' banks never both hold state for
     *     the same estimator.
     *   - Both non-empty (overlapping streams, e.g. hierarchical
     *     aggregation of regional sinks): a principled approximation —
     *     the count-weighted convex combination of the exponentially
     *     weighted sufficient statistics, with theta re-derived from
     *     the merged statistics under the merged-count smoothing.
     *     Observation and outlier counts add.
     *
     * Parameter counts must match (same panic contract as restore()).
     */
    void mergeFrom(const StreamingState &other);

  private:
    void init(const EstimatorOptions &options, double step_exponent,
              double forgetting);

    const TimingModel &model_;
    NoiseKernel noise_;
    double stepExponent_;
    double forgetting_;
    double smoothing_;

    std::shared_ptr<const PathTable> table_; //!< immutable, shareable

    std::vector<double> theta_;
    std::vector<double> statTaken_; //!< EW sufficient statistics
    std::vector<double> statFall_;
    uint64_t count_ = 0;
    uint64_t outliers_ = 0;
};

/**
 * Pure-state merge with the same semantics as
 * StreamingEstimator::mergeFrom (exact when either side is empty,
 * count-weighted blend otherwise). @p smoothing is the estimator's
 * Dirichlet pseudo-count used to re-derive theta. Exposed so stores /
 * checkpoints can merge without constructing estimators.
 */
StreamingState mergeStreamingStates(const StreamingState &a,
                                    const StreamingState &b,
                                    double smoothing);

} // namespace ct::tomography

#endif // CT_TOMOGRAPHY_STREAMING_HH
