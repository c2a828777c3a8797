/**
 * @file
 * Estimator interface: from end-to-end timing samples to branch
 * probabilities — the inverse problem Code Tomography solves.
 */

#ifndef CT_TOMOGRAPHY_ESTIMATOR_HH
#define CT_TOMOGRAPHY_ESTIMATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "markov/paths.hh"
#include "tomography/timing_model.hh"
#include "trace/timing_trace.hh"

namespace ct::tomography {

/** Which estimation algorithm to run. */
enum class EstimatorKind {
    Linear, //!< reward-class histogram inversion
    Em,     //!< EM over the bounded path set (primary method)
    Moment, //!< moment matching via projected gradient (cheap fallback)
};

const char *estimatorName(EstimatorKind kind);

/** Knobs shared by the estimators. */
struct EstimatorOptions
{
    /** Bounded path enumeration limits (Linear and Em). */
    markov::PathEnumOptions pathEnum;
    /** Assumed per-timestamp jitter sigma, ticks (see NoiseKernel). */
    double jitterSigmaTicks = 0.0;
    /** Maximum EM / gradient iterations. */
    size_t maxIterations = 200;
    /** Convergence tolerance on max |delta theta|. */
    double tolerance = 1e-5;
    /** Dirichlet-style smoothing pseudo-count on branch decisions. */
    double smoothing = 0.1;
    /** Re-enumerate paths once around the converged theta (Em). */
    bool reenumerate = true;
    /** Random restarts (Moment). */
    size_t restarts = 8;
    /** Seed for restart initialization (Moment). */
    uint64_t seed = 0x7a11ab1e;
};

/** Outcome of estimating one procedure. */
struct EstimateResult
{
    /** Taken probabilities, in Procedure::branchBlocks() order. */
    std::vector<double> theta;

    /// @name Diagnostics
    /// @{
    size_t iterations = 0;
    double logLikelihood = 0.0;
    /** Probability mass covered by the enumerated path set. */
    double coveredPathMass = 1.0;
    size_t pathCount = 0;
    size_t rewardClasses = 0;
    /**
     * Mass (under the converged theta) of reward classes containing
     * paths with *different* branch decisions: the fundamentally
     * unidentifiable fraction of the behaviour.
     */
    double aliasedMass = 0.0;
    /// @}
};

/** Abstract estimation algorithm. */
class Estimator
{
  public:
    virtual ~Estimator() = default;
    virtual const char *name() const = 0;

    /**
     * Estimate branch probabilities of @p model's procedure from
     * measured durations (@p durations, ticks; one per invocation).
     */
    virtual EstimateResult estimate(const TimingModel &model,
                                    const std::vector<int64_t> &durations)
        const = 0;
};

std::unique_ptr<Estimator> makeEstimator(EstimatorKind kind,
                                         const EstimatorOptions &options);

/** Whole-module estimation outcome. */
struct ModuleEstimate
{
    /** Estimated per-procedure profiles (expected frequencies). */
    ir::ModuleProfile profile;
    /** Per-procedure theta vectors (empty when a proc had no samples). */
    std::vector<std::vector<double>> thetas;
    /** Per-procedure diagnostics. */
    std::vector<EstimateResult> results;
    /** Per-procedure estimated mean body cycles. */
    std::vector<double> meanCycles;
    /** Per-procedure estimated body-cycle variance (cycles^2). */
    std::vector<double> varCycles;
};

/**
 * Estimate every procedure of @p module bottom-up over the call graph,
 * so caller models can fold in the estimated mean duration of callees.
 * Procedures absent from the trace keep theta = 0.5 everywhere.
 *
 * @param nested_probe_cycles see TimingModel.
 */
ModuleEstimate estimateModule(const ir::Module &module,
                              const sim::LoweredModule &lowered,
                              const sim::CostModel &costs,
                              sim::PredictPolicy policy,
                              uint64_t cycles_per_tick,
                              double nested_probe_cycles,
                              const trace::TimingTrace &trace,
                              const Estimator &estimator);

} // namespace ct::tomography

#endif // CT_TOMOGRAPHY_ESTIMATOR_HH
