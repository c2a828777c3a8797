/**
 * @file
 * The latent path set the path-based estimators range over, built in
 * one depth-first pass and stored flat.
 *
 * Every consumer of the bounded path set (the batch workspace of the
 * Linear and EM estimators, the streaming PathTable, the fit check)
 * needs the same per-path quantities: enumeration probability, reward,
 * residual callee variance, the quantized noise-kernel operands, and
 * the branch decisions the path makes. LatentPaths::enumerate derives
 * all of them during markov::walkPaths: decision counts and variance
 * are prefix state of the walk, updated on enter/leave, so no path's
 * state sequence is ever materialized.
 *
 * Decision signatures. Many paths make the same decisions — on crc16,
 * 1022 paths share 54 (taken, fall) count vectors. Paths therefore
 * store a signature id, and the counts are stored once per signature.
 * A path's prior P(path | theta) depends on theta only through its
 * counts, so the estimators evaluate exp(log prior) once per signature
 * per theta, not once per path (docs/MODEL.md, "Signature priors").
 */

#ifndef CT_TOMOGRAPHY_LATENT_PATHS_HH
#define CT_TOMOGRAPHY_LATENT_PATHS_HH

#include <cstdint>
#include <vector>

#include "tomography/estimator.hh"
#include "tomography/noise_kernel.hh"

namespace ct::tomography {

struct LatentPaths
{
    size_t paramCount = 0;

    /// @name Per path, in markov::enumeratePaths order
    /// @{
    std::vector<double> prob;           //!< under the enumeration theta
    std::vector<double> rewards;        //!< cycles
    std::vector<double> extraVarTicks2; //!< residual variance, ticks^2
    std::vector<NoiseKernel::Quantized> quantized; //!< kernel operands
    std::vector<uint32_t> signature;    //!< decision-signature id
    /// @}

    /// @name Per signature, paramCount entries each
    /// @{
    std::vector<uint32_t> taken; //!< times each parameter went taken
    std::vector<uint32_t> fall;  //!< times each went fallthrough
    size_t signatureCount = 0;
    /// @}

    /** Probability mass of walks the enumeration bounds dropped. */
    double droppedMass = 0.0;

    size_t pathCount() const { return prob.size(); }

    const uint32_t *takenCounts(uint32_t sig) const
    {
        return taken.data() + size_t(sig) * paramCount;
    }
    const uint32_t *fallCounts(uint32_t sig) const
    {
        return fall.data() + size_t(sig) * paramCount;
    }

    /** Sum of the path probabilities, in path order. */
    double coveredMass() const;

    /**
     * out[s] = P(a path of signature s | @p theta) =
     * exp(sum_b taken_b log theta_b + fall_b log1p(-theta_b)), theta
     * clamped to [1e-12, 1 - 1e-12]. Terms with a zero count are
     * skipped and the rest are added in parameter order, so the value
     * is the same for any path of the signature however the sum is
     * grouped across paths.
     */
    void signaturePriors(const std::vector<double> &theta,
                         std::vector<double> &out) const;

    /**
     * Enumerate @p model's chain under @p enum_theta within
     * options.pathEnum, quantizing rewards under the kernel of
     * options.jitterSigmaTicks. May return no paths; callers decide
     * whether that is fatal.
     */
    static LatentPaths enumerate(const TimingModel &model,
                                 const std::vector<double> &enum_theta,
                                 const EstimatorOptions &options);
};

} // namespace ct::tomography

#endif // CT_TOMOGRAPHY_LATENT_PATHS_HH
