/**
 * @file
 * Shared preparation for the path-based estimators (Linear, Em): the
 * latent path set (LatentPaths) and the observation-likelihood matrix
 * over the distinct measured durations.
 */

#ifndef CT_TOMOGRAPHY_PATH_WORKSPACE_HH
#define CT_TOMOGRAPHY_PATH_WORKSPACE_HH

#include <vector>

#include "tomography/latent_paths.hh"

namespace ct::tomography {

/** Precomputed quantities shared by one estimation run. */
struct PathWorkspace
{
    LatentPaths paths;

    std::vector<int64_t> obsValues; //!< distinct measured durations, ticks
    std::vector<double> obsWeights; //!< multiplicity of each value
    double totalWeight = 0.0;

    /**
     * Observation-likelihood matrix, row-major and contiguous:
     * kernelRow(o)[p] = P(obsValues[o] | path p). One flat buffer
     * (rows of kernelStride doubles) instead of a vector-of-vectors so
     * the EM E-step streams it without per-row indirection.
     */
    std::vector<double> kernel;
    size_t kernelStride = 0; //!< paths per row

    const double *kernelRow(size_t o) const
    {
        return kernel.data() + o * kernelStride;
    }

    /**
     * Build: histogram @p durations, then enumerate() under
     * @p enum_theta.
     */
    static PathWorkspace build(const TimingModel &model,
                               const std::vector<int64_t> &durations,
                               const EstimatorOptions &options,
                               const std::vector<double> &enum_theta);

    /**
     * Replace the path set with @p model's paths under @p enum_theta
     * and refill the kernel; the duration histogram is kept. fatal()
     * when the bounds leave no path.
     */
    void enumerate(const TimingModel &model, const EstimatorOptions &options,
                   const std::vector<double> &enum_theta);
};

} // namespace ct::tomography

#endif // CT_TOMOGRAPHY_PATH_WORKSPACE_HH
