#include "tomography/path_workspace.hh"

#include <algorithm>
#include <map>

#include "util/logging.hh"

namespace ct::tomography {

PathWorkspace
PathWorkspace::build(const TimingModel &model,
                     const std::vector<int64_t> &durations,
                     const EstimatorOptions &options,
                     const std::vector<double> &enum_theta)
{
    CT_ASSERT(!durations.empty(), "PathWorkspace: no observations");

    PathWorkspace ws;
    std::map<int64_t, double> histogram;
    for (int64_t d : durations)
        histogram[d] += 1.0;
    for (const auto &[value, weight] : histogram) {
        ws.obsValues.push_back(value);
        ws.obsWeights.push_back(weight);
        ws.totalWeight += weight;
    }
    ws.enumerate(model, options, enum_theta);
    return ws;
}

void
PathWorkspace::enumerate(const TimingModel &model,
                         const EstimatorOptions &options,
                         const std::vector<double> &enum_theta)
{
    paths = LatentPaths::enumerate(model, enum_theta, options);
    if (paths.pathCount() == 0)
        fatal("path enumeration produced no paths for '",
              model.proc().name(),
              "'; relax PathEnumOptions (minProb/maxVisitsPerState)");

    // prob() is exactly +0.0 outside each path's tick window, as the
    // zero fill already holds, so only the distinct durations inside
    // the window (obsValues is ascending) are evaluated.
    NoiseKernel noise(model.cyclesPerTick(), options.jitterSigmaTicks);
    kernelStride = paths.pathCount();
    kernel.assign(obsValues.size() * kernelStride, 0.0);
    for (size_t p = 0; p < kernelStride; ++p) {
        const NoiseKernel::Quantized &duration = paths.quantized[p];
        auto [lo, hi] = NoiseKernel::window(duration);
        size_t o = size_t(
            std::lower_bound(obsValues.begin(), obsValues.end(), lo) -
            obsValues.begin());
        for (; o < obsValues.size() && obsValues[o] <= hi; ++o)
            kernel[o * kernelStride + p] = noise.prob(obsValues[o], duration);
    }
}

} // namespace ct::tomography
