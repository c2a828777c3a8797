#include "tomography/fit_quality.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "tomography/latent_paths.hh"
#include "util/logging.hh"

namespace ct::tomography {

FitQuality
assessFit(const TimingModel &model, const std::vector<double> &theta,
          const std::vector<int64_t> &durations,
          const EstimatorOptions &options)
{
    CT_ASSERT(!durations.empty(), "assessFit needs observations");
    CT_ASSERT(theta.size() == model.paramCount(),
              "assessFit: theta size mismatch");

    // Predicted PMF: mixture of the per-path kernels under theta.
    // Enumerate with a clamped theta so low-probability alternatives
    // keep nonzero expansion mass, then weight exactly by theta.
    std::vector<double> enum_theta = theta;
    for (double &p : enum_theta)
        p = std::clamp(p, 0.05, 0.95);
    auto paths = LatentPaths::enumerate(model, enum_theta, options);
    if (paths.pathCount() == 0)
        fatal("assessFit: no paths enumerated for '", model.proc().name(),
              "'");

    NoiseKernel noise(model.cyclesPerTick(), options.jitterSigmaTicks);
    std::vector<double> prior;
    paths.signaturePriors(theta, prior);

    FitQuality out;
    double predicted_total = 0.0;
    for (size_t p = 0; p < paths.pathCount(); ++p) {
        double prob = prior[paths.signature[p]];
        if (prob <= 0.0)
            continue;
        auto [lo, hi] = NoiseKernel::window(paths.quantized[p]);
        for (int64_t t = lo; t <= hi; ++t) {
            double mass = prob * noise.prob(t, paths.quantized[p]);
            if (mass > 0.0) {
                out.predicted[t] += mass;
                predicted_total += mass;
            }
        }
    }
    // Normalize (bounded enumeration may drop tail mass).
    if (predicted_total > 0.0) {
        for (auto &[tick, mass] : out.predicted)
            mass /= predicted_total;
    }

    // Empirical PMF.
    std::map<int64_t, double> observed;
    for (int64_t d : durations)
        observed[d] += 1.0 / double(durations.size());

    // Total variation over the union support.
    std::set<int64_t> support;
    for (const auto &[tick, mass] : out.predicted)
        support.insert(tick);
    for (const auto &[tick, mass] : observed)
        support.insert(tick);
    double tv = 0.0;
    for (int64_t tick : support) {
        auto p_it = out.predicted.find(tick);
        auto o_it = observed.find(tick);
        double p = p_it == out.predicted.end() ? 0.0 : p_it->second;
        double o = o_it == observed.end() ? 0.0 : o_it->second;
        tv += std::abs(p - o);
    }
    out.totalVariation = 0.5 * tv;

    // Log likelihood and unexplained mass.
    double loglik = 0.0;
    double unexplained = 0.0;
    for (const auto &[tick, mass] : observed) {
        auto it = out.predicted.find(tick);
        double p = it == out.predicted.end() ? 0.0 : it->second;
        if (p < 1e-12) {
            unexplained += mass;
            loglik += mass * NoiseKernel::logFloor();
        } else {
            loglik += mass * std::log(p);
        }
    }
    out.meanLogLikelihood = loglik;
    out.unexplainedMass = unexplained;
    return out;
}

} // namespace ct::tomography
