#include "tomography/linear_estimator.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hh"
#include "tomography/path_workspace.hh"
#include "util/logging.hh"

namespace ct::tomography {

LinearTomographyEstimator::LinearTomographyEstimator(EstimatorOptions options)
    : options_(std::move(options))
{
}

EstimateResult
LinearTomographyEstimator::estimate(
    const TimingModel &model, const std::vector<int64_t> &durations) const
{
    obs::StopwatchUs watch;
    EstimateResult result;
    result.theta.assign(model.paramCount(), 0.5);
    if (model.paramCount() == 0)
        return result;

    std::vector<double> uniform(model.paramCount(), 0.5);
    auto ws = PathWorkspace::build(model, durations, options_, uniform);
    const LatentPaths &latent = ws.paths;
    auto classes = markov::groupByReward(latent.rewards, latent.prob, 1e-6);
    const size_t n_classes = classes.size();

    // Class-level kernel: P(obs | class reward), widened by the class's
    // prior-weighted residual callee variance.
    NoiseKernel noise(model.cyclesPerTick(), options_.jitterSigmaTicks);
    std::vector<double> class_var(n_classes, 0.0);
    for (size_t c = 0; c < n_classes; ++c) {
        double mass = 0.0;
        for (size_t member : classes[c].members) {
            class_var[c] +=
                latent.prob[member] * latent.extraVarTicks2[member];
            mass += latent.prob[member];
        }
        if (mass > 0.0)
            class_var[c] /= mass;
    }
    std::vector<std::vector<double>> kernel(
        ws.obsValues.size(), std::vector<double>(n_classes, 0.0));
    for (size_t o = 0; o < ws.obsValues.size(); ++o)
        for (size_t c = 0; c < n_classes; ++c)
            kernel[o][c] = noise.prob(ws.obsValues[o], classes[c].reward,
                                      class_var[c]);

    // ML mixture weights over classes (uniform init — deliberately no
    // Markov prior here).
    std::vector<double> freq(n_classes, 1.0 / double(n_classes));
    std::vector<double> next(n_classes, 0.0);
    size_t iter = 0;
    for (; iter < options_.maxIterations; ++iter) {
        std::fill(next.begin(), next.end(), 0.0);
        result.logLikelihood = 0.0;
        for (size_t o = 0; o < ws.obsValues.size(); ++o) {
            double denom = 0.0;
            for (size_t c = 0; c < n_classes; ++c)
                denom += freq[c] * kernel[o][c];
            if (denom <= 0.0) {
                result.logLikelihood +=
                    ws.obsWeights[o] * NoiseKernel::logFloor();
                continue;
            }
            result.logLikelihood += ws.obsWeights[o] * std::log(denom);
            double scale = ws.obsWeights[o] / denom;
            for (size_t c = 0; c < n_classes; ++c)
                next[c] += freq[c] * kernel[o][c] * scale;
        }
        double total = 0.0;
        for (double v : next)
            total += v;
        if (total <= 0.0)
            break;
        double max_delta = 0.0;
        for (size_t c = 0; c < n_classes; ++c) {
            double updated = next[c] / total;
            max_delta = std::max(max_delta, std::abs(updated - freq[c]));
            freq[c] = updated;
        }
        if (max_delta < options_.tolerance) {
            ++iter;
            break;
        }
    }

    // Split each class's mass across its member paths proportionally to
    // the agnostic enumeration prior, then read branch decisions. The
    // weights are scaled back to observation counts so the smoothing
    // pseudo-count stays negligible against real data.
    std::vector<double> acc_taken(model.paramCount(), 0.0);
    std::vector<double> acc_fall(model.paramCount(), 0.0);
    for (size_t c = 0; c < n_classes; ++c) {
        double member_total = 0.0;
        for (size_t member : classes[c].members)
            member_total += latent.prob[member];
        if (member_total <= 0.0)
            continue;
        for (size_t member : classes[c].members) {
            double weight = ws.totalWeight * freq[c] *
                            latent.prob[member] / member_total;
            const uint32_t sig = latent.signature[member];
            const uint32_t *taken = latent.takenCounts(sig);
            const uint32_t *fall = latent.fallCounts(sig);
            for (size_t b = 0; b < model.paramCount(); ++b) {
                acc_taken[b] += weight * taken[b];
                acc_fall[b] += weight * fall[b];
            }
        }
    }
    for (size_t b = 0; b < model.paramCount(); ++b) {
        double total = acc_taken[b] + acc_fall[b];
        result.theta[b] = (acc_taken[b] + options_.smoothing) /
                          (total + 2.0 * options_.smoothing);
    }

    result.iterations = iter;
    result.pathCount = latent.pathCount();
    result.coveredPathMass = latent.coveredMass();
    result.rewardClasses = n_classes;
    double aliased = 0.0;
    for (size_t c = 0; c < n_classes; ++c) {
        const auto &members = classes[c].members;
        bool mixed = false;
        for (size_t m = 1; m < members.size() && !mixed; ++m)
            mixed = latent.signature[members[m]] !=
                    latent.signature[members[0]];
        if (mixed)
            aliased += freq[c];
    }
    result.aliasedMass = aliased;

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("tomography.linear.solves").add(1);
        m.histogram("tomography.linear.solve_us").record(watch.elapsedUs());
        m.series("tomography.linear.reward_classes")
            .append(double(n_classes));
        m.series("tomography.linear.covered_mass")
            .append(result.coveredPathMass);
        // Conditioning of the inversion: the smallest reward separation
        // between distinct classes, in ticks. Below ~1 tick adjacent
        // classes blur together under quantization and the class-mass
        // recovery is ill-conditioned regardless of sample count.
        std::vector<double> rewards(n_classes);
        for (size_t c = 0; c < n_classes; ++c)
            rewards[c] = classes[c].reward;
        std::sort(rewards.begin(), rewards.end());
        double min_gap = std::numeric_limits<double>::infinity();
        for (size_t c = 0; c + 1 < n_classes; ++c)
            min_gap = std::min(min_gap, rewards[c + 1] - rewards[c]);
        if (n_classes > 1)
            m.series("tomography.linear.min_class_gap_ticks")
                .append(min_gap / double(model.cyclesPerTick()));
    }
    return result;
}

} // namespace ct::tomography
