#include "tomography/streaming.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace ct::tomography {

PathWindow
PathWindow::build(const NoiseKernel &noise, const std::vector<double> &rewards,
                  const std::vector<double> &extra_var_ticks2)
{
    const size_t paths = rewards.size();
    std::vector<std::pair<int64_t, int64_t>> spans(paths);
    for (size_t p = 0; p < paths; ++p)
        spans[p] = noise.support(rewards[p], extra_var_ticks2[p]);
    std::vector<uint32_t> order(paths);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return spans[a].first < spans[b].first;
    });

    PathWindow window;
    window.lo.reserve(paths);
    window.hi.reserve(paths);
    window.path.reserve(paths);
    for (uint32_t p : order) {
        window.lo.push_back(spans[p].first);
        window.hi.push_back(spans[p].second);
        window.path.push_back(p);
        window.maxWidth =
            std::max(window.maxWidth, spans[p].second - spans[p].first);
    }
    return window;
}

void
PathWindow::candidates(int64_t duration_ticks,
                       std::vector<uint32_t> &out) const
{
    out.clear();
    // A window containing d starts no earlier than d - maxWidth; below
    // INT64_MIN + maxWidth that bound saturates.
    int64_t from;
    if (__builtin_sub_overflow(duration_ticks, maxWidth, &from))
        from = std::numeric_limits<int64_t>::min();
    const size_t first =
        size_t(std::lower_bound(lo.begin(), lo.end(), from) - lo.begin());
    const size_t last = size_t(
        std::upper_bound(lo.begin() + first, lo.end(), duration_ticks) -
        lo.begin());
    for (size_t i = first; i < last; ++i)
        if (hi[i] >= duration_ticks)
            out.push_back(path[i]);
    std::sort(out.begin(), out.end());
}

WindowStats
PathWindow::stats() const
{
    WindowStats out;
    out.paths = lo.size();
    if (lo.empty())
        return out;

    // Sweep the window starts (sorted) against the sorted window ends:
    // the candidate count steps up at lo and down just past hi.
    std::vector<int64_t> ends = hi;
    std::sort(ends.begin(), ends.end());
    size_t open = 0;
    size_t e = 0;
    for (int64_t start : lo) {
        while (e < ends.size() && ends[e] < start) {
            --open;
            ++e;
        }
        out.maxCandidates = std::max(out.maxCandidates, ++open);
    }

    double covered = 0.0;
    for (size_t i = 0; i < lo.size(); ++i)
        covered += double(hi[i] - lo[i]) + 1.0;
    const double range = double(ends.back() - lo.front()) + 1.0;
    out.meanCandidates = covered / range;
    return out;
}

std::shared_ptr<const PathTable>
PathTable::build(const TimingModel &model, const EstimatorOptions &options)
{
    auto table = std::make_shared<PathTable>();
    table->jitterSigmaTicks = options.jitterSigmaTicks;

    // Latent path set, enumerated once under the agnostic prior.
    std::vector<double> prior(model.paramCount(), 0.5);
    table->paths = LatentPaths::enumerate(model, prior, options);
    if (table->paths.pathCount() == 0)
        fatal("streaming estimator: no paths enumerated for '",
              model.proc().name(), "'");
    table->window = PathWindow::build(
        NoiseKernel(model.cyclesPerTick(), options.jitterSigmaTicks),
        table->paths.rewards, table->paths.extraVarTicks2);

    if (obs::metricsEnabled()) {
        WindowStats stats = table->window.stats();
        auto &m = obs::metrics();
        m.series("tomography.streaming.window_paths")
            .append(double(stats.paths));
        m.series("tomography.streaming.window_max_candidates")
            .append(double(stats.maxCandidates));
        m.series("tomography.streaming.window_mean_candidates")
            .append(stats.meanCandidates);
    }
    return table;
}

DriftStats
thetaDrift(const std::vector<double> &reference,
           const std::vector<double> &current)
{
    CT_ASSERT(reference.size() == current.size(),
              "thetaDrift: branch count mismatch (", reference.size(),
              " vs ", current.size(), ")");
    DriftStats out;
    out.branches = current.size();
    if (current.empty())
        return out;

    // Per-branch Bernoulli JS divergence; clamp away exact 0/1 so the
    // logs stay finite (observe() clamps theta the same way).
    auto kl = [](double p, double q) {
        return p * std::log(p / q) + (1.0 - p) * std::log((1.0 - p) /
                                                          (1.0 - q));
    };
    double sum_abs = 0.0;
    double sum_js = 0.0;
    for (size_t b = 0; b < current.size(); ++b) {
        double p = std::clamp(reference[b], 1e-6, 1.0 - 1e-6);
        double q = std::clamp(current[b], 1e-6, 1.0 - 1e-6);
        double d = std::abs(p - q);
        sum_abs += d;
        out.maxAbsDelta = std::max(out.maxAbsDelta, d);
        double m = 0.5 * (p + q);
        sum_js += 0.5 * (kl(p, m) + kl(q, m));
    }
    out.meanAbsDelta = sum_abs / double(current.size());
    out.jsDivergence = sum_js / double(current.size());
    return out;
}

StreamingEstimator::StreamingEstimator(const TimingModel &model,
                                       const EstimatorOptions &options,
                                       double step_exponent,
                                       double forgetting)
    : model_(model),
      noise_(model.cyclesPerTick(), options.jitterSigmaTicks),
      stepExponent_(step_exponent), forgetting_(forgetting),
      smoothing_(options.smoothing),
      table_(PathTable::build(model, options))
{
    init(options, step_exponent, forgetting);
}

StreamingEstimator::StreamingEstimator(const TimingModel &model,
                                       std::shared_ptr<const PathTable> table,
                                       const EstimatorOptions &options,
                                       double step_exponent,
                                       double forgetting)
    : model_(model),
      noise_(model.cyclesPerTick(), options.jitterSigmaTicks),
      stepExponent_(step_exponent), forgetting_(forgetting),
      smoothing_(options.smoothing), table_(std::move(table))
{
    CT_ASSERT(table_ != nullptr, "streaming estimator: null path table");
    CT_ASSERT(table_->paths.paramCount == model.paramCount(),
              "streaming estimator: path table parameter count mismatch "
              "for '", model.proc().name(), "'");
    CT_ASSERT(table_->jitterSigmaTicks == options.jitterSigmaTicks,
              "streaming estimator: path table built for another jitter "
              "sigma for '", model.proc().name(), "'");
    init(options, step_exponent, forgetting);
}

void
StreamingEstimator::init(const EstimatorOptions &, double step_exponent,
                         double forgetting)
{
    CT_ASSERT(step_exponent > 0.5 && step_exponent <= 1.0,
              "step exponent must lie in (0.5, 1]");
    CT_ASSERT(forgetting >= 0.0 && forgetting < 1.0,
              "forgetting factor must lie in [0, 1)");

    theta_.assign(model_.paramCount(), 0.5);
    statTaken_.assign(model_.paramCount(), 0.0);
    statFall_.assign(model_.paramCount(), 0.0);
}

namespace {

/**
 * E-step scratch, one per thread rather than per estimator: a fleet
 * sink holds 10^5..10^6 estimators but folds observations on a few
 * worker threads, so per-estimator state stays the O(params) vectors.
 * Buffers only grow; steady-state observe() does not allocate.
 */
struct EStepScratch
{
    std::vector<uint32_t> paths;  //!< candidate path indices
    std::vector<double> resp;     //!< per candidate, unnormalized
    std::vector<double> logTaken; //!< per param: log(theta)
    std::vector<double> logFall;  //!< per param: log1p(-theta)
    std::vector<double> taken;    //!< per param: expected taken count
    std::vector<double> fall;     //!< per param: expected fall count
};

EStepScratch &
eStepScratch()
{
    thread_local EStepScratch scratch;
    return scratch;
}

} // namespace

void
StreamingEstimator::observe(int64_t duration_ticks)
{
    if (theta_.empty()) {
        ++count_;
        return;
    }

    // E-step for this single observation, over the paths whose kernel
    // support contains the duration; every other path's
    // responsibility is exactly 0. Candidates come in path order, so
    // each sum below adds the same terms in the same order as a loop
    // over all paths (see the file comment).
    EStepScratch &scratch = eStepScratch();
    table_->window.candidates(duration_ticks, scratch.paths);
    const LatentPaths &paths = table_->paths;
    const size_t params = theta_.size();
    const size_t candidates = scratch.paths.size();

    // log(theta) terms of LatentPaths::signaturePriors, hoisted out of the
    // path loop with its clamp.
    scratch.logTaken.resize(params);
    scratch.logFall.resize(params);
    for (size_t b = 0; b < params; ++b) {
        double p = std::clamp(theta_[b], 1e-12, 1.0 - 1e-12);
        scratch.logTaken[b] = std::log(p);
        scratch.logFall[b] = std::log1p(-p);
    }

    // A zero kernel makes the responsibility prior * 0 = +0.0 whatever
    // the (finite) prior, so the prior is only evaluated when needed.
    scratch.resp.resize(candidates);
    double denom = 0.0;
    for (size_t c = 0; c < candidates; ++c) {
        const uint32_t p = scratch.paths[c];
        double kernel = noise_.prob(duration_ticks, paths.quantized[p]);
        double resp = 0.0;
        if (kernel > 0.0) {
            const uint32_t *taken = paths.takenCounts(paths.signature[p]);
            const uint32_t *fall = paths.fallCounts(paths.signature[p]);
            double lp = 0.0;
            for (size_t b = 0; b < params; ++b) {
                if (taken[b] > 0)
                    lp += double(taken[b]) * scratch.logTaken[b];
                if (fall[b] > 0)
                    lp += double(fall[b]) * scratch.logFall[b];
            }
            resp = std::exp(lp) * kernel;
        }
        scratch.resp[c] = resp;
        denom += resp;
    }
    ++count_;
    if (denom <= 0.0) {
        ++outliers_;
        return;
    }

    // Expected decision counts under the responsibilities.
    scratch.taken.assign(params, 0.0);
    scratch.fall.assign(params, 0.0);
    for (size_t c = 0; c < candidates; ++c) {
        const uint32_t sig = paths.signature[scratch.paths[c]];
        const uint32_t *taken = paths.takenCounts(sig);
        const uint32_t *fall = paths.fallCounts(sig);
        double w = scratch.resp[c] / denom;
        for (size_t b = 0; b < params; ++b) {
            scratch.taken[b] += w * taken[b];
            scratch.fall[b] += w * fall[b];
        }
    }

    // Stochastic-approximation blend of the sufficient statistics.
    // Constant-step ("forgetting") mode tracks drifting environments.
    double rho = forgetting_ > 0.0
                     ? forgetting_
                     : std::pow(double(count_), -stepExponent_);
    for (size_t b = 0; b < params; ++b) {
        statTaken_[b] = (1.0 - rho) * statTaken_[b] + rho * scratch.taken[b];
        statFall_[b] = (1.0 - rho) * statFall_[b] + rho * scratch.fall[b];

        double total = statTaken_[b] + statFall_[b];
        // The smoothing pseudo-count shrinks as evidence accumulates.
        double s = smoothing_ / double(count_);
        theta_[b] = (statTaken_[b] + s) / (total + 2.0 * s);
        theta_[b] = std::clamp(theta_[b], 1e-6, 1.0 - 1e-6);
    }
}

StreamingState
StreamingEstimator::snapshot() const
{
    StreamingState state;
    state.theta = theta_;
    state.statTaken = statTaken_;
    state.statFall = statFall_;
    state.count = count_;
    state.outliers = outliers_;
    return state;
}

void
StreamingEstimator::restore(const StreamingState &state)
{
    CT_ASSERT(state.theta.size() == theta_.size() &&
                  state.statTaken.size() == statTaken_.size() &&
                  state.statFall.size() == statFall_.size(),
              "streaming snapshot parameter count mismatch for '",
              model_.proc().name(), "'");
    theta_ = state.theta;
    statTaken_ = state.statTaken;
    statFall_ = state.statFall;
    count_ = state.count;
    outliers_ = state.outliers;
}

void
StreamingEstimator::mergeFrom(const StreamingState &other)
{
    CT_ASSERT(other.theta.size() == theta_.size() &&
                  other.statTaken.size() == statTaken_.size() &&
                  other.statFall.size() == statFall_.size(),
              "streaming merge parameter count mismatch for '",
              model_.proc().name(), "'");
    restore(mergeStreamingStates(snapshot(), other, smoothing_));
}

StreamingState
mergeStreamingStates(const StreamingState &a, const StreamingState &b,
                     double smoothing)
{
    // The exact cases: one side never observed anything, so the merge
    // *is* the other side's replay — adopting its state verbatim
    // continues that stream bit-for-bit. Fleet sharding only ever
    // lands here (each (mote, procedure) stream is wholly inside one
    // shard), which is what makes merged shard banks bitwise equal to
    // the unsharded bank.
    if (b.count == 0)
        return a;
    if (a.count == 0)
        return b;

    CT_ASSERT(a.theta.size() == b.theta.size() &&
                  a.statTaken.size() == b.statTaken.size() &&
                  a.statFall.size() == b.statFall.size(),
              "streaming merge parameter count mismatch");

    // Overlapping streams: count-weighted convex combination of the
    // exponentially weighted sufficient statistics — each side's stats
    // already average its own stream, so weighting by observation
    // count recovers the pooled average; theta is re-derived from the
    // merged statistics exactly the way observe() derives it.
    StreamingState out;
    const double na = double(a.count);
    const double nb = double(b.count);
    const double n = na + nb;
    out.count = a.count + b.count;
    out.outliers = a.outliers + b.outliers;
    out.theta.resize(a.theta.size());
    out.statTaken.resize(a.statTaken.size());
    out.statFall.resize(a.statFall.size());
    for (size_t i = 0; i < a.statTaken.size(); ++i) {
        out.statTaken[i] = (na * a.statTaken[i] + nb * b.statTaken[i]) / n;
        out.statFall[i] = (na * a.statFall[i] + nb * b.statFall[i]) / n;
        double total = out.statTaken[i] + out.statFall[i];
        double s = smoothing / double(out.count);
        out.theta[i] = (out.statTaken[i] + s) / (total + 2.0 * s);
        out.theta[i] = std::clamp(out.theta[i], 1e-6, 1.0 - 1e-6);
    }
    return out;
}

void
StreamingEstimator::observeAll(const std::vector<int64_t> &durations)
{
    for (int64_t d : durations)
        observe(d);
}

} // namespace ct::tomography
