#include "markov/paths.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ct::markov {

double
PathSet::coveredMass() const
{
    double sum = 0.0;
    for (const auto &path : paths)
        sum += path.prob;
    return sum;
}

namespace detail {

void
CachedChain::fill(size_t s)
{
    State &row = states_[s];
    row.filled = true;
    row.exitProb = chain_.exitProb(s);
    row.stateReward = chain_.stateReward(s);
    row.exitReward = chain_.exitReward(s);
    row.first = succ_.size();
    for (size_t next = 0; next < chain_.size(); ++next) {
        double p = chain_.transition(s, next);
        if (p <= 0.0)
            continue;
        succ_.push_back({next, p, chain_.edgeReward(s, next)});
    }
    row.last = succ_.size();
}

} // namespace detail

namespace {

/** Materializes every path with its state sequence. */
struct PathCollector
{
    std::vector<Path> &paths;
    std::vector<size_t> stack;

    void enter(size_t, size_t state) { stack.push_back(state); }
    void leave(size_t, size_t) { stack.pop_back(); }

    void
    emit(double prob, double reward)
    {
        Path path;
        path.states = stack;
        path.prob = prob;
        path.reward = reward;
        paths.push_back(std::move(path));
    }
};

/** Sort path indices by reward, then sweep merging near-equal runs. */
template <class RewardOf, class ProbOf>
std::vector<RewardClass>
groupSorted(size_t paths, RewardOf reward_of, ProbOf prob_of,
            double tolerance)
{
    std::vector<size_t> order(paths);
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return reward_of(a) < reward_of(b);
    });

    std::vector<RewardClass> classes;
    for (size_t idx : order) {
        const double reward = reward_of(idx);
        if (!classes.empty() &&
            std::abs(reward - classes.back().reward) <= tolerance) {
            classes.back().members.push_back(idx);
            classes.back().prob += prob_of(idx);
        } else {
            RewardClass cls;
            cls.reward = reward;
            cls.members = {idx};
            cls.prob = prob_of(idx);
            classes.push_back(std::move(cls));
        }
    }
    return classes;
}

} // namespace

PathSet
enumeratePaths(const AbsorbingChain &chain, size_t start,
               const PathEnumOptions &options)
{
    PathSet out;
    PathCollector collector{out.paths, {}};
    out.droppedMass = walkPaths(chain, start, options, collector);

    std::sort(out.paths.begin(), out.paths.end(),
              [](const Path &a, const Path &b) { return a.prob > b.prob; });
    return out;
}

std::vector<RewardClass>
groupByReward(const PathSet &set, double tolerance)
{
    return groupSorted(
        set.paths.size(), [&](size_t i) { return set.paths[i].reward; },
        [&](size_t i) { return set.paths[i].prob; }, tolerance);
}

std::vector<RewardClass>
groupByReward(const std::vector<double> &rewards,
              const std::vector<double> &probs, double tolerance)
{
    CT_ASSERT(rewards.size() == probs.size(),
              "groupByReward: rewards/probs size mismatch");
    return groupSorted(
        rewards.size(), [&](size_t i) { return rewards[i]; },
        [&](size_t i) { return probs[i]; }, tolerance);
}

} // namespace ct::markov
