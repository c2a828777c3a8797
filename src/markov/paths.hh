/**
 * @file
 * Bounded enumeration of absorbing-walk paths.
 *
 * The tomography estimators reason over an explicit, bounded set of
 * likely paths (latent classes in the EM formulation; rows of the linear
 * system in the histogram-inversion formulation). Loops make the exact
 * path set infinite, so enumeration is bounded by per-state visit caps
 * and a minimum path probability, and the dropped tail mass is reported.
 */

#ifndef CT_MARKOV_PATHS_HH
#define CT_MARKOV_PATHS_HH

#include <cstdint>
#include <vector>

#include "markov/chain.hh"
#include "util/logging.hh"

namespace ct::markov {

/** One enumerated path through the chain. */
struct Path
{
    std::vector<size_t> states; //!< transient states in visit order
    double prob = 0.0;          //!< probability of exactly this walk
    double reward = 0.0;        //!< deterministic total reward of the walk
};

/** Enumeration bounds. */
struct PathEnumOptions
{
    /** Drop paths whose probability falls below this while expanding. */
    double minProb = 1e-6;
    /** Per-state visit cap (bounds loop unrolling). */
    uint32_t maxVisitsPerState = 12;
    /** Hard cap on the number of emitted paths. */
    size_t maxPaths = 50'000;
    /** Hard cap on path length. */
    size_t maxLength = 4'096;
};

/** Result of enumeration: the paths plus the probability mass dropped. */
struct PathSet
{
    std::vector<Path> paths;
    /** Probability mass of walks not represented (pruned tail). */
    double droppedMass = 0.0;

    /** Sum of emitted path probabilities (1 - droppedMass up to fp). */
    double coveredMass() const;
};

/**
 * Enumerate paths from @p start until absorption, depth-first, pruning
 * by the options. Probabilities use the chain's transitions; rewards use
 * its state/edge/exit rewards. Paths come back sorted by descending
 * probability.
 */
PathSet enumeratePaths(const AbsorbingChain &chain, size_t start,
                       const PathEnumOptions &options = {});

/** `from` of the start state in walkPaths visitor calls. */
inline constexpr size_t kNoState = ~size_t(0);

/**
 * The depth-first walk behind enumeratePaths(), for callers that fold
 * every path into their own storage instead of materializing a Path.
 * @p visitor is called as
 *
 *   enter(from, state)   state joins the walk via edge from -> state
 *                        (from == kNoState for @p start)
 *   leave(from, state)   ... and leaves it again
 *   emit(prob, reward)   the walk so far, ending at the state entered
 *                        last, is an accepted path
 *
 * Paths arrive in walk order, unsorted. Returns the dropped mass.
 */
template <class Visitor>
double walkPaths(const AbsorbingChain &chain, size_t start,
                 const PathEnumOptions &options, Visitor &visitor);

/**
 * Group paths by (near-)equal reward: paths whose rewards differ by at
 * most @p tolerance share a class. Returns, per class, the representative
 * reward and the member path indices. Classes are sorted by reward.
 * This captures the *aliasing* structure of end-to-end timing: within a
 * class, boundary timing alone cannot distinguish members.
 */
struct RewardClass
{
    double reward = 0.0;
    std::vector<size_t> members; //!< indices into PathSet::paths
    double prob = 0.0;           //!< total probability of the class
};

std::vector<RewardClass> groupByReward(const PathSet &set,
                                       double tolerance = 1e-9);

/** The same grouping over flat per-path @p rewards and @p probs. */
std::vector<RewardClass> groupByReward(const std::vector<double> &rewards,
                                       const std::vector<double> &probs,
                                       double tolerance = 1e-9);

namespace detail {

/**
 * A chain's per-state data in the form one depth-first enumeration
 * reads it, filled on the state's first visit: exit probability,
 * state and exit rewards, and the successors with positive transition
 * probability in ascending state order. Every value is the chain's
 * own accessor result, so a walk over the cache multiplies and adds
 * the same operands, in the same order, as a scan of the dense
 * matrices at every expansion; states a bounded walk never reaches
 * cost nothing.
 */
class CachedChain
{
  public:
    struct Successor
    {
        size_t next = 0;
        double prob = 0.0;       //!< transition(state, next) > 0
        double edgeReward = 0.0; //!< edgeReward(state, next)
    };

    struct State
    {
        bool filled = false;
        double exitProb = 0.0;
        double stateReward = 0.0;
        double exitReward = 0.0;
        size_t first = 0; //!< successors are succ(first .. last)
        size_t last = 0;
    };

    explicit CachedChain(const AbsorbingChain &chain)
        : chain_(chain), states_(chain.size())
    {
    }

    const State &
    state(size_t s)
    {
        if (!states_[s].filled)
            fill(s);
        return states_[s];
    }

    /** Valid until the next state() call fills another state. */
    const Successor &succ(size_t i) const { return succ_[i]; }

  private:
    void fill(size_t s);

    const AbsorbingChain &chain_;
    std::vector<State> states_;
    std::vector<Successor> succ_;
};

template <class Visitor>
struct PathWalker
{
    CachedChain chain;
    const PathEnumOptions &options;
    Visitor &visitor;
    std::vector<uint32_t> visits;
    size_t depth = 0;
    size_t emitted = 0;
    double droppedMass = 0.0;

    void
    expand(size_t from, size_t state, double prob, double reward)
    {
        if (emitted >= options.maxPaths) {
            droppedMass += prob;
            return;
        }
        if (prob < options.minProb || depth >= options.maxLength ||
            visits[state] >= options.maxVisitsPerState) {
            droppedMass += prob;
            return;
        }

        ++depth;
        ++visits[state];
        visitor.enter(from, state);

        // States are sized up front, so `row` stays valid while the
        // recursion fills others; successors are read before each call.
        const CachedChain::State &row = chain.state(state);
        if (row.exitProb > 0.0) {
            const double path_prob = prob * row.exitProb;
            if (path_prob >= options.minProb && emitted < options.maxPaths) {
                visitor.emit(path_prob,
                             reward + row.stateReward + row.exitReward);
                ++emitted;
            } else {
                droppedMass += path_prob;
            }
        }

        for (size_t s = row.first; s < row.last; ++s) {
            const CachedChain::Successor &next = chain.succ(s);
            expand(state, next.next, prob * next.prob,
                   reward + row.stateReward + next.edgeReward);
        }

        visitor.leave(from, state);
        --visits[state];
        --depth;
    }
};

} // namespace detail

template <class Visitor>
double
walkPaths(const AbsorbingChain &chain, size_t start,
          const PathEnumOptions &options, Visitor &visitor)
{
    CT_ASSERT(start < chain.size(), "enumeratePaths: bad start state");
    detail::PathWalker<Visitor> walker{detail::CachedChain(chain), options,
                                       visitor,
                                       std::vector<uint32_t>(chain.size(), 0)};
    walker.expand(kNoState, start, 1.0, 0.0);
    return walker.droppedMass;
}

} // namespace ct::markov

#endif // CT_MARKOV_PATHS_HH
