#include "tomography/latent_paths.hh"

#include <algorithm>
#include <cmath>

#include "markov/paths.hh"
#include "util/logging.hh"

namespace ct::tomography {

namespace {

/**
 * Interns decision-count vectors (paramCount taken counts, then
 * paramCount fall counts) as signature ids of @p out, appending each
 * new vector to out.taken / out.fall. Open addressing over a
 * power-of-two slot table, so a procedure with a handful of paths
 * pays a few hundred bytes, not a tree of vector keys.
 */
class SignatureIndex
{
  public:
    explicit SignatureIndex(LatentPaths &out) : out_(out), slots_(16, kEmpty)
    {
    }

    uint32_t
    intern(const std::vector<uint32_t> &counts)
    {
        const uint64_t h = hash(counts);
        size_t mask = slots_.size() - 1;
        size_t i = size_t(h) & mask;
        for (; slots_[i] != kEmpty; i = (i + 1) & mask) {
            const uint32_t sig = slots_[i];
            if (hashes_[sig] == h && matches(sig, counts))
                return sig;
        }

        const size_t params = out_.paramCount;
        const uint32_t sig = uint32_t(out_.signatureCount++);
        out_.taken.insert(out_.taken.end(), counts.begin(),
                          counts.begin() + params);
        out_.fall.insert(out_.fall.end(), counts.begin() + params,
                         counts.end());
        hashes_.push_back(h);
        slots_[i] = sig;
        if (2 * out_.signatureCount > slots_.size())
            grow();
        return sig;
    }

  private:
    static constexpr uint32_t kEmpty = ~uint32_t(0);

    static uint64_t
    hash(const std::vector<uint32_t> &counts)
    {
        uint64_t h = 0x9e3779b97f4a7c15ull;
        for (uint32_t c : counts) {
            h = (h ^ c) * 0xff51afd7ed558ccdull;
            h ^= h >> 32;
        }
        return h;
    }

    bool
    matches(uint32_t sig, const std::vector<uint32_t> &counts) const
    {
        const size_t params = out_.paramCount;
        return std::equal(counts.begin(), counts.begin() + params,
                          out_.takenCounts(sig)) &&
               std::equal(counts.begin() + params, counts.end(),
                          out_.fallCounts(sig));
    }

    void
    grow()
    {
        slots_.assign(2 * slots_.size(), kEmpty);
        const size_t mask = slots_.size() - 1;
        for (uint32_t sig = 0; sig < hashes_.size(); ++sig) {
            size_t i = size_t(hashes_[sig]) & mask;
            while (slots_[i] != kEmpty)
                i = (i + 1) & mask;
            slots_[i] = sig;
        }
    }

    LatentPaths &out_;
    std::vector<uint32_t> slots_;  //!< signature id, or kEmpty
    std::vector<uint64_t> hashes_; //!< per signature
};

/** One emitted path, before sorting. */
struct WalkedPath
{
    double prob;
    double reward;
    double extraVarTicks2;
    uint32_t signature;
};

/**
 * walkPaths visitor: keeps the walk's decision counts and its
 * residual-variance left fold as prefix state, appends one record per
 * emitted path (walk order), and interns decision signatures into
 * @p out.
 */
class FeatureWalk
{
  public:
    FeatureWalk(const TimingModel &model, LatentPaths &out)
        : counts_(2 * model.paramCount(), 0), index_(out),
          tick2_(double(model.cyclesPerTick()) *
                 double(model.cyclesPerTick()))
    {
        blocks_ = model.proc().blockCount();
        blockVariance_.resize(blocks_);
        for (size_t b = 0; b < blocks_; ++b)
            blockVariance_[b] = model.blockVariance(ir::BlockId(b));

        // Edge -> counts_ slot. The first parameter of a block decides
        // its edges: its taken target counts as taken (even when the
        // fall target is the same block), its fall target as fall.
        const size_t params = model.paramCount();
        slot_.assign(blocks_ * blocks_, kNoSlot);
        std::vector<bool> decided(blocks_, false);
        for (size_t p = 0; p < params; ++p) {
            const BranchParam &param = model.params()[p];
            if (decided[param.block])
                continue;
            decided[param.block] = true;
            const size_t row = size_t(param.block) * blocks_;
            if (param.fallTarget != ir::kNoBlock)
                slot_[row + param.fallTarget] = uint32_t(params + p);
            if (param.takenTarget != ir::kNoBlock)
                slot_[row + param.takenTarget] = uint32_t(p);
        }
    }

    void
    enter(size_t from, size_t state)
    {
        if (uint32_t slot = decisionSlot(from, state); slot != kNoSlot)
            ++counts_[slot];
        variance_.push_back((variance_.empty() ? 0.0 : variance_.back()) +
                            blockVariance_[state]);
    }

    void
    leave(size_t from, size_t state)
    {
        if (uint32_t slot = decisionSlot(from, state); slot != kNoSlot)
            --counts_[slot];
        variance_.pop_back();
    }

    void
    emit(double prob, double reward)
    {
        walked.push_back({prob, reward, variance_.back() / tick2_,
                          index_.intern(counts_)});
    }

    std::vector<WalkedPath> walked;

  private:
    static constexpr uint32_t kNoSlot = ~uint32_t(0);

    /** counts_ slot the edge from -> to increments: the parameter's
     *  taken slot, its fall slot (offset by paramCount), or none. */
    uint32_t
    decisionSlot(size_t from, size_t to) const
    {
        return from == markov::kNoState ? kNoSlot
                                        : slot_[from * blocks_ + to];
    }

    size_t blocks_ = 0;
    std::vector<uint32_t> slot_;         //!< per (from, to) block pair
    std::vector<double> blockVariance_;  //!< per block, cycles^2
    std::vector<uint32_t> counts_;       //!< taken counts, fall counts
    std::vector<double> variance_;       //!< prefix fold per walk depth
    SignatureIndex index_;
    double tick2_;
};

} // namespace

double
LatentPaths::coveredMass() const
{
    double sum = 0.0;
    for (double p : prob)
        sum += p;
    return sum;
}

void
LatentPaths::signaturePriors(const std::vector<double> &theta,
                             std::vector<double> &out) const
{
    CT_ASSERT(theta.size() == paramCount,
              "LatentPaths: theta size mismatch");
    // The EM loop calls this once per iteration; keep the hoisted logs
    // in per-thread scratch so small procedures do not pay an
    // allocation per iteration.
    thread_local std::vector<double> logs;
    logs.resize(2 * paramCount);
    double *log_taken = logs.data();
    double *log_fall = logs.data() + paramCount;
    for (size_t b = 0; b < paramCount; ++b) {
        double p = std::clamp(theta[b], 1e-12, 1.0 - 1e-12);
        log_taken[b] = std::log(p);
        log_fall[b] = std::log1p(-p);
    }
    out.resize(signatureCount);
    for (uint32_t s = 0; s < signatureCount; ++s) {
        const uint32_t *t = takenCounts(s);
        const uint32_t *f = fallCounts(s);
        double lp = 0.0;
        for (size_t b = 0; b < paramCount; ++b) {
            if (t[b] > 0)
                lp += double(t[b]) * log_taken[b];
            if (f[b] > 0)
                lp += double(f[b]) * log_fall[b];
        }
        out[s] = std::exp(lp);
    }
}

LatentPaths
LatentPaths::enumerate(const TimingModel &model,
                       const std::vector<double> &enum_theta,
                       const EstimatorOptions &options)
{
    LatentPaths out;
    out.paramCount = model.paramCount();
    FeatureWalk walk(model, out);
    out.droppedMass = markov::walkPaths(model.chainFor(enum_theta),
                                        model.proc().entry(),
                                        options.pathEnum, walk);

    // Most probable first, as markov::enumeratePaths sorts. The same
    // comparator over (prob, walk index) keys in walk order performs
    // the same comparisons and moves as sorting Path objects, so ties
    // land in the same order too.
    const std::vector<WalkedPath> &walked = walk.walked;
    const size_t paths = walked.size();
    struct Rank
    {
        double prob;
        size_t path;
    };
    std::vector<Rank> ranks(paths);
    for (size_t p = 0; p < paths; ++p)
        ranks[p] = {walked[p].prob, p};
    std::sort(ranks.begin(), ranks.end(),
              [](const Rank &a, const Rank &b) { return a.prob > b.prob; });
    out.prob.resize(paths);
    out.rewards.resize(paths);
    out.extraVarTicks2.resize(paths);
    out.signature.resize(paths);
    for (size_t p = 0; p < paths; ++p) {
        const WalkedPath &path = walked[ranks[p].path];
        out.prob[p] = path.prob;
        out.rewards[p] = path.reward;
        out.extraVarTicks2[p] = path.extraVarTicks2;
        out.signature[p] = path.signature;
    }

    NoiseKernel noise(model.cyclesPerTick(), options.jitterSigmaTicks);
    out.quantized.resize(paths);
    for (size_t p = 0; p < paths; ++p)
        out.quantized[p] =
            noise.quantize(out.rewards[p], out.extraVarTicks2[p]);
    return out;
}

} // namespace ct::tomography
