/**
 * @file
 * Bitwise oracle for the batch EM solve and the path enumeration
 * beneath it.
 *
 * The namespace `ref` below keeps the dense implementation the
 * estimators used before paths were built in one walk with decision
 * signatures: markov::enumeratePaths scanning the dense transition
 * matrix per expansion, per-path extractFeatures with a
 * std::vector pair, exp(logProb) per path per EM iteration, and the
 * noise kernel recomputing its quantization per call. Every test here
 * compares the library against it bit for bit — a faster solve that
 * changes the low bits of any EstimateResult field fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "cfg_fuzz.hh"
#include "exec/thread_pool.hh"
#include "markov/paths.hh"
#include "sim/machine.hh"
#include "tomography/em_estimator.hh"
#include "tomography/latent_paths.hh"
#include "tomography/streaming.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::tomography;

namespace ref {

/** Dense-scan depth-first enumeration, as markov::enumeratePaths was. */
struct EnumState
{
    const markov::AbsorbingChain &chain;
    const markov::PathEnumOptions &options;
    markov::PathSet out;
    std::vector<size_t> stack;
    std::vector<uint32_t> visits;

    EnumState(const markov::AbsorbingChain &c,
              const markov::PathEnumOptions &o)
        : chain(c), options(o), visits(c.size(), 0)
    {
    }

    void
    expand(size_t state, double prob, double reward)
    {
        if (out.paths.size() >= options.maxPaths) {
            out.droppedMass += prob;
            return;
        }
        if (prob < options.minProb ||
            stack.size() >= options.maxLength ||
            visits[state] >= options.maxVisitsPerState) {
            out.droppedMass += prob;
            return;
        }

        stack.push_back(state);
        ++visits[state];

        double exit_p = chain.exitProb(state);
        if (exit_p > 0.0) {
            markov::Path path;
            path.states = stack;
            path.prob = prob * exit_p;
            path.reward =
                reward + chain.stateReward(state) + chain.exitReward(state);
            if (path.prob >= options.minProb &&
                out.paths.size() < options.maxPaths) {
                out.paths.push_back(std::move(path));
            } else {
                out.droppedMass += prob * exit_p;
            }
        }

        for (size_t next = 0; next < chain.size(); ++next) {
            double p = chain.transition(state, next);
            if (p <= 0.0)
                continue;
            expand(next, prob * p,
                   reward + chain.stateReward(state) +
                       chain.edgeReward(state, next));
        }

        --visits[state];
        stack.pop_back();
    }
};

markov::PathSet
enumeratePaths(const markov::AbsorbingChain &chain, size_t start,
               const markov::PathEnumOptions &options)
{
    EnumState state(chain, options);
    state.expand(start, 1.0, 0.0);
    std::sort(state.out.paths.begin(), state.out.paths.end(),
              [](const markov::Path &a, const markov::Path &b) {
                  return a.prob > b.prob;
              });
    return std::move(state.out);
}

struct PathFeatures
{
    std::vector<uint32_t> takenCount;
    std::vector<uint32_t> fallCount;

    double
    logProb(const std::vector<double> &theta) const
    {
        double lp = 0.0;
        for (size_t b = 0; b < theta.size(); ++b) {
            double p = std::clamp(theta[b], 1e-12, 1.0 - 1e-12);
            if (takenCount[b] > 0)
                lp += double(takenCount[b]) * std::log(p);
            if (fallCount[b] > 0)
                lp += double(fallCount[b]) * std::log1p(-p);
        }
        return lp;
    }
};

PathFeatures
extractFeatures(const TimingModel &model, const markov::Path &path)
{
    PathFeatures features;
    features.takenCount.assign(model.paramCount(), 0);
    features.fallCount.assign(model.paramCount(), 0);
    const auto &params = model.params();
    for (size_t step = 0; step + 1 < path.states.size(); ++step) {
        size_t from = path.states[step];
        size_t to = path.states[step + 1];
        for (size_t p = 0; p < params.size(); ++p) {
            if (params[p].block != from)
                continue;
            if (params[p].takenTarget == ir::BlockId(to))
                ++features.takenCount[p];
            else if (params[p].fallTarget == ir::BlockId(to))
                ++features.fallCount[p];
            break;
        }
    }
    return features;
}

double
pathVarianceCycles(const TimingModel &model,
                   const std::vector<size_t> &states)
{
    double variance = 0.0;
    for (size_t state : states)
        variance += model.blockVariance(ir::BlockId(state));
    return variance;
}

/** NoiseKernel::prob, quantizing on every call. */
double
kernelProb(uint64_t cycles_per_tick, double jitter_sigma_ticks,
           int64_t observed_ticks, double true_cycles,
           double extra_var_ticks2)
{
    if (true_cycles < 0.0)
        return 0.0;
    const double duration_sigma = jitter_sigma_ticks * std::sqrt(2.0);
    double ratio = true_cycles / double(cycles_per_tick);
    int64_t base = int64_t(std::floor(ratio));
    double frac = ratio - double(base);
    double sigma =
        std::sqrt(duration_sigma * duration_sigma + extra_var_ticks2);
    int64_t span = sigma > 0.0 ? int64_t(std::ceil(6.0 * sigma)) : 0;
    auto noise_mass = [](int64_t j, double s) {
        if (s <= 0.0)
            return j == 0 ? 1.0 : 0.0;
        auto phi = [s](double x) {
            return 0.5 * std::erfc(-x / (s * std::sqrt(2.0)));
        };
        return phi(double(j) + 0.5) - phi(double(j) - 0.5);
    };

    double total = 0.0;
    const int64_t quant_ticks[2] = {base, base + 1};
    const double quant_mass[2] = {1.0 - frac, frac};
    for (int q = 0; q < 2; ++q) {
        if (quant_mass[q] <= 0.0)
            continue;
        int64_t j;
        if (__builtin_sub_overflow(observed_ticks, quant_ticks[q], &j))
            continue;
        if ((j > span || j < -span) && span > 0)
            continue;
        total += quant_mass[q] * noise_mass(j, sigma);
    }
    return total;
}

std::vector<markov::RewardClass>
groupByReward(const markov::PathSet &set, double tolerance)
{
    std::vector<size_t> order(set.paths.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return set.paths[a].reward < set.paths[b].reward;
    });
    std::vector<markov::RewardClass> classes;
    for (size_t idx : order) {
        const markov::Path &path = set.paths[idx];
        if (!classes.empty() &&
            std::abs(path.reward - classes.back().reward) <= tolerance) {
            classes.back().members.push_back(idx);
            classes.back().prob += path.prob;
        } else {
            markov::RewardClass cls;
            cls.reward = path.reward;
            cls.members = {idx};
            cls.prob = path.prob;
            classes.push_back(std::move(cls));
        }
    }
    return classes;
}

struct Workspace
{
    markov::PathSet set;
    std::vector<PathFeatures> features;
    std::vector<double> rewards;
    std::vector<double> extraVarTicks2;
    std::vector<int64_t> obsValues;
    std::vector<double> obsWeights;
    std::vector<double> kernel;
    size_t kernelStride = 0;
};

Workspace
buildWorkspace(const TimingModel &model,
               const std::vector<int64_t> &durations,
               const EstimatorOptions &options,
               const std::vector<double> &enum_theta)
{
    Workspace ws;
    ws.set = ref::enumeratePaths(model.chainFor(enum_theta),
                                 model.proc().entry(), options.pathEnum);
    const double tick = double(model.cyclesPerTick());
    for (const auto &path : ws.set.paths) {
        ws.features.push_back(extractFeatures(model, path));
        ws.rewards.push_back(path.reward);
        ws.extraVarTicks2.push_back(pathVarianceCycles(model, path.states) /
                                    (tick * tick));
    }
    std::map<int64_t, double> histogram;
    for (int64_t d : durations)
        histogram[d] += 1.0;
    for (const auto &[value, weight] : histogram) {
        ws.obsValues.push_back(value);
        ws.obsWeights.push_back(weight);
    }
    ws.kernelStride = ws.set.paths.size();
    ws.kernel.assign(ws.obsValues.size() * ws.kernelStride, 0.0);
    for (size_t o = 0; o < ws.obsValues.size(); ++o)
        for (size_t p = 0; p < ws.kernelStride; ++p)
            ws.kernel[o * ws.kernelStride + p] = kernelProb(
                model.cyclesPerTick(), options.jitterSigmaTicks,
                ws.obsValues[o], ws.rewards[p], ws.extraVarTicks2[p]);
    return ws;
}

size_t
runEm(const Workspace &ws, const EstimatorOptions &options,
      std::vector<double> &theta, double &log_likelihood)
{
    const size_t paths = ws.set.paths.size();
    const size_t params = theta.size();
    std::vector<double> prior(paths, 0.0);
    std::vector<double> path_resp(paths, 0.0);
    std::vector<double> acc_taken(params, 0.0);
    std::vector<double> acc_fall(params, 0.0);

    size_t iter = 0;
    for (; iter < options.maxIterations; ++iter) {
        for (size_t p = 0; p < paths; ++p)
            prior[p] = std::exp(ws.features[p].logProb(theta));
        std::fill(path_resp.begin(), path_resp.end(), 0.0);
        std::fill(acc_taken.begin(), acc_taken.end(), 0.0);
        std::fill(acc_fall.begin(), acc_fall.end(), 0.0);
        log_likelihood = 0.0;
        for (size_t o = 0; o < ws.obsValues.size(); ++o) {
            const double *krow = ws.kernel.data() + o * ws.kernelStride;
            double denom = 0.0;
            for (size_t p = 0; p < paths; ++p)
                denom += prior[p] * krow[p];
            if (denom <= 0.0) {
                log_likelihood += ws.obsWeights[o] * NoiseKernel::logFloor();
                continue;
            }
            log_likelihood += ws.obsWeights[o] * std::log(denom);
            double scale = ws.obsWeights[o] / denom;
            for (size_t p = 0; p < paths; ++p)
                path_resp[p] += prior[p] * krow[p] * scale;
        }
        for (size_t p = 0; p < paths; ++p) {
            double resp = path_resp[p];
            if (resp <= 0.0)
                continue;
            const auto &f = ws.features[p];
            for (size_t b = 0; b < params; ++b) {
                acc_taken[b] += resp * f.takenCount[b];
                acc_fall[b] += resp * f.fallCount[b];
            }
        }
        double max_delta = 0.0;
        for (size_t b = 0; b < params; ++b) {
            double total = acc_taken[b] + acc_fall[b];
            double updated = (acc_taken[b] + options.smoothing) /
                             (total + 2.0 * options.smoothing);
            max_delta = std::max(max_delta, std::abs(updated - theta[b]));
            theta[b] = updated;
        }
        if (max_delta < options.tolerance) {
            ++iter;
            break;
        }
    }
    return iter;
}

double
aliasedMass(const Workspace &ws, const std::vector<double> &theta)
{
    auto classes = ref::groupByReward(ws.set, 1e-6);
    double aliased = 0.0;
    for (const auto &cls : classes) {
        bool mixed = false;
        for (size_t m = 1; m < cls.members.size() && !mixed; ++m) {
            const auto &a = ws.features[cls.members[0]];
            const auto &b = ws.features[cls.members[m]];
            mixed = a.takenCount != b.takenCount ||
                    a.fallCount != b.fallCount;
        }
        if (!mixed)
            continue;
        for (size_t member : cls.members)
            aliased += std::exp(ws.features[member].logProb(theta));
    }
    return aliased;
}

/** EmPathEstimator::estimate over the dense reference. The caller
 *  checks the agnostic enumeration yields paths (else both fatal). */
EstimateResult
estimate(const TimingModel &model, const std::vector<int64_t> &durations,
         const EstimatorOptions &options)
{
    EstimateResult result;
    result.theta.assign(model.paramCount(), 0.5);
    if (model.paramCount() == 0)
        return result;
    auto ws = buildWorkspace(model, durations, options, result.theta);
    result.iterations =
        runEm(ws, options, result.theta, result.logLikelihood);
    if (options.reenumerate) {
        std::vector<double> enum_theta = result.theta;
        for (double &p : enum_theta)
            p = std::clamp(p, 0.05, 0.95);
        ws = buildWorkspace(model, durations, options, enum_theta);
        result.iterations +=
            runEm(ws, options, result.theta, result.logLikelihood);
    }
    result.pathCount = ws.set.paths.size();
    result.coveredPathMass = ws.set.coveredMass();
    result.rewardClasses = ref::groupByReward(ws.set, 1e-6).size();
    result.aliasedMass = aliasedMass(ws, result.theta);
    return result;
}

} // namespace ref

namespace {

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** Empty when @p got equals @p want bit for bit, else the first
 *  differing field. */
std::string
resultDiff(const EstimateResult &got, const EstimateResult &want)
{
    std::ostringstream out;
    if (got.theta.size() != want.theta.size())
        out << "theta size " << got.theta.size() << " vs "
            << want.theta.size();
    for (size_t b = 0; b < got.theta.size() && out.str().empty(); ++b)
        if (!sameBits(got.theta[b], want.theta[b]))
            out << "theta[" << b << "] " << got.theta[b] << " vs "
                << want.theta[b];
    if (!out.str().empty())
        return out.str();
    if (!sameBits(got.logLikelihood, want.logLikelihood))
        out << "logLikelihood " << got.logLikelihood << " vs "
            << want.logLikelihood;
    else if (got.iterations != want.iterations)
        out << "iterations " << got.iterations << " vs " << want.iterations;
    else if (got.pathCount != want.pathCount)
        out << "pathCount " << got.pathCount << " vs " << want.pathCount;
    else if (!sameBits(got.coveredPathMass, want.coveredPathMass))
        out << "coveredPathMass " << got.coveredPathMass << " vs "
            << want.coveredPathMass;
    else if (got.rewardClasses != want.rewardClasses)
        out << "rewardClasses " << got.rewardClasses << " vs "
            << want.rewardClasses;
    else if (!sameBits(got.aliasedMass, want.aliasedMass))
        out << "aliasedMass " << got.aliasedMass << " vs "
            << want.aliasedMass;
    return out.str();
}

/** Empty when @p got equals @p want (order, states, prob, reward,
 *  droppedMass) bit for bit, else the first difference. */
std::string
pathSetDiff(const markov::PathSet &got, const markov::PathSet &want)
{
    std::ostringstream out;
    if (got.paths.size() != want.paths.size())
        out << "path count " << got.paths.size() << " vs "
            << want.paths.size();
    else if (!sameBits(got.droppedMass, want.droppedMass))
        out << "droppedMass " << got.droppedMass << " vs "
            << want.droppedMass;
    for (size_t p = 0; p < got.paths.size() && out.str().empty(); ++p) {
        const auto &a = got.paths[p];
        const auto &b = want.paths[p];
        if (a.states != b.states || !sameBits(a.prob, b.prob) ||
            !sameBits(a.reward, b.reward))
            out << "path " << p << " differs (prob " << a.prob << " vs "
                << b.prob << ", reward " << a.reward << " vs " << b.reward
                << ", " << a.states.size() << " vs " << b.states.size()
                << " states)";
    }
    return out.str();
}

/** Empty when @p got is the reference enumeration + extractFeatures +
 *  kernel operands of @p model under @p theta, else the first
 *  difference. */
std::string
latentDiff(const LatentPaths &got, const TimingModel &model,
           const std::vector<double> &theta, const EstimatorOptions &options)
{
    auto want = ref::enumeratePaths(model.chainFor(theta),
                                    model.proc().entry(), options.pathEnum);
    std::ostringstream out;
    if (got.pathCount() != want.paths.size())
        return "path count differs";
    if (!sameBits(got.droppedMass, want.droppedMass))
        return "droppedMass differs";
    NoiseKernel noise(model.cyclesPerTick(), options.jitterSigmaTicks);
    const double tick = double(model.cyclesPerTick());
    for (size_t p = 0; p < got.pathCount(); ++p) {
        const auto &path = want.paths[p];
        auto features = ref::extractFeatures(model, path);
        double var =
            ref::pathVarianceCycles(model, path.states) / (tick * tick);
        const uint32_t sig = got.signature[p];
        if (!sameBits(got.prob[p], path.prob) ||
            !sameBits(got.rewards[p], path.reward) ||
            !sameBits(got.extraVarTicks2[p], var))
            out << "path " << p << " prob/reward/variance differ";
        else if (!std::equal(features.takenCount.begin(),
                             features.takenCount.end(),
                             got.takenCounts(sig)) ||
                 !std::equal(features.fallCount.begin(),
                             features.fallCount.end(), got.fallCounts(sig)))
            out << "path " << p << " decision counts differ";
        if (!out.str().empty())
            return out.str();
        // Kernel operands: every tick around the support edges.
        auto [lo, hi] = noise.support(path.reward, var);
        for (int64_t t : {lo - 1, lo, (lo + hi) / 2, hi, hi + 1})
            if (!sameBits(noise.prob(t, got.quantized[p]),
                          ref::kernelProb(model.cyclesPerTick(),
                                          options.jitterSigmaTicks, t,
                                          path.reward, var)))
                return "path " + std::to_string(p) + " kernel differs at " +
                       std::to_string(t);
    }
    return "";
}

/** One estimation case of the sweep. */
struct OracleCase
{
    std::string program;
    ir::ProcId proc = 0;
    uint64_t ticks = 1;
    EstimatorOptions options;
    std::string label;
};

/** Enumeration bounds of the sweep: the defaults, and caps that cut
 *  the path set short (maxPaths) or drop long walks (maxLength). */
std::vector<std::pair<std::string, markov::PathEnumOptions>>
enumBounds()
{
    markov::PathEnumOptions capped_paths;
    capped_paths.maxPaths = 40;
    markov::PathEnumOptions capped_length;
    capped_length.maxLength = 24;
    return {{"default", {}},
            {"maxPaths=40", capped_paths},
            {"maxLength=24", capped_length}};
}

/** Durations of every procedure of @p program at @p ticks. */
struct ProgramRun
{
    workloads::Workload workload;
    sim::LoweredModule lowered;
    sim::SimConfig config;
    sim::RunResult run;
    std::vector<double> noCallees;

    ProgramRun(const std::string &name, uint64_t ticks,
               size_t invocations = 150)
        : workload(workloads::workloadByName(name))
    {
        lowered = sim::lowerModule(*workload.module);
        config.cyclesPerTick = ticks;
        auto inputs = workload.makeInputs(11);
        sim::Simulator simulator(*workload.module, lowered, config,
                                 *inputs, 12);
        run = simulator.run(workload.entry, invocations);
        noCallees.assign(workload.module->procedureCount(), 0.0);
    }

    TimingModel
    model(ir::ProcId proc) const
    {
        return TimingModel(workload.module->procedure(proc),
                           lowered.procs[proc], config.costs, config.policy,
                           config.cyclesPerTick, noCallees,
                           2.0 * config.costs.timerRead);
    }
};

/** True when the agnostic enumeration yields paths (estimate() is
 *  fatal otherwise, in the reference and the library alike). */
bool
enumerable(const TimingModel &model, const EstimatorOptions &options)
{
    std::vector<double> uniform(model.paramCount(), 0.5);
    return !ref::enumeratePaths(model.chainFor(uniform),
                                model.proc().entry(), options.pathEnum)
                .paths.empty();
}

class EmBatchOracle : public testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(EmBatchOracle, EstimateMatchesDenseReferenceBitwise)
{
    size_t solved = 0;
    for (uint64_t ticks : {uint64_t(1), uint64_t(4), uint64_t(8)}) {
        ProgramRun program(GetParam(), ticks);
        for (ir::ProcId proc = 0;
             proc < program.workload.module->procedureCount(); ++proc) {
            auto durations = program.run.trace.durations(proc);
            if (durations.empty())
                continue;
            TimingModel model = program.model(proc);
            for (const auto &[bound_name, bounds] : enumBounds()) {
                for (double jitter : {0.0, 0.5, 3.0}) {
                    for (bool reenumerate : {true, false}) {
                        EstimatorOptions options;
                        options.pathEnum = bounds;
                        options.jitterSigmaTicks = jitter;
                        options.reenumerate = reenumerate;
                        if (!enumerable(model, options))
                            continue;
                        auto want = ref::estimate(model, durations, options);
                        auto got = EmPathEstimator(options).estimate(
                            model, durations);
                        std::string diff = resultDiff(got, want);
                        ASSERT_TRUE(diff.empty())
                            << model.proc().name() << " ticks " << ticks
                            << " " << bound_name << " jitter " << jitter
                            << " reenumerate " << reenumerate << ": "
                            << diff;
                        ++solved;
                    }
                }
            }
        }
    }
    EXPECT_GT(solved, 0u);
}

TEST_P(EmBatchOracle, LatentPathsMatchReferenceEnumeration)
{
    ProgramRun program(GetParam(), 8, 1);
    for (ir::ProcId proc = 0;
         proc < program.workload.module->procedureCount(); ++proc) {
        TimingModel model = program.model(proc);
        // The agnostic prior and a skewed one (the re-enumeration
        // theta of the EM's second phase).
        std::vector<double> uniform(model.paramCount(), 0.5);
        std::vector<double> skewed(model.paramCount());
        for (size_t b = 0; b < skewed.size(); ++b)
            skewed[b] = b % 2 ? 0.05 : 0.9;
        for (const auto &theta : {uniform, skewed}) {
            for (const auto &[bound_name, bounds] : enumBounds()) {
                EstimatorOptions options;
                options.pathEnum = bounds;
                options.jitterSigmaTicks = 0.5;
                auto chain = model.chainFor(theta);
                std::string diff = pathSetDiff(
                    markov::enumeratePaths(chain, model.proc().entry(),
                                           bounds),
                    ref::enumeratePaths(chain, model.proc().entry(),
                                        bounds));
                ASSERT_TRUE(diff.empty()) << model.proc().name() << " "
                                          << bound_name << ": " << diff;
                diff = latentDiff(LatentPaths::enumerate(model, theta,
                                                         options),
                                  model, theta, options);
                ASSERT_TRUE(diff.empty()) << model.proc().name() << " "
                                          << bound_name << ": " << diff;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EmBatchOracle,
    testing::ValuesIn(workloads::workloadNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(EmBatchOracleRandom, RandomCfgPathsMatchReference)
{
    // Generated DAG procedures, and random chains with self-loops and
    // back edges so the visit and length caps prune.
    for (uint64_t seed = 0; seed < 25; ++seed) {
        Rng rng(seed * 7919 + 13);
        auto program = testutil::makeFuzzProgram(rng);
        auto lowered = sim::lowerModule(*program.module);
        std::vector<double> no_callees(1, 0.0);
        TimingModel model(program.proc(), lowered.procs[program.entry],
                          sim::telosCostModel(),
                          sim::PredictPolicy::NotTaken, 4, no_callees, 0.0);
        std::vector<double> theta(model.paramCount());
        for (double &p : theta)
            p = 0.05 + 0.9 * rng.uniform();
        EstimatorOptions options;
        options.pathEnum.minProb = 1e-9;
        options.jitterSigmaTicks = 0.5;
        auto chain = model.chainFor(theta);
        std::string diff = pathSetDiff(
            markov::enumeratePaths(chain, program.proc().entry(),
                                   options.pathEnum),
            ref::enumeratePaths(chain, program.proc().entry(),
                                options.pathEnum));
        ASSERT_TRUE(diff.empty()) << "fuzz seed " << seed << ": " << diff;
        diff = latentDiff(LatentPaths::enumerate(model, theta, options),
                          model, theta, options);
        ASSERT_TRUE(diff.empty()) << "fuzz seed " << seed << ": " << diff;
    }

    for (uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(seed + 101);
        const size_t n = 2 + rng.below(6);
        markov::AbsorbingChain chain(n);
        for (size_t i = 0; i < n; ++i) {
            double left = 1.0;
            for (size_t j = 0; j < n; ++j) {
                if (rng.uniform() < 0.5)
                    continue;
                double p = left * rng.uniform() * 0.8;
                chain.setTransition(i, j, p);
                chain.setEdgeReward(i, j, double(rng.below(5)));
                left -= p;
            }
            chain.setStateReward(i, double(1 + rng.below(9)));
            chain.setExitReward(i, double(rng.below(3)));
        }
        markov::PathEnumOptions options;
        options.minProb = 1e-7;
        options.maxVisitsPerState = 1 + uint32_t(rng.below(5));
        options.maxLength = 4 + rng.below(20);
        options.maxPaths = 10 + rng.below(400);
        std::string diff =
            pathSetDiff(markov::enumeratePaths(chain, 0, options),
                        ref::enumeratePaths(chain, 0, options));
        ASSERT_TRUE(diff.empty()) << "chain seed " << seed << ": " << diff;
    }
}

TEST(EmBatchOracleRandom, KernelMatchesReferenceBitwise)
{
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    Rng rng(4242);
    for (uint64_t ticks : {uint64_t(1), uint64_t(4), uint64_t(8)}) {
        for (double jitter : {0.0, 0.5, 3.0}) {
            NoiseKernel noise(ticks, jitter);
            for (int i = 0; i < 400; ++i) {
                double cycles = i == 0 ? -3.0 : rng.uniform() * 900.0;
                double var = i % 3 ? 0.0 : rng.uniform() * 4.0;
                auto q = noise.quantize(cycles, var);
                auto [lo, hi] = NoiseKernel::window(q);
                int64_t base = int64_t(cycles / double(ticks));
                for (int64_t t : {kMin, kMax, base - 25, base - 1, base,
                                  base + 1, base + 2, base + 25, lo - 1, lo,
                                  hi, hi + 1}) {
                    double want = ref::kernelProb(ticks, jitter, t, cycles,
                                                  var);
                    ASSERT_TRUE(sameBits(noise.prob(t, q), want))
                        << "cycles " << cycles << " tick " << t;
                    ASSERT_TRUE(sameBits(noise.prob(t, cycles, var), want))
                        << "cycles " << cycles << " tick " << t;
                    // The batch kernel leaves ticks outside the window
                    // at its +0.0 fill.
                    if (t < lo || t > hi) {
                        ASSERT_TRUE(sameBits(want, 0.0))
                            << "cycles " << cycles << " tick " << t
                            << " outside [" << lo << ", " << hi << "]";
                    }
                }
            }
        }
    }
}

TEST(EmBatchOracleConcurrent, PoolThreadsMatchSerialBitwise)
{
    // Many solves at once on four pool threads, against the same
    // solves run one after another: any per-thread scratch in the
    // solve or the path build must leave results untouched.
    std::vector<OracleCase> cases;
    for (const char *name : {"crc16", "collection_tree", "event_dispatch",
                             "blink", "sense_and_send"}) {
        for (uint64_t ticks : {uint64_t(4), uint64_t(8)}) {
            ProgramRun program(name, ticks, 1);
            for (ir::ProcId proc = 0;
                 proc < program.workload.module->procedureCount(); ++proc) {
                for (double jitter : {0.0, 3.0}) {
                    OracleCase c;
                    c.program = name;
                    c.proc = proc;
                    c.ticks = ticks;
                    c.options.jitterSigmaTicks = jitter;
                    cases.push_back(c);
                }
            }
        }
    }

    auto solve = [](const OracleCase &c) {
        ProgramRun program(c.program, c.ticks, 120);
        auto durations = program.run.trace.durations(c.proc);
        TimingModel model = program.model(c.proc);
        if (durations.empty() || !enumerable(model, c.options))
            return EstimateResult{};
        auto result = EmPathEstimator(c.options).estimate(model, durations);
        // The streaming table and the fit check share the path builder.
        auto table = PathTable::build(model, c.options);
        StreamingEstimator streaming(model, table, c.options);
        streaming.observeAll(durations);
        result.theta.insert(result.theta.end(), streaming.theta().begin(),
                            streaming.theta().end());
        return result;
    };

    std::vector<EstimateResult> serial;
    for (const auto &c : cases)
        serial.push_back(solve(c));
    exec::ThreadPool pool(4);
    auto parallel = exec::parallelMap(
        pool, cases.size(), [&](size_t i) { return solve(cases[i]); });

    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < cases.size(); ++i) {
        std::string diff = resultDiff(parallel[i], serial[i]);
        ASSERT_TRUE(diff.empty()) << cases[i].program << " proc "
                                  << cases[i].proc << ": " << diff;
    }
}
