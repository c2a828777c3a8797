#include "api/pipeline.hh"

#include <optional>

#include "exec/thread_pool.hh"
#include "fleet/fleet.hh"
#include "layout/evaluator.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/metrics.hh"
#include "store/store.hh"
#include "util/logging.hh"

namespace ct::api {

const LayoutOutcome &
PipelineResult::outcome(const std::string &name) const
{
    for (const auto &out : outcomes) {
        if (out.name == name)
            return out;
    }
    fatal("no layout outcome named '", name, "'");
}

double
PipelineResult::cyclesImprovementPct() const
{
    double base = double(outcome("natural").totalCycles);
    double opt = double(outcome("tomography").totalCycles);
    return base > 0.0 ? 100.0 * (base - opt) / base : 0.0;
}

double
PipelineResult::perfectImprovementPct() const
{
    double base = double(outcome("natural").totalCycles);
    double opt = double(outcome("perfect").totalCycles);
    return base > 0.0 ? 100.0 * (base - opt) / base : 0.0;
}

double
PipelineResult::mispredictReduction() const
{
    return outcome("natural").mispredictRate -
           outcome("tomography").mispredictRate;
}

double
PipelineResult::energyImprovementPct() const
{
    double base = outcome("natural").energyMicrojoules;
    double opt = outcome("tomography").energyMicrojoules;
    return base > 0.0 ? 100.0 * (base - opt) / base : 0.0;
}

TomographyPipeline::TomographyPipeline(workloads::Workload workload,
                                       PipelineConfig config)
    : workload_(std::move(workload)), config_(std::move(config))
{
    CT_ASSERT(workload_.module != nullptr, "workload has no module");
}

sim::RunResult
TomographyPipeline::measure()
{
    return measureWith(sim::lowerModule(*workload_.module));
}

sim::RunResult
TomographyPipeline::measureWith(const sim::LoweredModule &lowered)
{
    CT_SPAN("pipeline.measure");
    obs::StopwatchUs watch;
    sim::SimConfig cfg = config_.sim;
    cfg.timingProbes = true;
    auto inputs = workload_.makeInputs(config_.seed);
    sim::Simulator simulator(*workload_.module, lowered, cfg,
                             *inputs, config_.seed ^ 0x6d656173);
    auto run = simulator.run(workload_.entry, config_.measureInvocations);
    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.histogram("pipeline.measure_us").record(watch.elapsedUs());
        m.counter("pipeline.measure.invocations")
            .add(config_.measureInvocations);
        m.counter("pipeline.measure.records").add(run.trace.size());
    }
    return run;
}

trace::TimingTrace
TomographyPipeline::transport(const trace::TimingTrace &trace,
                              const TransportConfig &cfg,
                              TransportOutcome &outcome)
{
    CT_SPAN("pipeline.transport");
    obs::StopwatchUs watch;
    uint64_t seed = cfg.seed ? cfg.seed : config_.seed ^ 0x6e657477;

    net::SinkCollector sink(cfg.collector);
    auto transfer = net::transferTrace(trace, cfg.moteId, cfg.mtu,
                                       cfg.channel, cfg.uplink, sink, seed);

    outcome.complete = transfer.complete;
    outcome.packets = transfer.packets;
    outcome.rounds = transfer.rounds;
    outcome.recordsSent = trace.size();
    outcome.recordsDelivered = sink.recordsDelivered(cfg.moteId);
    outcome.channel = transfer.channel;
    outcome.uplink = transfer.uplink;
    outcome.collector = sink.stats();
    if (sink.store()) {
        sink.store()->flush();
        outcome.recordsPersisted = sink.store()->stats().recordsAppended;
    }

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.histogram("pipeline.transport_us").record(watch.elapsedUs());
        m.counter("net.packets_sent").add(transfer.uplink.transmissions);
        m.counter("net.packets_retransmitted")
            .add(transfer.uplink.retransmissions);
        m.counter("net.packets_dropped").add(transfer.channel.dropped);
        m.counter("net.packets_duplicated").add(transfer.channel.duplicated);
        m.counter("net.packets_corrupted").add(transfer.channel.corrupted);
        m.counter("net.packets_crc_rejected").add(sink.stats().rejected);
        m.counter("net.packets_deduped").add(sink.stats().duplicates);
        m.counter("net.records_delivered")
            .add(sink.stats().recordsDelivered);
    }

    if (cfg.resumeFromStore && sink.store()) {
        // Recovered records first, then this run's, with per-procedure
        // invocation indices reassigned over the concatenation (wire
        // records do not carry invocation numbers; see decodeRecord).
        trace::TimingTrace combined;
        std::vector<uint64_t> invocations;
        auto add_renumbered = [&](trace::TimingRecord record) {
            if (invocations.size() <= record.proc)
                invocations.resize(record.proc + 1, 0);
            record.invocation = invocations[record.proc]++;
            combined.add(record);
        };
        for (const auto &entry : sink.store()->recoveredTail())
            add_renumbered(entry.record);
        outcome.recordsRecovered = sink.store()->recoveredTail().size();
        for (const auto &record : sink.traceFor(cfg.moteId).records())
            add_renumbered(record);
        return combined;
    }
    return sink.traceFor(cfg.moteId);
}

trace::TimingTrace
TomographyPipeline::recoverTrace(const std::string &store_dir)
{
    trace::TimingTrace out;
    std::vector<uint64_t> invocations;
    auto replay = [&](const std::string &dir) {
        store::Store store(dir);
        for (const auto &entry : store.recoveredTail()) {
            trace::TimingRecord record = entry.record;
            if (invocations.size() <= record.proc)
                invocations.resize(record.proc + 1, 0);
            record.invocation = invocations[record.proc]++;
            out.add(record);
        }
    };
    auto shards = fleet::shardStoreDirs(store_dir);
    if (shards.empty()) {
        replay(store_dir);
    } else {
        // A sharded fleet root: recover each shard's durable prefix in
        // shard order (deterministic — shardStoreDirs sorts).
        for (const auto &dir : shards)
            replay(dir);
    }
    return out;
}

tomography::ModuleEstimate
TomographyPipeline::estimate(const trace::TimingTrace &trace)
{
    return estimateWith(trace, sim::lowerModule(*workload_.module));
}

tomography::ModuleEstimate
TomographyPipeline::estimateWith(const trace::TimingTrace &trace,
                                 const sim::LoweredModule &lowered)
{
    CT_SPAN("pipeline.estimate");
    obs::StopwatchUs watch;
    auto estimator =
        tomography::makeEstimator(config_.estimator,
                                  config_.estimatorOptions);
    double nested_probe_cycles = 2.0 * double(config_.sim.costs.timerRead);
    auto estimate = tomography::estimateModule(
        *workload_.module, lowered, config_.sim.costs, config_.sim.policy,
        config_.sim.cyclesPerTick, nested_probe_cycles, trace, *estimator);
    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.histogram("pipeline.estimate_us").record(watch.elapsedUs());
        size_t estimated = 0;
        for (const auto &theta : estimate.thetas)
            estimated += !theta.empty();
        m.counter("pipeline.estimate.procs").add(estimated);
    }
    return estimate;
}

causal::CausalProfile
TomographyPipeline::causalProfile(const sim::RunResult &measure_run,
                                  const tomography::ModuleEstimate &estimate,
                                  const CausalConfig &cfg)
{
    CT_SPAN("pipeline.causal");
    obs::StopwatchUs watch;
    auto lowered = sim::lowerModule(*workload_.module);

    causal::ModuleTheta theta =
        cfg.useTrueProfile
            ? causal::thetaFromProfile(*workload_.module,
                                       measure_run.profile)
            : causal::normalizeTheta(*workload_.module, estimate.thetas);
    causal::Engine engine(*workload_.module, lowered, config_.sim.costs,
                          config_.sim.policy, workload_.entry,
                          std::move(theta));

    causal::ProfileOptions options;
    options.dials = cfg.dials;
    options.perBlock = cfg.perBlock;
    options.workload = workload_.name;
    auto profile = engine.profile(options);

    if (obs::metricsEnabled())
        obs::metrics().histogram("pipeline.causal_us")
            .record(watch.elapsedUs());
    if (!cfg.jsonOut.empty()) {
        profile.writeJson(cfg.jsonOut);
        inform("wrote causal profile ", cfg.jsonOut);
    }
    if (!cfg.csvOut.empty()) {
        profile.writeCsv(cfg.csvOut);
        inform("wrote causal profile ", cfg.csvOut);
    }
    return profile;
}

tomography::ModuleEstimate
TomographyPipeline::adoptFromSnapshot(const relay::Snapshot &snapshot)
{
    CT_SPAN("pipeline.adopt");
    obs::StopwatchUs watch;
    double nested_probe_cycles = 2.0 * double(config_.sim.costs.timerRead);
    auto estimate = relay::estimateFromSnapshot(
        *workload_.module, sim::lowerModule(*workload_.module),
        config_.sim.costs, config_.sim.policy, config_.sim.cyclesPerTick,
        nested_probe_cycles, config_.estimatorOptions, snapshot);
    if (obs::metricsEnabled())
        obs::metrics().histogram("pipeline.adopt_us")
            .record(watch.elapsedUs());
    return estimate;
}

std::optional<tomography::ModuleEstimate>
TomographyPipeline::adoptFromSnapshotFile(const std::string &path)
{
    auto snapshot = relay::readSnapshotFile(path);
    if (!snapshot)
        return std::nullopt;
    return adoptFromSnapshot(*snapshot);
}

BudgetOutcome
TomographyPipeline::planBudget(const tomography::ModuleEstimate &estimate,
                               const BudgetConfig &cfg)
{
    CT_SPAN("pipeline.budget");
    obs::StopwatchUs watch;

    auto lowered = sim::lowerModule(*workload_.module);
    auto theta = causal::normalizeTheta(*workload_.module, estimate.thetas);
    auto instance = budget::buildInstance(
        *workload_.module, lowered, config_.sim.costs, config_.sim.policy,
        workload_.entry, theta, estimate.profile, cfg.spec, cfg.options);

    BudgetOutcome out;
    out.groups = instance.groups.size();
    for (const auto &group : instance.groups)
        out.candidates += group.candidates.size();
    out.baselineCyclesPerEvent = instance.baselineCyclesPerEvent;
    out.plan = budget::solve(instance, cfg.solver, cfg.limits);
    out.orders = budget::applyAssignment(
        instance, out.plan.assignment, workload_.module->procedureCount());
    for (size_t g = 0; g < instance.groups.size(); ++g) {
        const auto &group = instance.groups[g];
        const auto &cand = group.candidates[out.plan.assignment.choice[g]];
        out.choices.push_back({group.name, cand.name,
                               cand.gainCyclesPerEvent, cand.flashBytes});
    }

    if (obs::metricsEnabled())
        obs::metrics().histogram("pipeline.budget_us")
            .record(watch.elapsedUs());
    return out;
}

std::vector<sim::BlockOrder>
TomographyPipeline::optimize(const ir::ModuleProfile &profile)
{
    CT_SPAN("pipeline.optimize");
    obs::StopwatchUs watch;
    Rng rng(config_.seed ^ 0x6c61796f);
    auto orders = layout::computeModuleOrders(
        *workload_.module, profile, layout::LayoutKind::ProfileGuided, rng);
    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.histogram("pipeline.optimize_us").record(watch.elapsedUs());
        m.counter("pipeline.optimize.procs").add(orders.size());
    }
    return orders;
}

LayoutOutcome
TomographyPipeline::evaluate(const std::string &name,
                             const std::vector<sim::BlockOrder> &orders)
{
    CT_SPAN("pipeline.evaluate");
    obs::StopwatchUs watch;
    sim::SimConfig cfg = config_.sim;
    cfg.timingProbes = false; // deployment build: no probes
    auto lowered = sim::lowerModule(*workload_.module, orders);
    // Same input seed across placements: identical event sequences, so
    // cycle differences are attributable to placement alone.
    auto inputs = workload_.makeInputs(config_.seed + 1);
    sim::Simulator simulator(*workload_.module, std::move(lowered), cfg,
                             *inputs, config_.seed ^ 0x6576616c);
    auto run = simulator.run(workload_.entry, config_.evalInvocations);

    LayoutOutcome out;
    out.name = name;
    out.mispredictRate = run.branches.mispredictRate();
    out.takenRate = run.branches.takenRate();
    out.totalCycles = run.totalCycles;
    out.mispredicted = run.branches.mispredicted;
    out.branchesExecuted = run.branches.executed;
    out.dynamicJumps = run.dynamicJumps;
    out.energyMicrojoules =
        sim::telosEnergyModel().energyMicrojoules(run.activity);
    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.histogram("pipeline.evaluate_us").record(watch.elapsedUs());
        m.counter("pipeline.evaluate.placements").add(1);
    }
    return out;
}

PipelineResult
TomographyPipeline::run()
{
    // Resolve exporter destinations: explicit config wins, then the
    // environment, then off. Enabling is process-wide so that the
    // simulator and estimators record too, without signature churn.
    std::string trace_path = config_.traceOut.empty()
                                 ? obs::traceOutPathFromEnv()
                                 : config_.traceOut;
    std::string metrics_path = config_.metricsOut.empty()
                                   ? obs::metricsOutPathFromEnv()
                                   : config_.metricsOut;
    if (!trace_path.empty())
        obs::tracer().setEnabled(true);
    if (!metrics_path.empty())
        obs::setMetricsEnabled(true);

    PipelineResult result = runStages();

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("pipeline.runs").add(1);
        m.gauge("pipeline.branch_mae").set(result.branchMae);
        m.gauge("pipeline.branch_max_error").set(result.branchMaxError);
        m.gauge("pipeline.cycles_improvement_pct")
            .set(result.cyclesImprovementPct());
        m.gauge("pipeline.mispredict_reduction")
            .set(result.mispredictReduction());
    }
    if (!trace_path.empty()) {
        obs::tracer().writeJson(trace_path);
        inform("wrote span trace ", trace_path);
    }
    if (!metrics_path.empty()) {
        obs::metrics().writeJson(metrics_path);
        inform("wrote metrics ", metrics_path);
    }
    return result;
}

PipelineResult
TomographyPipeline::runStages()
{
    CT_SPAN("pipeline.run");
    PipelineResult result;
    // Lower the natural layout once; measure and estimate both consume
    // it (they used to lower redundantly, once each).
    auto lowered = sim::lowerModule(*workload_.module);
    result.measureRun = measureWith(lowered);

    // The reference placements need only the true profile, so their
    // orders are computed now, drawing one Rng stream in the order
    // natural -> random -> dfs -> perfect (optimize() seeds its own).
    // Declared before the pool: its workers read them.
    const auto &module = *workload_.module;
    Rng rng(config_.seed ^ 0x72616e64);
    auto reference = [&](layout::LayoutKind kind) {
        return layout::computeModuleOrders(module, result.measureRun.profile,
                                           kind, rng);
    };
    const auto natural = reference(layout::LayoutKind::Natural);
    const auto random = reference(layout::LayoutKind::Random);
    const auto dfs = reference(layout::LayoutKind::Dfs);
    const auto perfect = reference(layout::LayoutKind::ProfileGuided);

    // Their evaluations run on the pool while this thread estimates.
    // Each has its own Simulator seeded only by the placement, so
    // every outcome is bit-identical for any jobs value; with
    // jobs == 1 each runs inline at submit().
    exec::ThreadPool pool(config_.jobs);
    auto submit = [&](const char *name,
                      const std::vector<sim::BlockOrder> &orders) {
        return pool.submit(
            [this, name, &orders] { return evaluate(name, orders); });
    };
    auto natural_outcome = submit("natural", natural);
    auto random_outcome = submit("random", random);
    auto dfs_outcome = submit("dfs", dfs);
    auto perfect_outcome = submit("perfect", perfect);

    result.estimate = estimateWith(result.measureRun.trace, lowered);

    // Accuracy scoring over every procedure that was actually invoked
    // and has at least one conditional branch.
    for (ir::ProcId id = 0; id < workload_.module->procedureCount(); ++id) {
        const auto &proc = workload_.module->procedure(id);
        if (result.measureRun.invocations[id] == 0 ||
            proc.branchBlocks().empty()) {
            continue;
        }
        auto truth =
            result.measureRun.profile[id].branchProbabilities(proc);
        const auto &est = result.estimate.thetas[id];
        CT_ASSERT(truth.size() == est.size(), "theta size mismatch");
        result.trueTheta.insert(result.trueTheta.end(), truth.begin(),
                                truth.end());
        result.estimatedTheta.insert(result.estimatedTheta.end(),
                                     est.begin(), est.end());
    }
    if (!result.trueTheta.empty()) {
        result.branchMae =
            meanAbsoluteError(result.estimatedTheta, result.trueTheta);
        result.branchMaxError =
            maxAbsoluteError(result.estimatedTheta, result.trueTheta);
    }

    // The estimate-dependent placement evaluates on this thread.
    auto tomography =
        evaluate("tomography", optimize(result.estimate.profile));

    result.outcomes.push_back(natural_outcome.get());
    result.outcomes.push_back(random_outcome.get());
    result.outcomes.push_back(dfs_outcome.get());
    result.outcomes.push_back(std::move(tomography));
    result.outcomes.push_back(perfect_outcome.get());
    return result;
}

} // namespace ct::api
