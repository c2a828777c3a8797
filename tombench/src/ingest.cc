/**
 * @file
 * The ingest workloads: pre-framed mote transfers replayed back to back
 * into a 4-shard fleet::ShardedCollector by 4 workers, each worker
 * owning one shard. One round ingests one wave (every mote of the
 * campaign once); a run repeats rounds on the same collector until its
 * time is up, so the banks hold every mote's estimators throughout.
 * At the end each shard's estimator snapshot must equal, by digest,
 * what an independent serial replay (parsePacket -> decodePayload ->
 * a plain EstimatorBank) of the same waves produces. A durable run must
 * also reopen every shard store, recover every record of every evicted
 * transfer, rebuild the same banks and pass fsckStore.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "bench.hh"
#include "api/pipeline.hh"
#include "exec/thread_pool.hh"
#include "fleet/fleet.hh"
#include "layout/placement.hh"
#include "net/collector.hh"
#include "net/packet.hh"
#include "obs/metrics.hh"
#include "sim/machine.hh"
#include "stats/rng.hh"
#include "store/store.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;

namespace tombench {

namespace {

using namespace ct;

constexpr size_t kShards = 4;
constexpr size_t kWorkers = 4;
/** In a traced round, one transfer in kDirectEvery (picked by a hash
 *  of its mote id, so the pick is independent of the template it
 *  replays) is offered to its shard's SinkCollector directly, timing
 *  the collector without the fleet's routing and lock. */
constexpr size_t kDirectEvery = 8;
/** A traced round keeps every kObserveSampleEvery-th observe duration
 *  for the percentiles (the totals count every call), so the sample
 *  stays tens of MB on the fastest workload. Prime, so the sample
 *  rotates through the record positions of a transfer: its first
 *  record, which finds the mote's estimator cold, costs about 3x the
 *  others. */
constexpr uint64_t kObserveSampleEvery = 17;

/** Traffic dimensions of one ingest workload. */
struct Spec
{
    const char *program;
    /** Transfers per wave (one per mote). */
    size_t motes;
    /** Invocations each simulated template mote measures. */
    size_t invocations;
    /** Distinct simulated traces, stamped across the motes. */
    size_t templates;
    bool durable;
};

Spec
specFor(const std::string &workload)
{
    if (workload == "ingest")
        return {"event_dispatch", 65535, 8, 256, false};
    if (workload == "ingest_crc16")
        return {"crc16", 2048, 8, 256, false};
    if (workload == "ingest_durable")
        return {"event_dispatch", 16384, 8, 256, true};
    throw std::invalid_argument("unknown ingest workload " + workload);
}

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

struct MotePlan
{
    uint16_t wire = 0;
    uint32_t firstFrame = 0;
    uint32_t frameCount = 0;
    /** The template trace this mote replays. */
    uint32_t templ = 0;
};

/** Everything a round replays, built once per set-up. */
struct Setup
{
    workloads::Workload workload;
    sim::SimConfig sim;
    sim::LoweredModule lowered;
    std::vector<uint8_t> bytes;
    std::vector<std::pair<size_t, size_t>> frames; //!< (offset, size)
    std::vector<std::vector<MotePlan>> perShard;
    /** One mote replaying each template (the oracle's input). */
    std::vector<MotePlan> representative;
    uint64_t recordsPerWave = 0;
    /** The templates' ground-truth profiles, merged. */
    ir::ModuleProfile truth;
    std::vector<uint64_t> truthInvocations;
};

double
nestedProbeCycles(const Setup &s)
{
    return 2.0 * double(s.sim.costs.timerRead);
}

Setup
makeSetup(const Spec &spec, uint64_t seed)
{
    Setup s;
    s.workload = workloads::workloadByName(spec.program);
    s.sim.cyclesPerTick = 1;
    s.sim.timingProbes = true;
    s.lowered = sim::lowerModule(*s.workload.module);

    // The traces come from a fixed pool of simulated template motes, so
    // every seed ingests the same estimator inputs and the quality rows
    // compare like with like.
    std::vector<std::vector<std::vector<uint8_t>>> payloads(spec.templates);
    std::vector<uint64_t> records(spec.templates);
    for (size_t t = 0; t < spec.templates; ++t) {
        auto inputs = s.workload.makeInputs(mix(2 * t));
        sim::Simulator simulator(*s.workload.module, s.lowered, s.sim,
                                 *inputs, mix(2 * t + 1));
        auto run = simulator.run(s.workload.entry, spec.invocations);
        records[t] = run.trace.size();
        if (t == 0) {
            s.truth = run.profile;
            s.truthInvocations = run.invocations;
        } else {
            s.truth.merge(run.profile);
            for (size_t p = 0; p < run.invocations.size(); ++p)
                s.truthInvocations[p] += run.invocations[p];
        }
        for (auto &packet : net::packetizeTrace(run.trace, 0))
            payloads[t].push_back(std::move(packet.payload));
    }
    // Every shard gets the same number of motes and each template the
    // same number of times (to within one), so the shards carry equal
    // work whatever the seed; the seed picks which ids of each shard's
    // range take part, their order, and which template each replays.
    Rng rng(seed ^ 0x696e67657374ULL);
    std::vector<uint32_t> assign(spec.templates);
    for (size_t t = 0; t < spec.templates; ++t)
        assign[t] = uint32_t(t);
    for (size_t t = spec.templates - 1; t > 0; --t)
        std::swap(assign[t], assign[rng.below(t + 1)]);

    fleet::ShardLayout layout(kShards);
    s.perShard.resize(kShards);
    s.representative.resize(spec.templates);
    std::vector<bool> represented(spec.templates, false);
    for (size_t shard = 0; shard < kShards; ++shard) {
        // Id 0 is reserved; the remainder goes to the last shards,
        // which own full ranges.
        std::vector<uint16_t> ids;
        for (size_t id = std::max<size_t>(1, layout.firstMote(shard));
             id <= layout.lastMote(shard); ++id)
            ids.push_back(uint16_t(id));
        size_t count = spec.motes / kShards +
                       (kShards - 1 - shard < spec.motes % kShards ? 1 : 0);
        if (count > ids.size())
            throw std::logic_error("ingest: more motes than shard ids");
        for (size_t k = 0; k < count; ++k)
            std::swap(ids[k], ids[k + rng.below(ids.size() - k)]);
        for (size_t rank = 0; rank < count; ++rank) {
            uint32_t t = assign[(rank + shard) % spec.templates];
            const auto &split = payloads[t];
            MotePlan plan{ids[rank], uint32_t(s.frames.size()),
                          uint32_t(split.size()), t};
            for (size_t seq = 0; seq < split.size(); ++seq) {
                net::Packet packet;
                packet.mote = plan.wire;
                packet.seq = uint32_t(seq);
                packet.payload = split[seq];
                auto frame = net::serializePacket(packet);
                s.frames.emplace_back(s.bytes.size(), frame.size());
                s.bytes.insert(s.bytes.end(), frame.begin(), frame.end());
            }
            s.recordsPerWave += records[t];
            s.perShard[shard].push_back(plan);
            if (!represented[t]) {
                s.representative[t] = plan;
                represented[t] = true;
            }
        }
    }
    return s;
}

net::EstimatorBank
makeBank(const Setup &s)
{
    return net::EstimatorBank(*s.workload.module, s.lowered, s.sim.costs,
                              s.sim.policy, s.sim.cyclesPerTick,
                              tomography::EstimatorOptions{},
                              nestedProbeCycles(s));
}

/**
 * The sink under test: one collector that every round of a run feeds.
 * Each transfer is evicted when it completes, so the next wave's
 * transfer of the same mote starts a fresh stream at the collector
 * while the mote's estimators keep accumulating.
 */
struct Campaign
{
    std::string dir; //!< store root (durable only)
    std::unique_ptr<fleet::ShardedCollector> sc;
    /** Waves ingested so far, warm-up included. */
    size_t waves = 0;
};

Campaign
openCampaign(const Setup &s, const std::string &dir)
{
    if (!dir.empty())
        fs::remove_all(dir);
    fleet::ShardedCollectorConfig cfg;
    cfg.shards = kShards;
    cfg.storeDir = dir;
    Campaign c;
    c.dir = dir;
    c.sc = std::make_unique<fleet::ShardedCollector>(
        *s.workload.module, s.lowered, s.sim.costs, s.sim.policy,
        s.sim.cyclesPerTick, cfg, tomography::EstimatorOptions{},
        nestedProbeCycles(s));
    return c;
}

/** Spans a traced round records, per shard. */
struct Trace
{
    std::vector<double> fleetOffer, directOffer, evict, observe;
    /** Every observe call: count and running total, the total read
     *  around each offer. */
    uint64_t observeCalls = 0;
    double observeNs = 0.0;
    /** Offer time less the observes inside it, per kind of offer. */
    double fleetSelfNs = 0.0, directSelfNs = 0.0;
};

/** One phase: rounds of one configuration until its time is up. */
struct Phase
{
    size_t workers = kWorkers;
    bool metrics = false;
    bool traced = false;
    double seconds = 0.0;

    size_t rounds = 0;
    uint64_t records = 0;
    /** Per round: records/s and the transfer latency percentiles.
     *  The run reports the median over rounds of each, so one round
     *  that stalls on a shared machine does not move the result. */
    std::vector<double> roundRps, roundP50, roundTail;
    size_t transfersPerRound = 0;
    int tailPct = 0;
    std::vector<double> shardBusyNs = std::vector<double>(kShards, 0.0);
    std::vector<Trace> trace = std::vector<Trace>(kShards);
    /** Store counters over the phase's first round. */
    store::StoreStats store;

    double medianRps() const { return median(roundRps); }
};

store::StoreStats
storeTotals(fleet::ShardedCollector &sc)
{
    store::StoreStats total;
    for (size_t shard = 0; shard < kShards; ++shard) {
        if (const auto *st = sc.collector(shard).store()) {
            total.fsyncs += st->stats().fsyncs;
            total.recordsAppended += st->stats().recordsAppended;
            total.bytesAppended += st->stats().bytesAppended;
        }
    }
    return total;
}

/** Ingest one wave; returns the ingest seconds. */
double
runRound(const Setup &s, Campaign &c, exec::ThreadPool &pool, Phase &phase,
         Outcome &out)
{
    fleet::ShardedCollector &sc = *c.sc;
    if (phase.traced) {
        for (size_t shard = 0; shard < kShards; ++shard) {
            auto &bank = sc.bank(shard);
            Trace &tr = phase.trace[shard];
            sc.collector(shard).setRecordSink(
                [&bank, &tr](uint16_t mote, const trace::TimingRecord &record) {
                    int64_t t0 = nowNs();
                    bank.observe(mote, record);
                    double d = double(nowNs() - t0);
                    if (tr.observeCalls++ % kObserveSampleEvery == 0)
                        tr.observe.push_back(d);
                    tr.observeNs += d;
                });
        }
    }
    std::vector<std::vector<double>> latencies(kShards);
    for (size_t shard = 0; shard < kShards; ++shard)
        latencies[shard].reserve(s.perShard[shard].size());
    const net::CollectorStats before = sc.stats();
    const store::StoreStats storeBefore = storeTotals(sc);

    obs::setMetricsEnabled(phase.metrics);
    int64_t start = nowNs();
    pool.parallelFor(kShards, [&](size_t shard) {
        auto &lat = latencies[shard];
        Trace &tr = phase.trace[shard];
        int64_t busy0 = nowNs();
        for (const MotePlan &plan : s.perShard[shard]) {
            int64_t t0 = nowNs();
            if (!phase.traced) {
                for (uint32_t f = 0; f < plan.frameCount; ++f) {
                    const auto &[offset, size] = s.frames[plan.firstFrame + f];
                    sc.offer(s.bytes.data() + offset, size);
                }
                sc.evictMote(plan.wire);
            } else {
                bool direct = mix(plan.wire) % kDirectEvery == 0;
                auto &collector = sc.collector(shard);
                for (uint32_t f = 0; f < plan.frameCount; ++f) {
                    const auto &[offset, size] = s.frames[plan.firstFrame + f];
                    double observed = tr.observeNs;
                    int64_t a = nowNs();
                    if (direct)
                        collector.offer(s.bytes.data() + offset, size);
                    else
                        sc.offer(s.bytes.data() + offset, size);
                    double d = double(nowNs() - a);
                    (direct ? tr.directOffer : tr.fleetOffer).push_back(d);
                    (direct ? tr.directSelfNs : tr.fleetSelfNs) +=
                        d - (tr.observeNs - observed);
                }
                int64_t e0 = nowNs();
                sc.evictMote(plan.wire);
                tr.evict.push_back(double(nowNs() - e0));
            }
            lat.push_back(double(nowNs() - t0));
        }
        phase.shardBusyNs[shard] += double(nowNs() - busy0);
    });
    double seconds = double(nowNs() - start) / 1e9;
    obs::setMetricsEnabled(false);
    if (phase.metrics)
        obs::metrics().clear();
    if (phase.traced)
        for (size_t shard = 0; shard < kShards; ++shard)
            sc.collector(shard).setRecordSink(sc.bank(shard).sink());

    const net::CollectorStats after = sc.stats();
    if (phase.rounds == 0) {
        store::StoreStats now = storeTotals(sc);
        phase.store.fsyncs = now.fsyncs - storeBefore.fsyncs;
        phase.store.recordsAppended =
            now.recordsAppended - storeBefore.recordsAppended;
        phase.store.bytesAppended =
            now.bytesAppended - storeBefore.bytesAppended;
    }
    std::vector<double> transfers;
    for (const auto &lat : latencies)
        transfers.insert(transfers.end(), lat.begin(), lat.end());
    Summary latency = summarize(transfers, kEndToEndTailCap);
    phase.roundP50.push_back(latency.p50);
    phase.roundTail.push_back(latency.tail);
    phase.transfersPerRound = latency.n;
    phase.tailPct = latency.tailPct;

    uint64_t delivered = after.recordsDelivered - before.recordsDelivered;
    uint64_t rejected = after.rejected - before.rejected;
    out.attempted += s.recordsPerWave;
    out.failed += s.recordsPerWave > delivered ? s.recordsPerWave - delivered
                                               : 0;
    if (delivered != s.recordsPerWave || rejected ||
        after.malformedPayloads != before.malformedPayloads ||
        after.duplicates != before.duplicates || after.stale != before.stale)
        out.mismatches.push_back(
            "wave " + std::to_string(c.waves) + " delivered " +
            std::to_string(delivered) + " of " +
            std::to_string(s.recordsPerWave) + " records, " +
            std::to_string(rejected) + " frames rejected");
    ++c.waves;
    ++phase.rounds;
    phase.records += delivered;
    phase.roundRps.push_back(double(delivered) / seconds);
    return seconds;
}

/** Rounds until their ingest time adds up to phase.seconds (at least
 *  one round). */
void
runPhase(const Setup &s, Campaign &c, Phase &phase, Outcome &out)
{
    exec::ThreadPool pool(phase.workers);
    double measured = 0.0;
    do {
        measured += runRound(s, c, pool, phase, out);
    } while (measured < phase.seconds);
}

/**
 * The oracle: each template's frames (parsePacket -> decodePayload)
 * replayed @p waves times, in order, into a plain EstimatorBank; the
 * templates are spread over the workers. Every mote replaying a
 * template sees exactly that record stream, so its estimators must end
 * in that state. Returns, per template, its slots in procedure order.
 */
std::vector<std::vector<store::EstimatorSlot>>
templateStates(const Setup &s, size_t waves, Outcome &out)
{
    const size_t templates = s.representative.size();
    exec::ThreadPool pool(kWorkers);
    auto banks = exec::parallelMap(pool, kWorkers, [&](size_t part) {
        auto bank = makeBank(s);
        net::Packet packet;
        std::vector<trace::TimingRecord> records;
        for (size_t t = part; t < templates; t += kWorkers) {
            const MotePlan &plan = s.representative[t];
            for (size_t w = 0; w < waves; ++w) {
                for (uint32_t f = 0; f < plan.frameCount; ++f) {
                    const auto &[offset, size] = s.frames[plan.firstFrame + f];
                    records.clear();
                    if (!net::parsePacket(s.bytes.data() + offset, size,
                                          packet) ||
                        !net::decodePayload(packet.payload, records))
                        continue; // counted below: the states will differ
                    for (const auto &record : records)
                        bank.observe(uint16_t(t), record);
                }
            }
        }
        return bank.snapshot();
    });
    std::vector<std::vector<store::EstimatorSlot>> states(templates);
    for (const auto &slots : banks)
        for (const auto &slot : slots)
            states[slot.mote].push_back(slot);
    for (size_t t = 0; t < templates; ++t)
        if (states[t].empty())
            out.mismatches.push_back("oracle: template " + std::to_string(t) +
                                     " produced no estimator state");
    return states;
}

/** The snapshot every shard must hold, built from template states. */
std::vector<std::vector<store::EstimatorSlot>>
expectedShards(const Setup &s,
               const std::vector<std::vector<store::EstimatorSlot>> &states)
{
    std::vector<std::vector<store::EstimatorSlot>> shards(kShards);
    for (size_t shard = 0; shard < kShards; ++shard) {
        std::vector<MotePlan> plans = s.perShard[shard];
        std::sort(plans.begin(), plans.end(),
                  [](const MotePlan &a, const MotePlan &b) {
                      return a.wire < b.wire;
                  });
        for (const MotePlan &plan : plans) {
            for (store::EstimatorSlot slot : states[plan.templ]) {
                slot.mote = plan.wire;
                shards[shard].push_back(std::move(slot));
            }
        }
    }
    return shards;
}

/** Compare per-shard digests with the oracle's; a shard that differs
 *  fails every record it ingested. */
void
compareDigests(const std::string &what, const std::vector<uint64_t> &got,
               const std::vector<uint64_t> &want, uint64_t records_per_shard,
               Outcome &out)
{
    for (size_t shard = 0; shard < kShards; ++shard) {
        if (got[shard] == want[shard])
            continue;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s shard %zu digest %016llx != oracle %016llx",
                      what.c_str(), shard, (unsigned long long)got[shard],
                      (unsigned long long)want[shard]);
        out.mismatches.push_back(buf);
        out.failed += records_per_shard;
    }
}

/**
 * Durable end of a campaign: checkpoint, close, then for every shard
 * store fsck, reopen and rebuild the bank as recovery does. Every
 * acknowledged (evicted) record must be recovered. Returns the
 * recovered banks' digests.
 */
std::vector<uint64_t>
recoverStores(const Setup &s, Campaign &c, Outcome &out)
{
    std::vector<uint64_t> delivered(kShards);
    for (size_t shard = 0; shard < kShards; ++shard)
        delivered[shard] = c.sc->collector(shard).stats().recordsDelivered;
    c.sc->checkpoint();
    c.sc.reset(); // closes every shard store

    std::vector<uint64_t> digests;
    for (size_t shard = 0; shard < kShards; ++shard) {
        std::string dir = fs::path(c.dir) / fleet::shardDirName(shard);
        auto report = store::fsckStore(dir);
        if (!report.ok)
            out.mismatches.push_back("fsck " + dir + ": " + report.text());
        store::Store store(dir);
        if (store.nextOrdinal() != delivered[shard])
            out.mismatches.push_back(
                "shard " + std::to_string(shard) + " recovered " +
                std::to_string(store.nextOrdinal()) + " of " +
                std::to_string(delivered[shard]) + " acknowledged records");
        auto bank = makeBank(s);
        net::resumeBank(store, bank);
        digests.push_back(fleet::snapshotDigest(bank.snapshot()));
    }
    return digests;
}

/** Branch MAE of the fleet's merged estimate after one wave against
 *  the templates' ground truth, and the cycles its placement saves
 *  over natural. */
std::pair<double, double>
quality(const Setup &s,
        const std::vector<std::vector<store::EstimatorSlot>> &one_wave)
{
    const auto &module = *s.workload.module;
    std::vector<store::EstimatorSlot> merged;
    for (const auto &shard : one_wave)
        merged.insert(merged.end(), shard.begin(), shard.end());
    auto estimate = fleet::estimateFromSlots(
        module, s.lowered, s.sim.costs, s.sim.policy, s.sim.cyclesPerTick,
        nestedProbeCycles(s), tomography::EstimatorOptions{}, merged);
    double mae =
        branchMae(module, s.truth, s.truthInvocations, estimate.thetas);

    api::PipelineConfig cfg;
    cfg.jobs = 1;
    api::TomographyPipeline pipeline(s.workload, cfg);
    Rng rng(1);
    auto natural = pipeline.evaluate(
        "natural", layout::computeModuleOrders(module, estimate.profile,
                                               layout::LayoutKind::Natural,
                                               rng));
    auto placed =
        pipeline.evaluate("fleet", pipeline.optimize(estimate.profile));
    double saved = 100.0 *
                   (double(natural.totalCycles) - double(placed.totalCycles)) /
                   double(natural.totalCycles);
    return {mae, saved};
}

/** Mean ns per call of parsePacket and decodePayload over a sample of
 *  the wave's frames, called in isolation. */
std::pair<double, double>
probeNet(const Setup &s)
{
    size_t n = std::min<size_t>(s.frames.size(), 4096);
    std::vector<net::Packet> packets(n);
    double parse = 0.0, decode = 0.0;
    size_t reps = 0;
    std::vector<trace::TimingRecord> records;
    int64_t start = nowNs();
    do {
        int64_t t0 = nowNs();
        for (size_t i = 0; i < n; ++i)
            net::parsePacket(s.bytes.data() + s.frames[i].first,
                             s.frames[i].second, packets[i]);
        int64_t t1 = nowNs();
        for (size_t i = 0; i < n; ++i) {
            records.clear();
            net::decodePayload(packets[i].payload, records);
        }
        int64_t t2 = nowNs();
        parse += double(t1 - t0);
        decode += double(t2 - t1);
        ++reps;
    } while (nowNs() - start < 200'000'000);
    double calls = double(n * reps);
    return {parse / calls, decode / calls};
}

/** Store::append and Store::flush called directly on a scratch store:
 *  8-record transfers, each followed by a flush (what one evict does). */
struct StoreProbe
{
    double appendNs = 0.0;
    std::vector<double> flushNs;
};

StoreProbe
probeStore(const Setup &s, const std::string &dir)
{
    fs::remove_all(dir);
    std::vector<trace::TimingRecord> records;
    net::Packet packet;
    for (size_t i = 0; i < std::min<size_t>(s.frames.size(), 64); ++i) {
        net::parsePacket(s.bytes.data() + s.frames[i].first,
                         s.frames[i].second, packet);
        net::decodePayload(packet.payload, records);
    }
    StoreProbe probe;
    double append = 0.0;
    size_t appended = 0;
    {
        store::Store st(dir);
        for (size_t t = 0; t < 2000; ++t) {
            int64_t t0 = nowNs();
            for (size_t r = 0; r < 8; ++r)
                st.append(1, records[(t * 8 + r) % records.size()]);
            int64_t t1 = nowNs();
            st.flush();
            probe.flushNs.push_back(double(nowNs() - t1));
            append += double(t1 - t0);
            appended += 8;
        }
    }
    fs::remove_all(dir);
    probe.appendNs = append / double(appended);
    return probe;
}

double
sum(const std::vector<double> &v)
{
    double total = 0.0;
    for (double x : v)
        total += x;
    return total;
}

/** Per-layer metrics and the cost ledger of a traced run. */
void
reportTraced(const Spec &spec, const Setup &s, const Options &options,
             const Campaign &c,
             const std::vector<std::vector<store::EstimatorSlot>> &one_wave,
             const Phase &base, const Phase *metricsOn, const Phase *single,
             const Phase &traced, Outcome &out)
{
    Trace all;
    for (const auto &tr : traced.trace) {
        all.fleetOffer.insert(all.fleetOffer.end(), tr.fleetOffer.begin(),
                              tr.fleetOffer.end());
        all.directOffer.insert(all.directOffer.end(), tr.directOffer.begin(),
                               tr.directOffer.end());
        all.evict.insert(all.evict.end(), tr.evict.begin(), tr.evict.end());
        all.observe.insert(all.observe.end(), tr.observe.begin(),
                           tr.observe.end());
        all.observeCalls += tr.observeCalls;
        all.observeNs += tr.observeNs;
        all.fleetSelfNs += tr.fleetSelfNs;
        all.directSelfNs += tr.directSelfNs;
    }
    const double fleetN = double(all.fleetOffer.size());
    const double directN = double(all.directOffer.size());
    const double directMean = sum(all.directOffer) / directN;
    const double evictTotal = sum(all.evict);
    const double frames = double(all.fleetOffer.size() +
                                 all.directOffer.size());
    const double records = double(traced.records);
    const double transfers = double(all.evict.size());
    Summary fleetOffer = summarize(all.fleetOffer);
    Summary evict = summarize(all.evict);
    Summary observe = summarize(all.observe);

    auto [parseNs, decodeNs] = probeNet(s);
    StoreProbe storeProbe;
    Summary flush;
    if (spec.durable) {
        storeProbe = probeStore(
            s, (fs::path(options.workDir) / "store-probe").string());
        flush = summarize(storeProbe.flushNs);
    }

    const double wave = double(s.frames.size());
    out.add("net.parse_ns", "ns", parseNs, "parsePacket, isolated");
    out.add("net.decode_ns", "ns", decodeNs, "decodePayload, isolated");
    out.add("net.collector_offer_ns", "ns", directMean,
            "SinkCollector::offer, mean, n=" +
                std::to_string(all.directOffer.size()));
    out.add("net.frames", "count", wave, "per wave");
    out.add("net.frames_rejected", "count", double(c.sc->stats().rejected),
            "whole run");
    out.add("net.records_delivered", "count", double(s.recordsPerWave),
            "per wave");
    out.add("tomography.observe_ns", "ns", observe.p50,
            "EstimatorBank::observe, sampled n=" + std::to_string(observe.n));
    out.add("tomography.observe_p99_ns", "ns", observe.tail,
            "p" + std::to_string(observe.tailPct));
    double observations = 0.0, outliers = 0.0;
    for (const auto &shard : one_wave) {
        for (const auto &slot : shard) {
            observations += double(slot.state.count);
            outliers += double(slot.state.outliers);
        }
    }
    out.add("tomography.observations", "count", observations, "per wave");
    out.add("tomography.outliers", "count", outliers, "per wave");
    double paths = 0.0, found = 0.0;
    const MotePlan &plan = s.representative.front();
    const auto &bank = c.sc->bank(fleet::ShardLayout(kShards).shardOf(plan.wire));
    for (ir::ProcId id = 0; id < s.workload.module->procedureCount(); ++id) {
        if (const auto *est = bank.find(plan.wire, id)) {
            paths += double(est->pathCount());
            found += 1.0;
        }
    }
    out.add("tomography.paths_per_estimator", "count",
            found > 0 ? paths / found : 0.0);
    out.add("fleet.offer_ns", "ns", fleetOffer.p50,
            "ShardedCollector::offer, n=" + std::to_string(fleetOffer.n));
    out.add("fleet.offer_p99_ns", "ns", fleetOffer.tail,
            "p" + std::to_string(fleetOffer.tailPct));
    out.add("fleet.evict_us", "us", evict.p50 / 1e3,
            "ShardedCollector::evictMote, n=" + std::to_string(evict.n));
    out.add("fleet.evict_p99_us", "us", evict.tail / 1e3,
            "p" + std::to_string(evict.tailPct));
    out.add("fleet.estimators", "count", double(c.sc->estimatorCount()));
    auto [least, most] = std::minmax_element(base.shardBusyNs.begin(),
                                             base.shardBusyNs.end());
    out.add("fleet.shard_skew", "ratio", *most / *least,
            "slowest shard busy / fastest");
    out.add("fleet.speedup", "ratio",
            single ? base.medianRps() / single->medianRps() : 0.0,
            single ? "4 workers vs 1" : "not measured on this workload");
    double fsyncs = double(base.store.fsyncs);
    double appended = double(base.store.recordsAppended);
    out.add("store.append_ns", "ns", storeProbe.appendNs,
            spec.durable ? "Store::append, isolated" : "no store");
    out.add("store.flush_us", "us", flush.p50 / 1e3,
            spec.durable ? "Store::flush, isolated, n=" + std::to_string(flush.n)
                         : "no store");
    out.add("store.flush_p99_us", "us", flush.tail / 1e3,
            spec.durable ? "p" + std::to_string(flush.tailPct) : "no store");
    out.add("store.fsyncs", "count", fsyncs, "per wave, during ingest");
    out.add("store.records_per_fsync", "count",
            fsyncs > 0 ? appended / fsyncs : 0.0);
    out.add("store.bytes_per_record", "B",
            appended > 0 ? double(base.store.bytesAppended) / appended : 0.0);
    out.add("obs.metrics_overhead_frac", "frac",
            metricsOn ? base.medianRps() / metricsOn->medianRps() - 1.0 : 0.0,
            metricsOn ? "records/s, metrics off vs on"
                      : "not measured on this workload");
    out.add("bench.trace_overhead_frac", "frac",
            base.medianRps() / traced.medianRps() - 1.0,
            "records/s, untraced vs traced");

    // The ledger over worker time. The spans taken in place are the
    // fleet and collector offers, the evicts and EstimatorBank::observe;
    // parse, decode, append and flush are unit costs from the isolated
    // probes above; the collector's and the evict's self times are what
    // those leave of their spans. Route and lock is what a fleet offer
    // costs beyond a direct collector offer, both net of the observes
    // inside them (which would otherwise drown it on ingest_crc16).
    const double routeLock =
        (all.fleetSelfNs / fleetN - all.directSelfNs / directN) * fleetN;
    const double parseTotal = parseNs * frames;
    const double decodeTotal = decodeNs * frames;
    const double appendTotal = storeProbe.appendNs * records;
    const double flushTotal = flush.mean * transfers;
    std::vector<LedgerRow> rows = {
        {"fleet.offer self (route, lock)", fleetN, routeLock},
        {"net.parse", frames, parseTotal},
        {"net.decode", frames, decodeTotal},
        {"tomography.observe", double(all.observeCalls), all.observeNs},
        {"net.collector self", frames,
         all.fleetSelfNs + all.directSelfNs - routeLock - parseTotal -
             decodeTotal - appendTotal},
        {"fleet.evict self", transfers, evictTotal - flushTotal},
    };
    if (spec.durable) {
        rows.push_back({"store.append", records, appendTotal});
        rows.push_back({"store.flush", transfers, flushTotal});
    }
    closeLedger(out, "worker busy time", sum(traced.shardBusyNs), rows);
}

} // namespace

Outcome
runIngest(const Options &options)
{
    const Spec spec = specFor(options.workload);
    Outcome out;
    out.workload = options.workload;
    fs::create_directories(options.workDir);
    auto campaignDir = [&](int rep) {
        return spec.durable ? (fs::path(options.workDir) /
                               ("campaign-" + std::to_string(rep)))
                                  .string()
                            : std::string();
    };

    // Set-up builds the inputs, opens the collector (and the stores),
    // and ingests one warm-up wave, so the bank holds every estimator
    // and the measured rounds start warm.
    std::vector<double> setups;
    Setup s;
    Campaign c;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        if (c.sc) {
            c.sc.reset();
            fs::remove_all(c.dir);
        }
        int64_t t0 = nowNs();
        s = makeSetup(spec, options.seed);
        c = openCampaign(s, campaignDir(rep));
        Phase warmup;
        runPhase(s, c, warmup, out);
        setups.push_back(double(nowNs() - t0) / 1e9);
    }
    Summary setup = summarize(setups);

    // A traced run splits its time between the untraced baseline, the
    // comparison runs its overhead and speedup rows need, and the
    // traced rounds. All of them feed the same campaign.
    Phase base, metricsOn, single, traced;
    metricsOn.metrics = true;
    single.workers = 1;
    traced.traced = true;
    const bool withMetrics = options.workload != "ingest_crc16";
    const bool withSingle = !spec.durable;
    if (!options.trace) {
        base.seconds = options.seconds;
        runPhase(s, c, base, out);
    } else {
        double phases = 2.0 + withMetrics + withSingle;
        base.seconds = metricsOn.seconds = single.seconds = traced.seconds =
            options.seconds / phases;
        runPhase(s, c, base, out);
        if (withMetrics)
            runPhase(s, c, metricsOn, out);
        if (withSingle)
            runPhase(s, c, single, out);
        runPhase(s, c, traced, out);
    }

    // Check the live banks, and for a durable campaign what recovery
    // rebuilds, against the oracle for the waves ingested.
    auto expected = expectedShards(s, templateStates(s, c.waves, out));
    std::vector<uint64_t> want, live;
    for (size_t shard = 0; shard < kShards; ++shard) {
        want.push_back(fleet::snapshotDigest(expected[shard]));
        live.push_back(fleet::snapshotDigest(c.sc->bank(shard).snapshot()));
    }
    expected.clear();
    const uint64_t perShard = s.recordsPerWave * c.waves / kShards;
    compareDigests("live", live, want, perShard, out);
    auto oneWave = expectedShards(s, templateStates(s, 1, out));

    if (options.trace) {
        reportTraced(spec, s, options, c, oneWave, base,
                     withMetrics ? &metricsOn : nullptr,
                     withSingle ? &single : nullptr, traced, out);
    }
    if (spec.durable)
        compareDigests("recovered", recoverStores(s, c, out), want, perShard,
                       out);
    if (options.trace)
        return out;

    auto [mae, saved] = quality(s, oneWave);
    const std::string rounds =
        "median of " + std::to_string(base.rounds) + " rounds";
    const std::string n = "n=" + std::to_string(base.transfersPerRound);
    out.add("setup_s", "s", setup.p50,
            "median of " + std::to_string(kSetupRepeats));
    out.add("ops_per_s", "1/s", base.medianRps(), "records/s, " + rounds);
    out.add("latency_p50_us", "us", median(base.roundP50) / 1e3,
            n + " per round, " + rounds);
    out.add("latency_p95_us", "us", median(base.roundTail) / 1e3,
            "p" + std::to_string(base.tailPct) + ", " + n + " per round, " +
                rounds);
    out.add("cycles_saved_pct", "%", saved,
            "placement from the merged estimate after one wave vs natural");
    out.add("branch_mae", "prob", mae,
            "merged estimate after one wave vs template truth");
    out.add("peak_rss_mb", "MiB", peakRssMb());
    return out;
}

} // namespace tombench
