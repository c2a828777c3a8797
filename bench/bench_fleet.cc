/**
 * @file
 * E15 — fleet-scale sharded ingest: throughput and latency of the
 * ct::fleet sharded collection pipeline across campaign sizes
 * (--motes-list, default 10^3..10^5; 10^6 reachable) and shard counts
 * (--shards-list, default 1..16). Expected shape: per-shard locking
 * scales with worker count while the Global locking mode flattens at
 * one collector's throughput, and the merged snapshot digest is
 * byte-identical for every (shards, jobs) combination.
 *
 * Output splits by determinism, the same discipline as bench_store:
 *
 *   - results/fleet_ingest.csv — deterministic counts (frames,
 *     records, estimators) plus the merged snapshot digest; CI diffs
 *     this file across --jobs values AND across shard counts.
 *   - results/BENCH_fleet.{csv,json} — wall-clock numbers (records/s,
 *     per-shard p50/p99 ingest latency, scaling efficiency, locking
 *     and metrics-overhead comparisons); never diffed, uploaded as
 *     the perf artifact.
 *
 * Also measures the striped obs::Counter hot path directly (stderr):
 * concurrent add() throughput against a single-cell atomic baseline —
 * the contention the striping removes (obs counter writes have been
 * relaxed-memory-order since the metrics layer landed; striping is
 * what de-contends the cache line).
 */

#include "common.hh"

#include <atomic>
#include <filesystem>

#include "exec/thread_pool.hh"
#include "fleet/fleet.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace ct;
using namespace ct::bench;

namespace fs = std::filesystem;

namespace {

std::vector<size_t>
parseList(const std::string &text)
{
    std::vector<size_t> out;
    for (const auto &part : split(text, ','))
        out.push_back(size_t(std::stoull(part)));
    CT_ASSERT(!out.empty(), "empty sweep list");
    return out;
}

std::string
scratchDir(const std::string &tag)
{
    auto dir = fs::temp_directory_path() / ("ct_bench_fleet_" + tag);
    fs::remove_all(dir);
    return dir.string();
}

/** Hex digest the way fleet_collect prints it. */
std::string
hexDigest(uint64_t digest)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  (unsigned long long)digest);
    return buf;
}

struct PerfRow
{
    std::string kind;
    size_t motes = 0;
    size_t shards = 0;
    std::string shard = "-";
    std::string locking = "shard";
    std::string metrics = "off";
    double ingestSeconds = 0.0;
    double recordsPerSecond = 0.0;
    double speedup = 0.0;
    double efficiency = 0.0;
    int64_t p50Ns = 0;
    int64_t p99Ns = 0;
};

/** Worst-shard latency quantiles of one campaign. */
void
worstLatency(const fleet::ShardedFleetResult &result, int64_t &p50,
             int64_t &p99)
{
    p50 = 0;
    p99 = 0;
    for (const auto &shard : result.shards) {
        p50 = std::max(p50, shard.p50IngestNs);
        p99 = std::max(p99, shard.p99IngestNs);
    }
}

/** Concurrent add() ns/op of a counter-shaped thing over the pool. */
template <typename Bump>
double
hammer(size_t threads, size_t iters, Bump bump)
{
    exec::ThreadPool pool(threads);
    obs::StopwatchUs watch;
    pool.parallelFor(threads, [&](size_t) {
        for (size_t i = 0; i < iters; ++i)
            bump();
    });
    return double(watch.elapsedUs()) * 1e3 /
           double(threads ? threads * iters : iters);
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "motes-list", "shards-list", "records",
                  "templates", "jobs", "seed", "keep-dirs"});
    auto workload =
        workloads::workloadByName(args.get("workload", "event_dispatch"));
    auto motes_list = parseList(args.get("motes-list", "1000,10000,100000"));
    auto shards_list = parseList(args.get("shards-list", "1,2,4,8,16"));
    size_t records = size_t(args.getLong("records", 8));
    size_t templates = size_t(args.getLong("templates", 8));
    size_t jobs = jobsFromArgs(args);
    uint64_t seed = uint64_t(args.getLong("seed", 1));
    bool keep_dirs = args.getBool("keep-dirs", false);

    auto campaign = [&](size_t motes, size_t shards,
                        fleet::Locking locking, const std::string &store) {
        fleet::ShardedFleetConfig config;
        config.motes = motes;
        config.invocations = records;
        config.templates = templates;
        config.jobs = jobs;
        config.seed = seed;
        config.collector.shards = shards;
        config.collector.locking = locking;
        config.collector.storeDir = store;
        // Not group commit: this only caps the records between fsyncs
        // inside one transfer. runShardedFleet evicts every mote after
        // its frames, and eviction runs SinkCollector::finalize ->
        // Store::flush -> fsync, so each mote's transfer still pays one
        // fsync (records_per_fsync == records per mote).
        config.collector.store.fsyncEveryRecords = 4096;
        config.checkpointAtEnd = !store.empty();
        return fleet::runShardedFleet(workload, config);
    };

    TablePrinter det("E15: sharded fleet ingest — deterministic view (" +
                     workload.name + ")");
    det.setHeader({"motes", "shards", "frames", "records", "estimators",
                   "digest"});

    std::vector<PerfRow> perf;
    std::vector<fleet::ShardedFleetResult> largest; // per shards value

    for (size_t motes : motes_list) {
        double base_seconds = 0.0;
        for (size_t shards : shards_list) {
            auto result = campaign(motes, shards, fleet::Locking::PerShard,
                                   "");
            det.row(motes, shards, result.totalFrames(),
                    result.totalRecords(), result.estimators,
                    hexDigest(result.mergedDigest));

            PerfRow row;
            row.kind = "sweep";
            row.motes = motes;
            row.shards = shards;
            row.ingestSeconds = result.ingestSeconds;
            row.recordsPerSecond = result.recordsPerSecond();
            if (shards == shards_list.front() &&
                shards_list.front() == 1)
                base_seconds = result.ingestSeconds;
            if (base_seconds > 0.0 && result.ingestSeconds > 0.0) {
                row.speedup = base_seconds / result.ingestSeconds;
                row.efficiency = row.speedup / double(shards);
            }
            worstLatency(result, row.p50Ns, row.p99Ns);
            perf.push_back(row);

            if (motes == motes_list.back())
                largest.push_back(std::move(result));
        }
    }

    // --- Locking comparison: the contended configuration. -----------
    {
        size_t motes = motes_list.back();
        size_t shards = shards_list.back();
        auto result =
            campaign(motes, shards, fleet::Locking::Global, "");
        PerfRow row;
        row.kind = "locking";
        row.motes = motes;
        row.shards = shards;
        row.locking = "global";
        row.ingestSeconds = result.ingestSeconds;
        row.recordsPerSecond = result.recordsPerSecond();
        worstLatency(result, row.p50Ns, row.p99Ns);
        perf.push_back(row);
    }

    // --- Metrics overhead: durable ingest, counters off vs on. ------
    for (bool metrics_on : {false, true}) {
        size_t motes = motes_list.back();
        size_t shards = shards_list.back();
        auto dir = scratchDir(metrics_on ? "metrics_on" : "metrics_off");
        obs::setMetricsEnabled(metrics_on);
        auto result =
            campaign(motes, shards, fleet::Locking::PerShard, dir);
        obs::setMetricsEnabled(false);
        obs::metrics().clear();
        PerfRow row;
        row.kind = "metrics";
        row.motes = motes;
        row.shards = shards;
        row.metrics = metrics_on ? "on" : "off";
        row.ingestSeconds = result.ingestSeconds;
        row.recordsPerSecond = result.recordsPerSecond();
        worstLatency(result, row.p50Ns, row.p99Ns);
        perf.push_back(row);
        if (!keep_dirs)
            fs::remove_all(dir);
    }

    // --- Per-shard latency detail of the largest campaign. ----------
    if (!largest.empty()) {
        const auto &result = largest.back();
        for (const auto &shard : result.shards) {
            PerfRow row;
            row.kind = "shard";
            row.motes = motes_list.back();
            row.shards = result.shards.size();
            row.shard = std::to_string(shard.shard);
            row.ingestSeconds = double(shard.ingestUs) / 1e6;
            row.recordsPerSecond =
                row.ingestSeconds > 0.0
                    ? double(shard.records) / row.ingestSeconds
                    : 0.0;
            row.p50Ns = shard.p50IngestNs;
            row.p99Ns = shard.p99IngestNs;
            perf.push_back(row);
        }
    }

    emit(det, "fleet_ingest");

    TablePrinter table("E15: sharded fleet ingest — perf (" +
                       workload.name + ", jobs=" + std::to_string(jobs) +
                       ")");
    table.setHeader({"kind", "motes", "shards", "shard", "locking",
                     "metrics", "ingest_s", "records_per_s", "speedup",
                     "efficiency", "p50_ns", "p99_ns"});
    for (const auto &row : perf)
        table.row(row.kind, row.motes, row.shards, row.shard, row.locking,
                  row.metrics, row.ingestSeconds, row.recordsPerSecond,
                  row.speedup, row.efficiency, row.p50Ns, row.p99Ns);
    emit(table, "BENCH_fleet", /*json=*/true);

    // --- The striped-counter hot path itself. -----------------------
    {
        const size_t iters = 1'000'000;
        obs::Counter striped;
        double striped_ns =
            hammer(jobs, iters, [&] { striped.add(1); });
        CT_ASSERT(striped.value() == uint64_t(jobs) * iters,
                  "striped counter lost adds");
        struct
        {
            std::atomic<uint64_t> value{0};
        } single;
        double single_ns = hammer(jobs, iters, [&] {
            single.value.fetch_add(1, std::memory_order_relaxed);
        });
        inform("counter add (", jobs, " threads): striped ", striped_ns,
               " ns/op, single-cell ", single_ns, " ns/op");
    }
    return 0;
}
