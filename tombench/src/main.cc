/**
 * @file
 * tombench: the repository benchmark's executable.
 *
 *   tombench --workload <placement|ingest|ingest_crc16|ingest_durable|all>
 *            --seed N --seconds S --trace 0|1
 *            [--expected tombench/expected_placement.tsv]
 *            [--work-dir .bench_build/tombench-work]
 *   tombench --write-expected <path>
 *
 * Prints a table per workload on stderr and, as the last line of
 * stdout, the result object. Exits 1 when any output fails its check.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hh"

namespace tombench {

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void
closeLedger(Outcome &out, const std::string &end_to_end, double end_to_end_ns,
            const std::vector<LedgerRow> &rows)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "ledger over %s: %.3f ms",
                  end_to_end.c_str(), end_to_end_ns / 1e6);
    out.lines.push_back(buf);
    out.lines.push_back(
        "  layer                                  count     unit_ns"
        "       total_ms   share");
    double covered = 0.0;
    for (const auto &row : rows) {
        covered += row.totalNs;
        std::snprintf(buf, sizeof buf, "  %-34s %11.0f %11.1f %14.3f %6.1f%%",
                      row.layer.c_str(), row.count,
                      row.count > 0 ? row.totalNs / row.count : 0.0,
                      row.totalNs / 1e6, 100.0 * row.totalNs / end_to_end_ns);
        out.lines.push_back(buf);
        if (row.totalNs < 0)
            out.lines.push_back("  finding: " + row.layer +
                                " is negative: the isolated unit costs "
                                "exceed the span they are part of");
    }
    double unaccounted = (end_to_end_ns - covered) / end_to_end_ns;
    std::snprintf(buf, sizeof buf,
                  "  unaccounted %.1f%% of %s; the ledger %s (tolerance "
                  "%.0f%%)",
                  100.0 * unaccounted, end_to_end.c_str(),
                  std::abs(unaccounted) <= kLedgerTolerance
                      ? "closes"
                      : "DOES NOT CLOSE - finding",
                  100.0 * kLedgerTolerance);
    out.lines.push_back(buf);
    out.add("bench.ledger_unaccounted_frac", "frac", unaccounted);
}

namespace {

const char *kWorkloads[] = {"placement", "ingest", "ingest_crc16",
                            "ingest_durable"};

/** Every per-layer metric, in report order; a workload that does not
 *  exercise a layer reports it as 0. */
const std::pair<const char *, const char *> kPerLayer[] = {
    {"sim.measure_ms", "ms"},
    {"sim.evaluate_ms", "ms"},
    {"sim.evaluate_max_ms", "ms"},
    {"sim.invocations", "count"},
    {"sim.invocations_per_busy_s", "1/s"},
    {"tomography.estimate_p50_ms", "ms"},
    {"tomography.estimate_p99_ms", "ms"},
    {"tomography.em_iterations", "count"},
    {"tomography.em_reward_classes", "count"},
    {"layout.optimize_us", "us"},
    {"exec.fanout_overhead_ms", "ms"},
    {"net.parse_ns", "ns"},
    {"net.decode_ns", "ns"},
    {"net.collector_offer_ns", "ns"},
    {"net.frames", "count"},
    {"net.frames_rejected", "count"},
    {"net.records_delivered", "count"},
    {"tomography.observe_ns", "ns"},
    {"tomography.observe_p99_ns", "ns"},
    {"tomography.observations", "count"},
    {"tomography.outliers", "count"},
    {"tomography.paths_per_estimator", "count"},
    {"fleet.offer_ns", "ns"},
    {"fleet.offer_p99_ns", "ns"},
    {"fleet.evict_us", "us"},
    {"fleet.evict_p99_us", "us"},
    {"fleet.estimators", "count"},
    {"fleet.shard_skew", "ratio"},
    {"fleet.speedup", "ratio"},
    {"store.append_ns", "ns"},
    {"store.flush_us", "us"},
    {"store.flush_p99_us", "us"},
    {"store.fsyncs", "count"},
    {"store.records_per_fsync", "count"},
    {"store.bytes_per_record", "B"},
    {"obs.metrics_overhead_frac", "frac"},
    {"bench.trace_overhead_frac", "frac"},
    {"bench.ledger_unaccounted_frac", "frac"},
};

/** Order a traced outcome's metrics as kPerLayer, adding nil rows. */
void
completePerLayer(Outcome &out)
{
    std::map<std::string, Metric> have;
    for (auto &m : out.metrics)
        have[m.name] = m;
    out.metrics.clear();
    for (const auto &[name, unit] : kPerLayer) {
        auto it = have.find(name);
        if (it == have.end()) {
            out.add(name, unit, 0.0, "nil on this workload");
            continue;
        }
        if (it->second.unit != unit)
            throw std::logic_error(std::string("unit of ") + name);
        out.metrics.push_back(it->second);
        have.erase(it);
    }
    if (!have.empty())
        throw std::logic_error("unlisted per-layer metric " +
                               have.begin()->first);
}

Outcome
runOne(const Options &options)
{
    Outcome out = options.workload == "placement" ? runPlacement(options)
                                                  : runIngest(options);
    if (options.trace)
        completePerLayer(out);
    // A digest mismatch fails a shard's every record, which can count
    // records a short delivery already failed.
    out.failed = std::min(out.failed, out.attempted);
    return out;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "tombench: %s\nusage: tombench --workload "
                 "<placement|ingest|ingest_crc16|ingest_durable|all> "
                 "--seed N --seconds S --trace 0|1 [--expected PATH] "
                 "[--work-dir DIR]\n       tombench --write-expected PATH\n",
                 why.c_str());
    std::exit(2);
}

} // namespace

} // namespace tombench

int
main(int argc, char **argv)
{
    using namespace tombench;
    // The pipeline turns its exporters on when these are set; the
    // benchmark measures the library with telemetry off.
    unsetenv("CT_TRACE_OUT");
    unsetenv("CT_METRICS_OUT");

    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            usage("bad argument " + key);
        args[key.substr(2)] = argv[i + 1];
    }
    if (args.count("write-expected"))
        return writePlacementExpected(args["write-expected"]);

    Options options;
    try {
        options.workload = args.at("workload");
        options.seed = std::stoull(args.at("seed"));
        options.seconds = std::stod(args.at("seconds"));
        options.trace = std::stoi(args.at("trace")) != 0;
    } catch (const std::exception &) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    if (!(options.seconds > 0))
        usage("--seconds must be positive");
    options.expectedPath = args.count("expected")
                               ? args["expected"]
                               : "tombench/expected_placement.tsv";
    const char *target = std::getenv("CARGO_TARGET_DIR");
    options.workDir = args.count("work-dir")
                          ? args["work-dir"]
                          : std::string(target ? target : ".bench_build") +
                                "/tombench-work";

    std::vector<std::string> workloads;
    if (options.workload == "all") {
        workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
    } else {
        for (const char *name : kWorkloads)
            if (options.workload == name)
                workloads.push_back(name);
        if (workloads.empty())
            usage("unknown workload " + options.workload);
    }

    Outcome total;
    bool all = workloads.size() > 1;
    try {
        for (const auto &name : workloads) {
            Options one = options;
            one.workload = name;
            Outcome out = runOne(one);
            std::fputs(renderTable(out).c_str(), stderr);
            if (!all) {
                total = std::move(out);
                break;
            }
            std::printf("%s\n", resultJson(out).c_str());
            total.attempted += out.attempted;
            total.failed += out.failed;
            for (auto &line : out.mismatches)
                total.mismatches.push_back(name + ": " + line);
            for (auto &m : out.metrics)
                total.metrics.push_back(
                    {name + "." + m.name, m.unit, m.value, m.note});
        }
        std::filesystem::remove_all(options.workDir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tombench: %s\n", e.what());
        return 1;
    }
    std::printf("%s\n", resultJson(total).c_str());
    std::fflush(stdout);
    return total.correct() ? 0 : 1;
}
