/**
 * @file
 * The benchmark's reporting rules: the percentile rule, the metric
 * name grammar, and the result line every run ends with.
 */
#ifndef TOMBENCH_REPORT_HH
#define TOMBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace tombench {

/** Monotonic nanoseconds (steady_clock). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The percentile rule: the highest of p99, p95, p90, p75, p50, up to
 * @p cap, that has at least ten of @p n samples beyond it (nearest
 * rank); 0 when even the median has fewer than ten beyond it (n < 20).
 */
int tailPercentile(size_t n, int cap = 99);

/**
 * End-to-end tails stop at p95. On the shared 4-vCPU machine the
 * benchmark was tuned on, the p99 of fsync-bound transfers moved by
 * 14-31% between identical runs and the p95 by 5-7%; per-layer tails,
 * which have no regression bound, keep p99.
 */
constexpr int kEndToEndTailCap = 95;

/** A timing distribution, reported as its median and its tail. */
struct Summary
{
    size_t n = 0;
    double p50 = 0.0;
    /** Value at tailPct; the median when tailPct is 0. */
    double tail = 0.0;
    int tailPct = 0;
    double mean = 0.0;
};

/** Nearest-rank summary of @p samples (reordered in place), its tail
 *  chosen by tailPercentile(n, @p cap). */
Summary summarize(std::vector<double> &samples, int cap = 99);

/** Median (nearest rank) of @p values; 0 when empty. */
double median(std::vector<double> values);

/**
 * Metric names start with a letter or digit and hold at most 64
 * letters, digits, '_', '.' and '-'.
 */
bool validMetricName(const std::string &name);
/** Units hold 1..16 letters, digits, '_', '/', '%', '.' and '-'. */
bool validMetricUnit(const std::string &unit);

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** Shown in the human-readable table only (e.g. "p95, n=412"). */
    std::string note;
};

/** Everything one workload run reports. */
struct Outcome
{
    std::string workload;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Correctness-check failures, one line each. */
    std::vector<std::string> mismatches;
    std::vector<Metric> metrics;
    /** Free-form report lines (ledger, findings) for stderr. */
    std::vector<std::string> lines;

    bool correct() const { return mismatches.empty() && failed == 0; }
    void add(const std::string &name, const std::string &unit, double value,
             const std::string &note = {});
};

/** The result line: `{"correct":..,"attempted":..,"failed":..,
 *  "metrics":{name:{"value":..,"unit":..}}}`. Metric names get
 *  @p prefix prepended (used when one process runs every workload). */
std::string resultJson(const Outcome &outcome, const std::string &prefix = {});

/** Human-readable table of @p outcome for stderr. */
std::string renderTable(const Outcome &outcome);

} // namespace tombench

#endif // TOMBENCH_REPORT_HH
