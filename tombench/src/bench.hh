/**
 * @file
 * The benchmark's workloads. Each run sets up several times (setup_s
 * is the median), measures for the requested wall time, checks every
 * output against an independent oracle, and returns an Outcome. A
 * traced run (--trace 1) reports per-layer metrics instead of
 * end-to-end ones; its spans are taken around calls into each layer's
 * public functions, from this package only.
 */
#ifndef TOMBENCH_BENCH_HH
#define TOMBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.hh"
#include "ir/profile.hh"
#include "report.hh"

namespace tombench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** The placement workload's expected outcomes (TSV). */
    std::string expectedPath;
    /** Scratch directory for durable stores (inside the checkout). */
    std::string workDir;
};

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupRepeats = 5;

/**
 * A traced run's cost ledger closes when the per-layer totals (unit
 * self time x count) cover the end-to-end time to within this share.
 */
constexpr double kLedgerTolerance = 0.10;

Outcome runPlacement(const Options &options);
/** Recompute every expected placement outcome and write them to
 *  @p path; returns a process exit code. */
int writePlacementExpected(const std::string &path);

/** `ingest`, `ingest_crc16` or `ingest_durable`. */
Outcome runIngest(const Options &options);

/**
 * The pipeline's accuracy score: mean absolute error of @p thetas
 * against @p truth's branch probabilities, over the procedures that
 * ran (@p invocations) and have a conditional branch.
 */
double branchMae(const ct::ir::Module &module,
                 const ct::ir::ModuleProfile &truth,
                 const std::vector<uint64_t> &invocations,
                 const std::vector<std::vector<double>> &thetas);

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** One ledger row: a layer's self time over @p count operations. */
struct LedgerRow
{
    std::string layer;
    double count = 0.0;
    double totalNs = 0.0;
};

/** Appends the ledger's rows and its closure against @p end_to_end_ns
 *  to @p out's report lines, and reports the unaccounted share as
 *  bench.ledger_unaccounted_frac. */
void closeLedger(Outcome &out, const std::string &end_to_end,
                 double end_to_end_ns, const std::vector<LedgerRow> &rows);

} // namespace tombench

#endif // TOMBENCH_BENCH_HH
