/**
 * @file
 * What-if causal profiling demo: run the measurement + estimation
 * stages on one workload, then ask the ct::causal engine the question
 * a flat profile cannot answer — "which procedure's placement, if made
 * perfect, buys the most end-to-end cycles and energy?" — and print
 * the ranked answer next to the flat profile it disagrees with.
 *
 *   ./causal_profile [--workload crc16] [--samples 2000] [--seed 1]
 *                    [--dials 0.25,0.5,0.75,1.0] [--per-block]
 *                    [--true-profile] [--json out.json] [--csv out.csv]
 *
 * --true-profile parameterizes the chain with the run's own empirical
 * branch frequencies instead of the estimator's thetas (the setting
 * under which the analytic deltas match re-simulation exactly; see
 * docs/CAUSAL.md).
 */

#include <iostream>
#include <sstream>

#include "api/pipeline.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace ct;

namespace {

std::vector<double>
parseDials(const std::string &spec)
{
    std::vector<double> dials;
    std::stringstream ss(spec);
    for (std::string item; std::getline(ss, item, ',');) {
        if (item.empty())
            continue;
        double dial = std::stod(item);
        if (dial < 0.0 || dial > 1.0)
            fatal("--dials entries must lie in [0, 1], got ", item);
        dials.push_back(dial);
    }
    if (dials.empty())
        fatal("--dials parsed to an empty sweep: '", spec, "'");
    return dials;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "samples", "seed", "dials", "per-block",
                  "true-profile", "json", "csv"});

    api::PipelineConfig config;
    config.measureInvocations = size_t(args.getLong("samples", 2000));
    config.seed = uint64_t(args.getLong("seed", 1));

    api::CausalConfig causal_cfg;
    causal_cfg.dials = parseDials(args.get("dials", "0.25,0.5,0.75,1.0"));
    causal_cfg.perBlock = args.getBool("per-block", false);
    causal_cfg.useTrueProfile = args.getBool("true-profile", false);
    causal_cfg.jsonOut = args.get("json", "");
    causal_cfg.csvOut = args.get("csv", "");

    auto workload =
        workloads::workloadByName(args.get("workload", "crc16"));

    api::TomographyPipeline pipeline(workload, config);
    auto result = pipeline.run();
    auto cp = pipeline.causalProfile(result.measureRun, result.estimate,
                                     causal_cfg);

    std::cout << "=== causal what-if profile: " << workload.name
              << " ===\n"
              << "theta source: "
              << (causal_cfg.useTrueProfile
                      ? "empirical run profile"
                      : "estimated from boundary timing")
              << "\n"
              << "baseline " << formatDouble(cp.baselineCyclesPerEvent, 2)
              << " cycles/event, "
              << formatDouble(cp.baselineEnergyMicrojoulesPerEvent, 4)
              << " uJ/event; placement penalties account for "
              << formatDouble(cp.totalPenaltyCyclesPerEvent, 2)
              << " cycles/event\n\n";

    {
        TablePrinter table("what-if ranking (dial 1.0 = perfect placement)");
        table.setHeader({"procedure", "causal rank", "flat rank",
                         "delta cyc/event", "speedup %", "delta uJ/event",
                         "call rate", "flat share %"});
        for (const auto &p : cp.procs) {
            table.row(p.name, p.causalRank, p.flatRank,
                      p.deltaCyclesPerEvent, p.virtualSpeedupPct,
                      p.deltaEnergyMicrojoulesPerEvent, p.callRate,
                      p.flatSharePct);
        }
        table.print(std::cout);
    }

    if (!cp.procs.empty()) {
        const auto &top = cp.procs.front();
        TablePrinter table("virtual-speedup curve: " + top.name);
        table.setHeader({"dial", "cycles/event", "speedup %"});
        for (const auto &point : top.curve)
            table.row(point.dial, point.cyclesPerEvent,
                      point.virtualSpeedupPct);
        table.print(std::cout);
    }

    if (causal_cfg.perBlock && !cp.blocks.empty()) {
        TablePrinter table("per-block attribution");
        table.setHeader({"procedure", "block", "delta cyc/event",
                         "speedup %"});
        for (const auto &b : cp.blocks)
            table.row(b.procName, b.block, b.deltaCyclesPerEvent,
                      b.virtualSpeedupPct);
        table.print(std::cout);
    }

    std::cout << cp.rankDisagreements << " of " << cp.procs.size()
              << " procedures rank differently than in the flat profile"
              << (cp.rankDisagreements
                      ? " - a flat profile would mis-prioritize them.\n"
                      : ".\n");
    return 0;
}
