/**
 * @file
 * Human-readable optimization reports.
 *
 * Renders a PipelineResult into the narrative a developer acts on:
 * what was measured, how trustworthy the estimate is (diagnostics
 * included), what each candidate placement costs, and the bottom-line
 * recommendation. The causal ranking and the budget plan, which callers
 * compute around run(), render as sections of their own.
 */

#ifndef CT_API_REPORT_HH
#define CT_API_REPORT_HH

#include <string>

#include "api/pipeline.hh"

namespace ct::api {

/** Report rendering options. */
struct ReportOptions
{
    /** Include the per-branch true-vs-estimated table (only available
     *  in simulation, where ground truth exists). */
    bool includeAccuracy = true;
    /** Include per-procedure estimator diagnostics. */
    bool includeDiagnostics = true;
};

/**
 * Render the full report. @p workload and @p config must be the ones
 * the pipeline ran with.
 */
std::string renderReport(const workloads::Workload &workload,
                         const PipelineConfig &config,
                         const PipelineResult &result,
                         const ReportOptions &options = {});

/** The what-if ranking table of TomographyPipeline::causalProfile()
 *  plus its one-line summary. */
std::string renderCausal(const causal::CausalProfile &profile);

/** The plan table of TomographyPipeline::planBudget() plus its
 *  binding-constraint and solver-gap line. */
std::string renderBudget(const BudgetOutcome &outcome);

} // namespace ct::api

#endif // CT_API_REPORT_HH
