/**
 * @file
 * Shared helpers for the figure/table bench binaries.
 *
 * Every bench prints the rows/series of one paper table or figure.
 * Resolution and scene detail come from RunOptions::fromEnv()
 * (LUMI_RES / LUMI_SPP / LUMI_DETAIL / LUMI_QUICK), so a smoke run
 * of the full harness is cheap while the defaults match the
 * characterization setup scaled per Sec. 4.3.
 *
 * Sweeps go through the campaign engine (src/campaign): LUMI_JOBS
 * picks the worker count (default: all cores), LUMI_CACHE_DIR
 * enables the result cache, LUMI_RETRIES bounds re-attempts. Results
 * come back in workload order regardless of completion order, so
 * bench output is identical at any parallelism.
 */

#ifndef LUMI_BENCH_BENCH_UTIL_HH
#define LUMI_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "lumibench/report.hh"
#include "lumibench/run_report.hh"
#include "lumibench/runner.hh"
#include "lumibench/workload.hh"
#include "metrics/metrics.hh"

namespace lumi
{
namespace bench
{

/**
 * Observability side-channel for the figure/table binaries: when
 * LUMI_REPORT_DIR is set, every simulated job also drops a
 * machine-readable run report at $LUMI_REPORT_DIR/<cacheKey(job)>,
 * so a bench sweep leaves analyzable artifacts behind without any
 * per-binary flag plumbing. The file is named like a cache entry, so
 * one workload under several configs or options keeps one report
 * per point. The directory is created if missing.
 */
inline void
maybeWriteReport(const WorkloadResult &result, const campaign::Job &job)
{
    const char *dir = std::getenv("LUMI_REPORT_DIR");
    if (!dir || !*dir)
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "  cannot create report dir %s (%s)\n",
                     dir, ec.message().c_str());
        return;
    }
    std::string path = std::string(dir) + "/" + campaign::cacheKey(job);
    if (!writeRunReport(path, {result}, job.options))
        std::fprintf(stderr, "  failed to write %s\n", path.c_str());
}

/**
 * Run a job list through the campaign engine and unwrap the results,
 * in job order. Benches print figure rows, so a job that still fails
 * after the engine's retries is fatal here: exit(1) beats rendering
 * a table with silently missing series.
 */
inline std::vector<WorkloadResult>
runJobs(const std::vector<campaign::Job> &jobs)
{
    campaign::CampaignOptions engine =
        campaign::CampaignOptions::fromEnv();
    engine.echoProgress = true;
    campaign::CampaignResult done =
        campaign::runCampaign(jobs, engine);
    std::vector<WorkloadResult> results;
    results.reserve(done.outcomes.size());
    for (campaign::JobOutcome &outcome : done.outcomes) {
        if (!outcome.succeeded()) {
            std::fprintf(stderr,
                         "bench: job %s %s after %d attempt(s): %s\n",
                         outcome.id.c_str(),
                         campaign::jobStatusName(outcome.status),
                         outcome.attempts, outcome.error.c_str());
            std::exit(1);
        }
        results.push_back(std::move(outcome.result));
    }
    for (size_t i = 0; i < results.size(); i++)
        maybeWriteReport(results[i], jobs[i]);
    return results;
}

/**
 * The metric @p name of @p result, as collectMetrics() computed it:
 * a figure column that is a metric reads it here instead of spelling
 * its formula again. An unknown name exits 1.
 */
inline double
metric(const WorkloadResult &result, const char *name)
{
    int index = metricIndex(name);
    if (index < 0) {
        std::fprintf(stderr, "bench: unknown metric %s\n", name);
        std::exit(1);
    }
    return result.metrics[static_cast<size_t>(index)];
}

/** Run a list of workloads, echoing progress to stderr. */
inline std::vector<WorkloadResult>
runAll(const std::vector<Workload> &workloads,
       const RunOptions &options)
{
    std::vector<campaign::Job> jobs;
    jobs.reserve(workloads.size());
    for (const Workload &workload : workloads)
        jobs.push_back(campaign::Job::rayTracing(workload, options));
    return runJobs(jobs);
}

/** Run all 13 Rodinia-equivalent compute workloads. */
inline std::vector<WorkloadResult>
runAllCompute(const RunOptions &options)
{
    std::vector<campaign::Job> jobs;
    for (ComputeKernel kernel : allComputeKernels())
        jobs.push_back(campaign::Job::compute(kernel, options));
    return runJobs(jobs);
}

/** Average of a per-result value over results of one shader type. */
template <typename Fn>
inline double
shaderAverage(const std::vector<WorkloadResult> &results,
              const char *suffix, Fn value)
{
    double sum = 0.0;
    int count = 0;
    for (const WorkloadResult &result : results) {
        if (result.id.size() >= 3 &&
            result.id.compare(result.id.size() - 2, 2, suffix) == 0) {
            sum += value(result);
            count++;
        }
    }
    return count > 0 ? sum / count : 0.0;
}

} // namespace bench
} // namespace lumi

#endif // LUMI_BENCH_BENCH_UTIL_HH
