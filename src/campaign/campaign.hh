/**
 * @file
 * The campaign execution engine: fault-tolerant, cached, parallel
 * execution of workload sweeps.
 *
 * Every figure/table bench, the GA subset search and the hardware
 * sweeps walk lists of independent (workload, RunOptions) points, so
 * a characterization campaign is an embarrassingly-parallel job list.
 * This engine runs one on a worker thread pool and returns outcomes
 * in *job order* regardless of completion order, with three layers
 * of robustness around each job:
 *
 *  - exception capture with a per-job status (ok/failed/timeout/
 *    cached): one crashing simulation never aborts the campaign;
 *  - bounded retry with exponential backoff for transient failures;
 *  - a soft per-job cycle budget (the job's RunOptions::maxCycles;
 *    there is no wall-clock budget, so a job's status never depends
 *    on host speed): a runaway sim stops at a cycle boundary and is
 *    reported as `timeout`, its worker freed for the next job;
 *
 * plus a content-addressed result cache (campaign/cache.hh) keyed on
 * (job id, configFingerprint, render params, scene detail): a warm
 * re-sweep loads finished run reports instead of simulating.
 *
 * Determinism contract: simulations are pure functions of their
 * inputs and share no mutable state, so a campaign at any worker
 * count produces per-job results byte-identical to a serial
 * runWorkload loop (tests/test_campaign.cc and CI enforce this).
 */

#ifndef LUMI_CAMPAIGN_CAMPAIGN_HH
#define LUMI_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "compute/rodinia.hh"
#include "lumibench/runner.hh"
#include "lumibench/workload.hh"

namespace lumi
{

class StatRegistry;
class Tracer;

namespace campaign
{

/** Terminal state of one campaign job. */
enum class JobStatus
{
    Ok,      ///< simulated to completion this run
    Failed,  ///< every attempt raised an error
    Timeout, ///< stopped on the job's cycle budget
    Cached,  ///< loaded from the result cache, no simulation
};

/** Stable lower-case name ("ok", "failed", "timeout", "cached"). */
const char *jobStatusName(JobStatus status);

/** One unit of work: a workload or compute kernel x RunOptions. */
struct Job
{
    enum class Kind
    {
        RayTracing,
        Compute,
    };

    Kind kind = Kind::RayTracing;
    Workload workload{SceneId::BUNNY, ShaderKind::AmbientOcclusion};
    ComputeKernel kernel{};
    /** Per-job options: jobs in one campaign may differ freely. */
    RunOptions options;

    /** Workload id ("SPNZA_AO") or compute kernel name. */
    std::string id() const;

    static Job rayTracing(const Workload &workload,
                          const RunOptions &options);
    static Job compute(ComputeKernel kernel,
                       const RunOptions &options);
};

/** Everything the engine knows about one finished job. */
struct JobOutcome
{
    std::string id;
    JobStatus status = JobStatus::Failed;
    /** Valid when status is Ok or Cached. */
    WorkloadResult result;
    /** Last error/abort message (Failed and Timeout). */
    std::string error;
    /** Simulation attempts made (0 for cache hits). */
    int attempts = 0;
    bool fromCache = false;
    /** This run wrote the job's result into the cache. */
    bool wroteCache = false;
    /** Wall-clock seconds spent on the job (all attempts). */
    double wallSeconds = 0.0;
    /** Job start, seconds from campaign start (trace timeline). */
    double startSeconds = 0.0;
    /** Worker index that executed the job (-1 for unknown). */
    int worker = -1;

    bool
    succeeded() const
    {
        return status == JobStatus::Ok ||
               status == JobStatus::Cached;
    }
};

/** Aggregated campaign counters (registered as campaign.jobs.*). */
struct CampaignStats
{
    uint64_t total = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;
    uint64_t timeout = 0;
    uint64_t cached = 0;
    /** Extra attempts beyond the first, summed over jobs. */
    uint64_t retries = 0;
    uint64_t cacheWrites = 0;
};

/** Engine configuration. */
struct CampaignOptions
{
    /** Worker threads; 0 = hardware_concurrency. */
    int jobs = 0;
    /**
     * Re-attempts after a transient failure (0 = fail fast); the
     * first waits 50 ms, each further one twice as long.
     */
    int retries = 1;
    /** Result-cache directory; empty disables the cache. */
    std::string cacheDir;
    /** Echo per-job progress lines to stderr. */
    bool echoProgress = false;
    /**
     * JSON-lines lifecycle event log (campaign/telemetry.hh): one
     * flushed line per job start/retry/cache-hit/finish, so a live
     * or crashed campaign is observable without the manifest. Empty
     * disables.
     */
    std::string eventLogPath;
    /**
     * Progress heartbeat period in seconds: a background ticker
     * prints "done/total, elapsed, eta" to stderr while the pool
     * runs. 0 disables.
     */
    double heartbeatSeconds = 0.0;
    /**
     * Optional host-side tracer (not owned): the engine emits one
     * Phase-category span per job (job_ok/job_failed/job_timeout/
     * job_cached, microsecond timestamps, one track per worker)
     * after the pool drains, in job order.
     */
    Tracer *tracer = nullptr;
    /**
     * Test seam: runs one job attempt with the job's options.
     * Defaults to runWorkload/runCompute. Must be thread-safe.
     */
    std::function<WorkloadResult(const Job &, const RunOptions &)>
        runFn;

    /**
     * Environment defaults: LUMI_JOBS (workers, 0 = auto),
     * LUMI_RETRIES, LUMI_CACHE_DIR, LUMI_EVENT_LOG (JSONL path) and
     * LUMI_HEARTBEAT (seconds). Malformed integers warn and fall
     * back, like RunOptions::fromEnv.
     */
    static CampaignOptions fromEnv();
};

/** A finished campaign: outcomes in job order plus the aggregates. */
struct CampaignResult
{
    std::vector<JobOutcome> outcomes;
    CampaignStats stats;
    /** Workers actually used. */
    int workers = 0;
    double wallSeconds = 0.0;

    /** True when every job is Ok or Cached. */
    bool allOk() const;

    /** Register the aggregates under campaign.jobs.* / campaign.*. */
    void registerStats(StatRegistry &registry) const;
};

/**
 * Workers for @p requested: 0 means auto (hardware_concurrency), a
 * negative request clamps to 1. Never more than @p job_count and at
 * least 1.
 */
int resolveWorkerCount(int requested, size_t job_count);

/**
 * Execute @p jobs on a worker pool. Never throws on job failure:
 * per-job errors land in the outcomes. Outcome order == job order.
 */
CampaignResult runCampaign(const std::vector<Job> &jobs,
                           const CampaignOptions &options);

} // namespace campaign
} // namespace lumi

#endif // LUMI_CAMPAIGN_CAMPAIGN_HH
