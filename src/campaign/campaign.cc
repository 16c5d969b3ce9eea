#include "campaign/campaign.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "campaign/cache.hh"
#include "campaign/telemetry.hh"
#include "check/thread_annotations.hh"
#include "trace/stat_registry.hh"
#include "trace/trace.hh"

namespace lumi
{
namespace campaign
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Delay before a job's first retry; doubles per further retry. */
constexpr double kRetryBackoffSeconds = 0.05;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/**
 * Unwind safety net: joins the worker pool on every exit path. The
 * normal path joins explicitly before aggregating, so the destructor
 * usually finds nothing joinable; on exception unwind it drains the
 * workers instead of letting a joinable std::thread reach its
 * destructor (std::terminate).
 */
struct JoinGuard
{
    std::vector<std::thread> &pool;

    ~JoinGuard()
    {
        for (std::thread &thread : pool) {
            if (thread.joinable())
                thread.join();
        }
    }
};

WorkloadResult
runJobOnce(const Job &job, const RunOptions &options)
{
    return job.kind == Job::Kind::Compute
               ? runCompute(job.kernel, options)
               : runWorkload(job.workload, options);
}

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Failed: return "failed";
      case JobStatus::Timeout: return "timeout";
      case JobStatus::Cached: return "cached";
      default: return "unknown";
    }
}

std::string
Job::id() const
{
    return kind == Kind::Compute ? computeKernelName(kernel)
                                 : workload.id();
}

Job
Job::rayTracing(const Workload &workload, const RunOptions &options)
{
    Job job;
    job.kind = Kind::RayTracing;
    job.workload = workload;
    job.options = options;
    return job;
}

Job
Job::compute(ComputeKernel kernel, const RunOptions &options)
{
    Job job;
    job.kind = Kind::Compute;
    job.kernel = kernel;
    job.options = options;
    return job;
}

CampaignOptions
CampaignOptions::fromEnv()
{
    CampaignOptions options;
    options.jobs = envutil::readInt("LUMI_JOBS", 0);
    options.retries = envutil::readInt("LUMI_RETRIES", 1, 0);
    if (const char *dir = std::getenv("LUMI_CACHE_DIR"); dir && *dir)
        options.cacheDir = dir;
    if (const char *log = std::getenv("LUMI_EVENT_LOG"); log && *log)
        options.eventLogPath = log;
    options.heartbeatSeconds =
        envutil::readDouble("LUMI_HEARTBEAT", 0.0);
    return options;
}

bool
CampaignResult::allOk() const
{
    for (const JobOutcome &outcome : outcomes) {
        if (!outcome.succeeded())
            return false;
    }
    return true;
}

void
CampaignResult::registerStats(StatRegistry &registry) const
{
    const CampaignStats *s = &stats;
    registry.addCounter("campaign.jobs.total", &s->total,
                        "jobs in the campaign");
    registry.addCounter("campaign.jobs.ok", &s->ok,
                        "jobs simulated to completion");
    registry.addCounter("campaign.jobs.failed", &s->failed,
                        "jobs that exhausted every attempt");
    registry.addCounter("campaign.jobs.timeout", &s->timeout,
                        "jobs stopped on their cycle budget");
    registry.addCounter("campaign.jobs.cached", &s->cached,
                        "jobs loaded from the result cache");
    registry.addCounter("campaign.jobs.retries", &s->retries,
                        "extra attempts beyond the first");
    registry.addCounter("campaign.jobs.cache_writes",
                        &s->cacheWrites,
                        "results written into the cache");
}

int
resolveWorkerCount(int requested, size_t job_count)
{
    int workers = requested != 0
                      ? requested
                      : static_cast<int>(
                            std::thread::hardware_concurrency());
    if (workers < 1)
        workers = 1;
    if (job_count > 0 &&
        workers > static_cast<int>(job_count))
        workers = static_cast<int>(job_count);
    return workers;
}

CampaignResult
runCampaign(const std::vector<Job> &jobs,
            const CampaignOptions &options)
{
    Clock::time_point campaign_start = Clock::now();
    CampaignResult campaign;
    campaign.outcomes.resize(jobs.size());
    campaign.workers = resolveWorkerCount(options.jobs,
                                          jobs.size());

    // The cache directory is created up front so the first finished
    // job can write; a failure just disables the cache for the run.
    std::string cache_dir = options.cacheDir;
    if (!cache_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cache_dir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "lumi: cannot create cache dir %s (%s); "
                         "caching disabled\n",
                         cache_dir.c_str(),
                         ec.message().c_str());
            cache_dir.clear();
        }
    }

    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    // Serializes progress lines from workers and the heartbeat. The
    // line counter rides under the same mutex so every echoed line
    // gets a strictly increasing index even when two workers finish
    // back to back (reading `completed` after both increments would
    // print the same index twice).
    struct IoState {
        Mutex mutex;
        size_t linesEchoed LUMI_GUARDED_BY(mutex) = 0;
    } io;

    // Lifecycle telemetry: every emit checks isOpen(), so a missing
    // or unopenable log path degrades to no-ops.
    CampaignEventLog events;
    if (!options.eventLogPath.empty())
        events.open(options.eventLogPath);
    events.campaignStarted(secondsSince(campaign_start),
                           jobs.size(), campaign.workers);

    auto echo = [&](const JobOutcome &outcome) {
        if (!options.echoProgress)
            return;
        MutexLock lock(io.mutex);
        io.linesEchoed++;
        std::fprintf(stderr, "  [%zu/%zu] %-10s %s (%.2fs%s%s)\n",
                     io.linesEchoed, jobs.size(),
                     outcome.id.c_str(),
                     jobStatusName(outcome.status),
                     outcome.wallSeconds,
                     outcome.attempts > 1 ? ", retried" : "",
                     outcome.error.empty() ? ""
                                           : ": see manifest");
    };

    auto execute = [&](size_t index, int worker) {
        const Job &job = jobs[index];
        JobOutcome &outcome = campaign.outcomes[index];
        outcome.id = job.id();
        outcome.worker = worker;
        Clock::time_point job_start = Clock::now();
        outcome.startSeconds = std::chrono::duration<double>(
                                   job_start - campaign_start)
                                   .count();
        events.jobStarted(outcome.startSeconds, index, outcome.id,
                          worker, 1);

        std::string cache_path;
        if (!cache_dir.empty() && cacheable(job)) {
            cache_path = cache_dir + "/" + cacheKey(job);
            if (readCachedResult(cache_path, job,
                                 outcome.result)) {
                outcome.status = JobStatus::Cached;
                outcome.fromCache = true;
                outcome.wallSeconds = secondsSince(job_start);
                completed.fetch_add(1);
                events.jobCacheHit(secondsSince(campaign_start),
                                   index, outcome.id,
                                   outcome.wallSeconds);
                echo(outcome);
                return;
            }
        }

        for (int attempt = 1;; attempt++) {
            outcome.attempts = attempt;
            try {
                outcome.result =
                    options.runFn ? options.runFn(job, job.options)
                                  : runJobOnce(job, job.options);
                outcome.status = JobStatus::Ok;
                if (!cache_path.empty() &&
                    writeCachedResult(cache_path, job,
                                      outcome.result))
                    outcome.wroteCache = true;
                break;
            } catch (const SimulationAborted &aborted) {
                // A budget is a deliberate limit, not a transient
                // fault: stop immediately, keep the campaign going.
                outcome.status = JobStatus::Timeout;
                outcome.error = aborted.what();
                break;
            } catch (const std::exception &error) {
                outcome.error = error.what();
                if (attempt <= options.retries) {
                    events.jobRetried(secondsSince(campaign_start),
                                      index, outcome.id,
                                      attempt + 1, outcome.error);
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(std::ldexp(
                            kRetryBackoffSeconds, attempt - 1)));
                    continue;
                }
                outcome.status = JobStatus::Failed;
                break;
            } catch (...) {
                outcome.status = JobStatus::Failed;
                outcome.error = "unknown exception";
                break;
            }
        }
        outcome.wallSeconds = secondsSince(job_start);
        completed.fetch_add(1);
        events.jobFinished(secondsSince(campaign_start), index,
                           outcome.id, jobStatusName(outcome.status),
                           outcome.attempts, outcome.wallSeconds,
                           outcome.succeeded()
                               ? outcome.result.stats.cycles
                               : 0);
        echo(outcome);
    };

    // The worker pool is joined on every exit path: explicitly
    // below on the normal path, by the guard if anything between
    // here and that join unwinds.
    std::vector<std::thread> pool;
    JoinGuard join_guard{pool};

    // The heartbeat observes only the `completed` atomic and the
    // clock; it cannot perturb job results. Declared after the join
    // guard so unwind stops the ticker before draining the workers.
    std::unique_ptr<Heartbeat> heartbeat;
    if (options.heartbeatSeconds > 0.0) {
        size_t total = jobs.size();
        heartbeat = std::make_unique<Heartbeat>(
            options.heartbeatSeconds, [&, total] {
                size_t done = completed.load();
                double elapsed = secondsSince(campaign_start);
                MutexLock lock(io.mutex);
                if (done > 0 && done < total) {
                    double eta =
                        elapsed *
                        static_cast<double>(total - done) /
                        static_cast<double>(done);
                    std::fprintf(stderr,
                                 "lumi: %zu/%zu jobs done, %.1fs "
                                 "elapsed, eta %.1fs\n",
                                 done, total, elapsed, eta);
                } else {
                    std::fprintf(stderr,
                                 "lumi: %zu/%zu jobs done, %.1fs "
                                 "elapsed\n",
                                 done, total, elapsed);
                }
            });
    }

    if (campaign.workers == 1) {
        // Serial fast path: same code path, no thread overhead.
        for (size_t i = next.fetch_add(1); i < jobs.size();
             i = next.fetch_add(1))
            execute(i, 0);
    } else {
        pool.reserve(campaign.workers);
        for (int w = 0; w < campaign.workers; w++) {
            pool.emplace_back([&, w] {
                for (size_t i = next.fetch_add(1);
                     i < jobs.size(); i = next.fetch_add(1))
                    execute(i, w);
            });
        }
        for (std::thread &thread : pool)
            thread.join();
    }
    if (heartbeat)
        heartbeat->stop();

    // Aggregate in job order: the counters are deterministic
    // functions of the outcomes, never racy increments.
    campaign.stats.total = jobs.size();
    for (const JobOutcome &outcome : campaign.outcomes) {
        switch (outcome.status) {
          case JobStatus::Ok: campaign.stats.ok++; break;
          case JobStatus::Failed: campaign.stats.failed++; break;
          case JobStatus::Timeout: campaign.stats.timeout++; break;
          case JobStatus::Cached: campaign.stats.cached++; break;
        }
        if (outcome.attempts > 1) {
            campaign.stats.retries +=
                static_cast<uint64_t>(outcome.attempts - 1);
        }
        if (outcome.wroteCache)
            campaign.stats.cacheWrites++;
    }
    campaign.wallSeconds = secondsSince(campaign_start);
    events.campaignFinished(
        campaign.wallSeconds, campaign.stats.ok,
        campaign.stats.failed, campaign.stats.timeout,
        campaign.stats.cached, campaign.stats.retries,
        campaign.wallSeconds);

    // Per-job spans flow into the tracer after the pool drains, in
    // job order: emission is single-threaded and deterministic given
    // the outcomes. Timestamps are host microseconds.
    if (options.tracer &&
        options.tracer->wants(TraceCategory::Phase)) {
        for (size_t i = 0; i < campaign.outcomes.size(); i++) {
            const JobOutcome &outcome = campaign.outcomes[i];
            const char *name = "job_ok";
            switch (outcome.status) {
              case JobStatus::Ok: name = "job_ok"; break;
              case JobStatus::Failed: name = "job_failed"; break;
              case JobStatus::Timeout:
                name = "job_timeout";
                break;
              case JobStatus::Cached: name = "job_cached"; break;
            }
            uint64_t begin = static_cast<uint64_t>(
                outcome.startSeconds * 1e6);
            uint64_t end = static_cast<uint64_t>(
                (outcome.startSeconds + outcome.wallSeconds) *
                1e6);
            options.tracer->span(
                TraceCategory::Phase, name,
                outcome.worker >= 0
                    ? static_cast<uint32_t>(outcome.worker)
                    : 0,
                begin, end, "job_index",
                static_cast<uint64_t>(i), "attempts",
                static_cast<uint64_t>(outcome.attempts));
        }
    }
    return campaign;
}

} // namespace campaign
} // namespace lumi
