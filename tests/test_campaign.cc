/**
 * @file
 * Campaign engine tests: the determinism contract (parallel results
 * byte-identical to serial), the result cache (a hit skips
 * simulation), fault tolerance (retry on transient failure, one bad
 * job never aborts the campaign, budget timeouts), and the LUMI_JOBS
 * environment parsing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "campaign/telemetry.hh"
#include "lumibench/run_report.hh"
#include "lumibench/runner.hh"
#include "lumibench/workload.hh"
#include "trace/stat_registry.hh"
#include "trace/trace.hh"

using namespace lumi;
using namespace lumi::campaign;

namespace
{

RunOptions
quickOptions()
{
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;
    options.sceneDetail = 0.15f;
    return options;
}

std::vector<Job>
quickJobs()
{
    RunOptions options = quickOptions();
    return {
        Job::rayTracing({SceneId::REF, ShaderKind::Shadow}, options),
        Job::rayTracing({SceneId::BUNNY,
                         ShaderKind::AmbientOcclusion},
                        options),
        Job::rayTracing({SceneId::WKND, ShaderKind::Shadow},
                        options),
        Job::compute(ComputeKernel::Nn, options),
    };
}

/** Unique fresh temp directory under the system temp root. */
std::string
freshDir(const char *tag)
{
    static std::atomic<int> counter{0};
    std::string path =
        (std::filesystem::temp_directory_path() /
         (std::string("lumi_campaign_") + tag + "_" +
          std::to_string(::getpid()) + "_" +
          std::to_string(counter.fetch_add(1))))
            .string();
    std::filesystem::remove_all(path);
    return path;
}

} // namespace

TEST(Campaign, ParallelMatchesSerial)
{
    std::vector<Job> jobs = quickJobs();

    // The reference: a plain serial loop, no engine.
    std::vector<WorkloadResult> serial;
    for (const Job &job : jobs) {
        serial.push_back(job.kind == Job::Kind::Compute
                             ? runCompute(job.kernel, job.options)
                             : runWorkload(job.workload,
                                           job.options));
    }

    CampaignOptions engine;
    engine.jobs = 4;
    CampaignResult done = runCampaign(jobs, engine);

    ASSERT_EQ(done.outcomes.size(), jobs.size());
    EXPECT_EQ(done.workers, 4);
    EXPECT_TRUE(done.allOk());
    for (size_t i = 0; i < jobs.size(); i++) {
        // Outcomes arrive in job order regardless of completion
        // order, and every stat dump is byte-identical to serial.
        EXPECT_EQ(done.outcomes[i].id, jobs[i].id());
        EXPECT_EQ(done.outcomes[i].status, JobStatus::Ok);
        EXPECT_EQ(done.outcomes[i].attempts, 1);
        EXPECT_EQ(done.outcomes[i].result.statsJson,
                  serial[i].statsJson);
        EXPECT_EQ(done.outcomes[i].result.stats.cycles,
                  serial[i].stats.cycles);
    }
    EXPECT_EQ(done.stats.total, jobs.size());
    EXPECT_EQ(done.stats.ok, jobs.size());
    EXPECT_EQ(done.stats.retries, 0u);
}

TEST(Campaign, CacheHitSkipsSimulation)
{
    std::vector<Job> jobs = quickJobs();
    std::string cache_dir = freshDir("cache");

    std::atomic<int> simulated{0};
    CampaignOptions engine;
    engine.jobs = 2;
    engine.cacheDir = cache_dir;
    engine.runFn = [&](const Job &job, const RunOptions &options) {
        simulated.fetch_add(1);
        return job.kind == Job::Kind::Compute
                   ? runCompute(job.kernel, options)
                   : runWorkload(job.workload, options);
    };

    CampaignResult cold = runCampaign(jobs, engine);
    EXPECT_TRUE(cold.allOk());
    EXPECT_EQ(simulated.load(), static_cast<int>(jobs.size()));
    EXPECT_EQ(cold.stats.cacheWrites, jobs.size());

    CampaignResult warm = runCampaign(jobs, engine);
    // Zero simulate phases executed on the warm run.
    EXPECT_EQ(simulated.load(), static_cast<int>(jobs.size()));
    EXPECT_EQ(warm.stats.cached, jobs.size());
    EXPECT_EQ(warm.stats.ok, 0u);
    ASSERT_EQ(warm.outcomes.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); i++) {
        EXPECT_EQ(warm.outcomes[i].status, JobStatus::Cached);
        EXPECT_TRUE(warm.outcomes[i].fromCache);
        EXPECT_EQ(warm.outcomes[i].attempts, 0);
        // The rehydrated result matches the cold one byte for byte
        // in the stat dump and in the headline counters.
        EXPECT_EQ(warm.outcomes[i].result.statsJson,
                  cold.outcomes[i].result.statsJson);
        EXPECT_EQ(warm.outcomes[i].result.stats.cycles,
                  cold.outcomes[i].result.stats.cycles);
        EXPECT_EQ(warm.outcomes[i].result.stats.raysTraced,
                  cold.outcomes[i].result.stats.raysTraced);
        EXPECT_EQ(warm.outcomes[i].result.dram.accesses,
                  cold.outcomes[i].result.dram.accesses);
    }

    // An entry that lost one metricSchema() key is a miss, not a hit
    // with a NaN in that slot.
    std::string entry = cache_dir + "/" + cacheKey(jobs[0]);
    std::string text;
    ASSERT_TRUE(readWholeFile(entry, text));
    std::string key = "\"" + metricSchema()[1].name + "\":";
    size_t at = text.find(key, text.find("\"metrics\":{"));
    ASSERT_NE(at, std::string::npos);
    text.erase(at, text.find(',', at) + 1 - at);
    std::ofstream(entry, std::ios::binary) << text;
    WorkloadResult dropped;
    EXPECT_FALSE(readCachedResult(entry, jobs[0], dropped));

    // The aggregates surface through the stat registry.
    StatRegistry registry;
    warm.registerStats(registry);
    EXPECT_EQ(registry.value("campaign.jobs.cached"),
              static_cast<double>(jobs.size()));
    EXPECT_EQ(registry.value("campaign.jobs.ok"), 0.0);

    std::filesystem::remove_all(cache_dir);
}

TEST(Campaign, TransientFailureRetriesThenSucceeds)
{
    std::vector<Job> jobs = quickJobs();
    std::atomic<int> wknd_failures{0};
    CampaignOptions engine;
    engine.jobs = 2;
    engine.retries = 2;
    engine.runFn = [&](const Job &job, const RunOptions &options) {
        if (job.id() == "WKND_SH" &&
            wknd_failures.fetch_add(1) == 0)
            throw std::runtime_error("injected transient fault");
        return job.kind == Job::Kind::Compute
                   ? runCompute(job.kernel, options)
                   : runWorkload(job.workload, options);
    };

    CampaignResult done = runCampaign(jobs, engine);
    EXPECT_TRUE(done.allOk());
    EXPECT_EQ(done.stats.retries, 1u);
    for (const JobOutcome &outcome : done.outcomes) {
        EXPECT_EQ(outcome.status, JobStatus::Ok);
        EXPECT_EQ(outcome.attempts,
                  outcome.id == "WKND_SH" ? 2 : 1);
    }
}

TEST(Campaign, PermanentFailureReportsWithoutAborting)
{
    std::vector<Job> jobs = quickJobs();
    CampaignOptions engine;
    engine.jobs = 2;
    engine.retries = 1;
    engine.runFn = [&](const Job &job, const RunOptions &options) {
        if (job.id() == "BUNNY_AO")
            throw std::runtime_error("injected permanent fault");
        return job.kind == Job::Kind::Compute
                   ? runCompute(job.kernel, options)
                   : runWorkload(job.workload, options);
    };

    CampaignResult done = runCampaign(jobs, engine);
    EXPECT_FALSE(done.allOk());
    EXPECT_EQ(done.stats.failed, 1u);
    EXPECT_EQ(done.stats.ok, jobs.size() - 1);
    for (const JobOutcome &outcome : done.outcomes) {
        if (outcome.id == "BUNNY_AO") {
            EXPECT_EQ(outcome.status, JobStatus::Failed);
            // First attempt plus `retries` re-attempts.
            EXPECT_EQ(outcome.attempts, 2);
            EXPECT_EQ(outcome.error, "injected permanent fault");
        } else {
            EXPECT_EQ(outcome.status, JobStatus::Ok);
        }
    }
}

TEST(Campaign, CycleBudgetCancelsAsTimeout)
{
    std::vector<Job> jobs = {quickJobs()[0]};
    jobs[0].options.maxCycles = 50;
    CampaignOptions engine;
    engine.jobs = 1;
    engine.retries = 3; // must NOT be consumed by a timeout

    CampaignResult done = runCampaign(jobs, engine);
    ASSERT_EQ(done.outcomes.size(), 1u);
    EXPECT_EQ(done.outcomes[0].status, JobStatus::Timeout);
    EXPECT_EQ(done.outcomes[0].attempts, 1);
    EXPECT_EQ(done.stats.timeout, 1u);
    EXPECT_EQ(done.stats.retries, 0u);
    EXPECT_FALSE(done.allOk());
    EXPECT_FALSE(done.outcomes[0].error.empty());
}

TEST(Campaign, TimeoutIsNeverCached)
{
    std::string cache_dir = freshDir("timeout");
    std::vector<Job> jobs = {quickJobs()[0]};
    jobs[0].options.maxCycles = 50;
    CampaignOptions engine;
    engine.jobs = 1;
    engine.cacheDir = cache_dir;

    CampaignResult done = runCampaign(jobs, engine);
    EXPECT_EQ(done.outcomes[0].status, JobStatus::Timeout);
    EXPECT_EQ(done.stats.cacheWrites, 0u);
    // The next full-budget campaign must simulate, not hit a stale
    // truncated entry.
    jobs[0].options.maxCycles = 0;
    CampaignResult full = runCampaign(jobs, engine);
    EXPECT_EQ(full.outcomes[0].status, JobStatus::Ok);
    std::filesystem::remove_all(cache_dir);
}

TEST(Campaign, TracerGetsOneSpanPerJob)
{
    std::vector<Job> jobs = quickJobs();
    Tracer tracer;
    tracer.setMask(traceBit(TraceCategory::Phase));
    CampaignOptions engine;
    engine.jobs = 2;
    engine.tracer = &tracer;

    CampaignResult done = runCampaign(jobs, engine);
    EXPECT_TRUE(done.allOk());
    std::vector<TraceEvent> events =
        tracer.events(TraceCategory::Phase);
    ASSERT_EQ(events.size(), jobs.size());
    for (const TraceEvent &event : events)
        EXPECT_STREQ(event.name, "job_ok");
}

TEST(Campaign, CacheKeyCoversRenderParams)
{
    RunOptions options = quickOptions();
    Job base = Job::rayTracing(
        {SceneId::REF, ShaderKind::Shadow}, options);
    Job spp = base;
    spp.options.params.samplesPerPixel += 1;
    Job detail = base;
    detail.options.sceneDetail += 0.1f;
    Job config = base;
    config.options.config = GpuConfig::desktop();
    EXPECT_NE(cacheKey(base), cacheKey(spp));
    EXPECT_NE(cacheKey(base), cacheKey(detail));
    EXPECT_NE(cacheKey(base), cacheKey(config));
    EXPECT_EQ(cacheKey(base), cacheKey(base));

    // Traced jobs bypass the cache entirely.
    EXPECT_TRUE(cacheable(base));
    Job traced = base;
    traced.options.traceMask = traceAllCategories;
    EXPECT_FALSE(cacheable(traced));
}

TEST(Campaign, CacheEntryOfAnotherPointIsAMiss)
{
    Job base = Job::compute(ComputeKernel::Nn, quickOptions());
    std::string dir = freshDir("point");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/entry.report.json";
    ASSERT_TRUE(writeCachedResult(
        path, base, runCompute(base.kernel, base.options)));

    // Every recorded option and the config fingerprint must match
    // the job, whatever the file is named.
    Job interval = base;
    interval.options.timelineInterval += 1;
    Job detail = base;
    detail.options.sceneDetail += 0.1f;
    Job config = base;
    config.options.config = GpuConfig::table4();
    Job other = Job::compute(ComputeKernel::Kmeans, base.options);
    WorkloadResult result;
    EXPECT_FALSE(readCachedResult(path, interval, result));
    EXPECT_FALSE(readCachedResult(path, detail, result));
    EXPECT_FALSE(readCachedResult(path, config, result));
    EXPECT_FALSE(readCachedResult(path, other, result));
    EXPECT_TRUE(readCachedResult(path, base, result));
    std::filesystem::remove_all(dir);
}

TEST(Campaign, CacheKeyStringsArePinned)
{
    // Every existing cache entry is named by these digests: a change
    // to either would orphan them all.
    EXPECT_EQ(configFingerprint(GpuConfig::mobile()), "mobile-7a601917");
    EXPECT_EQ(configFingerprint(GpuConfig::table4()), "table4-c84ac1a2");
    RunOptions options;
    EXPECT_EQ(cacheKey(Job::rayTracing(
                  {SceneId::BUNNY, ShaderKind::AmbientOcclusion},
                  options)),
              "BUNNY_AO-mobile-7a601917-pf435836e6eec07e6.report.json");
    EXPECT_EQ(cacheKey(Job::compute(ComputeKernel::Nn, options)),
              "nn-mobile-7a601917-pf435836e6eec07e6.report.json");
}

TEST(Campaign, ResolveWorkerCount)
{
    EXPECT_EQ(resolveWorkerCount(4, 100), 4);
    EXPECT_EQ(resolveWorkerCount(8, 3), 3);   // never more than jobs
    EXPECT_EQ(resolveWorkerCount(-2, 10), 1); // junk clamps to 1...
    EXPECT_GE(resolveWorkerCount(0, 1000), 1); // 0 = auto
}

TEST(Campaign, FromEnvParsesJobsWithFallback)
{
    ::setenv("LUMI_JOBS", "7", 1);
    EXPECT_EQ(CampaignOptions::fromEnv().jobs, 7);

    // Malformed values warn and fall back, like LUMI_RES/LUMI_SPP.
    ::setenv("LUMI_JOBS", "banana", 1);
    EXPECT_EQ(CampaignOptions::fromEnv().jobs, 0);

    ::unsetenv("LUMI_JOBS");
    EXPECT_EQ(CampaignOptions::fromEnv().jobs, 0);

    ::setenv("LUMI_RETRIES", "3", 1);
    EXPECT_EQ(CampaignOptions::fromEnv().retries, 3);
    ::unsetenv("LUMI_RETRIES");

    ::setenv("LUMI_CACHE_DIR", "/tmp/some_cache", 1);
    EXPECT_EQ(CampaignOptions::fromEnv().cacheDir,
              "/tmp/some_cache");
    ::unsetenv("LUMI_CACHE_DIR");
}

TEST(Campaign, EventLogRecordsLifecycle)
{
    std::vector<Job> jobs = quickJobs();
    std::string dir = freshDir("events");
    std::filesystem::create_directories(dir);
    std::string log_path = dir + "/events.jsonl";

    std::atomic<int> wknd_failures{0};
    CampaignOptions engine;
    engine.jobs = 2;
    engine.retries = 1;
    engine.eventLogPath = log_path;
    engine.runFn = [&](const Job &job, const RunOptions &options) {
        if (job.id() == "WKND_SH" &&
            wknd_failures.fetch_add(1) == 0)
            throw std::runtime_error("injected transient fault");
        return job.kind == Job::Kind::Compute
                   ? runCompute(job.kernel, options)
                   : runWorkload(job.workload, options);
    };
    CampaignResult done = runCampaign(jobs, engine);
    EXPECT_TRUE(done.allOk());

    std::ifstream log(log_path);
    ASSERT_TRUE(log.good());
    std::vector<std::string> lines;
    size_t started = 0, finished = 0, retried = 0;
    for (std::string line; std::getline(log, line);) {
        // Every line is one self-contained JSON event with a
        // timestamp.
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"event\":\""), std::string::npos);
        EXPECT_NE(line.find("\"t\":"), std::string::npos);
        lines.push_back(line);
        if (line.find("\"event\":\"job_started\"") !=
            std::string::npos)
            started++;
        if (line.find("\"event\":\"job_finished\"") !=
            std::string::npos)
            finished++;
        if (line.find("\"event\":\"job_retried\"") !=
            std::string::npos)
            retried++;
    }
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines.front().find("\"event\":\"campaign_started\""),
              std::string::npos);
    EXPECT_NE(
        lines.back().find("\"event\":\"campaign_finished\""),
        std::string::npos);
    EXPECT_EQ(started, jobs.size());
    EXPECT_EQ(finished, jobs.size());
    EXPECT_EQ(retried, 1u);
    EXPECT_NE(lines.back().find("\"ok\":4"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Campaign, FromEnvReadsTelemetryKnobs)
{
    ::setenv("LUMI_EVENT_LOG", "/tmp/ev.jsonl", 1);
    ::setenv("LUMI_HEARTBEAT", "2.5", 1);
    CampaignOptions options = CampaignOptions::fromEnv();
    EXPECT_EQ(options.eventLogPath, "/tmp/ev.jsonl");
    EXPECT_DOUBLE_EQ(options.heartbeatSeconds, 2.5);
    ::unsetenv("LUMI_EVENT_LOG");
    ::unsetenv("LUMI_HEARTBEAT");
    CampaignOptions defaults = CampaignOptions::fromEnv();
    EXPECT_TRUE(defaults.eventLogPath.empty());
    EXPECT_DOUBLE_EQ(defaults.heartbeatSeconds, 0.0);
}

TEST(Campaign, HeartbeatStandaloneLifecycle)
{
    // A heartbeat constructed and destroyed without any campaign
    // around it must start and shut down cleanly -- including when
    // the period is far longer than the object's lifetime, so the
    // destructor has to interrupt a ticker that never fired.
    std::atomic<int> ticks{0};
    {
        Heartbeat heartbeat(3600.0, [&] { ticks.fetch_add(1); });
    }
    EXPECT_EQ(ticks.load(), 0);

    // A short period must actually tick.
    {
        Heartbeat heartbeat(0.005, [&] { ticks.fetch_add(1); });
        while (ticks.load() == 0)
            std::this_thread::yield();
    }
    EXPECT_GE(ticks.load(), 1);
}

TEST(Campaign, HeartbeatStopIsIdempotentAndConcurrent)
{
    // stop() is documented as idempotent and callable from several
    // threads at once: the join happens exactly once and every
    // caller returns only after the ticker has exited. A regression
    // here deadlocked the second caller (it joined while holding
    // the mutex the ticker needed to observe the stop flag).
    std::atomic<int> ticks{0};
    Heartbeat heartbeat(0.001, [&] { ticks.fetch_add(1); });
    while (ticks.load() == 0)
        std::this_thread::yield();

    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i)
        stoppers.emplace_back([&] { heartbeat.stop(); });
    for (std::thread &stopper : stoppers)
        stopper.join();

    int after = ticks.load();
    heartbeat.stop(); // and once more, single-threaded
    EXPECT_EQ(ticks.load(), after);
}

TEST(Campaign, MaybeWriteReportCreatesMissingDir)
{
    std::string dir = freshDir("report") + "/nested/deeper";
    ::setenv("LUMI_REPORT_DIR", dir.c_str(), 1);

    // One workload under two configs keeps one report per config.
    RunOptions desktop = quickOptions();
    desktop.config = GpuConfig::desktop();
    std::vector<Job> jobs = {
        Job::rayTracing({SceneId::REF, ShaderKind::Shadow},
                        quickOptions()),
        Job::rayTracing({SceneId::REF, ShaderKind::Shadow}, desktop),
    };
    for (const Job &job : jobs)
        bench::maybeWriteReport(runWorkload(job.workload, job.options),
                                job);
    ::unsetenv("LUMI_REPORT_DIR");

    for (const Job &job : jobs)
        EXPECT_TRUE(std::filesystem::exists(dir + "/" + cacheKey(job)));
    size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files += entry.is_regular_file();
    EXPECT_EQ(files, 2u);
    std::filesystem::remove_all(dir);
}
