#include "campaign/cache.hh"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "lumibench/run_report.hh"

namespace lumi
{
namespace campaign
{

std::string
cacheKey(const Job &job)
{
    const RunOptions &options = job.options;
    Fnv1a hash;
    hash.mix(options.params.width);
    hash.mix(options.params.height);
    hash.mix(options.params.samplesPerPixel);
    hash.mix(options.params.maxDepth);
    hash.mix(options.params.aoRays);
    hash.mix(options.params.aoRadiusScale);
    hash.mix(options.params.shadowRaysPerLight);
    hash.mix(options.params.seed);
    hash.mix(options.sceneDetail);
    hash.mix(options.dramBandwidthScale);
    hash.mix(options.timelineInterval);
    hash.mix(options.intervalStats);
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash.digest));
    return job.id() + "-" + configFingerprint(options.config) +
           "-p" + hex + ".report.json";
}

bool
cacheable(const Job &job)
{
    // Traced runs bypass the cache: the event trace is not part of
    // the serialized report, so a hit would silently drop it. Self-
    // profiled runs bypass it too — a host profile is a measurement
    // of *this* machine and run, never something to replay.
    return job.options.traceMask == 0 && !job.options.selfProfile;
}

bool
readCachedResult(const std::string &path, const Job &job,
                 WorkloadResult &out)
{
    std::string text;
    JsonTape tape;
    if (!readWholeFile(path, text) || !parseRunReport(text, tape))
        return false;

    // Validate the simulation point against the job, not the
    // filename: collisions and hand-edited files read as misses.
    JsonRef doc = tape.root();
    RunReportHeader header = decodeRunReportHeader(doc);
    if (header.config.fingerprint !=
            configFingerprint(job.options.config) ||
        header.options != ReportOptions::of(job.options))
        return false;
    JsonItems entries = runReportEntries(doc);
    return !entries.empty() && entryId(*entries.begin()) == job.id() &&
           decodeRunReportEntry(*entries.begin(), header, out);
}

bool
writeCachedResult(const std::string &path, const Job &job,
                  const WorkloadResult &result)
{
    // Writer-unique temp name: one campaign may run duplicate jobs
    // concurrently, and a torn entry must never be visible. The
    // thread-id hash alone could collide across threads, so a
    // process-wide sequence number disambiguates; publication stays
    // a single atomic rename either way.
    static std::atomic<uint64_t> write_seq{0};
    char suffix[64];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%zx.%llu",
                  std::hash<std::thread::id>{}(
                      std::this_thread::get_id()),
                  static_cast<unsigned long long>(
                      write_seq.fetch_add(
                          1, std::memory_order_relaxed)));
    std::string tmp = path + suffix;
    if (!writeRunReport(tmp, {result}, job.options))
        return false;
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace campaign
} // namespace lumi
