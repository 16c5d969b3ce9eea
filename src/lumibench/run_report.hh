/**
 * @file
 * Machine-readable run reports.
 *
 * One report file captures everything a run produced — per-workload
 * stats (the full stat-registry dump), the metric vector, timeline
 * windows, analytical-model outputs, wall-clock phase timings — plus
 * the run-level context needed to compare files across machines and
 * configurations: render parameters and a fingerprint of the
 * simulated hardware config. External tooling consumes these instead
 * of scraping the text tables.
 *
 * This module owns the format in both directions. Each record has
 * one field list, a static fields(self, visit) member next to the
 * struct it describes: ConfigSummary and ReportOptions below,
 * PhaseTiming, TimelineWindow, HostProfileComponent, AnalyticalModel,
 * and AccelStats for the accel.* stats. The writer runReportJson()
 * and its inverse, decodeRunReportHeader() plus
 * decodeRunReportEntry(), are generated from those lists; the result
 * cache and the query layer read reports only through them.
 */

#ifndef LUMI_LUMIBENCH_RUN_REPORT_HH
#define LUMI_LUMIBENCH_RUN_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "lumibench/runner.hh"
#include "trace/json_read.hh"

namespace lumi
{

class JsonWriter;
class StatRegistry;

/** Schema tag written into (and required of) every report file. */
inline constexpr const char *kRunReportSchema =
    "lumibench-run-report-v1";

/**
 * Name of the config-fingerprint scheme (see configFingerprint).
 * Bumped whenever the hashed field set or digest changes, so
 * dashboards can detect mixed-version cache directories via the
 * serve /version endpoint.
 */
inline constexpr const char *kConfigFingerprintScheme =
    "fnv1a64-xor32-v1";

/** FNV-1a over the bytes of successive values (fingerprint, key). */
struct Fnv1a
{
    uint64_t digest = 14695981039346656037ull;

    template <typename T>
    void
    mix(const T &value)
    {
        auto bytes = reinterpret_cast<const unsigned char *>(&value);
        for (size_t i = 0; i < sizeof(T); i++)
            digest = (digest ^ bytes[i]) * 1099511628211ull;
    }
};

/**
 * Stable fingerprint of a GpuConfig: "<name>-<hex>", where the hex
 * digest hashes every timing-relevant field. Two runs with the same
 * fingerprint simulated identical hardware.
 */
std::string configFingerprint(const GpuConfig &config);

/** The "config" record: a summary of the simulated GpuConfig. */
struct ConfigSummary
{
    std::string name;
    /** configFingerprint() of the config. */
    std::string fingerprint;
    int numSms = 0;
    int maxWarpsPerSm = 0;
    int rtUnitsPerSm = 0;
    int rtMaxWarps = 0;
    uint64_t l1SizeBytes = 0;
    uint64_t l2SizeBytes = 0;
    int dramChannels = 0;

    /** Report field list: @p visit(key, field), in file order. */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&visit)
    {
        visit("name", self.name);
        visit("fingerprint", self.fingerprint);
        visit("num_sms", self.numSms);
        visit("max_warps_per_sm", self.maxWarpsPerSm);
        visit("rt_units_per_sm", self.rtUnitsPerSm);
        visit("rt_max_warps", self.rtMaxWarps);
        visit("l1_size_bytes", self.l1SizeBytes);
        visit("l2_size_bytes", self.l2SizeBytes);
        visit("dram_channels", self.dramChannels);
    }
};

/**
 * The "options" record: the RunOptions a report records. The
 * RenderParams fields maxDepth, aoRays, aoRadiusScale,
 * shadowRaysPerLight and seed are not recorded; only the cache key
 * (campaign/cache.hh) covers them.
 */
struct ReportOptions
{
    int width = 0;
    int height = 0;
    int samplesPerPixel = 0;
    double sceneDetail = 0.0;
    uint64_t timelineInterval = 0;
    double dramBandwidthScale = 0.0;
    uint64_t traceMask = 0;
    uint64_t intervalStats = 0;
    bool selfProfile = false;

    static ReportOptions of(const RunOptions &options);

    /** Equal when both write the same bytes (doubles print %.12g). */
    bool operator==(const ReportOptions &other) const;

    /** Report field list: @p visit(key, field), in file order. */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&visit)
    {
        visit("width", self.width);
        visit("height", self.height);
        visit("samples_per_pixel", self.samplesPerPixel);
        visit("scene_detail", self.sceneDetail);
        visit("timeline_interval", self.timelineInterval);
        visit("dram_bandwidth_scale", self.dramBandwidthScale);
        visit("trace_mask", self.traceMask);
        visit("interval_stats", self.intervalStats);
        visit("self_profile", self.selfProfile);
    }
};

/** The run-level records of a report. */
struct RunReportHeader
{
    ConfigSummary config;
    ReportOptions options;
};

/** Serialize one run (any number of workloads) as a JSON document. */
std::string runReportJson(const std::vector<WorkloadResult> &results,
                          const RunOptions &options);

/**
 * Write @p phases as a "phases" member, [{"name","seconds","count"}]:
 * the one writer of run reports and campaign manifests.
 */
void writePhasesJson(JsonWriter &json,
                     const std::vector<PhaseTiming> &phases);

/** Write runReportJson() to @p path; false on any I/O failure. */
bool writeRunReport(const std::string &path,
                    const std::vector<WorkloadResult> &results,
                    const RunOptions &options);

/**
 * Change key of a file: size, modification time in ns and inode. A
 * rewrite changes the size or the mtime; a temp-file-plus-rename
 * changes the inode.
 */
struct FileStamp
{
    uint64_t size = 0;
    int64_t mtimeNs = 0;
    uint64_t inode = 0;

    bool operator==(const FileStamp &) const = default;
};

/**
 * Stamp the file at @p path (symlinks followed); false when it is
 * missing or not a regular file.
 */
bool statFile(const std::string &path, FileStamp &stamp);

/**
 * Read the whole file at @p path into @p text; false on I/O failure.
 * A non-null @p stamp receives the stamp of the open file, so it
 * describes the bytes read.
 */
bool readWholeFile(const std::string &path, std::string &text,
                   FileStamp *stamp = nullptr);

/** Write @p text to @p path, replacing it; false on I/O failure. */
bool writeWholeFile(const std::string &path, const std::string &text);

/**
 * Tokenize report @p text onto @p tape (whose nodes index @p text,
 * which must outlive it) and check its schema tag. False when
 * @p text is not a JSON object or not a kRunReportSchema report.
 */
bool parseRunReport(std::string_view text, JsonTape &tape);

/** Decode @p doc's header; an absent field reads as zero or empty. */
RunReportHeader decodeRunReportHeader(JsonRef doc);

/** The workload entries of report @p doc, in file order. */
JsonItems runReportEntries(JsonRef doc);

/** Id of workload entry @p entry; empty when absent. */
std::string entryId(JsonRef entry);

/** The members of a workload entry a reader can slice by range. */
enum EntryMember
{
    EntryStats,
    EntryMetrics,
    EntryIntervalStats,
    NumEntryMembers,
};

/** Member @p member of workload entry @p entry; absent if none. */
JsonRef entryMember(JsonRef entry, EntryMember member);

/**
 * Register the counter structs of @p result that a decoded entry
 * restores (GpuStats, the aggregate cycle account, the requester
 * splits, DRAM and the per-DataKind arrays), under the names the
 * stat dump used.
 */
void registerResultCounters(StatRegistry &registry,
                            const WorkloadResult &result);

/**
 * Decode workload entry @p entry into @p out: runReportJson()
 * inverted, trace and host profile aside; statsJson is sliced out
 * of the parsed text verbatim. False when the stats, a
 * metricSchema() key or a well-formed interval series is missing,
 * when the stats names are not strictly sorted, or when a counter
 * registerResultCounters() binds is not a plain uint64 integer.
 */
bool decodeRunReportEntry(JsonRef entry, const RunReportHeader &header,
                          WorkloadResult &out);

} // namespace lumi

#endif // LUMI_LUMIBENCH_RUN_REPORT_HH
