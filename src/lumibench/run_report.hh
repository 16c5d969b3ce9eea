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
 * The format lives here on both sides: the writer below, and
 * loadRunReport(), the one reader the result cache and the query
 * layer share.
 */

#ifndef LUMI_LUMIBENCH_RUN_REPORT_HH
#define LUMI_LUMIBENCH_RUN_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "lumibench/runner.hh"

namespace lumi
{

class JsonWriter;
struct JsonValue;

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

/**
 * Stable fingerprint of a GpuConfig: "<name>-<hex>", where the hex
 * digest hashes every timing-relevant field. Two runs with the same
 * fingerprint simulated identical hardware.
 */
std::string configFingerprint(const GpuConfig &config);

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
 * Parse report @p text into @p doc (whose byte ranges index
 * @p text) and check its schema tag. False when @p text is not a
 * JSON object or not a kRunReportSchema report.
 */
bool parseRunReport(const std::string &text, JsonValue &doc);

/**
 * Load the run report at @p path: readWholeFile() into @p text, then
 * parseRunReport() into @p doc. False when the file is unreadable or
 * not a report.
 */
bool loadRunReport(const std::string &path, std::string &text,
                   JsonValue &doc);

} // namespace lumi

#endif // LUMI_LUMIBENCH_RUN_REPORT_HH
