/**
 * @file
 * Query layer over saved run reports: the read side of the
 * observability stack (Daisen-style "collect once, inspect later").
 *
 * Campaigns populate a cache directory (LUMI_CACHE_DIR) with
 * self-contained run-report JSON files; figure benches write the
 * same schema under LUMI_REPORT_DIR. This module indexes such a
 * directory by config fingerprint, workload id and render knobs, and
 * answers three query shapes against it without re-simulating:
 *
 *  - scalar stat queries: the value of one stat/metric (e.g.
 *    "mem.mshr_full_stalls" or "ipc") per matching workload entry;
 *  - time-series queries: the per-interval cumulative and delta
 *    column of one counter from the interval_stats section
 *    (trace/interval.hh);
 *  - cycle breakdowns: the profile.* buckets of each entry.
 *
 * Filters are conjunctive key=value terms (workload/config/scene/
 * fingerprint/width/height/spp/detail/interval). The index and every
 * query run over a ReportStore, which indexes each report once
 * through the one report reader (lumibench/run_report.hh) and keeps
 * only its ReportRef and the byte ranges of each entry's members. A
 * query re-reads just the reports with a matching entry and parses
 * just the member it needs, so a long-lived store (the serve
 * process) does not re-parse whole reports per query. Output follows
 * the sorted file-name order, so it is deterministic across
 * filesystems. Each answer has one JSON encoder here, so
 * `lumibench query --json` and the matching lumibench/serve.hh route
 * print the same document.
 */

#ifndef LUMI_LUMIBENCH_QUERY_HH
#define LUMI_LUMIBENCH_QUERY_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gpu/profile.hh"
#include "lumibench/run_report.hh"

namespace lumi
{
namespace query
{

/** Index entry for one run-report file. */
struct ReportRef
{
    /** File name only (stable handle for /report?file=...). */
    std::string file;
    RunReportHeader header;
    /** Workload/kernel ids in the report, in file order. */
    std::vector<std::string> workloads;

    /** Field list of the serve /index document. */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&visit)
    {
        visit("file", self.file);
        visit("config", self.header.config.name);
        visit("fingerprint", self.header.config.fingerprint);
        visit("width", self.header.options.width);
        visit("height", self.header.options.height);
        visit("spp", self.header.options.samplesPerPixel);
        visit("detail", self.header.options.sceneDetail);
        visit("interval", self.header.options.intervalStats);
        visit("workloads", self.workloads);
    }
};

/** A scanned report directory. */
struct ReportIndex
{
    std::string dir;
    std::vector<ReportRef> reports;

    bool empty() const { return reports.empty(); }

    /**
     * Index every parseable lumibench-run-report-v1 *.json under
     * @p dir (non-recursive), in sorted file-name order. Unreadable
     * or foreign JSON files are skipped silently; a missing
     * directory yields an empty index. One-shot: a ReportStore
     * keeps the index between calls.
     */
    static ReportIndex scan(const std::string &dir);
};

/** Conjunction of key=value terms. */
struct QueryFilter
{
    std::vector<std::pair<std::string, std::string>> terms;

    /**
     * Parse one "key=value" term. Keys: workload, config and scene
     * (each exact, or a glob when the value contains '*' -- e.g.
     * workload=PTS_* or scene=SPNZA), fingerprint (prefix match),
     * width, height, spp, detail, interval. The scene of a workload
     * entry is its id up to the last '_' (SPNZA_AO -> SPNZA; an id
     * without '_', e.g. a compute kernel, is its own scene). False
     * on malformed input or an unknown key.
     */
    bool add(const std::string &term);

    /** Report-level terms (everything except workload/scene). */
    bool matchesReport(const ReportRef &ref) const;

    /** All terms, against one workload entry of @p ref. */
    bool matches(const ReportRef &ref,
                 const std::string &workload) const;
};

/** The scene component of a workload id (see QueryFilter::add). */
std::string sceneOfWorkload(const std::string &workload);

/** One scalar answer: stat value for one workload in one report. */
struct StatRow
{
    std::string file;
    std::string workload;
    double value = 0.0;
    /** Raw source token (exact for integer counters). */
    std::string token;
};

/** One time-series answer: a counter column from one workload. */
struct SeriesResult
{
    std::string file;
    std::string workload;
    uint64_t interval = 0;
    std::vector<uint64_t> cycles;
    /** Cumulative counter value per sample. */
    std::vector<uint64_t> values;
    /** Per-interval delta (delta[0] == values[0]). */
    std::vector<uint64_t> deltas;

    /** Field list of the seriesJson() document. */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&visit)
    {
        visit("file", self.file);
        visit("workload", self.workload);
        visit("interval", self.interval);
        visit("cycles", self.cycles);
        visit("values", self.values);
        visit("deltas", self.deltas);
    }
};

/**
 * One row of the top-down cycle breakdown: the profile.sm.* /
 * profile.rt.* buckets of one workload entry, normalized to shares
 * of that entry's own bucket sum (conservation makes the sums equal
 * cycles x units, so shares always total 1 per side).
 */
struct BreakdownRow
{
    std::string file;
    std::string workload;
    /** gpu.cycles of the entry (context for the shares). */
    uint64_t cycles = 0;
    /** Raw bucket counters. */
    SmCycleBuckets sm;
    RtCycleBuckets rt;
    /** Normalized shares in [0,1]; all-zero when the bucket sum is
     *  zero (a zero-cycle entry). */
    double smShare[numSmCycleBuckets] = {};
    double rtShare[numRtCycleBuckets] = {};
};

/**
 * The memoized index of one report directory. Per *.json file,
 * keyed on its FileStamp, the store keeps the file's ReportRef and,
 * per workload entry, the [begin, end) byte range of its "stats",
 * "metrics" and "interval_stats" members; foreign and corrupt files
 * are remembered as such. It holds no parsed JSON and no report text
 * between calls.
 *
 * Every call re-lists the directory and stats every file: new or
 * changed files are indexed (a full parseRunReport), and files that
 * have gone are dropped, so a campaign still writing into the
 * directory is visible. Filters run on the memoized refs. Only a
 * report with a matching entry is read again; if its stamp no longer
 * equals the key, it is re-indexed from the bytes just read. Then
 * only the member range the query needs is parsed. Output follows
 * sorted file-name order. Not thread-safe: a shared store needs a
 * lock (ReportServer holds one).
 */
class ReportStore
{
  public:
    explicit ReportStore(std::string dir) : dir_(std::move(dir)) {}

    /** The reports of the directory, as ReportIndex::scan. */
    ReportIndex index();

    /**
     * The cycle breakdown of every workload entry matching
     * @p filter. Entries without profile.sm.* stats (pre-profiler
     * reports) are omitted.
     */
    std::vector<BreakdownRow> breakdown(const QueryFilter &filter);

    /**
     * Look up stat @p name for every workload entry matching
     * @p filter. The name is resolved against the flat "stats"
     * object first, then the derived "metrics" object. Entries
     * without the stat are omitted.
     */
    std::vector<StatRow> stat(const std::string &name,
                              const QueryFilter &filter);

    /**
     * Extract the interval time series of counter @p name from
     * every matching workload entry. Entries without an
     * interval_stats section or without the series are omitted.
     */
    std::vector<SeriesResult> series(const std::string &name,
                                     const QueryFilter &filter);

    /**
     * All stat names (stats + metrics) in the first matching entry;
     * the walk stops there.
     */
    std::vector<std::string> statNames(const QueryFilter &filter);

    /**
     * Read report @p file (a bare name) verbatim into @p text.
     * False unless it is a *.json file of the directory that loads
     * as a run report.
     */
    bool readReport(const std::string &file, std::string &text);

  private:
    /** [begin, end) of one member in the report text. */
    struct Span
    {
        size_t begin = 0;
        size_t end = 0;
    };

    /** Member ranges of one entry; an absent member's is empty. */
    using Spans = std::array<Span, NumEntryMembers>;

    /** What the store keeps of one *.json file. */
    struct Indexed
    {
        FileStamp stamp;
        /** False for a foreign or corrupt file. */
        bool report = false;
        ReportRef ref;
        /** Per entry of ref.workloads. */
        std::vector<Spans> entries;
    };

    /** One matching entry during a walk (defined in query.cc). */
    class Entry;

    /** Visits one matching entry; returns false to stop the walk. */
    using EntryVisitor = std::function<bool(
        const ReportRef &ref, const std::string &id, Entry &entry)>;

    /** Index @p text, read from @p name with @p stamp, into @p file. */
    static void indexText(Indexed &file, const std::string &name,
                          const FileStamp &stamp,
                          const std::string &text);

    /** Re-list the directory; index new and changed files. */
    void refresh();

    /**
     * refresh(), then hand each entry matching @p filter to
     * @p visit, in sorted file-name order, until @p visit stops.
     */
    void walk(const QueryFilter &filter, const EntryVisitor &visit);

    std::string dir_;
    /** By file name, so iteration is in sorted order. */
    std::map<std::string, Indexed> files_;
};

/** [{"file","workload","value"}]; value is the exact source token. */
std::string statRowsJson(const std::vector<StatRow> &rows);

/** [{"file","workload","interval","cycles","values","deltas"}]. */
std::string seriesJson(const std::vector<SeriesResult> &results);

/**
 * [{"file","workload","cycles","sm","rt","sm_share","rt_share"}]:
 * the raw bucket counters, then their shares.
 */
std::string breakdownJson(const std::vector<BreakdownRow> &rows);

} // namespace query
} // namespace lumi

#endif // LUMI_LUMIBENCH_QUERY_HH
