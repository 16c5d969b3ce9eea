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
 * query share one walk over the directory: the sorted *.json file
 * list (so output is deterministic across filesystems), each report
 * loaded once through loadRunReport (lumibench/run_report.hh). Each
 * answer has one JSON encoder here, so `lumibench query --json` and
 * the matching lumibench/serve.hh route print the same document.
 */

#ifndef LUMI_LUMIBENCH_QUERY_HH
#define LUMI_LUMIBENCH_QUERY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gpu/profile.hh"

namespace lumi
{
namespace query
{

/** Index entry for one run-report file. */
struct ReportRef
{
    /** File name only (stable handle for /report?file=...). */
    std::string file;
    std::string configName;
    std::string fingerprint;
    int width = 0;
    int height = 0;
    int samplesPerPixel = 0;
    double sceneDetail = 0.0;
    uint64_t intervalStats = 0;
    /** Workload/kernel ids in the report, in file order. */
    std::vector<std::string> workloads;
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
     * directory yields an empty index. The queries below walk the
     * directory themselves; an index is for listing it.
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
     *  zero (profile compiled out). */
    double smShare[numSmCycleBuckets] = {};
    double rtShare[numRtCycleBuckets] = {};
};

/*
 * Each query walks the reports under @p dir once, in sorted
 * file-name order (the ReportIndex::scan order), and reads only the
 * workload entries matching @p filter.
 */

/**
 * The cycle breakdown of every workload entry matching @p filter.
 * Entries without profile.sm.* stats (pre-profiler reports) are
 * omitted.
 */
std::vector<BreakdownRow> queryBreakdown(const std::string &dir,
                                         const QueryFilter &filter);

/**
 * Look up @p stat for every workload entry matching @p filter. The
 * name is resolved against the flat "stats" object first, then the
 * derived "metrics" object. Entries without the stat are omitted.
 */
std::vector<StatRow> queryStat(const std::string &dir,
                               const std::string &stat,
                               const QueryFilter &filter);

/**
 * Extract the interval time series of counter @p stat from every
 * matching workload entry. Entries without an interval_stats
 * section or without the series are omitted.
 */
std::vector<SeriesResult> querySeries(const std::string &dir,
                                      const std::string &stat,
                                      const QueryFilter &filter);

/**
 * All stat names (stats + metrics) in the first matching entry; the
 * walk stops there.
 */
std::vector<std::string> listStats(const std::string &dir,
                                   const QueryFilter &filter);

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
