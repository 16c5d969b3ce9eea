#include "lumibench/query.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>

#include "lumibench/run_report.hh"
#include "trace/interval.hh"
#include "trace/json.hh"
#include "trace/json_read.hh"

namespace lumi
{
namespace query
{

namespace
{

bool
sameNumber(const std::string &text, double value)
{
    char *end = nullptr;
    double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || (end && *end != '\0'))
        return false;
    return parsed == value;
}

/**
 * Glob match: '*' matches any (possibly empty) run of characters;
 * every other character matches itself. No escapes, no '?'.
 */
bool
globMatch(const std::string &pattern, const std::string &text)
{
    size_t p = 0;
    size_t t = 0;
    size_t star = std::string::npos;
    size_t mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() && pattern[p] != '*' &&
            pattern[p] == text[t]) {
            p++;
            t++;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            // Backtrack: let the last '*' swallow one more char.
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        p++;
    return p == pattern.size();
}

/**
 * Exact compare, widening to a glob only when the pattern carries a
 * '*' -- the workload-filter contract from PR 8, shared by the
 * config= and scene= keys so a literal value never accidentally
 * widens.
 */
bool
matchValue(const std::string &pattern, const std::string &text)
{
    if (pattern.find('*') != std::string::npos)
        return globMatch(pattern, text);
    return pattern == text;
}

} // namespace

std::string
sceneOfWorkload(const std::string &workload)
{
    size_t underscore = workload.rfind('_');
    if (underscore == std::string::npos)
        return workload;
    return workload.substr(0, underscore);
}

namespace
{

/**
 * Visits one workload entry of a walked report: its id and its JSON
 * object. Returns false to stop the walk.
 */
using EntryVisitor =
    std::function<bool(const ReportRef &ref, const std::string &id,
                       const JsonValue &entry)>;

/**
 * The one directory walk behind the index and every query: load each
 * *.json report under @p dir once, in sorted file-name order, skip
 * unreadable and foreign files, and hand each workload entry that
 * matches @p filter to @p visit (none when @p visit is empty).
 * Returns the ReportRef of every loaded report that matches
 * @p filter at report level, up to the one where @p visit stopped
 * the walk.
 */
std::vector<ReportRef>
walkReports(const std::string &dir, const QueryFilter &filter,
            const EntryVisitor &visit)
{
    std::error_code ec;
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        std::string name = entry.path().filename().string();
        if (name.size() < 5 ||
            name.compare(name.size() - 5, 5, ".json") != 0)
            continue;
        files.push_back(name);
    }
    // Directory iteration order is filesystem-dependent; sort so
    // index (and therefore query) order is deterministic.
    std::sort(files.begin(), files.end());

    std::vector<ReportRef> refs;
    for (const std::string &name : files) {
        std::string text;
        JsonValue doc;
        if (!loadRunReport(dir + "/" + name, text, doc))
            continue;

        ReportRef ref;
        ref.file = name;
        if (const JsonValue *config = doc.find("config")) {
            ref.configName = config->str("name");
            ref.fingerprint = config->str("fingerprint");
        }
        if (const JsonValue *opts = doc.find("options")) {
            ref.width = static_cast<int>(opts->num("width"));
            ref.height = static_cast<int>(opts->num("height"));
            ref.samplesPerPixel = static_cast<int>(
                opts->num("samples_per_pixel"));
            ref.sceneDetail = opts->num("scene_detail");
            if (const JsonValue *iv = opts->find("interval_stats"))
                ref.intervalStats = iv->counter();
        }
        const JsonValue *workloads = doc.find("workloads");
        if (workloads && workloads->isArray()) {
            for (const JsonValue &entry : workloads->items)
                ref.workloads.push_back(entry.str("id"));
        }
        if (!filter.matchesReport(ref))
            continue;

        // A non-empty ref.workloads means a well-formed array.
        bool stop = false;
        for (size_t i = 0;
             visit && i < ref.workloads.size() && !stop; i++) {
            if (filter.matches(ref, ref.workloads[i]))
                stop = !visit(ref, ref.workloads[i],
                              workloads->items[i]);
        }
        refs.push_back(std::move(ref));
        if (stop)
            break;
    }
    return refs;
}

} // namespace

ReportIndex
ReportIndex::scan(const std::string &dir)
{
    return {dir, walkReports(dir, {}, nullptr)};
}

bool
QueryFilter::add(const std::string &term)
{
    size_t eq = term.find('=');
    if (eq == std::string::npos || eq == 0 ||
        eq + 1 >= term.size())
        return false;
    std::string key = term.substr(0, eq);
    std::string value = term.substr(eq + 1);
    static const char *known[] = {
        "workload", "config", "scene",    "fingerprint",
        "width",    "height", "spp",      "detail",
        "interval",
    };
    bool ok = false;
    for (const char *k : known)
        ok = ok || key == k;
    if (!ok)
        return false;
    terms.emplace_back(std::move(key), std::move(value));
    return true;
}

bool
QueryFilter::matchesReport(const ReportRef &ref) const
{
    for (const auto &[key, value] : terms) {
        if (key == "workload" || key == "scene")
            continue; // entry-level, checked in matches()
        if (key == "config") {
            if (!matchValue(value, ref.configName))
                return false;
        } else if (key == "fingerprint") {
            if (ref.fingerprint.compare(0, value.size(), value) !=
                0)
                return false;
        } else if (key == "width") {
            if (!sameNumber(value, ref.width))
                return false;
        } else if (key == "height") {
            if (!sameNumber(value, ref.height))
                return false;
        } else if (key == "spp") {
            if (!sameNumber(value, ref.samplesPerPixel))
                return false;
        } else if (key == "detail") {
            if (!sameNumber(value, ref.sceneDetail))
                return false;
        } else if (key == "interval") {
            if (!sameNumber(value,
                            static_cast<double>(
                                ref.intervalStats)))
                return false;
        }
    }
    return true;
}

bool
QueryFilter::matches(const ReportRef &ref,
                     const std::string &workload) const
{
    if (!matchesReport(ref))
        return false;
    for (const auto &[key, value] : terms) {
        // A value containing '*' is a glob (workload=RTQ matches
        // nothing, workload=PTS_* matches PTS_PC and PTS_KNN);
        // anything else stays an exact compare, so a literal id
        // never accidentally widens.
        if (key == "workload") {
            if (!matchValue(value, workload))
                return false;
        } else if (key == "scene") {
            if (!matchValue(value, sceneOfWorkload(workload)))
                return false;
        }
    }
    return true;
}

std::vector<BreakdownRow>
queryBreakdown(const std::string &dir, const QueryFilter &filter)
{
    std::vector<BreakdownRow> rows;
    walkReports(dir, filter, [&](const ReportRef &ref,
                                 const std::string &id,
                                 const JsonValue &entry) {
        const JsonValue *stats = entry.find("stats");
        // Pre-profiler reports carry no profile.* keys; skip them
        // rather than emit an all-zero row.
        if (!stats || !stats->isObject() ||
            !stats->find("profile.sm.issued"))
            return true;
        BreakdownRow row;
        row.file = ref.file;
        row.workload = id;
        if (const JsonValue *cycles = stats->find("gpu.cycles"))
            row.cycles = cycles->counter();
        for (int b = 0; b < numSmCycleBuckets; b++) {
            std::string name =
                std::string("profile.sm.") +
                smCycleBucketName(static_cast<SmCycleBucket>(b));
            if (const JsonValue *v = stats->find(name))
                row.sm.cycles[b] = v->counter();
        }
        for (int b = 0; b < numRtCycleBuckets; b++) {
            std::string name =
                std::string("profile.rt.") +
                rtCycleBucketName(static_cast<RtCycleBucket>(b));
            if (const JsonValue *v = stats->find(name))
                row.rt.cycles[b] = v->counter();
        }
        // Self-normalizing: conservation pins each sum to
        // cycles x units, so the shares need no config lookup.
        uint64_t sm_sum = row.sm.sum();
        uint64_t rt_sum = row.rt.sum();
        for (int b = 0; b < numSmCycleBuckets; b++) {
            row.smShare[b] =
                sm_sum > 0 ? static_cast<double>(row.sm.cycles[b]) /
                                 static_cast<double>(sm_sum)
                           : 0.0;
        }
        for (int b = 0; b < numRtCycleBuckets; b++) {
            row.rtShare[b] =
                rt_sum > 0 ? static_cast<double>(row.rt.cycles[b]) /
                                 static_cast<double>(rt_sum)
                           : 0.0;
        }
        rows.push_back(std::move(row));
        return true;
    });
    return rows;
}

std::vector<StatRow>
queryStat(const std::string &dir, const std::string &stat,
          const QueryFilter &filter)
{
    std::vector<StatRow> rows;
    walkReports(dir, filter, [&](const ReportRef &ref,
                                 const std::string &id,
                                 const JsonValue &entry) {
        const JsonValue *value = nullptr;
        if (const JsonValue *stats = entry.find("stats"))
            value = stats->find(stat);
        if (!value) {
            if (const JsonValue *metrics = entry.find("metrics"))
                value = metrics->find(stat);
        }
        if (value && value->isNumber())
            rows.push_back(
                {ref.file, id, value->number(), value->token});
        return true;
    });
    return rows;
}

std::vector<SeriesResult>
querySeries(const std::string &dir, const std::string &stat,
            const QueryFilter &filter)
{
    std::vector<SeriesResult> results;
    walkReports(dir, filter, [&](const ReportRef &ref,
                                 const std::string &id,
                                 const JsonValue &entry) {
        const JsonValue *interval = entry.find("interval_stats");
        IntervalSeries series;
        if (!interval || !interval->isObject() ||
            !IntervalSeries::fromJson(*interval, series))
            return true;
        int s = series.seriesIndex(stat);
        if (s < 0)
            return true;
        SeriesResult result;
        result.file = ref.file;
        result.workload = id;
        result.interval = series.interval;
        result.cycles = series.cycles;
        result.values.reserve(series.sampleCount());
        result.deltas.reserve(series.sampleCount());
        for (size_t i = 0; i < series.sampleCount(); i++) {
            result.values.push_back(
                series.at(static_cast<size_t>(s), i));
            result.deltas.push_back(
                series.delta(static_cast<size_t>(s), i));
        }
        results.push_back(std::move(result));
        return true;
    });
    return results;
}

std::vector<std::string>
listStats(const std::string &dir, const QueryFilter &filter)
{
    std::vector<std::string> names;
    walkReports(dir, filter, [&](const ReportRef &,
                                 const std::string &,
                                 const JsonValue &entry) {
        for (const char *group : {"stats", "metrics"}) {
            if (const JsonValue *members = entry.find(group)) {
                for (const auto &[name, value] : members->members)
                    names.push_back(name);
            }
        }
        return false; // first matching entry only
    });
    return names;
}

std::string
statRowsJson(const std::vector<StatRow> &rows)
{
    JsonWriter json;
    json.beginArray();
    for (const StatRow &row : rows) {
        json.beginObject();
        json.key("file");
        json.value(row.file);
        json.key("workload");
        json.value(row.workload);
        json.key("value");
        // The raw source token keeps integer counters exact.
        json.raw(row.token);
        json.endObject();
    }
    json.endArray();
    return json.str();
}

namespace
{

void
writeCounters(JsonWriter &json, const std::vector<uint64_t> &values)
{
    json.beginArray();
    for (uint64_t value : values)
        json.value(value);
    json.endArray();
}

/** One {"bucket": value, ...} object per side of the breakdown. */
template <typename Bucket, int N, typename Value>
void
writeBuckets(JsonWriter &json, const char *(*name)(Bucket),
             const Value (&values)[N])
{
    json.beginObject();
    for (int b = 0; b < N; b++) {
        json.key(name(static_cast<Bucket>(b)));
        json.value(values[b]);
    }
    json.endObject();
}

} // namespace

std::string
seriesJson(const std::vector<SeriesResult> &results)
{
    JsonWriter json;
    json.beginArray();
    for (const SeriesResult &result : results) {
        json.beginObject();
        json.key("file");
        json.value(result.file);
        json.key("workload");
        json.value(result.workload);
        json.key("interval");
        json.value(result.interval);
        json.key("cycles");
        writeCounters(json, result.cycles);
        json.key("values");
        writeCounters(json, result.values);
        json.key("deltas");
        writeCounters(json, result.deltas);
        json.endObject();
    }
    json.endArray();
    return json.str();
}

std::string
breakdownJson(const std::vector<BreakdownRow> &rows)
{
    JsonWriter json;
    json.beginArray();
    for (const BreakdownRow &row : rows) {
        json.beginObject();
        json.key("file");
        json.value(row.file);
        json.key("workload");
        json.value(row.workload);
        json.key("cycles");
        json.value(row.cycles);
        json.key("sm");
        writeBuckets(json, smCycleBucketName, row.sm.cycles);
        json.key("rt");
        writeBuckets(json, rtCycleBucketName, row.rt.cycles);
        json.key("sm_share");
        writeBuckets(json, smCycleBucketName, row.smShare);
        json.key("rt_share");
        writeBuckets(json, rtCycleBucketName, row.rtShare);
        json.endObject();
    }
    json.endArray();
    return json.str();
}

} // namespace query
} // namespace lumi
