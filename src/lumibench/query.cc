#include "lumibench/query.hh"

#include <cstdlib>
#include <filesystem>

#include "lumibench/run_report.hh"
#include "trace/interval.hh"
#include "trace/json.hh"

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

bool
isJsonName(const std::string &name)
{
    return name.size() >= 5 &&
           name.compare(name.size() - 5, 5, ".json") == 0;
}

} // namespace

/**
 * One matching workload entry during a walk: each member is parsed
 * from its byte range on first use, and lives until the visit ends.
 */
class ReportStore::Entry
{
  public:
    Entry(const std::string &text, const Spans &spans)
        : text_(text), spans_(spans)
    {
    }

    /**
     * The member, parsed in place from its span of the text; absent
     * when the entry has none or it does not parse.
     */
    JsonRef
    member(EntryMember m)
    {
        const Span &span = spans_[m];
        if (span.end <= span.begin || span.end > text_.size())
            return {};
        if (!tried_[m]) {
            tried_[m] = true;
            tapes_[m].parse(std::string_view(text_).substr(
                span.begin, span.end - span.begin));
        }
        return tapes_[m].root();
    }

  private:
    const std::string &text_;
    const Spans &spans_;
    JsonTape tapes_[NumEntryMembers];
    bool tried_[NumEntryMembers] = {};
};

void
ReportStore::indexText(Indexed &file, const std::string &name,
                       const FileStamp &stamp, const std::string &text)
{
    file = Indexed{};
    file.stamp = stamp;
    JsonTape tape;
    if (!parseRunReport(text, tape))
        return;
    file.report = true;
    ReportRef &ref = file.ref;
    ref.file = name;
    ref.header = decodeRunReportHeader(tape.root());
    for (JsonRef entry : runReportEntries(tape.root())) {
        ref.workloads.push_back(entryId(entry));
        Spans &spans = file.entries.emplace_back();
        for (int m = 0; m < NumEntryMembers; m++) {
            if (JsonRef member =
                    entryMember(entry, static_cast<EntryMember>(m)))
                spans[m] = {member.begin(), member.end()};
        }
    }
}

void
ReportStore::refresh()
{
    std::error_code ec;
    std::map<std::string, Indexed> listed;
    std::string text;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        std::string name = entry.path().filename().string();
        FileStamp stamp;
        if (!isJsonName(name) || !statFile(dir_ + "/" + name, stamp))
            continue;
        auto known = files_.find(name);
        if (known != files_.end() && known->second.stamp == stamp) {
            listed.insert(files_.extract(known));
            continue;
        }
        // An unreadable file is skipped, not remembered: a chmod
        // does not change its stamp.
        if (readWholeFile(dir_ + "/" + name, text, &stamp))
            indexText(listed[name], name, stamp, text);
    }
    files_ = std::move(listed);
}

void
ReportStore::walk(const QueryFilter &filter, const EntryVisitor &visit)
{
    refresh();
    auto matching = [&](const Indexed &file) {
        std::vector<size_t> hits;
        if (!file.report || !filter.matchesReport(file.ref))
            return hits;
        for (size_t i = 0; i < file.entries.size(); i++) {
            if (filter.matches(file.ref, file.ref.workloads[i]))
                hits.push_back(i);
        }
        return hits;
    };
    std::string text;
    for (auto &[name, file] : files_) {
        std::vector<size_t> hits = matching(file);
        if (hits.empty())
            continue;
        // Re-read the report for the entries' bytes; if it changed
        // since refresh(), index those bytes instead.
        FileStamp stamp;
        if (!readWholeFile(dir_ + "/" + name, text, &stamp))
            continue;
        if (stamp != file.stamp) {
            indexText(file, name, stamp, text);
            hits = matching(file);
        }
        for (size_t i : hits) {
            Entry entry(text, file.entries[i]);
            if (!visit(file.ref, file.ref.workloads[i], entry))
                return;
        }
    }
}

ReportIndex
ReportStore::index()
{
    refresh();
    ReportIndex index{dir_, {}};
    for (const auto &[name, file] : files_) {
        if (file.report)
            index.reports.push_back(file.ref);
    }
    return index;
}

bool
ReportStore::readReport(const std::string &file, std::string &text)
{
    FileStamp stamp;
    if (!isJsonName(file) ||
        !readWholeFile(dir_ + "/" + file, text, &stamp)) {
        files_.erase(file);
        return false;
    }
    auto [known, fresh] = files_.try_emplace(file);
    if (fresh || known->second.stamp != stamp)
        indexText(known->second, file, stamp, text);
    return known->second.report;
}

ReportIndex
ReportIndex::scan(const std::string &dir)
{
    return ReportStore(dir).index();
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
    const ConfigSummary &config = ref.header.config;
    const ReportOptions &options = ref.header.options;
    for (const auto &[key, value] : terms) {
        if (key == "workload" || key == "scene")
            continue; // entry-level, checked in matches()
        if (key == "config") {
            if (!matchValue(value, config.name))
                return false;
        } else if (key == "fingerprint") {
            if (config.fingerprint.compare(0, value.size(), value) !=
                0)
                return false;
        } else if (key == "width") {
            if (!sameNumber(value, options.width))
                return false;
        } else if (key == "height") {
            if (!sameNumber(value, options.height))
                return false;
        } else if (key == "spp") {
            if (!sameNumber(value, options.samplesPerPixel))
                return false;
        } else if (key == "detail") {
            if (!sameNumber(value, options.sceneDetail))
                return false;
        } else if (key == "interval") {
            if (!sameNumber(value,
                            static_cast<double>(
                                options.intervalStats)))
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
ReportStore::breakdown(const QueryFilter &filter)
{
    std::vector<BreakdownRow> rows;
    walk(filter, [&](const ReportRef &ref, const std::string &id,
                     Entry &entry) {
        JsonRef stats = entry.member(EntryStats);
        // Pre-profiler reports carry no profile.* keys; skip them
        // rather than emit an all-zero row.
        if (!stats.find("profile.sm.issued"))
            return true;
        BreakdownRow row;
        row.file = ref.file;
        row.workload = id;
        row.cycles = stats.find("gpu.cycles").counter();
        for (int b = 0; b < numSmCycleBuckets; b++) {
            std::string name =
                std::string("profile.sm.") +
                smCycleBucketName(static_cast<SmCycleBucket>(b));
            row.sm.cycles[b] = stats.find(name).counter();
        }
        for (int b = 0; b < numRtCycleBuckets; b++) {
            std::string name =
                std::string("profile.rt.") +
                rtCycleBucketName(static_cast<RtCycleBucket>(b));
            row.rt.cycles[b] = stats.find(name).counter();
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
ReportStore::stat(const std::string &name, const QueryFilter &filter)
{
    std::vector<StatRow> rows;
    walk(filter, [&](const ReportRef &ref, const std::string &id,
                     Entry &entry) {
        JsonRef value = entry.member(EntryStats).find(name);
        if (!value)
            value = entry.member(EntryMetrics).find(name);
        if (value.isNumber())
            rows.push_back({ref.file, id, value.number(),
                            std::string(value.raw())});
        return true;
    });
    return rows;
}

std::vector<SeriesResult>
ReportStore::series(const std::string &name, const QueryFilter &filter)
{
    std::vector<SeriesResult> results;
    walk(filter, [&](const ReportRef &ref, const std::string &id,
                     Entry &entry) {
        IntervalSeries series;
        if (!IntervalSeries::fromJson(entry.member(EntryIntervalStats),
                                      series))
            return true;
        int s = series.seriesIndex(name);
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
ReportStore::statNames(const QueryFilter &filter)
{
    std::vector<std::string> names;
    walk(filter, [&](const ReportRef &, const std::string &,
                     Entry &entry) {
        for (EntryMember group : {EntryStats, EntryMetrics}) {
            for (JsonMember member : entry.member(group).members())
                names.push_back(member.key.string());
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
    json.write(results);
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
