#include "lumibench/run_report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <type_traits>

#include <sys/stat.h>

#include "check/check.hh"
#include "gpu/stat_bindings.hh"
#include "trace/interval.hh"
#include "trace/json.hh"
#include "trace/stat_registry.hh"

namespace lumi
{

namespace
{

/** Keys of the workload-entry members, by EntryMember. */
const char *const kEntryMemberKeys[NumEntryMembers] = {
    "stats", "metrics", "interval_stats"};

/**
 * Decode @p value (absent or not) into @p out, a record field by
 * field; absent, mistyped or out-of-range reads as zero or empty.
 */
template <typename T>
void
readJson(JsonRef value, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = value.string();
    } else if constexpr (std::is_same_v<T, bool>) {
        out = value.boolean();
    } else if constexpr (std::is_arithmetic_v<T>) {
        double number = value.number();
        using Limits = std::numeric_limits<T>;
        out = std::is_floating_point_v<T> ||
                      (number >= static_cast<double>(Limits::lowest()) &&
                       number < std::ldexp(1.0, Limits::digits))
                  ? static_cast<T>(number)
                  : T();
    } else {
        T::fields(out, [&](const char *key, auto &field) {
            readJson(value.find(key), field);
        });
    }
}

template <typename T>
void
readJson(JsonRef value, std::vector<T> &records)
{
    records.assign(value.isArray() ? value.size() : 0, T());
    size_t i = 0;
    for (JsonRef item : value.items())
        readJson(item, records[i++]);
}

/**
 * One field of a WorkloadResult that a cached stats object restores:
 * its stat name, its byte offset in the result and its decoder.
 */
struct FieldBinding
{
    std::string name;
    size_t offset = 0;
    /** Decode @p value into @p field; false fails the whole read. */
    bool (*decode)(JsonRef value, void *field) = nullptr;
};

/** A bound counter must be a plain uint64 integer token. */
bool
decodeCounter(JsonRef value, void *field)
{
    return value.readCounter(*static_cast<uint64_t *>(field));
}

/** An accel.* formula field, read like any record field. */
template <typename T>
bool
decodeFormulaField(JsonRef value, void *field)
{
    readJson(value, *static_cast<T *>(field));
    return true;
}

/**
 * The restore table, sorted by name and built once per process: the
 * registerResultCounters() bindings of a prototype result plus its
 * AccelStats fields (exposed as formulas, so they are not counters),
 * each kept as an offset into WorkloadResult.
 */
const std::vector<FieldBinding> &
restoreTable()
{
    static const std::vector<FieldBinding> table = [] {
        auto prototype = std::make_unique<WorkloadResult>();
        auto base = reinterpret_cast<uintptr_t>(prototype.get());
        std::vector<FieldBinding> out;
        auto bind = [&](std::string name, const void *field, size_t size,
                        bool (*decode)(JsonRef, void *)) {
            auto at = reinterpret_cast<uintptr_t>(field);
            bool inside =
                at >= base && at + size <= base + sizeof(WorkloadResult);
            LUMI_CHECK(Mem, inside,
                       "stat %s is bound outside WorkloadResult",
                       name.c_str());
            if (inside) // never write through it, whatever the mode
                out.push_back({std::move(name), at - base, decode});
        };
        StatRegistry registry;
        registerResultCounters(registry, *prototype);
        registry.visitCounters(
            [&](const std::string &name, const uint64_t *field) {
                bind(name, field, sizeof(*field), &decodeCounter);
            });
        AccelStats::fields(prototype->accelStats,
                           [&](const char *name, auto &field) {
                               using T = std::decay_t<decltype(field)>;
                               bind(std::string("accel.") + name, &field,
                                    sizeof(field), &decodeFormulaField<T>);
                           });
        std::sort(out.begin(), out.end(),
                  [](const FieldBinding &a, const FieldBinding &b) {
                      return a.name < b.name;
                  });
        LUMI_CHECK(Mem,
                   std::adjacent_find(out.begin(), out.end(),
                                      [](const FieldBinding &a,
                                         const FieldBinding &b) {
                                          return a.name == b.name;
                                      }) == out.end(),
                   "a stat name is bound to two fields");
        return out;
    }();
    return table;
}

/**
 * Restore @p result's counter structs and accel.* fields from the
 * flat stats object in one walk of its members against the restore
 * table. Members with no binding (per-SM caches, the L2, formulas)
 * live only in the verbatim statsJson. False, a miss, when the names
 * are not strictly sorted (the dump writes them sorted and unique) or
 * a bound counter is not a plain uint64 integer.
 */
bool
restoreCounters(WorkloadResult &result, JsonRef stats)
{
    const std::vector<FieldBinding> &table = restoreTable();
    auto bound = table.begin();
    auto *base = reinterpret_cast<char *>(&result);
    // Two buffers: an escaped key decodes into one while the
    // previous key may still view the other.
    std::string scratch[2];
    std::string_view previous;
    size_t index = 0;
    for (JsonMember member : stats.members()) {
        std::string_view name = member.key.string(scratch[index++ % 2]);
        if (index > 1 && name <= previous)
            return false;
        while (bound != table.end() && bound->name < name)
            ++bound;
        if (bound != table.end() && bound->name == name &&
            !bound->decode(member.value, base + bound->offset))
            return false;
        previous = name;
    }
    return true;
}

} // namespace

void
registerResultCounters(StatRegistry &registry,
                       const WorkloadResult &result)
{
    registerGpuStats(registry, result.stats);
    registerCycleBuckets(registry, result.profileSm, result.profileRt,
                         "profile.sm", "profile.rt");
    registerRequesterStats(registry, result.l1Rt, "l1.rt");
    registerRequesterStats(registry, result.l1Shader, "l1.shader");
    registerRequesterStats(registry, result.l2Rt, "l2.rt");
    registerRequesterStats(registry, result.l2Shader, "l2.shader");
    registerDramStats(registry, result.dram);
    registerKindStats(registry, result.kindReads, result.kindMisses);
}

std::string
configFingerprint(const GpuConfig &config)
{
    Fnv1a fp;
    fp.mix(config.numSms);
    fp.mix(config.maxWarpsPerSm);
    fp.mix(config.warpSize);
    fp.mix(config.registersPerSm);
    fp.mix(config.aluLatency);
    fp.mix(config.sfuLatency);
    fp.mix(config.issueWidth);
    fp.mix(static_cast<int>(config.scheduler));
    fp.mix(config.l1SizeBytes);
    fp.mix(config.l1LineBytes);
    fp.mix(config.l1Ways);
    fp.mix(config.l1Latency);
    fp.mix(config.l2SizeBytes);
    fp.mix(config.l2LineBytes);
    fp.mix(config.l2Ways);
    fp.mix(config.l2Latency);
    fp.mix(config.l1MshrEntries);
    fp.mix(config.l2MshrEntries);
    fp.mix(config.l1PortWidth);
    fp.mix(config.icntFlitsPerCycle);
    fp.mix(config.icntFlitBytes);
    fp.mix(static_cast<int>(config.writePolicy));
    fp.mix(config.dramChannels);
    fp.mix(config.dramBanksPerChannel);
    fp.mix(config.dramRowHitLatency);
    fp.mix(config.dramRowMissLatency);
    fp.mix(config.dramTransferCycles);
    fp.mix(config.dramRowBytes);
    fp.mix(config.rtUnitsPerSm);
    fp.mix(config.rtMaxWarps);
    fp.mix(config.rtBoxTestLatency);
    fp.mix(config.rtTriTestLatency);
    fp.mix(config.rtIssueWidth);
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%08x",
                  static_cast<unsigned>(fp.digest ^ (fp.digest >> 32)));
    return config.name + "-" + hex;
}

ReportOptions
ReportOptions::of(const RunOptions &options)
{
    return {options.params.width, options.params.height,
            options.params.samplesPerPixel,
            static_cast<double>(options.sceneDetail),
            options.timelineInterval, options.dramBandwidthScale,
            options.traceMask, options.intervalStats,
            options.selfProfile};
}

bool
ReportOptions::operator==(const ReportOptions &other) const
{
    JsonWriter mine;
    JsonWriter theirs;
    mine.write(*this);
    theirs.write(other);
    return mine.str() == theirs.str();
}

std::string
runReportJson(const std::vector<WorkloadResult> &results,
              const RunOptions &options)
{
    JsonWriter json;
    json.beginObject();
    json.key("schema");
    json.value(kRunReportSchema);
    json.key("config");
    const GpuConfig &config = options.config;
    json.write(ConfigSummary{config.name, configFingerprint(config),
                             config.numSms, config.maxWarpsPerSm,
                             config.rtUnitsPerSm, config.rtMaxWarps,
                             config.l1SizeBytes, config.l2SizeBytes,
                             config.dramChannels});
    json.key("options");
    json.write(ReportOptions::of(options));

    json.key("workloads");
    json.beginArray();
    for (const WorkloadResult &result : results) {
        json.beginObject();
        json.key("id");
        json.value(result.id);
        json.key("rt_units");
        json.value(result.rtUnits);

        writePhasesJson(json, result.phases);

        // The stat-registry dump is already JSON; splice it in.
        json.key(kEntryMemberKeys[EntryStats]);
        if (result.statsJson.empty())
            json.raw("{}");
        else
            json.raw(result.statsJson);

        json.key(kEntryMemberKeys[EntryMetrics]);
        json.beginObject();
        const std::vector<MetricDef> &schema = metricSchema();
        for (size_t i = 0;
             i < schema.size() && i < result.metrics.values.size();
             i++) {
            json.key(schema[i].name);
            json.value(result.metrics.values[i]);
        }
        json.endObject();

        json.key("timeline");
        json.write(result.timeline);

        // Counter time series (cumulative; canonical integer form,
        // so a cache round trip reproduces the bytes exactly).
        if (!result.intervalSeries.empty()) {
            json.key(kEntryMemberKeys[EntryIntervalStats]);
            json.raw(result.intervalSeries.toJson());
        }

        if (!result.hostProfile.empty()) {
            json.key("host_profile");
            json.write(result.hostProfile);
        }

        json.key("analytical");
        json.write(result.analytical);

        if (result.trace) {
            json.key("trace_summary");
            json.beginObject();
            for (int c = 0; c < numTraceCategories; c++) {
                TraceCategory category =
                    static_cast<TraceCategory>(c);
                if (result.trace->emitted(category) == 0)
                    continue;
                json.key(traceCategoryName(category));
                json.beginObject();
                json.key("emitted");
                json.value(result.trace->emitted(category));
                json.key("dropped");
                json.value(result.trace->dropped(category));
                json.endObject();
            }
            json.endObject();
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

void
writePhasesJson(JsonWriter &json, const std::vector<PhaseTiming> &phases)
{
    json.key("phases");
    json.write(phases);
}

bool
writeRunReport(const std::string &path,
               const std::vector<WorkloadResult> &results,
               const RunOptions &options)
{
    return writeWholeFile(path, runReportJson(results, options));
}

namespace
{

FileStamp
stampOf(const struct stat &info)
{
    return {static_cast<uint64_t>(info.st_size),
            static_cast<int64_t>(info.st_mtim.tv_sec) * 1000000000 +
                info.st_mtim.tv_nsec,
            static_cast<uint64_t>(info.st_ino)};
}

} // namespace

bool
statFile(const std::string &path, FileStamp &stamp)
{
    struct stat info;
    if (::stat(path.c_str(), &info) != 0 || !S_ISREG(info.st_mode))
        return false;
    stamp = stampOf(info);
    return true;
}

bool
writeWholeFile(const std::string &path, const std::string &text)
{
    FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        return false;
    bool ok = std::fwrite(text.data(), 1, text.size(), file) ==
              text.size();
    if (std::fclose(file) != 0)
        ok = false;
    return ok;
}

bool
readWholeFile(const std::string &path, std::string &text,
              FileStamp *stamp)
{
    FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return false;
    text.clear();
    struct stat info;
    bool ok = ::fstat(::fileno(file), &info) == 0;
    if (ok) {
        text.reserve(static_cast<size_t>(info.st_size));
        if (stamp)
            *stamp = stampOf(info);
    }
    char buf[1 << 14];
    size_t got;
    while (ok && (got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, got);
    ok = ok && !std::ferror(file);
    std::fclose(file);
    return ok;
}

bool
parseRunReport(std::string_view text, JsonTape &tape)
{
    return tape.parse(text) && tape.root().isObject() &&
           tape.root().find("schema").equals(kRunReportSchema);
}

RunReportHeader
decodeRunReportHeader(JsonRef doc)
{
    RunReportHeader header;
    readJson(doc.find("config"), header.config);
    readJson(doc.find("options"), header.options);
    return header;
}

JsonItems
runReportEntries(JsonRef doc)
{
    return doc.find("workloads").items();
}

std::string
entryId(JsonRef entry)
{
    return entry.find("id").string();
}

JsonRef
entryMember(JsonRef entry, EntryMember member)
{
    return entry.find(kEntryMemberKeys[member]);
}

bool
decodeRunReportEntry(JsonRef entry, const RunReportHeader &header,
                     WorkloadResult &out)
{
    WorkloadResult result;
    result.id = entryId(entry);
    if (JsonRef units = entry.find("rt_units"))
        readJson(units, result.rtUnits);

    // The stats dump was spliced in verbatim at write time; slice it
    // back out of the source text so warm statsJson is byte-
    // identical to the cold dump.
    JsonRef stats = entryMember(entry, EntryStats);
    if (!stats.isObject())
        return false;
    result.statsJson = stats.raw();
    if (!restoreCounters(result, stats))
        return false;
    // DramStats.channels feeds the dram.efficiency formula and is
    // config-derived, not a counter.
    result.dram.channels = header.config.dramChannels;

    readJson(entry.find("phases"), result.phases);

    // Every metricSchema() key must be present: a missing object or
    // key fails, never a short or NaN-padded vector. A null value is
    // a real NaN (compute kernels have no RT or scene metrics). The
    // writer emits the keys in schema order, so the walk takes the
    // next member and searches only when the order differs.
    JsonRef metrics = entryMember(entry, EntryMetrics);
    if (!metrics.isObject())
        return false;
    const std::vector<MetricDef> &schema = metricSchema();
    result.metrics.workload = result.id;
    result.metrics.values.reserve(schema.size());
    JsonMembers members = metrics.members();
    auto next = members.begin();
    for (const MetricDef &def : schema) {
        JsonRef value;
        if (next != members.end() && (*next).key.equals(def.name)) {
            value = (*next).value;
            ++next;
        } else {
            value = metrics.find(def.name);
        }
        if (!value.isNumber() && !value.isNull())
            return false;
        result.metrics.values.push_back(value.number());
    }

    // Interval time series: the typed form is exact (counters are
    // JSON integers and toJson() is canonical), so a warm report
    // re-serializes byte-identically to the cold one.
    if (JsonRef interval = entryMember(entry, EntryIntervalStats);
        interval.isObject()) {
        if (!IntervalSeries::fromJson(interval, result.intervalSeries))
            return false;
    }

    readJson(entry.find("timeline"), result.timeline);
    readJson(entry.find("analytical"), result.analytical);

    out = std::move(result);
    return true;
}

} // namespace lumi
