#include "campaign/cache.hh"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "gpu/data_kind.hh"
#include "gpu/stat_bindings.hh"
#include "lumibench/run_report.hh"
#include "trace/interval.hh"
#include "trace/json_read.hh"
#include "trace/stat_registry.hh"

namespace lumi
{
namespace campaign
{

namespace
{

/** FNV-1a over raw bytes / strings (cache key param hash). */
class ParamHash
{
  public:
    template <typename T>
    void
    mix(const T &value)
    {
        const unsigned char *bytes =
            reinterpret_cast<const unsigned char *>(&value);
        for (size_t i = 0; i < sizeof(T); i++)
            step(bytes[i]);
    }

    void
    mix(const std::string &text)
    {
        for (char c : text)
            step(static_cast<unsigned char>(c));
        step(0xff); // length delimiter
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    void
    step(unsigned char byte)
    {
        hash_ ^= byte;
        hash_ *= 1099511628211ull;
    }

    uint64_t hash_ = 14695981039346656037ull;
};

/** Relative double compare tolerant of one %.12g round trip. */
bool
sameValue(double a, double b)
{
    if (a == b)
        return true;
    double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= 1e-9 * scale;
}

/**
 * Restore every registered counter of @p result's structs from the
 * flat stats object. Registration mirrors dumpStats (stat_bindings),
 * so names can never drift; entries in the dump with no binding here
 * (per-SM caches, the L2, formulas) are carried only by the verbatim
 * statsJson text.
 */
void
rehydrateCounters(WorkloadResult &result, const JsonValue &stats)
{
    StatRegistry registry;
    registerGpuStats(registry, result.stats);
    registerCycleBuckets(registry, result.profileSm,
                         result.profileRt, "profile.sm",
                         "profile.rt");
    registerRequesterStats(registry, result.l1Rt, "l1.rt");
    registerRequesterStats(registry, result.l1Shader, "l1.shader");
    registerRequesterStats(registry, result.l2Rt, "l2.rt");
    registerRequesterStats(registry, result.l2Shader, "l2.shader");
    registerDramStats(registry, result.dram);
    for (int k = 0; k < numDataKinds; k++) {
        std::string name = dataKindName(static_cast<DataKind>(k));
        registry.addCounter("l1.kind." + name + ".reads",
                            &result.kindReads[k]);
        registry.addCounter("l1.kind." + name + ".misses",
                            &result.kindMisses[k]);
    }
    for (const auto &[name, value] : stats.members) {
        if (value.isNumber())
            registry.setCounter(name, value.counter());
    }
}

/** AccelStats is exposed as formulas; restore the fields by name. */
void
rehydrateAccel(AccelStats &accel, const JsonValue &stats)
{
    auto num = [&](const char *name) {
        return stats.num(std::string("accel.") + name, 0.0);
    };
    accel.uniqueTriangles =
        static_cast<size_t>(num("unique_triangles"));
    accel.uniqueProceduralPrims =
        static_cast<size_t>(num("unique_procedural_prims"));
    accel.instances = static_cast<size_t>(num("instances"));
    accel.instancedPrimitives =
        static_cast<size_t>(num("instanced_primitives"));
    accel.blasCount = static_cast<size_t>(num("blas_count"));
    accel.blasNodes = static_cast<size_t>(num("blas_nodes"));
    accel.tlasNodes = static_cast<size_t>(num("tlas_nodes"));
    accel.tlasDepth = static_cast<int>(num("tlas_depth"));
    accel.maxBlasDepth = static_cast<int>(num("max_blas_depth"));
    accel.totalDepth = static_cast<int>(num("total_depth"));
    accel.avgSiblingOverlap = num("avg_sibling_overlap");
    accel.memoryFootprintBytes =
        static_cast<size_t>(num("memory_footprint_bytes"));
}

} // namespace

std::string
cacheKey(const Job &job)
{
    const RunOptions &options = job.options;
    ParamHash hash;
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
    return job.id() + "-" + configFingerprint(options.config) +
           "-p" + hash.hex() + ".report.json";
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
    JsonValue doc;
    if (!loadRunReport(path, text, doc))
        return false;

    // Validate the simulation point against the job, not the
    // filename: collisions and hand-edited files read as misses.
    const RunOptions &options = job.options;
    const JsonValue *config = doc.find("config");
    if (!config ||
        config->str("fingerprint") !=
            configFingerprint(options.config))
        return false;
    const JsonValue *opts = doc.find("options");
    if (!opts ||
        opts->num("width") != options.params.width ||
        opts->num("height") != options.params.height ||
        opts->num("samples_per_pixel") !=
            options.params.samplesPerPixel ||
        !sameValue(opts->num("scene_detail"),
                   options.sceneDetail) ||
        !sameValue(opts->num("dram_bandwidth_scale"),
                   options.dramBandwidthScale) ||
        opts->num("interval_stats") !=
            static_cast<double>(options.intervalStats))
        return false;

    const JsonValue *workloads = doc.find("workloads");
    if (!workloads || !workloads->isArray() ||
        workloads->items.empty())
        return false;
    const JsonValue &entry = workloads->items[0];
    if (entry.str("id") != job.id())
        return false;

    WorkloadResult result;
    result.id = job.id();
    result.rtUnits = static_cast<int>(
        entry.num("rt_units", result.rtUnits));

    // The stats dump was spliced in verbatim at write time; slice it
    // back out of the source text so warm statsJson is byte-
    // identical to the cold dump.
    const JsonValue *stats = entry.find("stats");
    if (!stats || !stats->isObject())
        return false;
    result.statsJson = text.substr(stats->begin,
                                   stats->end - stats->begin);
    rehydrateCounters(result, *stats);
    rehydrateAccel(result.accelStats, *stats);
    // DramStats.channels feeds the dram.efficiency formula and is
    // config-derived, not a counter.
    result.dram.channels = options.config.dramChannels;

    if (const JsonValue *phases = entry.find("phases");
        phases && phases->isArray()) {
        for (const JsonValue &phase : phases->items) {
            PhaseTiming timing;
            timing.name = phase.str("name");
            timing.seconds = phase.num("seconds");
            timing.count = static_cast<uint64_t>(phase.num("count"));
            result.phases.push_back(std::move(timing));
        }
    }

    // Every metricSchema() key must be present: a missing object or
    // key is a miss, never a short or NaN-padded vector. A null
    // value is a real NaN (compute kernels have no RT or scene
    // metrics).
    const JsonValue *metrics = entry.find("metrics");
    if (!metrics || !metrics->isObject())
        return false;
    const std::vector<MetricDef> &schema = metricSchema();
    result.metrics.workload = result.id;
    result.metrics.values.reserve(schema.size());
    for (const MetricDef &def : schema) {
        const JsonValue *value = metrics->find(def.name);
        if (!value || (!value->isNumber() &&
                       value->kind != JsonValue::Kind::Null))
            return false;
        result.metrics.values.push_back(value->number());
    }

    // Interval time series: the typed form is exact (counters are
    // JSON integers and toJson() is canonical), so a warm report
    // re-serializes byte-identically to the cold one.
    if (const JsonValue *interval = entry.find("interval_stats");
        interval && interval->isObject()) {
        if (!IntervalSeries::fromJson(*interval,
                                      result.intervalSeries))
            return false;
    }

    if (const JsonValue *timeline = entry.find("timeline");
        timeline && timeline->isArray()) {
        for (const JsonValue &window : timeline->items) {
            TimelineWindow w;
            w.cycleStart = static_cast<uint64_t>(
                window.num("cycle_start"));
            w.cycleEnd = static_cast<uint64_t>(
                window.num("cycle_end"));
            w.ipc = window.num("ipc");
            w.l1MissRate = window.num("l1d_miss_rate");
            w.rtWarpsPerUnit = window.num("rt_warps_per_unit");
            result.timeline.push_back(w);
        }
    }

    if (const JsonValue *model = entry.find("analytical");
        model && model->isObject()) {
        result.analytical.mwp = model->num("mwp");
        result.analytical.cwp = model->num("cwp");
        result.analytical.memLatency = model->num("mem_latency");
        result.analytical.compCyclesPerWarp =
            model->num("comp_cycles_per_warp");
        result.analytical.memInstrPerWarp =
            model->num("mem_instr_per_warp");
        result.analytical.reportedLaunchCycles =
            static_cast<uint64_t>(
                model->num("reported_launch_cycles"));
        result.analytical.predictedCycles =
            model->num("predicted_cycles");
        result.analytical.predictedIpc =
            model->num("predicted_ipc");
        result.analytical.measuredIpc = model->num("measured_ipc");
    }

    out = std::move(result);
    return true;
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
