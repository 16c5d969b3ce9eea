#include "lumibench/run_report.hh"

#include <cmath>
#include <cstdio>

#include <sys/stat.h>

#include "trace/json.hh"
#include "trace/json_read.hh"

namespace lumi
{

namespace
{

/** FNV-1a over the bytes of successive values. */
class Fingerprint
{
  public:
    template <typename T>
    void
    mix(const T &value)
    {
        const unsigned char *bytes =
            reinterpret_cast<const unsigned char *>(&value);
        for (size_t i = 0; i < sizeof(T); i++) {
            hash_ ^= bytes[i];
            hash_ *= 1099511628211ull;
        }
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%08x",
                      static_cast<unsigned>(hash_ ^ (hash_ >> 32)));
        return buf;
    }

  private:
    uint64_t hash_ = 14695981039346656037ull;
};

} // namespace

std::string
configFingerprint(const GpuConfig &config)
{
    Fingerprint fp;
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
    return config.name + "-" + fp.hex();
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
    json.beginObject();
    json.key("name");
    json.value(options.config.name);
    json.key("fingerprint");
    json.value(configFingerprint(options.config));
    json.key("num_sms");
    json.value(options.config.numSms);
    json.key("max_warps_per_sm");
    json.value(options.config.maxWarpsPerSm);
    json.key("rt_units_per_sm");
    json.value(options.config.rtUnitsPerSm);
    json.key("rt_max_warps");
    json.value(options.config.rtMaxWarps);
    json.key("l1_size_bytes");
    json.value(static_cast<uint64_t>(options.config.l1SizeBytes));
    json.key("l2_size_bytes");
    json.value(static_cast<uint64_t>(options.config.l2SizeBytes));
    json.key("dram_channels");
    json.value(options.config.dramChannels);
    json.endObject();

    json.key("options");
    json.beginObject();
    json.key("width");
    json.value(options.params.width);
    json.key("height");
    json.value(options.params.height);
    json.key("samples_per_pixel");
    json.value(options.params.samplesPerPixel);
    json.key("scene_detail");
    json.value(static_cast<double>(options.sceneDetail));
    json.key("timeline_interval");
    json.value(options.timelineInterval);
    json.key("dram_bandwidth_scale");
    json.value(options.dramBandwidthScale);
    json.key("trace_mask");
    json.value(static_cast<uint64_t>(options.traceMask));
    json.key("interval_stats");
    json.value(options.intervalStats);
    json.key("self_profile");
    json.value(options.selfProfile);
    json.endObject();

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
        json.key("stats");
        if (result.statsJson.empty())
            json.raw("{}");
        else
            json.raw(result.statsJson);

        json.key("metrics");
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
        json.beginArray();
        for (const TimelineWindow &window : result.timeline) {
            json.beginObject();
            json.key("cycle_start");
            json.value(window.cycleStart);
            json.key("cycle_end");
            json.value(window.cycleEnd);
            json.key("ipc");
            json.value(window.ipc);
            json.key("l1d_miss_rate");
            json.value(window.l1MissRate);
            json.key("rt_warps_per_unit");
            json.value(window.rtWarpsPerUnit);
            json.endObject();
        }
        json.endArray();

        // Counter time series (cumulative; canonical integer form,
        // so a cache round trip reproduces the bytes exactly).
        if (!result.intervalSeries.empty()) {
            json.key("interval_stats");
            json.raw(result.intervalSeries.toJson());
        }

        if (!result.hostProfile.empty()) {
            const HostProfile &profile = result.hostProfile;
            json.key("host_profile");
            json.beginObject();
            json.key("total_iterations");
            json.value(profile.totalIterations);
            json.key("sampled_iterations");
            json.value(profile.sampledIterations);
            json.key("loop_seconds");
            json.value(profile.loopSeconds);
            json.key("components");
            json.beginArray();
            for (const HostProfileComponent &component :
                 profile.components) {
                json.beginObject();
                json.key("name");
                json.value(component.name);
                json.key("seconds");
                json.value(component.seconds);
                json.key("share");
                json.value(component.share);
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }

        json.key("analytical");
        json.beginObject();
        json.key("mwp");
        json.value(result.analytical.mwp);
        json.key("cwp");
        json.value(result.analytical.cwp);
        json.key("mem_latency");
        json.value(result.analytical.memLatency);
        json.key("comp_cycles_per_warp");
        json.value(result.analytical.compCyclesPerWarp);
        json.key("mem_instr_per_warp");
        json.value(result.analytical.memInstrPerWarp);
        json.key("reported_launch_cycles");
        json.value(result.analytical.reportedLaunchCycles);
        json.key("predicted_cycles");
        json.value(result.analytical.predictedCycles);
        json.key("predicted_ipc");
        json.value(result.analytical.predictedIpc);
        json.key("measured_ipc");
        json.value(result.analytical.measuredIpc);
        json.endObject();

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
    json.beginArray();
    for (const PhaseTiming &phase : phases) {
        json.beginObject();
        json.key("name");
        json.value(phase.name);
        json.key("seconds");
        json.value(phase.seconds);
        json.key("count");
        json.value(phase.count);
        json.endObject();
    }
    json.endArray();
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
parseRunReport(const std::string &text, JsonValue &doc)
{
    return parseJson(text, doc) && doc.isObject() &&
           doc.str("schema") == kRunReportSchema;
}

bool
loadRunReport(const std::string &path, std::string &text,
              JsonValue &doc)
{
    return readWholeFile(path, text) && parseRunReport(text, doc);
}

} // namespace lumi
