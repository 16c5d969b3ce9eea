#include "lumibench/runner.hh"

#include <cerrno>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <type_traits>

#include "check/check.hh"
#include "compute/rtq/rtq_pipeline.hh"
#include "compute/rtq/rtq_scene.hh"
#include "gpu/stat_bindings.hh"
#include "rt/pipeline.hh"

namespace lumi
{

namespace
{

/**
 * The strict number parse behind parseFlagNumber and envutil. It
 * reads integers as long long and reals as double, so the range
 * check sees a value too large for T before any narrowing. False
 * leaves @p value as is.
 */
template <typename T>
bool
parseNumber(const char *text, T min, T max, T &value)
{
    std::conditional_t<std::is_integral_v<T>, long long, double> parsed;
    char *end = nullptr;
    errno = 0;
    if constexpr (std::is_integral_v<T>)
        parsed = std::strtoll(text, &end, 10);
    else
        parsed = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !(std::isfinite(parsed) && parsed >= min && parsed <= max))
        return false;
    value = static_cast<T>(parsed);
    return true;
}

} // namespace

namespace envutil
{

int
readInt(const char *name, int fallback, int min)
{
    const char *text = std::getenv(name);
    int value = fallback;
    if (text && *text && !parseNumber(text, min, INT_MAX, value)) {
        std::fprintf(stderr,
                     "lumi: ignoring %s='%s' (want an integer >= %d); "
                     "using %d\n",
                     name, text, min, fallback);
    }
    return value;
}

double
readDouble(const char *name, double fallback, double max)
{
    const char *text = std::getenv(name);
    double value = fallback;
    if (text && *text &&
        !parseNumber(text, std::numeric_limits<double>::denorm_min(),
                     max, value)) {
        std::fprintf(stderr,
                     "lumi: ignoring %s='%s' (want a number in "
                     "(0, %g]); using %g\n",
                     name, text, max, fallback);
    }
    return value;
}

} // namespace envutil

template <typename T>
T
parseFlagNumber(const std::string &flag, const std::string &text,
                T min, T max)
{
    T value{};
    if (!parseNumber(text.c_str(), min, max, value)) {
        std::fprintf(stderr, "%s needs %s in [%.10g, %.10g] (got '%s')\n",
                     flag.c_str(),
                     std::is_integral_v<T> ? "an integer"
                                           : "a finite number",
                     static_cast<double>(min),
                     static_cast<double>(max), text.c_str());
        std::exit(2);
    }
    return value;
}

template int parseFlagNumber(const std::string &, const std::string &,
                             int, int);
template long long parseFlagNumber(const std::string &,
                                   const std::string &, long long,
                                   long long);
template double parseFlagNumber(const std::string &,
                                const std::string &, double, double);

namespace
{

/** Register everything a finished run exposes and dump it. */
std::string
dumpStats(const Gpu &gpu, const AccelStats *accel,
          const Tracer *tracer)
{
    StatRegistry registry;
    registerGpu(registry, gpu);
    if (accel)
        registerAccelStats(registry, *accel);
    // Invariant-violation counters (all zero unless a count-mode run
    // hit a LUMI_CHECK); present in every dump so the stats schema
    // is identical across check configurations.
    registerCheckStats(registry);
    // Ring-buffer emit/drop counts (all zero when untraced); present
    // in every dump for the same schema-stability reason, and so a
    // silently truncated trace is detectable from its run report.
    registerTraceStats(registry, tracer);
    return registry.toJson();
}

/** True when RenderParams::totalSamples() (width x height x spp,
 *  each at most INT_MAX) fits an int. */
bool
samplesFitInt(const RenderParams &params)
{
    long long pixels =
        static_cast<long long>(params.width) * params.height;
    return pixels <= INT_MAX &&
           pixels * params.samplesPerPixel <= INT_MAX;
}

/** Build and throw the SimulationAborted for an early-stopped run. */
[[noreturn]] void
throwAborted(const std::string &id, const Gpu &gpu)
{
    const char *reason = gpu.deadlocked() ? "simulator deadlock"
                                          : "cycle budget exhausted";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: simulation aborted at cycle %llu (%s)",
                  id.c_str(),
                  static_cast<unsigned long long>(gpu.now()),
                  reason);
    throw SimulationAborted(buf);
}

std::shared_ptr<Tracer>
makeTracer(const RunOptions &options)
{
    auto tracer = std::make_shared<Tracer>(options.traceCapacity);
    tracer->setMask(options.traceMask);
    return tracer;
}

/**
 * The simulate-and-collect path every workload family shares: a Gpu
 * set up from @p options (tracer, cycle budget, DRAM bandwidth
 * scale, interval sampler, host profiler), and finish(), which turns
 * the finished Gpu into a WorkloadResult. The families differ only
 * in what they build and launch on gpu in between.
 */
struct Simulation
{
    const RunOptions &options;
    /** Host phases of the whole run; finish() adds "analysis". */
    PhaseProfiler &phases;
    std::shared_ptr<Tracer> tracer;
    Gpu gpu;
    std::unique_ptr<IntervalSampler> sampler;
    std::unique_ptr<HostProfiler> profiler;

    Simulation(const RunOptions &run_options, PhaseProfiler &run_phases)
        : options(run_options), phases(run_phases),
          tracer(makeTracer(run_options)),
          gpu(options.config, options.timelineInterval, tracer.get())
    {
        gpu.setCycleBudget(options.maxCycles);
        if (options.dramBandwidthScale != 1.0) {
            gpu.memSystem().dram().setBandwidthScale(
                options.dramBandwidthScale);
        }
        if (options.intervalStats > 0) {
            sampler = std::make_unique<IntervalSampler>(
                options.intervalStats);
            registerGpu(sampler->registry(), gpu);
            gpu.setIntervalSampler(sampler.get());
        }
        if (options.selfProfile) {
            profiler = std::make_unique<HostProfiler>();
            gpu.setHostProfiler(profiler.get());
        }
    }

    /**
     * Collect the finished run as workload @p id. @p accel and
     * @p context are null for compute kernels; a context gets its
     * accelStats pointed at the result's. Throws SimulationAborted
     * when the run stopped early.
     */
    WorkloadResult
    finish(const std::string &id, const AccelStructure *accel,
           WorkloadContext *context)
    {
        if (gpu.aborted())
            throwAborted(id, gpu);
        WorkloadResult result;
        {
            PhaseProfiler::Scoped phase(phases, "analysis");
            result.id = id;
            result.stats = gpu.stats();
            result.profileSm = gpu.profile().smTotal();
            result.profileRt = gpu.profile().rtTotal();
            result.dram = gpu.memSystem().dram().stats();
            result.l1Rt = gpu.memSystem().l1Rt();
            result.l1Shader = gpu.memSystem().l1Shader();
            result.l2Rt = gpu.memSystem().l2Rt();
            result.l2Shader = gpu.memSystem().l2Shader();
            for (int k = 0; k < numDataKinds; k++) {
                result.kindReads[k] = gpu.memSystem().kindReads()[k];
                result.kindMisses[k] =
                    gpu.memSystem().kindMisses()[k];
            }
            if (accel)
                result.accelStats = accel->computeStats();
            if (context)
                context->accelStats = &result.accelStats;
            result.rtUnits = options.config.numSms *
                             options.config.rtUnitsPerSm;
            result.metrics = collectMetrics(gpu, context);
            result.metrics.workload = result.id;
            result.timeline = gpu.timeline().windows(result.rtUnits);
            result.analytical = evaluateHongKim(gpu);
            result.statsJson = dumpStats(
                gpu, accel ? &result.accelStats : nullptr,
                tracer.get());
            if (sampler)
                result.intervalSeries = sampler->series();
            if (profiler)
                result.hostProfile = profiler->profile();
        }
        if (options.traceMask != 0)
            result.trace = tracer;
        result.phases = phases.timings();
        return result;
    }
};

} // namespace

RunOptions
RunOptions::fromEnv()
{
    using envutil::readDouble;
    using envutil::readInt;
    RunOptions options;
    bool quick = readInt("LUMI_QUICK", 0, 0) != 0;
    const int default_res = quick ? 32 : 96;
    const int default_spp = quick ? 1 : 2;
    int res = readInt("LUMI_RES", default_res);
    options.params.width = res;
    options.params.height = res;
    options.params.samplesPerPixel = readInt("LUMI_SPP", default_spp);
    if (!samplesFitInt(options.params)) {
        std::fprintf(stderr,
                     "lumi: ignoring LUMI_RES=%d LUMI_SPP=%d (more "
                     "samples than an int holds); using %d and %d\n",
                     res, options.params.samplesPerPixel, default_res,
                     default_spp);
        options.params.width = default_res;
        options.params.height = default_res;
        options.params.samplesPerPixel = default_spp;
    }
    options.sceneDetail = static_cast<float>(
        readDouble("LUMI_DETAIL", quick ? 0.25 : 2.0, FLT_MAX));
    if (const char *trace = std::getenv("LUMI_TRACE");
        trace && *trace) {
        options.traceMask = parseTraceCategories(trace);
    }
    options.intervalStats = static_cast<uint64_t>(
        readInt("LUMI_INTERVAL_STATS", 0, 0));
    options.selfProfile = readInt("LUMI_SELF_PROFILE", 0, 0) != 0;
    return options;
}

bool
applyRunFlag(RunOptions &options, const std::string &flag,
             const std::string &value)
{
    if (flag == "--res" || flag == "--spp") {
        RenderParams params = options.params;
        int n = parseFlagNumber(flag, value, 1);
        if (flag == "--res")
            params.width = params.height = n;
        else
            params.samplesPerPixel = n;
        if (!samplesFitInt(params)) {
            std::fprintf(stderr,
                         "%s %s makes %dx%d pixels x %d spp, more "
                         "samples than an int holds\n",
                         flag.c_str(), value.c_str(), params.width,
                         params.height, params.samplesPerPixel);
            std::exit(2);
        }
        options.params = params;
        return true;
    }
    if (flag == "--detail") {
        // Into a float: positive, and not rounding to infinity.
        options.sceneDetail =
            static_cast<float>(parseFlagNumber<double>(
                flag, value, std::numeric_limits<float>::denorm_min(),
                FLT_MAX));
        return true;
    }
    if (flag == "--interval-stats") {
        options.intervalStats =
            static_cast<uint64_t>(parseFlagNumber(flag, value, 0LL));
        return true;
    }
    return false;
}

WorkloadResult
runWorkload(const Workload &workload, const RunOptions &options)
{
    PhaseProfiler phases;
    // RTQ query workloads use the compute-layer scene generators and
    // pipeline; everything downstream (stats, metrics, reports) is
    // identical.
    const bool query = isQueryShader(workload.shader);
    Scene scene = [&] {
        PhaseProfiler::Scoped phase(phases, "scene_build");
        return query ? rtq::buildRtqScene(workload.scene,
                                          options.sceneDetail)
                     : buildScene(workload.scene,
                                  options.sceneDetail);
    }();
    Simulation sim(options, phases);

    // The pipeline constructor builds the BLASes/TLAS and lays the
    // scene out in GPU memory; time it as the BVH-build phase.
    std::optional<RayTracingPipeline> pipeline;
    std::optional<rtq::RtqPipeline> rtqPipeline;
    {
        PhaseProfiler::Scoped phase(phases, "bvh_build");
        if (query)
            rtqPipeline.emplace(sim.gpu, scene, options.params);
        else
            pipeline.emplace(sim.gpu, scene, options.params);
    }
    {
        PhaseProfiler::Scoped phase(phases, "simulate");
        if (query)
            rtqPipeline->run(workload.shader);
        else
            pipeline->render(workload.shader);
    }

    WorkloadContext context;
    context.scene = &scene;
    context.shader = workload.shader;
    context.params = options.params;
    WorkloadResult result = sim.finish(
        workload.id(),
        query ? &rtqPipeline->accel() : &pipeline->accel(), &context);
    if (pipeline)
        result.framebuffer = pipeline->framebuffer();
    return result;
}

WorkloadResult
runCompute(ComputeKernel kernel, const RunOptions &options)
{
    PhaseProfiler phases;
    Simulation sim(options, phases);
    {
        PhaseProfiler::Scoped phase(phases, "simulate");
        ComputeParams params;
        params.scale = 1;
        runComputeKernel(sim.gpu, kernel, params);
    }
    return sim.finish(computeKernelName(kernel), nullptr, nullptr);
}

} // namespace lumi
