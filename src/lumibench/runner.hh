/**
 * @file
 * One-call workload execution: build the scene, simulate a frame,
 * and collect everything the tables and figures need.
 */

#ifndef LUMI_LUMIBENCH_RUNNER_HH
#define LUMI_LUMIBENCH_RUNNER_HH

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analytical.hh"
#include "bvh/accel.hh"
#include "compute/rodinia.hh"
#include "gpu/gpu.hh"
#include "gpu/host_profile.hh"
#include "lumibench/workload.hh"
#include "math/vec.hh"
#include "metrics/metrics.hh"
#include "trace/interval.hh"
#include "trace/phase.hh"
#include "trace/trace.hh"

namespace lumi
{

namespace envutil
{

/**
 * Strict env-int parse shared by RunOptions::fromEnv and the
 * campaign engine: the whole value must be a number and at least
 * @p min, otherwise warn on stderr and use @p fallback. An unset or
 * empty variable silently falls back (not an error).
 */
int readInt(const char *name, int fallback, int min = 1);

/**
 * Strict env-double parse: the whole value must be a finite number
 * in (0, @p max], otherwise warn on stderr and use @p fallback.
 */
double readDouble(const char *name, double fallback,
                  double max = std::numeric_limits<double>::max());

} // namespace envutil

/**
 * Strict parse of @p text, the value of CLI flag @p flag, as a T
 * (int, long long or double): the whole text must be a base-10
 * integer, or for double a finite number, in [@p min, @p max].
 * Anything else, a value out of T's range included, prints a message
 * naming @p flag and exits 2. Every numeric lumibench flag goes
 * through it; envutil shares its parse.
 */
template <typename T>
T parseFlagNumber(const std::string &flag, const std::string &text,
                  T min, T max = std::numeric_limits<T>::max());

/** Execution options shared by all benches. */
struct RunOptions
{
    GpuConfig config = GpuConfig::mobile();
    RenderParams params;
    /** Scene tessellation scale (Sec. 4.3 scaling). */
    float sceneDetail = 1.0f;
    uint64_t timelineInterval = 5000;
    /** Optional DRAM bandwidth scale (Sec. 5.3.2 experiment). */
    double dramBandwidthScale = 1.0;
    /**
     * TraceCategory bitmask for the structured event tracer; 0 (the
     * default) disables tracing entirely and the result carries no
     * trace. Tracing never changes simulated cycle counts.
     */
    uint32_t traceMask = 0;
    /** Events retained per trace category (ring-buffer size). */
    size_t traceCapacity = 1 << 14;
    /**
     * Sampling period, in simulated cycles, for the interval-stats
     * time series (counter snapshots from the Gpu::run loop); 0 (the
     * default) disables sampling. Any period produces byte-identical
     * simulated cycle counts and stats versus 0 — sampling is a pure
     * observer.
     */
    uint64_t intervalStats = 0;
    /**
     * Host-side self-profiling: attribute wall time to cycle-loop
     * components (SIMT, RT, memory events, observability) via
     * sampled timers. Pure observer of simulated timing; costs a few
     * percent of wall time. Profiled runs bypass the result cache so
     * the numbers are always measured, never replayed.
     */
    bool selfProfile = false;
    /**
     * Soft simulated-cycle budget per run; 0 = unlimited. When the
     * clock reaches it, runWorkload/runCompute throw
     * SimulationAborted instead of returning a partial result. The
     * only budget a campaign job has.
     */
    uint64_t maxCycles = 0;

    /**
     * Bench defaults honoring the environment: LUMI_RES (image edge,
     * default 64), LUMI_SPP, LUMI_DETAIL, LUMI_QUICK=1 for smoke
     * runs (32x32, low detail), and LUMI_TRACE (category list, e.g.
     * "sm,rt" or "all") for the event tracer, plus
     * LUMI_INTERVAL_STATS (sampling period, cycles) and
     * LUMI_SELF_PROFILE=1. Malformed values fall back to the
     * defaults with a warning on stderr.
     */
    static RunOptions fromEnv();
};

/**
 * Apply one CLI observability flag to @p options: --res, --spp,
 * --detail, --interval-stats. Returns false when @p flag is not one
 * of these (the caller keeps parsing). A malformed @p value, or a
 * --res/--spp that makes width x height x spp overflow an int,
 * exits 2.
 *
 * Precedence contract: fromEnv() reads the LUMI_* environment first,
 * then the CLI applies explicit flags on top through this helper —
 * so a CLI flag always wins over its environment variable
 * (tests/test_query.cc pins the order).
 */
bool applyRunFlag(RunOptions &options, const std::string &flag,
                  const std::string &value);

/**
 * Thrown by runWorkload/runCompute when a simulation stops early on
 * the RunOptions::maxCycles budget or a simulator deadlock. The
 * campaign engine maps this to per-job `timeout` status; a partial
 * simulation never masquerades as a finished result.
 */
class SimulationAborted : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Everything collected from one workload simulation. */
struct WorkloadResult
{
    std::string id;
    GpuStats stats;
    DramStats dram;
    RequesterStats l1Rt;
    RequesterStats l1Shader;
    RequesterStats l2Rt;
    RequesterStats l2Shader;
    uint64_t kindReads[numDataKinds] = {};
    uint64_t kindMisses[numDataKinds] = {};
    /** Aggregate top-down cycle account (gpu/profile.hh). */
    SmCycleBuckets profileSm;
    RtCycleBuckets profileRt;
    AccelStats accelStats;
    MetricVector metrics;
    std::vector<TimelineWindow> timeline;
    AnalyticalModel analytical;
    int rtUnits = 8;
    /** Stat-registry dump (one flat JSON object, names sorted). */
    std::string statsJson;
    /**
     * Counter time series sampled every RunOptions::intervalStats
     * cycles; empty when sampling was disabled.
     */
    IntervalSeries intervalSeries;
    /** Host self-profile; empty unless RunOptions::selfProfile. */
    HostProfile hostProfile;
    /** Wall-clock host phases (scene_build, simulate, ...). */
    std::vector<PhaseTiming> phases;
    /** Event trace; non-null only when RunOptions::traceMask != 0. */
    std::shared_ptr<Tracer> trace;
    /**
     * The rendered image of a graphics workload (row-major,
     * RunOptions::params width x height); empty for query and compute
     * workloads. Never serialized into reports or cache entries.
     */
    std::vector<Vec3> framebuffer;

    double
    ipcThread() const
    {
        return stats.cycles > 0
                   ? static_cast<double>(stats.threadInstructions) /
                         stats.cycles
                   : 0.0;
    }
};

/** Simulate one ray tracing workload. */
WorkloadResult runWorkload(const Workload &workload,
                           const RunOptions &options);

/** Simulate one compute (Rodinia-equivalent) workload. */
WorkloadResult runCompute(ComputeKernel kernel,
                          const RunOptions &options);

} // namespace lumi

#endif // LUMI_LUMIBENCH_RUNNER_HH
