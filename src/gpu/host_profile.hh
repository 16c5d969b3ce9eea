/**
 * @file
 * Host-side self-profiling for the simulator: wall-time attribution
 * per component of the Gpu::run cycle loop (SIMT cores, RT units,
 * memory-system events, warp-slot filling, observability overhead).
 *
 * This is the *sanctioned* wall-clock user inside src/gpu: lint.py's
 * gpu-chrono rule forbids std::chrono anywhere else in the timing
 * model, because wall time must never influence simulated cycles.
 * The profiler upholds that by construction — it only reads clocks
 * and accumulates host nanoseconds; it has no path back into
 * simulator state, so enabling it cannot change a single simulated
 * cycle (only the wall-clock cost of the run).
 *
 * Overhead control: timing every loop iteration would double-digit-
 * percent the simulation, so the profiler samples — one iteration in
 * every `stride` is fully timed (a clock read per component mark),
 * the rest only bump an iteration counter. Reported seconds are the
 * sampled sums extrapolated by totalIterations/sampledIterations.
 * The cycle loop's per-iteration work distribution is stationary at
 * the stride scale, so the extrapolation is unbiased; shares (which
 * divide out the extrapolation) are exact over the sampled set.
 */

#ifndef LUMI_GPU_HOST_PROFILE_HH
#define LUMI_GPU_HOST_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace lumi
{

/** One extrapolated component line of a finished profile. */
struct HostProfileComponent
{
    std::string name;
    /** Extrapolated wall seconds attributed to the component. */
    double seconds = 0.0;
    /** Fraction of the profiled loop time (sums to ~1). */
    double share = 0.0;

    /** Run-report field list: @p visit(key, field). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&visit)
    {
        visit("name", self.name);
        visit("seconds", self.seconds);
        visit("share", self.share);
    }
};

/** Finished self-profile of one simulation's cycle loop. */
struct HostProfile
{
    uint64_t totalIterations = 0;
    uint64_t sampledIterations = 0;
    /** Extrapolated loop seconds (sum of the components). */
    double loopSeconds = 0.0;
    std::vector<HostProfileComponent> components;

    bool empty() const { return sampledIterations == 0; }

    /** Run-report field list: @p visit(key, field). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&visit)
    {
        visit("total_iterations", self.totalIterations);
        visit("sampled_iterations", self.sampledIterations);
        visit("loop_seconds", self.loopSeconds);
        visit("components", self.components);
    }
};

/** Sampled per-component wall-clock attribution for Gpu::run. */
class HostProfiler
{
  public:
    /** Components of one cycle-loop iteration, in mark order. */
    enum Component
    {
        SimtCores, ///< SimtCore::cycle over all SMs
        RtUnits,   ///< RtUnit::cycle over all units
        FillSlots, ///< warp-slot refill (launch functional exec)
        MemEvents, ///< next-event scan + memory-system events
        Observe,   ///< stat accumulation, timeline, interval sampler
        NumComponents,
    };

    static const char *componentName(int component);

    /** @param stride time 1 of every @p stride iterations (min 1). */
    explicit HostProfiler(uint64_t stride = 64);

    /**
     * Start one loop iteration; true when this iteration is sampled
     * and the caller should mark() component boundaries.
     */
    bool
    beginIteration()
    {
        total_++;
        if (total_ % stride_ != 0)
            return false;
        sampled_++;
        last_ = nowNs();
        return true;
    }

    /** Attribute the time since the previous mark to @p component. */
    void
    mark(Component component)
    {
        uint64_t now = nowNs();
        ns_[component] += now - last_;
        last_ = now;
    }

    /** Extrapolated profile over everything seen so far. */
    HostProfile profile() const;

  private:
    /** Monotonic host nanoseconds (the one sanctioned clock read). */
    static uint64_t nowNs();

    uint64_t stride_;
    uint64_t total_ = 0;
    uint64_t sampled_ = 0;
    uint64_t last_ = 0;
    uint64_t ns_[NumComponents] = {};
};

} // namespace lumi

#endif // LUMI_GPU_HOST_PROFILE_HH
