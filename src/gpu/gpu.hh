/**
 * @file
 * The top-level GPU simulator: SIMT cores, RT units, the memory
 * hierarchy and the cycle loop that ties them together.
 *
 * The cycle loop is event-accelerated: when no component can act at
 * the current cycle, time jumps to the earliest pending event, with
 * residency/occupancy statistics accumulated over the skipped span
 * (state is constant while nothing fires, so the weighting is exact).
 */

#ifndef LUMI_GPU_GPU_HH
#define LUMI_GPU_GPU_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpu/address_space.hh"
#include "gpu/config.hh"
#include "gpu/event_queue.hh"
#include "gpu/mem_system.hh"
#include "gpu/profile.hh"
#include "gpu/rt_unit.hh"
#include "gpu/simt_core.hh"
#include "gpu/stats.hh"
#include "gpu/timeline.hh"
#include "gpu/warp_context.hh"

namespace lumi
{

class HostProfiler;
class IntervalSampler;
class Tracer;

/** One kernel grid to execute. */
struct KernelLaunch
{
    std::string name = "kernel";
    /** Total warps in the grid. */
    uint32_t warpCount = 0;
    /** Active lanes in the final warp (tail handling). */
    int lanesInLastWarp = 32;
    /** Scene layout for ray tracing kernels; null for compute. */
    const SceneGpuLayout *layout = nullptr;
    /**
     * The warp program: runs functionally at warp launch and leaves
     * the instruction trace behind. The warp id is ctx.warpId().
     */
    std::function<void(WarpContext &ctx)> program;
};

/** Per-kernel-launch statistics deltas (analytical modeling). */
struct LaunchSample
{
    uint64_t cycles = 0;
    uint64_t warps = 0;
    uint64_t instrByOp[numWarpOps] = {};
    uint64_t threadInstructions = 0;
    uint64_t memInstructions = 0;
    uint64_t coalescedSegments = 0;
    uint64_t l1Reads = 0;
    uint64_t l1Misses = 0;
    double dramAvgLatency = 0.0;
};

/** The simulated GPU. */
class Gpu
{
  public:
    /**
     * @param tracer optional structured event tracer; the GPU only
     *        observes into it (simulated timing is unaffected) and
     *        does not take ownership. Null disables tracing.
     */
    explicit Gpu(const GpuConfig &config,
                 uint64_t timeline_interval = 10000,
                 Tracer *tracer = nullptr);

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    const GpuConfig &config() const { return config_; }
    AddressSpace &addressSpace() { return space_; }
    MemSystem &memSystem() { return *mem_; }
    const MemSystem &memSystem() const { return *mem_; }
    GpuStats &stats() { return stats_; }
    const GpuStats &stats() const { return stats_; }
    const Timeline &timeline() const { return timeline_; }
    Tracer *tracer() const { return tracer_; }

    /**
     * The top-down cycle account (gpu/profile.hh):
     * Sigma(sm buckets) == Sigma(rt buckets) == now() per unit, checked
     * at the end of every run().
     */
    const CycleProfile &profile() const { return profile_; }

    /**
     * Execute @p launch to completion. Statistics accumulate across
     * runs; the clock keeps advancing (back-to-back kernels).
     */
    void run(const KernelLaunch &launch);

    /**
     * Soft cycle budget: run() stops (and aborted() turns true) once
     * the clock reaches @p max_cycles. 0 disables the budget. The
     * budget is absolute, so it spans back-to-back launches of one
     * job. A budget that never fires cannot perturb simulated
     * timing: the check only compares the clock.
     */
    void setCycleBudget(uint64_t max_cycles)
    {
        cycleBudget_ = max_cycles;
    }

    /**
     * Attach an interval sampler (owned by the caller): run() calls
     * maybeSample() whenever the clock crosses a sampling grid point
     * and sampleFinal() at launch end. The sampler only *reads*
     * registered counters, so attaching one cannot change simulated
     * cycle counts or stats (observer-effect-zero; CI compares the
     * bytes). Null detaches.
     */
    void setIntervalSampler(IntervalSampler *sampler)
    {
        sampler_ = sampler;
    }

    /**
     * Attach a host self-profiler (owned by the caller): run()
     * attributes wall time to loop components on sampled iterations.
     * Pure observer — simulated timing is unaffected. Null detaches.
     */
    void setHostProfiler(HostProfiler *profiler)
    {
        profiler_ = profiler;
    }

    /** True once a run stopped early on the budget or a deadlock. */
    bool aborted() const { return aborted_; }

    /**
     * True when a run stopped because the simulator deadlocked: some
     * component was busy with no future event to wake it (a model
     * bug, e.g. a warp sleeping with nobody left to wake it). Also
     * sets aborted(), so runners surface it as SimulationAborted
     * instead of killing the whole campaign worker process.
     */
    bool deadlocked() const { return deadlocked_; }

    /** Current simulated cycle. */
    uint64_t now() const { return now_; }

    /** One statistics delta per completed run() call. */
    const std::vector<LaunchSample> &launchSamples() const
    {
        return launchSamples_;
    }

  private:
    void fillSlots(const KernelLaunch &launch, uint32_t &next_warp);
    TimelineSample snapshot() const;

    /** One busy scan, shared by the loop-top break test and the
     *  no-event (deadlock vs completed-in-cycle) branch. */
    bool anyBusy(uint32_t next_warp,
                 const KernelLaunch &launch) const;
    /**
     * Close the landing span [now_, next): top-down SM cycle
     * accounting, residency statistics weighted from the running
     * occupancy totals, then the landing bookkeeping (clock,
     * timeline, interval sampler). RT units charge their own
     * profile lazily; this settles them only when a sample is due.
     */
    void accountSpan(uint64_t next);
    /** Charge every RT unit's profile up to now_ (RtUnit::
     *  settleProfile), so profile.* reads complete. */
    void settleRtProfile();
    /** Diagnose a busy-but-eventless state and mark the run
     *  deadlocked/aborted (reported as SimulationAborted upstream). */
    void reportDeadlock();
    /** Event-driven cycle loop: pops due components off queue_. */
    void runEventLoop(const KernelLaunch &launch,
                      uint32_t &next_warp);

    GpuConfig config_;
    AddressSpace space_;
    Tracer *tracer_ = nullptr;
    std::unique_ptr<MemSystem> mem_;
    GpuStats stats_;
    /** Running occupancy totals, kept by the cores and RT units. */
    OccupancyGauge gauge_;
    Timeline timeline_;
    std::vector<std::unique_ptr<RtUnit>> rtUnits_;
    std::vector<std::unique_ptr<SimtCore>> cores_;
    CycleProfile profile_;
    /** Per-SM: ever held a warp this kernel (drain vs empty). */
    std::vector<uint8_t> smHadWork_;
    /** Per-SM drain cycles of the current kernel, reclassified to
     *  sync when another kernel follows (implicit barrier). */
    std::vector<uint64_t> drainTail_;
    std::vector<LaunchSample> launchSamples_;
    /** Component next-event registrations: cores are components
     *  [0, numSms), RT units [numSms, 2*numSms), the memory system
     *  2*numSms. */
    EventQueue queue_;
    /** Due components at the current landing (popDue scratch). */
    std::vector<int> due_;
    /** Per-SM: the RT unit was due at the current landing. */
    std::vector<uint8_t> rtDue_;
#if LUMI_CHECKS_ENABLED
    /** Per component: the landing of its last registration, from
     *  which the pop-time check re-derives its key. */
    std::vector<uint64_t> registeredAt_;
#endif
    uint64_t now_ = 0;
    uint64_t cycleBudget_ = 0;
    IntervalSampler *sampler_ = nullptr;
    HostProfiler *profiler_ = nullptr;
    bool aborted_ = false;
    bool deadlocked_ = false;
};

} // namespace lumi

#endif // LUMI_GPU_GPU_HH
