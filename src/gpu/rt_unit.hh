/**
 * @file
 * The per-SM ray tracing unit.
 *
 * A warp that issues traceRay moves into the RT unit (up to
 * rtMaxWarps resident warps, Table 4). Each of its rays runs an
 * independent TraversalStateMachine; every traversal step fetches
 * node/primitive data through the SM's L1 (tagged as an RT request)
 * and then pays the configured box/triangle intersection latencies.
 * A warp leaves only when its *last* ray finishes -- the straggler
 * effect behind the low RT-unit efficiency of PT workloads (Fig. 9).
 */

#ifndef LUMI_GPU_RT_UNIT_HH
#define LUMI_GPU_RT_UNIT_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "bvh/traversal.hh"
#include "gpu/config.hh"
#include "gpu/mem_system.hh"
#include "gpu/profile.hh"
#include "gpu/scene_layout.hh"
#include "gpu/stats.hh"
#include "gpu/warp_instr.hh"

namespace lumi
{

class SimtCore;
class Tracer;

/** One hardware RT unit attached to an SM. */
class RtUnit
{
  public:
    /**
     * @param gauge receives this unit's residency changes.
     * @param profile receives this unit's top-down cycle account.
     */
    RtUnit(int sm_id, const GpuConfig &config, MemSystem &mem,
           GpuStats &stats, OccupancyGauge &gauge,
           CycleProfile &profile, Tracer *tracer = nullptr);

    /** Scene layout for the running kernel (null = compute only). */
    void setLayout(const SceneGpuLayout *layout);

    /**
     * Hand a warp's traceRay to the RT unit. The warp sleeps until
     * the unit calls SimtCore::wakeWarp.
     */
    void enqueue(SimtCore *core, int warp_slot, uint32_t warp_id,
                 const WarpInstr *instr, uint64_t now);

    /** Advance ray work scheduled at or before @p now. */
    void cycle(uint64_t now);

    /** Earliest cycle at which this unit has work to do. */
    uint64_t nextEventCycle(uint64_t now) const;

    /** True if enqueue or cycle ran since the last consumeChanged()
     *  (which clears it): only then can nextEventCycle have moved. */
    bool changed() const { return changed_; }
    bool consumeChanged() { return std::exchange(changed_, false); }

    /** Warps currently resident (for occupancy accounting). */
    int activeWarps() const { return residentWarps_; }

    /** In-flight (unfinished) rays across resident warps. */
    int activeRays() const { return activeRays_; }

    /** Add this unit's occupancy, recounted from its warp arena,
     *  into @p out (the launch-end check of the running totals). */
    void countOccupancy(OccupancyGauge &out) const;

    bool
    idle() const
    {
        return residentWarps_ == 0 && pendingHead_ == pending_.size() &&
               writebackHead_ == writebacks_.size();
    }

    /**
     * Charge the cycles since the last charge, up to @p now, into
     * the profile (top-down cycle accounting). The unit charges
     * itself lazily: cycle() and enqueue() settle first, right
     * before its state can change, so every charged span saw one
     * constant state. Gpu settles every unit before an interval
     * capture and at launch end; anyone else reading profile.*
     * mid-run must settle first. Pure observer.
     */
    void
    settleProfile(uint64_t now)
    {
        if (now > profiledTo_) {
            profileSpan(profiledTo_, now);
            profiledTo_ = now;
        }
    }

  private:
    /**
     * Attribute cycles [begin, end) of this unit, with its current
     * state, into profile_. The head event's fetch/box/primitive
     * windows partition the span exactly, so the buckets conserve
     * cycles by construction, and every term is additive over
     * adjacent spans -- which is what lets settleProfile charge a
     * run of landings in one call.
     */
    void profileSpan(uint64_t begin, uint64_t end) const;

    struct RayState
    {
        std::unique_ptr<TraversalStateMachine> machine;
        int lane = 0;
        bool done = false;
        /** True when the memory system rejected the fetch for
         *  pendingFetch: replay it instead of advancing again. */
        bool replaying = false;
        TraversalEvent pendingFetch;
        /** Accounting windows of this ray's in-flight event (a ray
         *  has at most one event scheduled at a time, so they live
         *  here instead of fattening every heap entry). Fetch data
         *  returns at winMemReady, box tests span [winMemReady,
         *  winBoxEnd), primitive tests [winBoxEnd, ready). */
        uint64_t winMemReady = 0;
        uint64_t winBoxEnd = 0;
        /** 0 none, 1 triangle, 2 procedural. */
        uint8_t winPrimKind = 0;
    };

    /** A hit-record store the memory system has not yet accepted. */
    struct Writeback
    {
        uint64_t addr = 0;
        uint32_t bytes = 0;
    };

    struct RtWarp
    {
        SimtCore *core = nullptr;
        int warpSlot = 0;
        uint32_t warpId = 0;
        int rayKind = 0;
        uint64_t admitCycle = 0;
        /** Node/primitive fetches issued by this warp (trace arg). */
        uint64_t nodeFetches = 0;
        std::vector<RayState> rays;
        int remaining = 0;
        /** Slot occupancy; inactive slots are reused arena storage
         *  (the rays vector keeps its capacity across residencies). */
        bool active = false;
    };

    struct PendingWarp
    {
        SimtCore *core;
        int warpSlot;
        uint32_t warpId;
        const WarpInstr *instr;
    };

    /**
     * (readyCycle, warpIndex, rayIndex) min-heap entry, packed into
     * one word: the hot retry path under finite-resource configs
     * pushes and pops one of these per rejected fetch per cycle, so
     * heap sift traffic is proportional to the entry size. The
     * accounting windows live in RayState (one in-flight event per
     * ray). Ordering compares the ready field alone -- the slot
     * payload sits below the shift and cannot perturb the heap's
     * same-cycle tie order, which is timing-visible.
     */
    struct Event
    {
        /** ready << 24 | warpIndex << 12 | rayIndex. */
        uint64_t key;

        static constexpr uint32_t slotBits = 12;
        static constexpr uint32_t slotMask = (1u << slotBits) - 1;

        static Event
        make(uint64_t ready, uint32_t warp, uint32_t ray)
        {
            return {ready << (2 * slotBits) |
                    static_cast<uint64_t>(warp) << slotBits | ray};
        }
        uint64_t ready() const { return key >> (2 * slotBits); }
        uint32_t
        warpIndex() const
        {
            return (key >> slotBits) & slotMask;
        }
        uint32_t rayIndex() const { return key & slotMask; }
        bool
        operator>(const Event &o) const
        {
            return (key >> (2 * slotBits)) > (o.key >> (2 * slotBits));
        }
    };

    void admit(const PendingWarp &pending, uint64_t now);
    void advanceRay(uint32_t warp_index, uint32_t ray_index,
                    uint64_t now);
    void completeWarp(uint32_t warp_index, uint64_t now);
    /** Issue queued hit-record stores until one is rejected. */
    void flushWritebacks(uint64_t now);

    int smId_;
    const GpuConfig &config_;
    MemSystem &mem_;
    GpuStats &stats_;
    OccupancyGauge &gauge_;
    CycleProfile &profile_;
    Tracer *tracer_ = nullptr;
    const SceneGpuLayout *layout_ = nullptr;

    /** FIFO as vector + head cursor: the queues drain fully before
     *  compaction, so no per-element deque churn on the cycle path. */
    std::vector<PendingWarp> pending_;
    size_t pendingHead_ = 0;
    std::vector<Writeback> writebacks_;
    size_t writebackHead_ = 0;
    /** Dense warp arena; inactive slots are reused lowest-index
     *  first (event tie-break order depends on slot indices, so the
     *  reuse policy is timing-visible and must not change). */
    std::vector<RtWarp> warps_;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    /** Precomputed traversal-stack bounds for the invariant checks
     *  in advanceRay (invariant per scene layout; recomputing the
     *  largest-BLAS scan 100M+ times dominated the hot path). */
    size_t checkTlasNodes_ = 0;
    size_t checkMaxBlasNodes_ = 0;
    int activeRays_ = 0;
    int residentWarps_ = 0;
    /** Cycle up to which profile_ holds this unit's account. */
    uint64_t profiledTo_ = 0;
    bool changed_ = false;
};

} // namespace lumi

#endif // LUMI_GPU_RT_UNIT_HH
