/**
 * @file
 * The SIMT core (streaming multiprocessor) timing model.
 *
 * Each SM holds up to maxWarpsPerSm resident warps and issues one
 * warp instruction per cycle using greedy-then-oldest (GTO)
 * scheduling (Table 4). A warp executes in order and becomes ready
 * again when its issued instruction completes: arithmetic after the
 * pipeline latency, memory when the data returns (stall-on-use), and
 * traceRay when the RT unit hands the warp back. Latency is hidden
 * across warps, not within one -- the standard throughput model.
 */

#ifndef LUMI_GPU_SIMT_CORE_HH
#define LUMI_GPU_SIMT_CORE_HH

#include <cstdint>
#include <vector>

#include "gpu/config.hh"
#include "gpu/mem_system.hh"
#include "gpu/rt_unit.hh"
#include "gpu/stats.hh"
#include "gpu/warp_instr.hh"

namespace lumi
{

class Tracer;

/** What the issue slot did in the last cycle() call. */
enum class IssueOutcome : uint8_t
{
    None,      ///< no warp was ready
    Issued,    ///< a new instruction issued
    MemReplay, ///< the LSU replayed rejected line segments
};

/** Why no warp could issue (profile bucket source). */
enum class SmStall : uint8_t
{
    MemPending,  ///< some waiting warp is stalled on memory
    RtWait,      ///< all blame goes to traceRay completion
    NoReadyWarp, ///< only pipeline latency left unhidden
    NoWarps,     ///< no resident warp at all
};

/** One streaming multiprocessor. */
class SimtCore
{
  public:
    SimtCore(int sm_id, const GpuConfig &config, MemSystem &mem,
             RtUnit &rt_unit, GpuStats &stats,
             Tracer *tracer = nullptr);

    /** True while any warp slot is occupied. */
    bool busy() const { return residentWarps_ > 0; }

    int residentWarps() const { return residentWarps_; }

    bool
    hasFreeSlot() const
    {
        return residentWarps_ < config_.maxWarpsPerSm;
    }

    /** Install a warp program into a free slot. */
    void assignWarp(WarpProgram &&program, uint32_t warp_id,
                    uint64_t now);

    /** Issue phase for cycle @p now. */
    void cycle(uint64_t now);

    /** Earliest future cycle at which this core can issue. */
    uint64_t nextEventCycle(uint64_t now) const;

    /** Called by the RT unit when a warp's traceRay completes. */
    void wakeWarp(int slot, uint64_t ready_cycle);

    /** What the issue slot did in the last cycle() call. */
    IssueOutcome lastOutcome() const { return outcome_; }

    /** True when the last cycle() issued a traceRay into the RT
     *  unit: the event loop must cycle that unit this iteration
     *  (the polling loop's rt phase followed the core phase, so a
     *  ray enqueued at cycle T always advanced at T). */
    bool rtEnqueuedThisCycle() const { return rtEnqueued_; }

    /** True if wakeWarp ran since the last call (and clears the
     *  flag): the event loop re-registers this core only when its
     *  RT unit actually handed a warp back, not on every RT-unit
     *  cycle. */
    bool
    consumeWoken()
    {
        bool woken = woken_;
        woken_ = false;
        return woken;
    }

    /**
     * Classify why nothing (more) can issue, from current warp
     * state. Blame order Mem > Rt > Exec: memory is the scarcest
     * resource, so any memory-waiting warp colors the cycle.
     */
    SmStall stallKind() const;

  private:
    /**
     * Scheduling state of a warp slot. The hot per-cycle scans
     * (scheduler pick, nextEventCycle, stallKind) read readyKey_ and
     * state_ instead of the cold WarpSlot structs, so the encoding
     * folds the old valid/sleeping/wait flags into one byte.
     */
    enum class SlotState : uint8_t
    {
        Invalid,  ///< no resident warp
        ExecWait, ///< pipeline latency or a store handshake
        MemWait,  ///< load data return or a rejected-segment replay
        RtWait,   ///< woken by the RT unit, not yet reissued
        Sleeping, ///< parked in the RT unit
    };

    /** Cold per-warp state (touched only when the warp issues). */
    struct WarpSlot
    {
        WarpProgram program;
        size_t pc = 0;
        uint16_t repeatLeft = 0;
        uint32_t warpId = 0;
        uint64_t assignCycle = 0; ///< residency span start (trace)
        uint32_t instrsIssued = 0;
        /** Coalesced line segments still waiting for the memory
         *  system to accept them (stack: issued from the back).
         *  Non-empty means the warp is held at its current access
         *  and replays instead of fetching a new instruction. */
        std::vector<uint64_t> memReplay;
        bool memIsStore = false;
        uint64_t memIssueCycle = 0; ///< first issue of the access
        uint64_t memReady = 0;      ///< slowest accepted segment
    };

    bool
    schedulable(int i, uint64_t now) const
    {
        // Invalid and sleeping slots carry UINT64_MAX, so one
        // compare covers valid && !sleeping && readyCycle <= now.
        return readyKey_[i] <= now;
    }

    /** Transition a slot's state, keeping the per-state counts that
     *  make stallKind O(1). All state_ writes go through here. */
    void
    setState(int i, SlotState next)
    {
        stateCount_[static_cast<int>(state_[i])]--;
        stateCount_[static_cast<int>(next)]++;
        state_[i] = next;
    }

    /** Execute the warp's next instruction; updates readyKey_. */
    void issue(int slot_index, uint64_t now);
    /**
     * Offer the warp's outstanding line segments to the memory
     * system; on rejection the warp keeps the rest and retries next
     * cycle, on completion it resumes at the slowest segment's
     * ready cycle (stall-on-use).
     */
    void replayMem(int slot_index, uint64_t now);
    void retire(int slot_index, uint64_t now);

    int smId_;
    const GpuConfig &config_;
    MemSystem &mem_;
    RtUnit &rtUnit_;
    GpuStats &stats_;
    Tracer *tracer_ = nullptr;

    std::vector<WarpSlot> slots_;
    /**
     * Ready cycle per slot, UINT64_MAX while the slot is invalid or
     * its warp sleeps in the RT unit (such a warp is never
     * schedulable and pins no future event).
     */
    std::vector<uint64_t> readyKey_;
    /** Launch order per slot for GTO aging. */
    std::vector<uint64_t> order_;
    /** Occupancy/wait classification per slot. */
    std::vector<SlotState> state_;
    /** Slots per SlotState (stallKind reads these, not the array). */
    int stateCount_[5] = {};
    /** traceRay issue cycle per slot, for latency attribution. */
    std::vector<uint64_t> sleepStart_;
    int residentWarps_ = 0;
    int lastIssued_ = -1;
    uint64_t launchCounter_ = 0;
    IssueOutcome outcome_ = IssueOutcome::None;
    bool rtEnqueued_ = false;
    bool woken_ = false;
};

} // namespace lumi

#endif // LUMI_GPU_SIMT_CORE_HH
