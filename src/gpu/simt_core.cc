#include "gpu/simt_core.hh"

#include <algorithm>

#include "check/check.hh"
#include "trace/trace.hh"

namespace lumi
{

SimtCore::SimtCore(int sm_id, const GpuConfig &config, MemSystem &mem,
                   RtUnit &rt_unit, GpuStats &stats,
                   OccupancyGauge &gauge, Tracer *tracer)
    : smId_(sm_id), config_(config), mem_(mem), rtUnit_(rt_unit),
      stats_(stats), gauge_(gauge), tracer_(tracer)
{
    slots_.resize(config.maxWarpsPerSm);
    readyKey_.resize(config.maxWarpsPerSm, UINT64_MAX);
    order_.resize(config.maxWarpsPerSm, 0);
    state_.resize(config.maxWarpsPerSm, SlotState::Invalid);
    stateCount_[static_cast<int>(SlotState::Invalid)] =
        config.maxWarpsPerSm;
}

void
SimtCore::assignWarp(WarpProgram &&program, uint32_t warp_id,
                     uint64_t now)
{
    for (size_t i = 0; i < slots_.size(); i++) {
        if (state_[i] != SlotState::Invalid)
            continue;
        WarpSlot &slot = slots_[i];
        slot.program = std::move(program);
        slot.pc = 0;
        slot.repeatLeft = 0;
        slot.warpId = warp_id;
        slot.assignCycle = now;
        slot.instrsIssued = 0;
        slot.memReplay.clear();
        readyKey_[i] = now;
        order_[i] = launchCounter_++;
        setState(static_cast<int>(i), SlotState::ExecWait);
        residentWarps_++;
        gauge_.residentWarps++;
        stats_.warpsLaunched++;
        changed_ = true;
        LUMI_CHECK(Simt, residentWarps_ <= config_.maxWarpsPerSm,
                   "sm%d over-subscribed: %d resident warps with "
                   "maxWarpsPerSm=%d",
                   smId_, residentWarps_, config_.maxWarpsPerSm);
        if (tracer_ && tracer_->wants(TraceCategory::Sm)) {
            tracer_->instant(TraceCategory::Sm, "warp_launch",
                             static_cast<uint32_t>(smId_), now,
                             "warp", warp_id);
        }
        // Degenerate empty programs retire immediately.
        if (slot.program.instrs.empty())
            retire(static_cast<int>(i), now);
        return;
    }
}

void
SimtCore::retire(int slot_index, uint64_t now)
{
    WarpSlot &slot = slots_[slot_index];
    if (tracer_ && tracer_->wants(TraceCategory::Sm)) {
        // One span covering the warp's whole SM residency.
        tracer_->span(TraceCategory::Sm, "warp",
                      static_cast<uint32_t>(smId_),
                      slot.assignCycle, now, "warp", slot.warpId,
                      "instrs", slot.instrsIssued);
    }
    LUMI_CHECK(Simt,
               state_[slot_index] != SlotState::Invalid &&
                   residentWarps_ > 0,
               "sm%d retired warp %u from an %s slot "
               "(residentWarps=%d)",
               smId_, slot.warpId,
               state_[slot_index] != SlotState::Invalid ? "occupied"
                                                        : "empty",
               residentWarps_);
    setState(slot_index, SlotState::Invalid);
    readyKey_[slot_index] = UINT64_MAX;
    slot.program.instrs.clear();
    residentWarps_--;
    gauge_.residentWarps--;
}

void
SimtCore::cycle(uint64_t now)
{
    outcome_ = IssueOutcome::None;
    outcomeCycle_ = now;
    changed_ = true;
    int pick = -1;
    size_t count = slots_.size();
    if (config_.scheduler == WarpSchedulerPolicy::Gto) {
        // Greedy-then-oldest: stick with the last warp while it is
        // ready; otherwise pick the oldest ready warp.
        if (lastIssued_ >= 0 && schedulable(lastIssued_, now))
            pick = lastIssued_;
        if (pick < 0) {
            uint64_t best_order = UINT64_MAX;
            for (size_t i = 0; i < count; i++) {
                if (readyKey_[i] <= now && order_[i] < best_order) {
                    best_order = order_[i];
                    pick = static_cast<int>(i);
                }
            }
        }
    } else {
        // Loose round-robin: scan from the slot after the last
        // issue and take the first ready warp.
        for (size_t k = 1; k <= count; k++) {
            size_t i = (static_cast<size_t>(lastIssued_ < 0
                                                ? 0
                                                : lastIssued_) +
                        k) % count;
            if (readyKey_[i] <= now) {
                pick = static_cast<int>(i);
                break;
            }
        }
    }
    if (pick < 0)
        return;
    // Scheduler legality: whatever the policy picked must actually
    // be issuable this cycle (an invalid or sleeping slot carries
    // readyKey UINT64_MAX, so one bound covers all three conditions).
    LUMI_CHECK(Sched, schedulable(pick, now),
               "sm%d scheduler picked slot %d (state=%d ready=%llu) "
               "at cycle %llu",
               smId_, pick, static_cast<int>(state_[pick]),
               static_cast<unsigned long long>(readyKey_[pick]),
               static_cast<unsigned long long>(now));
#if LUMI_CHECKS_ENABLED
    if (config_.scheduler == WarpSchedulerPolicy::Gto) {
        // Greedy rule: leaving the last-issued warp is only legal
        // when that warp cannot issue this cycle.
        if (lastIssued_ >= 0 && pick != lastIssued_) {
            LUMI_CHECK(Sched, !schedulable(lastIssued_, now),
                       "sm%d GTO abandoned ready warp in slot %d for "
                       "slot %d at cycle %llu",
                       smId_, lastIssued_, pick,
                       static_cast<unsigned long long>(now));
            // Oldest rule: the fallback pick must carry the minimal
            // launch order among all issuable warps.
            for (size_t i = 0; i < count; i++) {
                LUMI_CHECK(Sched,
                           readyKey_[i] > now ||
                               order_[pick] <= order_[i],
                           "sm%d GTO skipped older ready warp: slot "
                           "%zu order=%llu vs picked slot %d "
                           "order=%llu",
                           smId_, i,
                           static_cast<unsigned long long>(order_[i]),
                           pick,
                           static_cast<unsigned long long>(
                               order_[pick]));
            }
        }
    }
#endif
    lastIssued_ = pick;
    // A warp holding rejected line segments replays them instead of
    // fetching a new instruction (the LSU occupies the issue slot).
    if (!slots_[pick].memReplay.empty()) {
        outcome_ = IssueOutcome::MemReplay;
        replayMem(pick, now);
    } else {
        outcome_ = IssueOutcome::Issued;
        issue(pick, now);
    }
    stats_.issueCycles++;
}

SmStall
SimtCore::stallKind() const
{
    // O(1) via the per-state counts maintained in setState; same
    // blame order as the old slot scan (Mem > Rt > Exec).
    if (stateCount_[static_cast<int>(SlotState::MemWait)] > 0)
        return SmStall::MemPending;
    if (stateCount_[static_cast<int>(SlotState::RtWait)] +
            stateCount_[static_cast<int>(SlotState::Sleeping)] >
        0)
        return SmStall::RtWait;
    if (residentWarps_ > 0)
        return SmStall::NoReadyWarp;
    return SmStall::NoWarps;
}

void
SimtCore::replayMem(int slot_index, uint64_t now)
{
    WarpSlot &slot = slots_[slot_index];
    while (!slot.memReplay.empty()) {
        MemRequest req;
        req.sm = smId_;
        req.cycle = now;
        req.addr = slot.memReplay.back();
        req.bytes = config_.l1LineBytes;
        req.rt = false;
        MemIssue mem = slot.memIsStore ? mem_.issueWrite(req)
                                       : mem_.issueRead(req);
        if (!mem.accepted) {
            // Hold the remaining segments; the warp stays
            // schedulable and retries on its next issue slot.
            readyKey_[slot_index] = now + 1;
            setState(slot_index, SlotState::MemWait);
            return;
        }
        slot.memReplay.pop_back();
        if (!slot.memIsStore) {
            slot.memReady = std::max(slot.memReady, mem.readyCycle);
            stats_.coalescedSegments++;
        }
    }
    if (slot.memIsStore) {
        stats_.latencyByOp[static_cast<int>(WarpOp::MemStore)] += 1;
        readyKey_[slot_index] = now + 1;
        setState(slot_index, SlotState::ExecWait);
    } else {
        stats_.latencyByOp[static_cast<int>(WarpOp::MemLoad)] +=
            slot.memReady - slot.memIssueCycle;
        readyKey_[slot_index] = slot.memReady;
        setState(slot_index, SlotState::MemWait);
    }
    if (slot.pc >= slot.program.instrs.size() &&
        slot.repeatLeft == 0) {
        retire(slot_index, readyKey_[slot_index]);
    }
}

void
SimtCore::issue(int slot_index, uint64_t now)
{
    WarpSlot &slot = slots_[slot_index];
    LUMI_CHECK(Simt, slot.pc < slot.program.instrs.size(),
               "sm%d warp %u issued past program end: pc=%zu of %zu",
               smId_, slot.warpId, slot.pc,
               slot.program.instrs.size());
#if LUMI_CHECKS_ENABLED
    if (slot.pc >= slot.program.instrs.size())
        return; // count mode: survive the corrupted pc
#endif
    const WarpInstr &instr = slot.program.instrs[slot.pc];
    int lanes = instr.activeLanes();
    // The divergence-stack discipline in WarpContext never emits an
    // instruction with no active lanes.
    LUMI_CHECK(Simt, lanes > 0,
               "sm%d warp %u issued instruction %zu with empty "
               "active mask",
               smId_, slot.warpId, slot.pc);
    stats_.instructions++;
    stats_.threadInstructions += lanes;
    stats_.instrByOp[static_cast<int>(instr.op)]++;
    slot.instrsIssued++;

    switch (instr.op) {
      case WarpOp::Alu:
      case WarpOp::Sfu: {
        int latency = instr.op == WarpOp::Alu ? config_.aluLatency
                                              : config_.sfuLatency;
        stats_.latencyByOp[static_cast<int>(instr.op)] += latency;
        readyKey_[slot_index] = now + latency;
        setState(slot_index, SlotState::ExecWait);
        if (slot.repeatLeft == 0)
            slot.repeatLeft = instr.repeat;
        slot.repeatLeft--;
        if (slot.repeatLeft == 0)
            slot.pc++;
        break;
      }
      case WarpOp::MemLoad:
      case WarpOp::MemStore: {
        stats_.memInstructions++;
        // Coalesce per-lane addresses into unique cache-line
        // segments and offer them to the memory system; a load warp
        // resumes when the slowest accepted segment returns
        // (stall-on-use), a store is fire-and-forget once accepted.
        uint64_t line_bytes = config_.l1LineBytes;
        uint64_t prev_lines[2] = {UINT64_MAX, UINT64_MAX};
        slot.memReplay.clear();
        for (uint64_t addr : instr.addrs) {
            uint64_t first = addr / line_bytes;
            uint64_t last = (addr + instr.bytesPerLane - 1) /
                            line_bytes;
            for (uint64_t line = first; line <= last; line++) {
                if (line == prev_lines[0] || line == prev_lines[1])
                    continue;
                prev_lines[1] = prev_lines[0];
                prev_lines[0] = line;
                slot.memReplay.push_back(line * line_bytes);
            }
        }
        // Segments issue from the back of the list; reverse so the
        // memory system sees them in coalescing order.
        std::reverse(slot.memReplay.begin(), slot.memReplay.end());
        slot.memIsStore = instr.op == WarpOp::MemStore;
        slot.memIssueCycle = now;
        slot.memReady = now + config_.l1Latency;
        slot.pc++;
        replayMem(slot_index, now);
        return; // replayMem retires the warp when appropriate
      }
      case WarpOp::TraceRay: {
        setState(slot_index, SlotState::Sleeping);
        readyKey_[slot_index] = UINT64_MAX;
        slot.pc++;
        // Remember issue time to attribute the latency at wake-up.
        sleepStart_.resize(slots_.size(), 0);
        sleepStart_[slot_index] = now;
        rtUnit_.enqueue(this, slot_index, slot.warpId, &instr, now);
        break;
      }
    }

    if (state_[slot_index] != SlotState::Sleeping &&
        slot.pc >= slot.program.instrs.size() &&
        slot.repeatLeft == 0) {
        retire(slot_index, readyKey_[slot_index]);
    }
}

void
SimtCore::wakeWarp(int slot, uint64_t ready_cycle)
{
    LUMI_CHECK(Sched,
               slot >= 0 && slot < static_cast<int>(slots_.size()),
               "sm%d wake of out-of-range slot %d", smId_, slot);
#if LUMI_CHECKS_ENABLED
    if (slot < 0 || slot >= static_cast<int>(slots_.size()))
        return; // count mode: survive the bad slot index
#endif
    WarpSlot &warp = slots_[slot];
    // Only a warp parked in the RT unit can be woken, and never
    // before the cycle it went to sleep.
    LUMI_CHECK(Sched, state_[slot] == SlotState::Sleeping,
               "sm%d wake of slot %d that is %s", smId_, slot,
               state_[slot] != SlotState::Invalid ? "not sleeping"
                                                  : "empty");
    LUMI_CHECK(Sched,
               slot >= static_cast<int>(sleepStart_.size()) ||
                   ready_cycle >= sleepStart_[slot],
               "sm%d slot %d wakes at %llu before its traceRay "
               "issued at %llu",
               smId_, slot,
               static_cast<unsigned long long>(ready_cycle),
               static_cast<unsigned long long>(sleepStart_[slot]));
    setState(slot, SlotState::RtWait);
    readyKey_[slot] = ready_cycle;
    changed_ = true;
    if (slot < static_cast<int>(sleepStart_.size())) {
        stats_.latencyByOp[static_cast<int>(WarpOp::TraceRay)] +=
            ready_cycle - sleepStart_[slot];
    }
    if (warp.pc >= warp.program.instrs.size())
        retire(slot, ready_cycle);
}

uint64_t
SimtCore::nextEventCycle(uint64_t now) const
{
    // The answer is max(min key, now + 1), so the first key at or
    // below now + 1 settles it. The last-issued warp goes first: in
    // an MSHR storm it is the one replaying every cycle. Invalid and
    // sleeping slots hold UINT64_MAX, which saturates through the
    // clamp.
    const uint64_t soonest = now + 1;
    if (lastIssued_ >= 0 && readyKey_[lastIssued_] <= soonest)
        return soonest;
    uint64_t next = UINT64_MAX;
    for (uint64_t key : readyKey_) {
        if (key <= soonest)
            return soonest;
        next = std::min(next, key);
    }
    return next;
}

} // namespace lumi
