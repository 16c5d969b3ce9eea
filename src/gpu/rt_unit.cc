#include "gpu/rt_unit.hh"

#include <algorithm>
#include <cstdio>

#include "check/check.hh"
#include "gpu/simt_core.hh"
#include "trace/trace.hh"

namespace lumi
{

RtUnit::RtUnit(int sm_id, const GpuConfig &config, MemSystem &mem,
               GpuStats &stats, Tracer *tracer)
    : smId_(sm_id), config_(config), mem_(mem), stats_(stats),
      tracer_(tracer)
{
    // Every resident ray has exactly one event in flight, so the
    // heap can never outgrow the residency bound; reserving up
    // front keeps the cycle path allocation-free.
    std::vector<Event> storage;
    storage.reserve(static_cast<size_t>(
                        std::max(config.rtMaxWarps, 1)) * 32 + 1);
    events_ = decltype(events_)(std::greater<Event>(),
                                std::move(storage));
}

void
RtUnit::setLayout(const SceneGpuLayout *layout)
{
    layout_ = layout;
    checkTlasNodes_ = 0;
    checkMaxBlasNodes_ = 0;
    if (layout_ && layout_->accel) {
        const AccelStructure &accel = *layout_->accel;
        checkTlasNodes_ = accel.tlas().bvh.nodes.size();
        for (const BlasAccel &blas : accel.blases()) {
            checkMaxBlasNodes_ = std::max(checkMaxBlasNodes_,
                                          blas.bvh.nodes.size());
        }
    }
}

void
RtUnit::enqueue(SimtCore *core, int warp_slot, uint32_t warp_id,
                const WarpInstr *instr, uint64_t now)
{
    LUMI_CHECK(Rt, instr && instr->op == WarpOp::TraceRay,
               "sm%d RT unit handed a non-traceRay instruction for "
               "warp %u",
               smId_, warp_id);
    LUMI_CHECK(Rt, layout_ && layout_->accel,
               "sm%d RT unit has no scene layout for warp %u", smId_,
               warp_id);
    PendingWarp pending{core, warp_slot, warp_id, instr};
    if (residentWarps_ < config_.rtMaxWarps &&
        pendingHead_ == pending_.size()) {
        admit(pending, now);
    } else {
        pending_.push_back(pending);
    }
}

void
RtUnit::admit(const PendingWarp &pending, uint64_t now)
{
    // Residency bound: admission is gated on a free warp slot
    // (Table 4's rtMaxWarps).
    LUMI_CHECK(Rt, residentWarps_ < config_.rtMaxWarps,
               "sm%d RT unit over-subscribed: %d resident warps with "
               "rtMaxWarps=%d",
               smId_, residentWarps_, config_.rtMaxWarps);
    // Claim the lowest free arena slot (or grow). Lowest-index reuse
    // is timing-visible through event tie-breaking and must match
    // the original sparse-slot policy.
    uint32_t index = 0;
    for (; index < warps_.size(); index++) {
        if (!warps_[index].active)
            break;
    }
    if (index == warps_.size())
        warps_.emplace_back();
    RtWarp &slot = warps_[index];
    slot.active = true;
    slot.core = pending.core;
    slot.warpSlot = pending.warpSlot;
    slot.warpId = pending.warpId;
    const WarpInstr &instr = *pending.instr;
    slot.rayKind = instr.rayKind;
    slot.admitCycle = now;
    slot.nodeFetches = 0;
    slot.rays.clear();
    // The packed ray payload must carry exactly one ray per active
    // lane (WarpContext emits them in ascending lane order).
    LUMI_CHECK(Rt,
               static_cast<size_t>(instr.activeLanes()) ==
                       instr.rays.size() &&
                   instr.rays.size() == instr.tMaxes.size(),
               "sm%d traceRay payload mismatch: %d active lanes, "
               "%zu rays, %zu tMaxes",
               smId_, instr.activeLanes(), instr.rays.size(),
               instr.tMaxes.size());
    int packed = 0;
    for (int lane = 0; lane < 32; lane++) {
        if (!((instr.mask >> lane) & 1u))
            continue;
#if LUMI_CHECKS_ENABLED
        if (static_cast<size_t>(packed) >= instr.rays.size() ||
            static_cast<size_t>(packed) >= instr.tMaxes.size()) {
            break; // count mode: survive the short payload
        }
#endif
        RayState ray;
        ray.lane = lane;
        ray.machine = std::make_unique<TraversalStateMachine>(
            *layout_->accel, instr.rays[packed], instr.anyHitQuery,
            1e-4f, instr.tMaxes[packed]);
        ray.winMemReady = now;
        ray.winBoxEnd = now;
        slot.rays.push_back(std::move(ray));
        packed++;
    }
    slot.remaining = static_cast<int>(slot.rays.size());
    activeRays_ += slot.remaining;
    raysByKind_[slot.rayKind] += slot.remaining;
    warpsByKind_[slot.rayKind]++;
    stats_.raysTraced += slot.remaining;
    residentWarps_++;

    // The packed event word gives each slot index Event::slotBits.
    LUMI_CHECK(Rt,
               index <= Event::slotMask &&
                   slot.rays.size() <= Event::slotMask + 1,
               "sm%d RT slot indices overflow the packed event: warp "
               "%u, %zu rays",
               smId_, index, slot.rays.size());
    for (uint32_t r = 0; r < slot.rays.size(); r++)
        events_.push(Event::make(now, index, r));
}

void
RtUnit::flushWritebacks(uint64_t now)
{
    while (writebackHead_ < writebacks_.size()) {
        MemRequest req;
        req.sm = smId_;
        req.cycle = now;
        req.addr = writebacks_[writebackHead_].addr;
        req.bytes = writebacks_[writebackHead_].bytes;
        req.rt = true;
        if (!mem_.issueWrite(req).accepted)
            return; // port busy: retry next cycle
        writebackHead_++;
    }
    writebacks_.clear();
    writebackHead_ = 0;
}

void
RtUnit::cycle(uint64_t now)
{
    if (writebackHead_ < writebacks_.size())
        flushWritebacks(now);
    int issued = 0;
    const int width = config_.rtIssueWidth;
    while (!events_.empty() && events_.top().ready() <= now &&
           issued < width) {
        Event event = events_.top();
        events_.pop();
        advanceRay(event.warpIndex(), event.rayIndex(), now);
        issued++;
    }
}

void
RtUnit::advanceRay(uint32_t warp_index, uint32_t ray_index,
                   uint64_t now)
{
#if LUMI_CHECKS_ENABLED
    if (warp_index >= warps_.size() || !warps_[warp_index].active ||
        ray_index >= warps_[warp_index].rays.size()) [[unlikely]] {
        LUMI_CHECK(Rt, false,
                   "sm%d event for stale RT slot: warp %u ray %u",
                   smId_, warp_index, ray_index);
        return; // count mode: drop the stale event
    }
#endif
    RtWarp &warp = warps_[warp_index];
    RayState &ray = warp.rays[ray_index];
#if LUMI_CHECKS_ENABLED
    // A completed ray must never be rescheduled.
    if (ray.done ||
        (!ray.replaying && ray.machine->done())) [[unlikely]] {
        LUMI_CHECK(Rt, false,
                   "sm%d advanced completed ray: warp %u ray %u "
                   "(lane %d)",
                   smId_, warp_index, ray_index, ray.lane);
        return; // count mode: drop the stale event
    }
#endif
    // A fetch the memory system rejected is replayed as-is; the
    // traversal state machine only advances once per fetch. The
    // current fetch lives in ray.pendingFetch so neither the replay
    // nor the reject path copies the event.
    if (ray.replaying) {
        ray.replaying = false;
    } else {
        ray.pendingFetch = ray.machine->advance();
#if LUMI_CHECKS_ENABLED
        // Traversal-stack bounds: while-while traversal pushes each
        // node of the level being walked at most once, so the stacks
        // can never outgrow the node arrays (bounds cached in
        // setLayout). Replays leave the machine untouched, so only a
        // real advance needs re-checking.
        if (layout_ && layout_->accel) {
            LUMI_CHECK(Rt,
                       ray.machine->tlasStackDepth() <=
                           checkTlasNodes_,
                       "sm%d TLAS stack depth %zu exceeds %zu nodes",
                       smId_, ray.machine->tlasStackDepth(),
                       checkTlasNodes_);
            LUMI_CHECK(Rt,
                       ray.machine->blasStackDepth() <=
                           checkMaxBlasNodes_,
                       "sm%d BLAS stack depth %zu exceeds largest "
                       "BLAS (%zu nodes)",
                       smId_, ray.machine->blasStackDepth(),
                       checkMaxBlasNodes_);
        }
        // Node-fetch containment: every traversal fetch must target
        // a real allocation in the simulated address space — an
        // address outside it means corrupt BVH links or instance
        // offsets. Checked once per fetch; replays carry the already
        // verified event.
        const TraversalEvent &fresh = ray.pendingFetch;
        if (fresh.type != TraversalEvent::Type::Done) {
            LUMI_CHECK(
                Rt,
                fresh.bytes > 0 &&
                    mem_.space().contains(fresh.address, fresh.bytes),
                "sm%d BVH fetch outside address space: addr=0x%llx "
                "bytes=%u limit=0x%llx (event type %d)",
                smId_,
                static_cast<unsigned long long>(fresh.address),
                fresh.bytes,
                static_cast<unsigned long long>(mem_.space().limit()),
                static_cast<int>(fresh.type));
        }
#endif
    }
    const TraversalEvent &event = ray.pendingFetch;

    if (event.type == TraversalEvent::Type::Done) {
        ray.done = true;
        warp.remaining--;
        activeRays_--;
        raysByKind_[warp.rayKind]--;
        // Fold this ray's traversal statistics into the run totals.
        const TraversalStats &ts = ray.machine->stats();
        stats_.rtNodesTraversed += ts.nodesVisited();
        stats_.rtBoxTests += ts.boxTests;
        stats_.rtTriangleTests += ts.triangleTests;
        stats_.rtProceduralTests += ts.proceduralTests;
        // Every procedural candidate test queues exactly one deferred
        // intersection-shader invocation (Sec. 3.1.4); the two
        // counters must agree per ray, including leaf-batch re-tests.
        LUMI_CHECK(Rt,
                   ts.proceduralTests ==
                       ray.machine->intersectionQueue().size(),
                   "sm%d ray finished with %u procedural tests but "
                   "%zu intersection-shader invocations",
                   smId_, ts.proceduralTests,
                   ray.machine->intersectionQueue().size());
        stats_.anyHitInvocations += ray.machine->anyHitQueue().size();
        stats_.intersectionInvocations +=
            ray.machine->intersectionQueue().size();
        if (ray.machine->result().hit)
            stats_.raysHit++;
        else
            stats_.raysMissed++;
        if (warp.remaining == 0)
            completeWarp(warp_index, now);
        return;
    }

    // Charge the fetch through the cache hierarchy plus the
    // intersection-test latency the fetched data enables.
    switch (event.type) {
      case TraversalEvent::Type::TlasNode:
        if (event.tlasLeaf)
            stats_.rtTlasLeafFetches++;
        else
            stats_.rtTlasInternalFetches++;
        break;
      case TraversalEvent::Type::BlasNode:
        if (event.leaf)
            stats_.rtBlasLeafFetches++;
        else
            stats_.rtBlasInternalFetches++;
        break;
      case TraversalEvent::Type::Instance:
        stats_.rtInstanceFetches++;
        break;
      case TraversalEvent::Type::TrianglePrims:
        stats_.rtTriangleFetches++;
        break;
      case TraversalEvent::Type::ProceduralPrims:
        stats_.rtProceduralFetches++;
        break;
      default:
        break;
    }
    warp.nodeFetches++;

    MemRequest req;
    req.sm = smId_;
    req.cycle = now;
    req.addr = event.address;
    req.bytes = event.bytes;
    req.rt = true;
    MemIssue mem = mem_.issueRead(req);
    if (!mem.accepted) {
        // Hold the fetch and retry next cycle.
        ray.replaying = true;
        ray.winMemReady = now + 1;
        ray.winBoxEnd = now + 1;
        ray.winPrimKind = 0;
        events_.push(Event::make(now + 1, warp_index, ray_index));
        return;
    }
    uint64_t box_end = mem.readyCycle +
                       static_cast<uint64_t>(event.boxTests) *
                           config_.rtBoxTestLatency;
    uint64_t ready = box_end +
                     static_cast<uint64_t>(event.primTests) *
                         config_.rtTriTestLatency;
    if (ready <= now)
        ready = now + 1;
    uint8_t prim_kind = 0;
    if (event.type == TraversalEvent::Type::TrianglePrims)
        prim_kind = 1;
    else if (event.type == TraversalEvent::Type::ProceduralPrims)
        prim_kind = 2;
    ray.winMemReady = mem.readyCycle;
    ray.winBoxEnd = box_end;
    ray.winPrimKind = prim_kind;
    events_.push(Event::make(ready, warp_index, ray_index));
}

void
RtUnit::profileSpan(uint64_t begin, uint64_t end,
                    CycleProfile &profile) const
{
    if (end <= begin)
        return;
    uint64_t dt = end - begin;
    if (events_.empty()) {
        // No traversal in flight: either only queued hit-record
        // stores remain, or the unit is idle.
        profile.addRt(smId_, writebackHead_ == writebacks_.size()
                                 ? RtCycleBucket::Idle
                                 : RtCycleBucket::WritebackStall,
                      dt);
        return;
    }
    // Classify by what the oldest in-flight traversal step is doing:
    // its fetch/box/primitive windows (held on the ray) partition
    // [0, ready), and any backlog past ready is issue-width
    // pressure, charged as busy.
    const Event &head = events_.top();
    uint64_t head_ready = head.ready();
    const RayState &ray =
        warps_[head.warpIndex()].rays[head.rayIndex()];
    auto clip = [&](uint64_t lo, uint64_t hi) -> uint64_t {
        uint64_t from = std::max(begin, lo);
        uint64_t to = std::min(end, hi);
        return to > from ? to - from : 0;
    };
    RtCycleBucket prim_bucket;
    if (ray.winPrimKind == 1)
        prim_bucket = RtCycleBucket::BusyTri;
    else if (ray.winPrimKind == 2)
        prim_bucket = RtCycleBucket::BusyProcedural;
    else if (ray.winBoxEnd > ray.winMemReady)
        prim_bucket = RtCycleBucket::BusyBox;
    else
        prim_bucket = RtCycleBucket::FetchWait;
    uint64_t fetch = clip(0, ray.winMemReady);
    if (fetch)
        profile.addRt(smId_, RtCycleBucket::FetchWait, fetch);
    uint64_t box = clip(ray.winMemReady, ray.winBoxEnd);
    if (box)
        profile.addRt(smId_, RtCycleBucket::BusyBox, box);
    uint64_t prim = clip(ray.winBoxEnd, head_ready);
    if (prim)
        profile.addRt(smId_, prim_bucket, prim);
    uint64_t done = std::max(begin, head_ready);
    if (end > done)
        profile.addRt(smId_, prim_bucket, end - done);
}

void
RtUnit::completeWarp(uint32_t warp_index, uint64_t now)
{
    RtWarp &warp = warps_[warp_index];
    // A warp leaves only when its last ray finished, and the
    // residency/ray counters must agree with that.
    LUMI_CHECK(Rt, warp.remaining == 0,
               "sm%d RT warp %u released with %d rays in flight",
               smId_, warp.warpId, warp.remaining);
    LUMI_CHECK(Rt, residentWarps_ > 0 && activeRays_ >= 0,
               "sm%d RT residency drift: residentWarps=%d "
               "activeRays=%d",
               smId_, residentWarps_, activeRays_);
    // Hit-record writeback: one packed 32B payload per traced ray,
    // written as a single coalesced burst for the warp.
    if (!warp.rays.empty()) {
        uint32_t first_lane = static_cast<uint32_t>(
            warp.rays.front().lane);
        uint64_t base = layout_->hitRecordAddress(
            warp.warpId * 32u + first_lane);
        // The store may bounce off a busy L1 port; it queues and
        // flushes from cycle() without delaying the warp wake-up.
        writebacks_.push_back(
            {base, static_cast<uint32_t>(warp.rays.size()) *
                       SceneGpuLayout::hitRecordStride});
        flushWritebacks(now);
        stats_.rtResultWrites += warp.rays.size();
    }
    if (tracer_ && tracer_->wants(TraceCategory::Rt)) {
        // One span per warp residency in the RT unit: the Daisen-
        // style traversal view (kind + fetch volume as args).
        tracer_->span(TraceCategory::Rt, "rt_warp",
                      static_cast<uint32_t>(smId_), warp.admitCycle,
                      now, "kind",
                      static_cast<uint64_t>(warp.rayKind), "nodes",
                      warp.nodeFetches);
    }
    SimtCore *core = warp.core;
    int slot = warp.warpSlot;
    warpsByKind_[warp.rayKind]--;
    // Release the arena slot; rays (and their capacity) stay for
    // the next residency and are cleared on admit.
    warp.active = false;
    residentWarps_--;
    core->wakeWarp(slot, now + 1);

    if (pendingHead_ < pending_.size()) {
        PendingWarp next = pending_[pendingHead_++];
        if (pendingHead_ == pending_.size()) {
            pending_.clear();
            pendingHead_ = 0;
        }
        admit(next, now);
    }
}

uint64_t
RtUnit::nextEventCycle(uint64_t now) const
{
    if (writebackHead_ < writebacks_.size())
        return now + 1; // a queued store retries every cycle
    if (events_.empty())
        return UINT64_MAX;
    return std::max(events_.top().ready(), now + 1);
}

} // namespace lumi
