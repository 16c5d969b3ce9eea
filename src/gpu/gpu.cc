#include "gpu/gpu.hh"

#include <algorithm>
#include <cstdio>

#include "check/check.hh"
#include "gpu/host_profile.hh"
#include "trace/interval.hh"

namespace lumi
{

Gpu::Gpu(const GpuConfig &config, uint64_t timeline_interval,
         Tracer *tracer)
    : config_(config), tracer_(tracer), timeline_(timeline_interval),
      queue_(2 * config.numSms + 1)
{
    mem_ = std::make_unique<MemSystem>(config_, space_, tracer_);
    for (int sm = 0; sm < config_.numSms; sm++) {
        rtUnits_.push_back(std::make_unique<RtUnit>(
            sm, config_, *mem_, stats_, gauge_, profile_, tracer_));
        cores_.push_back(std::make_unique<SimtCore>(
            sm, config_, *mem_, *rtUnits_[sm], stats_, gauge_,
            tracer_));
    }
    profile_.init(config_.numSms);
    smHadWork_.assign(static_cast<size_t>(config_.numSms), 0);
    drainTail_.assign(static_cast<size_t>(config_.numSms), 0);
    rtDue_.assign(static_cast<size_t>(config_.numSms), 0);
    due_.reserve(queue_.components());
    LUMI_CHECKS_ONLY(registeredAt_.assign(queue_.components(), 0);)
}

TimelineSample
Gpu::snapshot() const
{
    TimelineSample sample;
    sample.instructions = stats_.instructions;
    sample.l1Reads = mem_->l1Rt().reads + mem_->l1Shader().reads;
    sample.l1Misses = mem_->l1Rt().misses + mem_->l1Shader().misses;
    sample.rtWarpCycles = stats_.rtWarpCycles;
    return sample;
}

void
Gpu::fillSlots(const KernelLaunch &launch, uint32_t &next_warp)
{
    // Round-robin over SMs so the grid spreads evenly, as a real
    // grid scheduler would distribute thread blocks.
    bool assigned = true;
    while (assigned && next_warp < launch.warpCount) {
        assigned = false;
        for (size_t i = 0; i < cores_.size(); i++) {
            SimtCore &core = *cores_[i];
            if (next_warp >= launch.warpCount)
                break;
            if (!core.hasFreeSlot())
                continue;
            int lanes = (next_warp + 1 == launch.warpCount)
                            ? launch.lanesInLastWarp
                            : 32;
            WarpContext ctx(launch.layout, next_warp, lanes);
            launch.program(ctx);
            for (int k = 0; k < numRayKinds; k++)
                stats_.raysByKind[k] += ctx.rayCounts()[k];
            core.assignWarp(ctx.take(), next_warp, now_);
            smHadWork_[i] = 1;
            next_warp++;
            assigned = true;
        }
    }
}

bool
Gpu::anyBusy(uint32_t next_warp, const KernelLaunch &launch) const
{
    if (next_warp < launch.warpCount)
        return true;
    for (const auto &core : cores_) {
        if (core->busy())
            return true;
    }
    for (const auto &rt : rtUnits_) {
        if (!rt->idle())
            return true;
    }
    return false;
}

void
Gpu::reportDeadlock()
{
    // Busy but event-less: that is a simulator bug (a warp sleeping
    // with nobody left to wake it). Diagnose, then stop the run so a
    // campaign worker survives (SimulationAborted upstream) instead
    // of taking the whole process down.
    std::fprintf(stderr, "lumi: panic: deadlock at cycle %llu\n",
                 static_cast<unsigned long long>(now_));
    for (size_t i = 0; i < cores_.size(); i++) {
        std::fprintf(stderr,
                     "  sm%zu: resident=%d rtWarps=%d "
                     "rtRays=%d rtIdle=%d\n",
                     i, cores_[i]->residentWarps(),
                     rtUnits_[i]->activeWarps(),
                     rtUnits_[i]->activeRays(),
                     rtUnits_[i]->idle() ? 1 : 0);
    }
    deadlocked_ = true;
    aborted_ = true;
}

void
Gpu::accountSpan(uint64_t next)
{
    // Accumulate state-weighted statistics over (now, next]: no
    // component changes state in the skipped span.
    uint64_t dt = next - now_;

    // Top-down cycle accounting over [now, next): cycle now gets
    // the issue outcome; the remaining dt-1 cycles (in which, by
    // construction of next, no warp can issue) get the stall
    // classification from post-issue warp state. Pure accounting:
    // nothing here feeds back into simulated timing. A core the
    // event loop skipped had no issuable warp at now (or it would
    // have been due), so its outcome at now is None by construction.
    for (size_t i = 0; i < cores_.size(); i++) {
        uint64_t rest = dt;
        IssueOutcome outcome = cores_[i]->outcomeAt(now_);
        if (outcome == IssueOutcome::Issued) {
            profile_.addSm(static_cast<int>(i),
                           SmCycleBucket::Issued, 1);
            rest--;
        } else if (outcome == IssueOutcome::MemReplay) {
            profile_.addSm(static_cast<int>(i),
                           SmCycleBucket::MemPending, 1);
            rest--;
        }
        if (rest > 0) {
            switch (cores_[i]->stallKind()) {
              case SmStall::MemPending:
                profile_.addSm(static_cast<int>(i),
                               SmCycleBucket::MemPending, rest);
                break;
              case SmStall::RtWait:
                profile_.addSm(static_cast<int>(i),
                               SmCycleBucket::RtWait, rest);
                break;
              case SmStall::NoReadyWarp:
                profile_.addSm(static_cast<int>(i),
                               SmCycleBucket::NoReadyWarp, rest);
                break;
              case SmStall::NoWarps:
                if (smHadWork_[i]) {
                    profile_.addSm(static_cast<int>(i),
                                   SmCycleBucket::Drain, rest);
                    drainTail_[i] += rest;
                } else {
                    profile_.addSm(static_cast<int>(i),
                                   SmCycleBucket::Empty, rest);
                }
                break;
            }
        }
    }

    stats_.warpCyclesResident +=
        static_cast<uint64_t>(gauge_.residentWarps) * dt;
    stats_.rtWarpCycles += static_cast<uint64_t>(gauge_.rtWarps) * dt;
    stats_.rtRayCycles += static_cast<uint64_t>(gauge_.rtRays) * dt;
    for (int k = 0; k < numRayKinds; k++) {
        stats_.rtWarpCyclesByKind[k] +=
            static_cast<uint64_t>(gauge_.rtWarpsByKind[k]) * dt;
        stats_.rtRayCyclesByKind[k] +=
            static_cast<uint64_t>(gauge_.rtRaysByKind[k]) * dt;
    }
    stats_.rtActiveCycles +=
        static_cast<uint64_t>(gauge_.rtActiveUnits) * dt;
    now_ = next;
    // Keep the registered gpu.cycles counter current so interval
    // samples read the live clock. Unconditional: the write must
    // happen identically whether or not a sampler is attached.
    stats_.cycles = now_;
    timeline_.record(now_, snapshot());
    if (sampler_ && sampler_->due(now_)) {
        settleRtProfile();
        sampler_->maybeSample(now_);
    }
}

void
Gpu::settleRtProfile()
{
    for (auto &rt : rtUnits_)
        rt->settleProfile(now_);
}

void
Gpu::runEventLoop(const KernelLaunch &launch, uint32_t &next_warp)
{
    const int n = config_.numSms;
    const int mem_comp = 2 * n;
    auto reRegister = [&](int comp, uint64_t cycle) {
        queue_.update(comp, cycle);
        LUMI_CHECKS_ONLY(registeredAt_[comp] = now_;)
    };
    // The first landing cycles every component unconditionally: the
    // launch just filled slots at now_, and stale registrations from
    // a previous launch are overwritten when everything re-registers.
    bool first = true;
    for (;;) {
        // Soft cycle budget: a runaway sim stops at a cycle
        // boundary instead of wedging its worker.
        if (cycleBudget_ != 0 && now_ >= cycleBudget_) {
            aborted_ = true;
            break;
        }
        if (!anyBusy(next_warp, launch))
            break;

        // Self-profiling is sampled: most iterations only bump a
        // counter; a timed one reads the clock at each component
        // boundary. Either way no simulator state is touched.
        bool timed = profiler_ && profiler_->beginIteration();

        // Core phase: only the cores registered due at now_ can
        // issue (a skipped core provably has no ready warp, so its
        // cycle() would be a no-op).
        if (first) {
            for (int i = 0; i < n; i++) {
                cores_[i]->cycle(now_);
                rtDue_[i] = 1;
            }
        } else {
            queue_.popDue(now_, due_);
#if LUMI_CHECKS_ENABLED
            // Before anything is cycled, each due key re-derived from
            // the component's own state must still be now_: a change
            // nobody flagged lands here too early or too late.
            for (int comp : due_) {
                uint64_t at = registeredAt_[comp];
                uint64_t key =
                    comp < n ? cores_[comp]->nextEventCycle(at)
                    : comp < mem_comp
                        ? rtUnits_[comp - n]->nextEventCycle(at)
                        : mem_->nextEventCycle(at);
                LUMI_CHECK(Sched, key == now_,
                           "component %d registered at %llu is due "
                           "at %llu, but its state says %llu",
                           comp, static_cast<unsigned long long>(at),
                           static_cast<unsigned long long>(now_),
                           static_cast<unsigned long long>(key));
            }
#endif
            for (int comp : due_) {
                if (comp < n)
                    cores_[comp]->cycle(now_);
                else if (comp < mem_comp)
                    rtDue_[comp - n] = 1;
                // mem_comp carries no cycle() of its own: fills
                // drain lazily inside issueRead/issueWrite; its
                // registration only contributes landing cycles.
            }
        }
        if (timed)
            profiler_->mark(HostProfiler::SimtCores);

        // RT phase: units due from the queue, plus units whose core
        // handed them a traceRay this landing (a ray enqueued at
        // cycle T advances at T). The flags were consumed at the
        // previous landing, so changed() here means enqueued now.
        for (int i = 0; i < n; i++) {
            if (rtDue_[i] || rtUnits_[i]->changed())
                rtUnits_[i]->cycle(now_);
        }
        if (timed)
            profiler_->mark(HostProfiler::RtUnits);
        fillSlots(launch, next_warp);
        if (timed)
            profiler_->mark(HostProfiler::FillSlots);

        // Re-registration: each core and RT unit flags its own state
        // changes (a cycle, a fresh warp from fillSlots, a wake from
        // its RT unit, an enqueued ray), and exactly the flagged ones
        // recompute their next-interesting cycle. The memory system
        // re-registers every landing (any issue can push a fill
        // completion; no events when resources are unlimited).
        for (int i = 0; i < n; i++) {
            if (cores_[i]->consumeChanged())
                reRegister(i, cores_[i]->nextEventCycle(now_));
            if (rtUnits_[i]->consumeChanged())
                reRegister(n + i, rtUnits_[i]->nextEventCycle(now_));
        }
        reRegister(mem_comp, mem_->nextEventCycle(now_));

        uint64_t next = queue_.minCycle();
        if (next == UINT64_MAX) {
            // Work may have completed inside this very cycle.
            if (anyBusy(next_warp, launch))
                reportDeadlock();
            break;
        }
        if (timed)
            profiler_->mark(HostProfiler::MemEvents);

        accountSpan(next);
        if (timed)
            profiler_->mark(HostProfiler::Observe);

        std::fill(rtDue_.begin(), rtDue_.end(), 0);
        first = false;
    }
}

void
Gpu::run(const KernelLaunch &launch)
{
    for (auto &rt : rtUnits_)
        rt->setLayout(launch.layout);

    // A new kernel behind the previous one turns that kernel's drain
    // tail into a sync wait: those SMs were done early and stalled at
    // the implicit end-of-grid barrier. The final kernel's tail stays
    // drain, and never-filled SMs stay empty.
    for (size_t sm = 0; sm < drainTail_.size(); sm++) {
        if (drainTail_[sm] > 0) {
            profile_.moveSm(static_cast<int>(sm),
                            SmCycleBucket::Drain,
                            SmCycleBucket::Sync, drainTail_[sm]);
            drainTail_[sm] = 0;
        }
        smHadWork_[sm] = 0;
    }

    // Snapshot for the per-launch delta (analytical modeling).
    LaunchSample before;
    before.cycles = now_;
    before.warps = stats_.warpsLaunched;
    for (int op = 0; op < numWarpOps; op++)
        before.instrByOp[op] = stats_.instrByOp[op];
    before.threadInstructions = stats_.threadInstructions;
    before.memInstructions = stats_.memInstructions;
    before.coalescedSegments = stats_.coalescedSegments;
    before.l1Reads = mem_->l1Rt().reads + mem_->l1Shader().reads;
    before.l1Misses = mem_->l1Rt().misses + mem_->l1Shader().misses;
    uint64_t dram_lat_before = mem_->dram().stats().totalLatency;
    uint64_t dram_acc_before = mem_->dram().stats().accesses;

    uint32_t next_warp = 0;
    // Baseline sample before the launch fills any slots: the first
    // interval then covers the launch itself, like every later one.
    if (sampler_)
        sampler_->maybeSample(now_);
    fillSlots(launch, next_warp);

    runEventLoop(launch, next_warp);

    // Retire every in-flight fill so the MSHR conservation checks
    // and occupancy histograms cover the whole run.
    mem_->drainAll();
    settleRtProfile();

#if LUMI_CHECKS_ENABLED
    // The running occupancy totals must equal a recount from the
    // components (once per launch, never per landing).
    OccupancyGauge recount;
    for (const auto &core : cores_)
        recount.residentWarps += core->residentWarps();
    for (const auto &rt : rtUnits_)
        rt->countOccupancy(recount);
    LUMI_CHECK(Rt, recount == gauge_,
               "occupancy totals drifted: resident=%d/%d rtWarps=%d/%d "
               "rtRays=%d/%d rtActiveUnits=%d/%d (running/recount)",
               gauge_.residentWarps, recount.residentWarps,
               gauge_.rtWarps, recount.rtWarps, gauge_.rtRays,
               recount.rtRays, gauge_.rtActiveUnits,
               recount.rtActiveUnits);
#endif

    // Conservation: the bucket taxonomy must account for every cycle
    // of every unit, per-SM and in aggregate. A leak here means a
    // state transition the classifier does not know about.
    for (int sm = 0; sm < config_.numSms; sm++) {
        LUMI_CHECK(Profile, profile_.sm(sm).sum() == now_,
                   "sm%d issue-slot buckets leak cycles: sum=%llu "
                   "cycles=%llu",
                   sm,
                   static_cast<unsigned long long>(
                       profile_.sm(sm).sum()),
                   static_cast<unsigned long long>(now_));
        LUMI_CHECK(Profile, profile_.rt(sm).sum() == now_,
                   "sm%d RT-unit buckets leak cycles: sum=%llu "
                   "cycles=%llu",
                   sm,
                   static_cast<unsigned long long>(
                       profile_.rt(sm).sum()),
                   static_cast<unsigned long long>(now_));
    }
    LUMI_CHECK(Profile,
               profile_.smTotal().sum() ==
                   now_ * static_cast<uint64_t>(config_.numSms),
               "aggregate issue-slot buckets leak cycles: sum=%llu "
               "cycles*sms=%llu",
               static_cast<unsigned long long>(
                   profile_.smTotal().sum()),
               static_cast<unsigned long long>(
                   now_ * static_cast<uint64_t>(config_.numSms)));
    LUMI_CHECK(Profile,
               profile_.rtTotal().sum() ==
                   now_ * static_cast<uint64_t>(config_.numSms),
               "aggregate RT-unit buckets leak cycles: sum=%llu "
               "cycles*units=%llu",
               static_cast<unsigned long long>(
                   profile_.rtTotal().sum()),
               static_cast<unsigned long long>(
                   now_ * static_cast<uint64_t>(config_.numSms)));

    stats_.cycles = now_;
    timeline_.record(now_, snapshot());
    // Closing sample after drainAll: the final row of every series
    // equals the end-of-run counter values in the stats dump.
    if (sampler_)
        sampler_->sampleFinal(now_);

    LaunchSample sample;
    sample.cycles = now_ - before.cycles;
    sample.warps = stats_.warpsLaunched - before.warps;
    for (int op = 0; op < numWarpOps; op++)
        sample.instrByOp[op] = stats_.instrByOp[op] -
                               before.instrByOp[op];
    sample.threadInstructions = stats_.threadInstructions -
                                before.threadInstructions;
    sample.memInstructions = stats_.memInstructions -
                             before.memInstructions;
    sample.coalescedSegments = stats_.coalescedSegments -
                               before.coalescedSegments;
    sample.l1Reads = mem_->l1Rt().reads + mem_->l1Shader().reads -
                     before.l1Reads;
    sample.l1Misses = mem_->l1Rt().misses + mem_->l1Shader().misses -
                      before.l1Misses;
    uint64_t dram_acc = mem_->dram().stats().accesses -
                        dram_acc_before;
    sample.dramAvgLatency =
        dram_acc > 0
            ? static_cast<double>(mem_->dram().stats().totalLatency -
                                  dram_lat_before) /
                  dram_acc
            : 0.0;
    launchSamples_.push_back(sample);
}

} // namespace lumi
