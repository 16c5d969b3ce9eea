#include "gpu/mem_system.hh"

#include <algorithm>

#include "check/check.hh"
#include "trace/trace.hh"

namespace lumi
{

MemSystem::MemSystem(const GpuConfig &config, const AddressSpace &space,
                     Tracer *tracer)
    : config_(config), space_(space), tracer_(tracer)
{
    for (int sm = 0; sm < config.numSms; sm++) {
        l1s_.push_back(std::make_unique<Cache>(config.l1SizeBytes,
                                               config.l1LineBytes,
                                               config.l1Ways,
                                               config.l1Latency));
    }
    l2_ = std::make_unique<Cache>(config.l2SizeBytes,
                                  config.l2LineBytes, config.l2Ways,
                                  config.l2Latency);
    dram_ = std::make_unique<Dram>(config, tracer);
    l1RtSm_.resize(config.numSms);
    l1ShaderSm_.resize(config.numSms);
    l1Mshrs_.resize(config.numSms);
    l1Live_.resize(config.numSms, 0);
    portCycle_.resize(config.numSms, UINT64_MAX);
    portUsed_.resize(config.numSms, 0);
    // Line-segment math runs on every issue attempt (including the
    // rejected retries of a stalled RT fetch), where a 64-bit divide
    // is measurable; the usual power-of-two line size makes it a
    // shift.
    uint32_t lb = config.l1LineBytes;
    if (lb != 0 && (lb & (lb - 1)) == 0) {
        l1LineShift_ = 0;
        while ((1u << l1LineShift_) != lb)
            l1LineShift_++;
    }
}

uint64_t
MemSystem::lineIndex(uint64_t addr) const
{
    return l1LineShift_ >= 0 ? addr >> l1LineShift_
                             : addr / config_.l1LineBytes;
}

void
MemSystem::occupancyAdvance(uint64_t cycle)
{
    if (cycle <= occupancyMark_)
        return;
    int bucket = std::min(liveTotal_, memOccupancyBuckets - 1);
    memStats_.inflightCycles[bucket] += cycle - occupancyMark_;
    occupancyMark_ = cycle;
}

void
MemSystem::allocMshr(int level, int sm, uint64_t line_addr,
                     uint64_t cycle, uint64_t ready, bool rt)
{
    occupancyAdvance(cycle);
    memStats_.mshrAllocs++;
    liveTotal_++;
    memStats_.mshrLivePeak = std::max(
        memStats_.mshrLivePeak, static_cast<uint64_t>(liveTotal_));
    if (level == 0) {
        l1Mshrs_[sm][line_addr]++;
        l1Live_[sm]++;
        // Admission keeps live <= entries except for an oversized
        // access admitted into an empty file (see issueRead), whose
        // lines all allocate in the same issue call.
        LUMI_CHECK(Mem,
                   config_.l1MshrEntries == 0 || oversizedAdmit_ ||
                       l1Live_[sm] <=
                           static_cast<int>(config_.l1MshrEntries),
                   "sm%d L1 MSHR file over-subscribed: %d live with "
                   "%u entries",
                   sm, l1Live_[sm], config_.l1MshrEntries);
    } else {
        l2Mshrs_[line_addr]++;
        l2Live_++;
        if (config_.l2MshrEntries != 0) {
            l2FillTimes_.insert(std::upper_bound(l2FillTimes_.begin(),
                                                 l2FillTimes_.end(),
                                                 ready),
                                ready);
        }
    }
    Completion completion;
    completion.ready = ready;
    completion.lineAddr = line_addr;
    completion.issueCycle = cycle;
    completion.level = level;
    completion.sm = sm;
    completion.rt = rt;
    completions_.push(completion);
}

void
MemSystem::processCompletion(const Completion &completion)
{
    occupancyAdvance(completion.ready);
    memStats_.mshrFrees++;
    liveTotal_--;
    LUMI_CHECK(Mem, liveTotal_ >= 0,
               "fill completion without a live MSHR entry: line "
               "0x%llx level %d",
               static_cast<unsigned long long>(completion.lineAddr),
               completion.level);
    if (completion.level == 0) {
        auto &mshrs = l1Mshrs_[completion.sm];
        uint32_t *count = mshrs.find(completion.lineAddr);
        LUMI_CHECK(Mem, count && *count > 0,
                   "sm%d L1 MSHR double free: line 0x%llx",
                   completion.sm,
                   static_cast<unsigned long long>(
                       completion.lineAddr));
        if (count) {
            if (--*count == 0)
                mshrs.erase(completion.lineAddr);
            l1Live_[completion.sm]--;
        }
    } else {
        uint32_t *count = l2Mshrs_.find(completion.lineAddr);
        LUMI_CHECK(Mem, count && *count > 0,
                   "L2 MSHR double free: line 0x%llx",
                   static_cast<unsigned long long>(
                       completion.lineAddr));
        if (count) {
            if (--*count == 0)
                l2Mshrs_.erase(completion.lineAddr);
            l2Live_--;
        }
        if (config_.l2MshrEntries != 0) {
            auto fill_it = std::lower_bound(l2FillTimes_.begin(),
                                            l2FillTimes_.end(),
                                            completion.ready);
            bool found = fill_it != l2FillTimes_.end() &&
                         *fill_it == completion.ready;
            LUMI_CHECK(Mem, found,
                       "L2 fill-time bookkeeping drift at cycle %llu",
                       static_cast<unsigned long long>(
                           completion.ready));
            if (found)
                l2FillTimes_.erase(fill_it);
        }
    }
    if (tracer_ && tracer_->wants(TraceCategory::Mem)) {
        // One span per in-flight fill: its whole lifetime from the
        // missing access to the fill response landing.
        tracer_->span(TraceCategory::Mem,
                      completion.level == 0 ? "l1_fill" : "l2_fill",
                      static_cast<uint32_t>(completion.sm),
                      completion.issueCycle, completion.ready, "line",
                      completion.lineAddr, "rt",
                      completion.rt ? 1 : 0);
    }
}

void
MemSystem::drainDue(uint64_t cycle)
{
    while (!completions_.empty() &&
           completions_.top().ready <= cycle) {
        Completion completion = completions_.top();
        completions_.pop();
        processCompletion(completion);
    }
}

void
MemSystem::drainAll()
{
    while (!completions_.empty()) {
        Completion completion = completions_.top();
        completions_.pop();
        processCompletion(completion);
    }
    // End-of-run conservation: every allocated MSHR entry was freed
    // by exactly one fill response, and the per-SM requester splits
    // sum to the aggregates the reports are built from.
    LUMI_CHECK(Mem,
               liveTotal_ == 0 && l2Live_ == 0 &&
                   memStats_.mshrAllocs == memStats_.mshrFrees,
               "MSHR leak after drain: live=%d l2Live=%d allocs=%llu "
               "frees=%llu",
               liveTotal_, l2Live_,
               static_cast<unsigned long long>(memStats_.mshrAllocs),
               static_cast<unsigned long long>(memStats_.mshrFrees));
#if LUMI_CHECKS_ENABLED
    RequesterStats rt_sum, shader_sum;
    for (int sm = 0; sm < config_.numSms; sm++) {
        const RequesterStats &r = l1RtSm_[sm];
        const RequesterStats &s = l1ShaderSm_[sm];
        rt_sum.reads += r.reads;
        rt_sum.hits += r.hits;
        rt_sum.pendingHits += r.pendingHits;
        rt_sum.misses += r.misses;
        rt_sum.coldMisses += r.coldMisses;
        rt_sum.writes += r.writes;
        shader_sum.reads += s.reads;
        shader_sum.hits += s.hits;
        shader_sum.pendingHits += s.pendingHits;
        shader_sum.misses += s.misses;
        shader_sum.coldMisses += s.coldMisses;
        shader_sum.writes += s.writes;
    }
    LUMI_CHECK(Mem,
               rt_sum.reads == l1Rt_.reads &&
                   rt_sum.hits == l1Rt_.hits &&
                   rt_sum.pendingHits == l1Rt_.pendingHits &&
                   rt_sum.misses == l1Rt_.misses &&
                   rt_sum.coldMisses == l1Rt_.coldMisses &&
                   rt_sum.writes == l1Rt_.writes,
               "per-SM RT L1 counters drifted from the aggregate: "
               "sum reads=%llu aggregate reads=%llu",
               static_cast<unsigned long long>(rt_sum.reads),
               static_cast<unsigned long long>(l1Rt_.reads));
    LUMI_CHECK(Mem,
               shader_sum.reads == l1Shader_.reads &&
                   shader_sum.hits == l1Shader_.hits &&
                   shader_sum.pendingHits == l1Shader_.pendingHits &&
                   shader_sum.misses == l1Shader_.misses &&
                   shader_sum.coldMisses == l1Shader_.coldMisses &&
                   shader_sum.writes == l1Shader_.writes,
               "per-SM shader L1 counters drifted from the "
               "aggregate: sum reads=%llu aggregate reads=%llu",
               static_cast<unsigned long long>(shader_sum.reads),
               static_cast<unsigned long long>(l1Shader_.reads));
#endif
}

uint64_t
MemSystem::nextEventCycle(uint64_t now) const
{
    // Fill completions only matter as wake-up events when a finite
    // resource can stall a requester; with everything unlimited,
    // skipping them keeps the event loop's stops (and the timeline's
    // sampling points) identical to the latency-oracle model.
    bool finite = config_.l1MshrEntries != 0 ||
                  config_.l2MshrEntries != 0 ||
                  config_.l1PortWidth != 0 ||
                  config_.icntFlitsPerCycle != 0;
    if (!finite || completions_.empty())
        return UINT64_MAX;
    return std::max(completions_.top().ready, now + 1);
}

uint64_t
MemSystem::icntTransfer(uint64_t cycle, uint32_t flits)
{
    uint64_t width = config_.icntFlitsPerCycle;
    if (width == 0)
        return cycle;
    uint64_t earliest = cycle * width;
    uint64_t start = std::max(icntFreeSlot_, earliest);
    icntFreeSlot_ = start + flits;
    memStats_.icntFlits += flits;
    uint64_t start_cycle = start / width;
    if (start_cycle > cycle)
        memStats_.icntWaitCycles += start_cycle - cycle;
    return (start + flits - 1) / width;
}

uint64_t
MemSystem::l2AllocAt(uint64_t at)
{
    if (config_.l2MshrEntries == 0)
        return at;
    uint64_t t = at;
    for (;;) {
        // Entries whose fill lands at or before t are free at t.
        auto first_live = std::upper_bound(l2FillTimes_.begin(),
                                           l2FillTimes_.end(), t);
        size_t live = static_cast<size_t>(l2FillTimes_.end() -
                                          first_live);
        if (live < config_.l2MshrEntries)
            break;
        // Queue in the miss queue until the earliest outstanding
        // fill returns and releases its entry.
        t = *first_live;
    }
    if (t > at) {
        memStats_.l2MshrFullStalls++;
        memStats_.l2MshrWaitCycles += t - at;
    }
    return t;
}

bool
MemSystem::reservePort(int sm, uint64_t cycle, uint32_t slots)
{
    uint32_t width = config_.l1PortWidth;
    if (width == 0)
        return true;
    uint32_t used = portCycle_[sm] == cycle ? portUsed_[sm] : 0;
    // An access wider than the whole port is admitted only into a
    // free port (it occupies every slot); otherwise it could never
    // issue at all.
    if (used > 0 && used + slots > width) {
        memStats_.portRejects++;
        if (lastPortConflictCycle_ != cycle) {
            memStats_.portConflictCycles++;
            lastPortConflictCycle_ = cycle;
        }
        return false;
    }
    if (portCycle_[sm] != cycle) {
        portCycle_[sm] = cycle;
        portUsed_[sm] = 0;
    }
    portUsed_[sm] += slots;
    return true;
}

uint64_t
MemSystem::readLine(int sm, uint64_t cycle, uint64_t line_addr,
                    bool rt, DataKind kind)
{
    LUMI_CHECK(Mem, line_addr % config_.l1LineBytes == 0,
               "unaligned line read: 0x%llx with %u-byte lines",
               static_cast<unsigned long long>(line_addr),
               config_.l1LineBytes);
    RequesterStats &l1_stats = rt ? l1Rt_ : l1Shader_;
    RequesterStats &l1_sm_stats = rt ? l1RtSm_[sm] : l1ShaderSm_[sm];
    Cache &l1 = *l1s_[sm];
    l1_stats.reads++;
    l1_sm_stats.reads++;
    kindReads_[static_cast<int>(kind)]++;
    const bool trace = tracer_ &&
                       tracer_->wants(TraceCategory::Cache);

    CacheProbe probe = l1.probe(line_addr, cycle);
    if (probe.outcome == CacheProbe::Outcome::Hit) {
        l1_stats.hits++;
        l1_sm_stats.hits++;
        return cycle + config_.l1Latency;
    }
    if (probe.outcome == CacheProbe::Outcome::PendingHit) {
        l1_stats.pendingHits++;
        l1_sm_stats.pendingHits++;
        memStats_.mshrMerges++;
        if (trace) {
            tracer_->instant(TraceCategory::Cache, "l1_mshr_merge",
                             static_cast<uint32_t>(sm), cycle,
                             "line", line_addr, "rt",
                             rt ? 1 : 0);
        }
        return std::max(probe.validAt, cycle + config_.l1Latency);
    }

    l1_stats.misses++;
    l1_sm_stats.misses++;
    kindMisses_[static_cast<int>(kind)]++;
    if (touchedLines_.insert(line_addr)) {
        l1_stats.coldMisses++;
        l1_sm_stats.coldMisses++;
    }
    if (trace) {
        tracer_->instant(TraceCategory::Cache, "l1_miss",
                         static_cast<uint32_t>(sm), cycle, "line",
                         line_addr, "kind",
                         static_cast<uint64_t>(kind));
    }

    // Miss: the request flit crosses the interconnect to the L2
    // after the L1 lookup latency.
    uint64_t l2_at = icntTransfer(cycle + config_.l1Latency, 1);
    RequesterStats &l2_stats = rt ? l2Rt_ : l2Shader_;
    l2_stats.reads++;
    CacheProbe l2_probe = l2_->probe(line_addr, l2_at);
    uint64_t l2_data;
    if (l2_probe.outcome == CacheProbe::Outcome::Hit) {
        l2_stats.hits++;
        l2_data = l2_at + config_.l2Latency;
    } else if (l2_probe.outcome == CacheProbe::Outcome::PendingHit) {
        l2_stats.pendingHits++;
        memStats_.mshrMerges++;
        if (trace) {
            tracer_->instant(TraceCategory::Cache, "l2_mshr_merge",
                             static_cast<uint32_t>(sm), l2_at,
                             "line", line_addr);
        }
        l2_data = std::max(l2_probe.validAt,
                           l2_at + config_.l2Latency);
    } else {
        l2_stats.misses++;
        if (trace) {
            tracer_->instant(TraceCategory::Cache, "l2_miss",
                             static_cast<uint32_t>(sm), l2_at,
                             "line", line_addr, "kind",
                             static_cast<uint64_t>(kind));
        }
        // A full L2 MSHR file queues the miss until an outstanding
        // fill frees an entry; then the lookup latency and DRAM.
        uint64_t alloc_at = l2AllocAt(l2_at);
        uint64_t dram_cycle = alloc_at + config_.l2Latency;
        Dram::Result dram = dram_->read(line_addr, dram_cycle,
                                        config_.l2LineBytes);
        l2_data = dram.readyCycle;
        l2_->fill(line_addr, l2_at, l2_data);
        allocMshr(1, sm, line_addr, l2_at, l2_data, rt);
    }
    // The fill response streams the line back over the interconnect
    // and releases the L1 MSHR entry when it lands.
    uint32_t flit_bytes = std::max(config_.icntFlitBytes, 1u);
    uint32_t fill_flits = std::max(
        config_.l1LineBytes / flit_bytes, 1u);
    uint64_t ready = icntTransfer(l2_data, fill_flits);
    l1.fill(line_addr, cycle, ready);
    allocMshr(0, sm, line_addr, cycle, ready, rt);
    return ready;
}

MemIssue
MemSystem::issueRead(const MemRequest &req)
{
    drainTo(req.cycle);
    MemIssue result;
    uint64_t line_bytes = config_.l1LineBytes;
    uint64_t first = lineIndex(req.addr);
    uint64_t last = lineIndex(req.addr +
                              (req.bytes ? req.bytes - 1 : 0));
    uint32_t lines = static_cast<uint32_t>(last - first + 1);

    // Admission is all-or-nothing: the access needs port slots for
    // every line segment and, for the segments that will miss, free
    // L1 MSHR entries. A rejected access leaves no trace in any
    // cache or counter (feasibility uses the side-effect-free peek).
    if (config_.l1MshrEntries != 0) {
        // A single-line access needs an entry only when the line
        // actually misses: hits and merges into a pending fill are
        // admitted even under a full file. A multi-line access
        // reserves an entry per line: a miss-fill for one line can
        // evict a peeked-hit sibling line of the same access, so
        // the peek count is not a bound for it.
        uint32_t needed = lines;
        if (lines == 1) {
            CacheProbe peek = l1s_[req.sm]->peek(first * line_bytes,
                                                 req.cycle);
            if (peek.outcome != CacheProbe::Outcome::Miss)
                needed = 0;
        }
        // An access needing more entries than the whole file holds
        // can never fit; admit it once the file is empty (as the
        // oversized-access port rule does) or it would livelock.
        bool oversized = needed > config_.l1MshrEntries;
        bool fits = oversized
                        ? l1Live_[req.sm] == 0
                        : l1Live_[req.sm] + needed <=
                              config_.l1MshrEntries;
        if (!fits) {
            memStats_.mshrFullStalls++;
            result.reject = MemReject::Mshr;
            return result;
        }
        oversizedAdmit_ = oversized;
    }
    if (!reservePort(req.sm, req.cycle, lines)) {
        result.reject = MemReject::Port;
        return result;
    }

    memStats_.readRequests++;
    // Region classification is only consumed on the accept path;
    // resolving it after the rejection checks keeps the (hot)
    // rejected-retry path free of the range binary search.
    DataKind kind = space_.kindOf(req.addr);
    uint64_t ready = req.cycle + config_.l1Latency;
    uint64_t before_misses = (req.rt ? l1Rt_ : l1Shader_).misses;
    uint64_t before_dram = dram_->stats().accesses;
    for (uint64_t line = first; line <= last; line++) {
        uint64_t line_ready = readLine(req.sm, req.cycle,
                                       line * line_bytes, req.rt,
                                       kind);
        ready = std::max(ready, line_ready);
    }
    oversizedAdmit_ = false;
    bool all_hits = (req.rt ? l1Rt_ : l1Shader_).misses ==
                    before_misses;
    bool any_dram = dram_->stats().accesses != before_dram;
    // Per-requester conservation at both levels: every read lands in
    // exactly one outcome bucket, and compulsory misses are a subset
    // of all misses.
#if LUMI_CHECKS_ENABLED
    for (const RequesterStats *s : {&l1Rt_, &l1Shader_, &l2Rt_,
                                    &l2Shader_}) {
        LUMI_CHECK(Mem,
                   s->reads == s->hits + s->pendingHits + s->misses,
                   "requester counter drift: reads=%llu != "
                   "hits=%llu + pending=%llu + misses=%llu",
                   static_cast<unsigned long long>(s->reads),
                   static_cast<unsigned long long>(s->hits),
                   static_cast<unsigned long long>(s->pendingHits),
                   static_cast<unsigned long long>(s->misses));
        LUMI_CHECK(Mem, s->coldMisses <= s->misses,
                   "cold misses %llu exceed total misses %llu",
                   static_cast<unsigned long long>(s->coldMisses),
                   static_cast<unsigned long long>(s->misses));
    }
#endif
    result.accepted = true;
    result.readyCycle = ready;
    result.l1Hit = all_hits;
    result.reachedDram = any_dram;
    return result;
}

void
MemSystem::writeLine(int sm, uint64_t cycle, uint64_t line_addr)
{
    // Stores are fire-and-forget for the requester; the line flows
    // down the same interconnect as read fills. Under write-allocate
    // both levels install the line (payload writebacks are read back
    // by the same SM) and the first store to a line costs a DRAM bus
    // slot while repeated stores coalesce. Under no-write-allocate
    // the caches are bypassed on a miss and every store line pays
    // the DRAM trip. Dirty evictions are not separately modeled.
    bool allocate = config_.writePolicy == WritePolicy::WriteAllocate;
    if (!l1s_[sm]->writeProbe(line_addr, cycle) && allocate)
        l1s_[sm]->fill(line_addr, cycle, cycle);
    uint32_t flit_bytes = std::max(config_.icntFlitBytes, 1u);
    uint32_t flits = std::max(config_.l1LineBytes / flit_bytes, 1u);
    uint64_t l2_at = icntTransfer(cycle + config_.l1Latency, flits);
    if (!l2_->writeProbe(line_addr, l2_at)) {
        if (allocate) {
            l2_->fill(line_addr, l2_at, l2_at + config_.l2Latency);
        }
        dram_->write(line_addr, l2_at + config_.l2Latency,
                     config_.l2LineBytes);
    }
}

MemIssue
MemSystem::issueWrite(const MemRequest &req)
{
    drainTo(req.cycle);
    MemIssue result;
    uint64_t line_bytes = config_.l1LineBytes;
    uint64_t first = lineIndex(req.addr);
    uint64_t last = lineIndex(req.addr +
                              (req.bytes ? req.bytes - 1 : 0));
    uint32_t lines = static_cast<uint32_t>(last - first + 1);
    if (!reservePort(req.sm, req.cycle, lines)) {
        result.reject = MemReject::Port;
        return result;
    }
    memStats_.writeRequests++;
    RequesterStats &l1_stats = req.rt ? l1Rt_ : l1Shader_;
    l1_stats.writes++;
    (req.rt ? l1RtSm_[req.sm] : l1ShaderSm_[req.sm]).writes++;
    for (uint64_t line = first; line <= last; line++)
        writeLine(req.sm, req.cycle, line * line_bytes);
    result.accepted = true;
    result.readyCycle = req.cycle + 1;
    return result;
}

} // namespace lumi
