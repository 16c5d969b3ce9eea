/**
 * @file
 * Tests for the memory hierarchy: caches (LRU, MSHR-style pending
 * hits, associativity), DRAM (row buffer, queueing, bandwidth knob),
 * the address space and the clocked request/port MemSystem --
 * including backpressure (MSHR exhaustion, port conflicts), fill/free
 * conservation, the write-policy knob and the infinite-resources
 * golden timings that anchor the characterization figures.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpu/address_space.hh"
#include "gpu/cache.hh"
#include "gpu/config.hh"
#include "gpu/dram.hh"
#include "gpu/mem_system.hh"
#include "lumibench/runner.hh"
#include "lumibench/workload.hh"
#include "rt/pipeline.hh"
#include "scene/scene_library.hh"

namespace lumi
{
namespace
{

MemIssue
read(MemSystem &mem, int sm, uint64_t cycle, uint64_t addr,
     uint32_t bytes, bool rt)
{
    MemRequest req;
    req.sm = sm;
    req.cycle = cycle;
    req.addr = addr;
    req.bytes = bytes;
    req.rt = rt;
    return mem.issueRead(req);
}

MemIssue
write(MemSystem &mem, int sm, uint64_t cycle, uint64_t addr,
      uint32_t bytes, bool rt)
{
    MemRequest req;
    req.sm = sm;
    req.cycle = cycle;
    req.addr = addr;
    req.bytes = bytes;
    req.rt = rt;
    return mem.issueWrite(req);
}

TEST(Cache, HitAfterFill)
{
    Cache cache(1024, 128, 2, 10);
    EXPECT_EQ(cache.probe(0, 0).outcome, CacheProbe::Outcome::Miss);
    cache.fill(0, 0, 5);
    EXPECT_EQ(cache.probe(0, 10).outcome, CacheProbe::Outcome::Hit);
    EXPECT_EQ(cache.stats.reads, 2u);
    EXPECT_EQ(cache.stats.readMisses, 1u);
    EXPECT_EQ(cache.stats.readHits, 1u);
}

TEST(Cache, PendingHitBeforeFillLands)
{
    Cache cache(1024, 128, 2, 10);
    cache.probe(0, 0);
    cache.fill(0, 0, 100); // data arrives at cycle 100
    CacheProbe probe = cache.probe(0, 50);
    EXPECT_EQ(probe.outcome, CacheProbe::Outcome::PendingHit);
    EXPECT_EQ(probe.validAt, 100u);
    // After the fill lands it is a plain hit.
    EXPECT_EQ(cache.probe(0, 200).outcome,
              CacheProbe::Outcome::Hit);
}

TEST(Cache, PeekHasNoSideEffects)
{
    Cache cache(1024, 128, 2, 10);
    cache.fill(0, 0, 50);
    CacheStats before = cache.stats;
    EXPECT_EQ(cache.peek(0, 10).outcome,
              CacheProbe::Outcome::PendingHit);
    EXPECT_EQ(cache.peek(0, 60).outcome, CacheProbe::Outcome::Hit);
    EXPECT_EQ(cache.peek(128, 60).outcome,
              CacheProbe::Outcome::Miss);
    // No stat moved and no LRU state was touched.
    EXPECT_EQ(cache.stats.reads, before.reads);
    EXPECT_EQ(cache.stats.readHits, before.readHits);
    EXPECT_EQ(cache.stats.readMisses, before.readMisses);
}

TEST(Cache, LruEviction)
{
    // 2 ways, 128B lines, 256B total -> one set of 2 ways.
    Cache cache(256, 128, 2, 10);
    cache.fill(0, 0, 0);
    cache.fill(128 * 1, 1, 1); // different set? no: set = line % sets
    // With 1 set, line 0 and line 1 share it; add a third.
    cache.probe(0, 10);        // touch line 0 (more recent)
    cache.fill(128 * 2, 20, 20);
    // Line 1 (LRU) must have been evicted.
    EXPECT_EQ(cache.probe(128 * 1, 30).outcome,
              CacheProbe::Outcome::Miss);
    EXPECT_EQ(cache.probe(0, 31).outcome, CacheProbe::Outcome::Hit);
    EXPECT_EQ(cache.probe(128 * 2, 32).outcome,
              CacheProbe::Outcome::Hit);
}

TEST(Cache, FullyAssociativeUsesWholeCapacity)
{
    // ways = 0 selects fully associative: 8 lines.
    Cache cache(1024, 128, 0, 10);
    for (uint64_t i = 0; i < 8; i++)
        cache.fill(i * 128, i, i);
    for (uint64_t i = 0; i < 8; i++) {
        EXPECT_EQ(cache.probe(i * 128, 100 + i).outcome,
                  CacheProbe::Outcome::Hit)
            << "line " << i;
    }
    // A set-associative cache with pathological mapping would have
    // evicted; fully associative keeps all 8.
    cache.fill(8 * 128, 200, 200);
    int hits = 0;
    for (uint64_t i = 0; i <= 8; i++) {
        if (cache.probe(i * 128, 300 + i).outcome ==
            CacheProbe::Outcome::Hit) {
            hits++;
        }
    }
    EXPECT_EQ(hits, 8);
}

TEST(Cache, WriteProbeNoAllocate)
{
    Cache cache(1024, 128, 2, 10);
    EXPECT_FALSE(cache.writeProbe(0, 0));
    EXPECT_EQ(cache.stats.writeMisses, 1u);
    // Write miss does not install the line by itself; the owning
    // MemSystem decides per GpuConfig::writePolicy.
    EXPECT_EQ(cache.probe(0, 1).outcome, CacheProbe::Outcome::Miss);
    cache.fill(0, 2, 2);
    EXPECT_TRUE(cache.writeProbe(0, 10));
}

/** The replacement policy as a plain scan: each way of a set holds
 *  a tag, its fill time and key 0 (invalid) or lastUsed + 1, and the
 *  victim is the lowest way holding the set's minimum key. */
struct ReferenceLru
{
    struct Way
    {
        uint64_t tag = 0;
        uint64_t validAt = 0;
        uint64_t key = 0;
    };
    uint32_t lineBytes, sets, ways;
    std::vector<Way> lines;

    ReferenceLru(uint32_t size_bytes, uint32_t line_bytes,
                 uint32_t assoc)
        : lineBytes(line_bytes),
          sets(size_bytes / line_bytes / assoc), ways(assoc),
          lines(size_bytes / line_bytes)
    {
    }

    Way *
    find(uint64_t line)
    {
        uint32_t set = static_cast<uint32_t>(line / lineBytes % sets);
        for (uint32_t w = 0; w < ways; w++) {
            Way &way = lines[set * ways + w];
            if (way.key != 0 && way.tag == line)
                return &way;
        }
        return nullptr;
    }

    /** The way a fill of @p line replaces; null when the line is
     *  already present. */
    Way *
    victimFor(uint64_t line)
    {
        if (find(line))
            return nullptr;
        uint32_t set = static_cast<uint32_t>(line / lineBytes % sets);
        Way *victim = &lines[set * ways];
        for (uint32_t w = 1; w < ways; w++) {
            if (lines[set * ways + w].key < victim->key)
                victim = &lines[set * ways + w];
        }
        return victim;
    }
};

TEST(Cache, VictimMatchesReferenceScan)
{
    // Seeded probe/fill/writeProbe mixes over twice the capacity in
    // lines, with clocks that repeat (same-cycle key ties) and step
    // backwards. Every eviction must take the line the reference
    // scan picks.
    const uint32_t size = 64 * 1024, line_bytes = 128;
    for (uint32_t assoc : {512u, 16u}) {
        Cache cache(size, line_bytes, assoc == 512 ? 0 : assoc, 10);
        ReferenceLru ref(size, line_bytes, assoc);
        uint64_t state = 0x9e3779b97f4a7c15ull * (assoc + 1);
        auto next = [&state]() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            return state;
        };
        uint64_t cycle = 1000;
        int evictions = 0;
        for (int op = 0; op < 40000; op++) {
            uint64_t r = next();
            if (r % 8 == 0)
                cycle -= r / 8 % 16; // non-monotone clock
            else
                cycle += r / 8 % 4;  // 1 in 4 steps is a tie
            uint64_t line = next() % 1024 * line_bytes;
            switch (next() % 3) {
              case 0: {
                ReferenceLru::Way *way = ref.find(line);
                CacheProbe probe = cache.probe(line, cycle);
                ASSERT_EQ(probe.outcome != CacheProbe::Outcome::Miss,
                          way != nullptr)
                    << "assoc " << assoc << " op " << op;
                if (way)
                    way->key = cycle + 1;
                break;
              }
              case 1: {
                uint64_t valid_at = cycle + next() % 40;
                ReferenceLru::Way *victim = ref.victimFor(line);
                cache.fill(line, cycle, valid_at);
                if (!victim)
                    break;
                if (victim->key != 0) {
                    evictions++;
                    ASSERT_EQ(cache.peek(victim->tag, cycle).outcome,
                              CacheProbe::Outcome::Miss)
                        << "assoc " << assoc << " op " << op;
                }
                *victim = {line, valid_at, cycle + 1};
                ASSERT_NE(cache.peek(line, cycle).outcome,
                          CacheProbe::Outcome::Miss);
                break;
              }
              default: {
                ReferenceLru::Way *way = ref.find(line);
                bool hit = way && way->validAt <= cycle;
                ASSERT_EQ(cache.writeProbe(line, cycle), hit)
                    << "assoc " << assoc << " op " << op;
                if (hit)
                    way->key = cycle + 1;
                break;
              }
            }
        }
        EXPECT_GT(evictions, 5000) << "assoc " << assoc;
    }
}

TEST(Dram, RowBufferHitsAreFaster)
{
    GpuConfig config;
    Dram dram(config);
    Dram::Result first = dram.read(0, 0, 128);
    EXPECT_FALSE(first.rowHit);
    // Same row, later: hit, shorter latency.
    Dram::Result second = dram.read(256, first.readyCycle, 128);
    EXPECT_TRUE(second.rowHit);
    uint64_t first_latency = first.readyCycle;
    uint64_t second_latency = second.readyCycle - first.readyCycle;
    EXPECT_LT(second_latency, first_latency);
    EXPECT_EQ(dram.stats().accesses, 2u);
    EXPECT_EQ(dram.stats().rowHits, 1u);
}

TEST(Dram, BankConflictQueues)
{
    GpuConfig config;
    Dram dram(config);
    // Two concurrent requests to the same bank+row region serialize.
    Dram::Result a = dram.read(0, 0, 128);
    Dram::Result b = dram.read(config.dramRowBytes *
                                   config.dramBanksPerChannel *
                                   config.dramChannels,
                               0, 128);
    // b maps to the same channel/bank (row stride x banks x chans)
    // but a different row: it must wait and row-miss.
    EXPECT_FALSE(b.rowHit);
    EXPECT_GT(b.readyCycle, a.readyCycle);
}

TEST(Dram, ChannelsServeInParallel)
{
    GpuConfig config;
    Dram dram(config);
    // Lines 0 and 1 interleave across channels.
    Dram::Result a = dram.read(0, 0, 128);
    Dram::Result b = dram.read(128, 0, 128);
    EXPECT_EQ(a.readyCycle, b.readyCycle);
}

TEST(Dram, BandwidthScaleChangesTransferTime)
{
    GpuConfig config;
    Dram slow(config), fast(config);
    fast.setBandwidthScale(2.0);
    uint64_t t_slow = slow.read(0, 0, 1024).readyCycle;
    uint64_t t_fast = fast.read(0, 0, 1024).readyCycle;
    EXPECT_LT(t_fast, t_slow);
}

TEST(Dram, UtilizationBelowEfficiency)
{
    GpuConfig config;
    Dram dram(config);
    uint64_t cycle = 0;
    for (int i = 0; i < 64; i++) {
        // Sparse accesses: long idle gaps.
        dram.read(static_cast<uint64_t>(i) * 4096, cycle, 128);
        cycle += 5000;
    }
    const DramStats &stats = dram.stats();
    EXPECT_GT(stats.efficiency(), stats.utilization(cycle));
    EXPECT_LE(stats.efficiency(), 1.0);
}

TEST(AddressSpace, AllocateAndClassify)
{
    AddressSpace space;
    uint64_t a = space.allocate(DataKind::TlasNode, 1000, "tlas");
    uint64_t b = space.allocate(DataKind::Texture, 500, "tex");
    EXPECT_EQ(a % 128, 0u);
    EXPECT_GE(b, a + 1000);
    EXPECT_EQ(space.kindOf(a), DataKind::TlasNode);
    EXPECT_EQ(space.kindOf(a + 999), DataKind::TlasNode);
    EXPECT_EQ(space.kindOf(b + 10), DataKind::Texture);
    // Unregistered addresses default to Compute.
    EXPECT_EQ(space.kindOf(1), DataKind::Compute);
}

TEST(AddressSpace, RegisterExternalRange)
{
    AddressSpace space;
    uint64_t base = space.reserve(4096);
    space.registerRange(base, 1024, DataKind::BlasNode, "blas");
    space.registerRange(base + 1024, 1024, DataKind::Triangle,
                        "tris");
    EXPECT_EQ(space.kindOf(base + 100), DataKind::BlasNode);
    EXPECT_EQ(space.kindOf(base + 1500), DataKind::Triangle);
    // Later allocations do not overlap the reserved block.
    uint64_t next = space.allocate(DataKind::Local, 64, "x");
    EXPECT_GE(next, base + 2048);
}

TEST(MemSystem, HitLatencyOrdering)
{
    GpuConfig config;
    AddressSpace space;
    uint64_t addr = space.allocate(DataKind::Compute, 1 << 20, "buf");
    MemSystem mem(config, space);

    MemIssue cold = read(mem, 0, 0, addr, 4, false);
    EXPECT_TRUE(cold.accepted);
    EXPECT_FALSE(cold.l1Hit);
    EXPECT_TRUE(cold.reachedDram);
    // Warm L1 hit is much faster.
    uint64_t warm_start = cold.readyCycle + 10;
    MemIssue warm = read(mem, 0, warm_start, addr, 4, false);
    EXPECT_TRUE(warm.l1Hit);
    EXPECT_EQ(warm.readyCycle, warm_start + config.l1Latency);
    EXPECT_LT(warm.readyCycle - warm_start,
              cold.readyCycle - 0);
}

TEST(MemSystem, L2SharedAcrossSms)
{
    GpuConfig config;
    AddressSpace space;
    uint64_t addr = space.allocate(DataKind::Compute, 4096, "buf");
    MemSystem mem(config, space);
    MemIssue first = read(mem, 0, 0, addr, 4, false);
    // SM 1 misses its own L1 but hits the shared L2.
    MemIssue second = read(mem, 1, first.readyCycle + 10, addr, 4,
                           false);
    EXPECT_FALSE(second.l1Hit);
    EXPECT_FALSE(second.reachedDram);
}

TEST(MemSystem, ColdMissClassification)
{
    GpuConfig config;
    AddressSpace space;
    uint64_t addr = space.allocate(DataKind::Compute, 1 << 20, "buf");
    MemSystem mem(config, space);
    read(mem, 0, 0, addr, 4, false);
    read(mem, 0, 0, addr + 4096, 4, false);
    EXPECT_EQ(mem.l1Shader().coldMisses, 2u);
    // Evict-free re-read is not cold even if it misses later; touch
    // the same line from another SM: miss but not cold.
    read(mem, 1, 100, addr, 4, false);
    EXPECT_EQ(mem.l1Shader().coldMisses, 2u);
    EXPECT_EQ(mem.l1Shader().misses, 3u);
}

TEST(MemSystem, RtAndShaderCountersSeparate)
{
    GpuConfig config;
    AddressSpace space;
    uint64_t addr = space.allocate(DataKind::BlasNode, 4096, "blas");
    MemSystem mem(config, space);
    read(mem, 0, 0, addr, 32, true);
    read(mem, 0, 0, addr + 2048, 32, false);
    EXPECT_EQ(mem.l1Rt().reads, 1u);
    EXPECT_EQ(mem.l1Shader().reads, 1u);
    EXPECT_EQ(mem.kindReads()[static_cast<int>(DataKind::BlasNode)],
              2u);
}

TEST(MemSystem, MultiLineAccessCountsSegments)
{
    GpuConfig config;
    AddressSpace space;
    uint64_t addr = space.allocate(DataKind::Compute, 4096, "buf");
    MemSystem mem(config, space);
    // 256B spanning two lines -> two L1 accesses.
    read(mem, 0, 0, addr, 256, false);
    EXPECT_EQ(mem.l1Shader().reads, 2u);
}

TEST(MemSystem, PerSmCountersSumToAggregate)
{
    GpuConfig config;
    AddressSpace space;
    uint64_t addr = space.allocate(DataKind::Compute, 1 << 20, "buf");
    MemSystem mem(config, space);
    read(mem, 0, 0, addr, 4, false);
    read(mem, 1, 0, addr + 4096, 4, false);
    read(mem, 1, 50, addr + 4096, 4, false);
    read(mem, 2, 0, addr + 8192, 4, true);
    EXPECT_EQ(mem.l1Shader(0).reads, 1u);
    EXPECT_EQ(mem.l1Shader(1).reads, 2u);
    EXPECT_EQ(mem.l1Rt(2).reads, 1u);
    uint64_t shader_sum = 0, rt_sum = 0;
    for (int sm = 0; sm < config.numSms; sm++) {
        shader_sum += mem.l1Shader(sm).reads;
        rt_sum += mem.l1Rt(sm).reads;
    }
    EXPECT_EQ(shader_sum, mem.l1Shader().reads);
    EXPECT_EQ(rt_sum, mem.l1Rt().reads);
    mem.drainAll(); // runs the per-SM == aggregate invariant too
}

TEST(MemSystem, WriteAllocatesInBothLevels)
{
    GpuConfig config;
    AddressSpace space;
    uint64_t addr = space.allocate(DataKind::Local, 4096, "local");
    MemSystem mem(config, space);
    write(mem, 0, 0, addr, 32, false);
    uint64_t first_dram_writes = mem.dram().stats().writeBytes;
    EXPECT_GT(first_dram_writes, 0u);
    // Second write to the same line coalesces in the caches.
    write(mem, 0, 1000, addr, 32, false);
    EXPECT_EQ(mem.dram().stats().writeBytes, first_dram_writes);
    // The writing SM reads its own store back from the L1.
    MemIssue rd = read(mem, 0, 2000, addr, 4, false);
    EXPECT_TRUE(rd.l1Hit);
    // Another SM misses its L1 but hits the shared L2.
    MemIssue other = read(mem, 1, 3000, addr, 4, false);
    EXPECT_FALSE(other.l1Hit);
    EXPECT_FALSE(other.reachedDram);
}

TEST(MemSystem, NoWriteAllocateBypassesCaches)
{
    GpuConfig config;
    config.writePolicy = WritePolicy::NoWriteAllocate;
    AddressSpace space;
    uint64_t addr = space.allocate(DataKind::Local, 4096, "local");
    MemSystem mem(config, space);
    write(mem, 0, 0, addr, 32, false);
    uint64_t first_dram_writes = mem.dram().stats().writeBytes;
    EXPECT_GT(first_dram_writes, 0u);
    // The store did not install the line anywhere: a repeated store
    // misses again and pays another DRAM trip.
    write(mem, 0, 1000, addr, 32, false);
    EXPECT_GT(mem.dram().stats().writeBytes, first_dram_writes);
    // And a load from the writing SM must fetch from DRAM.
    MemIssue rd = read(mem, 0, 2000, addr, 4, false);
    EXPECT_FALSE(rd.l1Hit);
    EXPECT_TRUE(rd.reachedDram);
}

TEST(MemSystem, MshrExhaustionSerializes)
{
    GpuConfig config;
    config.l1MshrEntries = 4;
    AddressSpace space;
    uint64_t addr = space.allocate(DataKind::Compute, 1 << 20, "buf");
    MemSystem mem(config, space);

    // N distinct-line misses fill the MSHR file...
    uint64_t first_ready = UINT64_MAX;
    for (uint32_t i = 0; i < 4; i++) {
        MemIssue issue = read(mem, 0, 0, addr + i * 4096ull, 4,
                              false);
        ASSERT_TRUE(issue.accepted) << "miss " << i;
        first_ready = std::min(first_ready, issue.readyCycle);
    }
    // ...and the (N+1)-th distinct-line miss must bounce.
    MemIssue overflow = read(mem, 0, 0, addr + 4 * 4096ull, 4,
                             false);
    EXPECT_FALSE(overflow.accepted);
    EXPECT_EQ(overflow.reject, MemReject::Mshr);
    EXPECT_GE(mem.memStats().mshrFullStalls, 1u);
    // A rejected access left no trace in the requester counters.
    EXPECT_EQ(mem.l1Shader().reads, 4u);
    EXPECT_EQ(mem.l1Shader().misses, 4u);

    // An L1 hit needs no MSHR entry and is admitted even when the
    // file is full.
    MemIssue merge = read(mem, 0, 1, addr, 4, false);
    EXPECT_TRUE(merge.accepted);

    // Once the earliest fill returns and frees its entry, the
    // overflow access serializes in behind it.
    MemIssue retry = read(mem, 0, first_ready, addr + 4 * 4096ull, 4,
                          false);
    EXPECT_TRUE(retry.accepted);
    EXPECT_GT(retry.readyCycle, first_ready);
}

TEST(MemSystem, PortConflictSerializes)
{
    GpuConfig config;
    config.l1PortWidth = 2;
    AddressSpace space;
    uint64_t addr = space.allocate(DataKind::Compute, 1 << 20, "buf");
    MemSystem mem(config, space);

    EXPECT_TRUE(read(mem, 0, 0, addr, 4, false).accepted);
    EXPECT_TRUE(read(mem, 0, 0, addr + 4096, 4, false).accepted);
    // Third line-segment in the same cycle exceeds the port width.
    MemIssue third = read(mem, 0, 0, addr + 8192, 4, false);
    EXPECT_FALSE(third.accepted);
    EXPECT_EQ(third.reject, MemReject::Port);
    EXPECT_EQ(mem.memStats().portRejects, 1u);
    EXPECT_EQ(mem.memStats().portConflictCycles, 1u);
    // Ports are per SM: another SM issues freely the same cycle.
    EXPECT_TRUE(read(mem, 1, 0, addr + 8192, 4, false).accepted);
    // And the port frees next cycle.
    EXPECT_TRUE(read(mem, 0, 1, addr + 8192, 4, false).accepted);
}

TEST(MemSystem, FillFreeConservation)
{
    GpuConfig config = GpuConfig::table4();
    AddressSpace space;
    uint64_t addr = space.allocate(DataKind::Compute, 4 << 20, "buf");
    MemSystem mem(config, space);

    uint64_t cycle = 0;
    for (int i = 0; i < 200; i++) {
        MemIssue issue = read(mem, i % config.numSms, cycle,
                              addr + static_cast<uint64_t>(i) * 4096,
                              4, false);
        if (issue.accepted)
            cycle += 3;
        else
            cycle += 50; // back off and replay later
    }
    mem.drainAll();
    const MemSystemStats &stats = mem.memStats();
    EXPECT_GT(stats.mshrAllocs, 0u);
    EXPECT_EQ(stats.mshrAllocs, stats.mshrFrees);
    EXPECT_EQ(mem.inflight(), 0);
    EXPECT_GT(stats.mshrLivePeak, 0u);
    // The occupancy histogram covered some non-idle time.
    uint64_t busy = 0;
    for (int b = 1; b < memOccupancyBuckets; b++)
        busy += stats.inflightCycles[b];
    EXPECT_GT(busy, 0u);
}

TEST(MemSystem, InfiniteResourcesMatchOracleGolden)
{
    // The clocked request/port model with every resource unlimited
    // must reproduce the pre-refactor latency oracle cycle for
    // cycle. These numbers were captured from the oracle model on
    // the default mobile config at 16x16; any drift here means the
    // characterization figures moved.
    struct Golden
    {
        const char *id;
        uint64_t cycles, instructions, raysTraced;
        uint64_t l1ShaderReads, l1ShaderHits, l1ShaderMisses;
        uint64_t l1RtReads, l1RtHits, l1RtMisses, l1RtPendingHits;
        uint64_t l2RtMisses, dramAccesses;
    };
    const Golden goldens[] = {
        {"BUNNY_AO", 27330, 832, 1280, 564, 330, 205, 24204, 19159,
         1467, 3578, 933, 1153},
        {"SPNZA_AO", 19888, 832, 1280, 592, 398, 169, 31695, 26190,
         1259, 4246, 673, 877},
        {"WKND_PT", 15994, 3874, 743, 1500, 1395, 79, 9668, 8077, 229,
         1362, 100, 222},
    };
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;
    const std::vector<Workload> workloads = allWorkloads();
    for (const Golden &golden : goldens) {
        const Workload *workload = nullptr;
        for (const Workload &cand : workloads) {
            if (cand.id() == golden.id)
                workload = &cand;
        }
        ASSERT_NE(workload, nullptr) << golden.id;
        WorkloadResult result = runWorkload(*workload, options);
        EXPECT_EQ(result.stats.cycles, golden.cycles) << golden.id;
        EXPECT_EQ(result.stats.instructions, golden.instructions)
            << golden.id;
        EXPECT_EQ(result.stats.raysTraced, golden.raysTraced)
            << golden.id;
        EXPECT_EQ(result.l1Shader.reads, golden.l1ShaderReads)
            << golden.id;
        EXPECT_EQ(result.l1Shader.hits, golden.l1ShaderHits)
            << golden.id;
        EXPECT_EQ(result.l1Shader.misses, golden.l1ShaderMisses)
            << golden.id;
        EXPECT_EQ(result.l1Rt.reads, golden.l1RtReads) << golden.id;
        EXPECT_EQ(result.l1Rt.hits, golden.l1RtHits) << golden.id;
        EXPECT_EQ(result.l1Rt.misses, golden.l1RtMisses)
            << golden.id;
        EXPECT_EQ(result.l1Rt.pendingHits, golden.l1RtPendingHits)
            << golden.id;
        EXPECT_EQ(result.l2Rt.misses, golden.l2RtMisses)
            << golden.id;
        EXPECT_EQ(result.dram.accesses, golden.dramAccesses)
            << golden.id;
    }
}

TEST(MemSystem, FiniteResourcesStallAndSlowDown)
{
    // Under the finite Table 4 memory system a cache-stressing
    // workload must record MSHR stalls, and shrinking the MSHR file
    // can only slow the run down.
    const std::vector<Workload> workloads = allWorkloads();
    const Workload *workload = nullptr;
    for (const Workload &cand : workloads) {
        if (cand.id() == "BUNNY_AO")
            workload = &cand;
    }
    ASSERT_NE(workload, nullptr);
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;

    options.config = GpuConfig::table4();
    WorkloadResult finite = runWorkload(*workload, options);

    options.config = GpuConfig::table4();
    options.config.l1MshrEntries = 1;
    WorkloadResult strangled = runWorkload(*workload, options);

    RunOptions unlimited_options;
    unlimited_options.params.width = 16;
    unlimited_options.params.height = 16;
    WorkloadResult unlimited = runWorkload(*workload,
                                           unlimited_options);

    EXPECT_GE(finite.stats.cycles, unlimited.stats.cycles);
    EXPECT_GT(strangled.stats.cycles, finite.stats.cycles);
}

TEST(GoldenParity, RtqQueryPins)
{
    // Scheduler parity anchors beyond the render workloads: the
    // RT-cores-as-compute point-containment query workload, pinned
    // under both the unlimited mobile config and the finite Table 4
    // machine (where the MSHR retry path dominates the schedule).
    // Captured from the pre-scheduler polling loop at 16x16; any
    // drift means the event loop no longer lands on the same cycles.
    struct Pin
    {
        GpuConfig config;
        uint64_t cycles;
    };
    const Pin pins[] = {
        {GpuConfig::mobile(), 5175},
        {GpuConfig::table4(), 28628},
    };
    for (const Pin &pin : pins) {
        RunOptions options;
        options.params.width = 16;
        options.params.height = 16;
        options.config = pin.config;
        WorkloadResult r = runWorkload(
            {SceneId::AMR, ShaderKind::PointContainment}, options);
        EXPECT_EQ(r.id, "AMR_PC");
        EXPECT_EQ(r.stats.cycles, pin.cycles) << pin.config.name;
        EXPECT_EQ(r.stats.instructions, 444u) << pin.config.name;
        EXPECT_EQ(r.stats.raysTraced, 256u) << pin.config.name;
        EXPECT_EQ(r.l1Rt.reads, 2749u) << pin.config.name;
        EXPECT_EQ(r.l1Rt.misses, 96u) << pin.config.name;
        EXPECT_EQ(r.dram.accesses, 181u) << pin.config.name;
    }
}

TEST(GoldenParity, DynamicScenePins)
{
    // A two-frame dynamic run (instance transform update + TLAS
    // refit between frames) exercises beginFrame() state reset under
    // the event scheduler; pinned under both configs like the query
    // workload above.
    struct Pin
    {
        GpuConfig config;
        uint64_t frame0;
        uint64_t total;
    };
    const Pin pins[] = {
        {GpuConfig::mobile(), 10340, 15035},
        {GpuConfig::table4(), 123714, 132966},
    };
    for (const Pin &pin : pins) {
        Scene scene = buildScene(SceneId::REF, 0.2f);
        Gpu gpu(pin.config);
        RenderParams params;
        params.width = 16;
        params.height = 16;
        RayTracingPipeline pipeline(gpu, scene, params);
        pipeline.render(ShaderKind::Shadow);
        EXPECT_EQ(gpu.stats().cycles, pin.frame0) << pin.config.name;
        scene.setInstanceTransform(
            3, Mat4::translate({0.1f, 0.0f, 0.0f}) *
                   scene.instances[3].transform);
        pipeline.beginFrame();
        pipeline.render(ShaderKind::Shadow);
        EXPECT_EQ(gpu.stats().cycles, pin.total) << pin.config.name;
        EXPECT_EQ(gpu.stats().instructions, 992u) << pin.config.name;
        EXPECT_EQ(gpu.memSystem().l1Rt().reads, 28646u)
            << pin.config.name;
        EXPECT_EQ(gpu.memSystem().dram().stats().accesses, 337u)
            << pin.config.name;
    }
}

/** FNV-1a over the bytes of @p text, continuing from @p hash. */
uint64_t
fnv1a(uint64_t hash, const std::string &text)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

TEST(GoldenParity, ObservedOutputsArePinned)
{
    // The cycle pins above hold the simulated schedule; this holds
    // everything observed from it: every registered counter
    // (profile.*, sm<NN>.profile.* and the residency integrals
    // included) and every interval sample, as one FNV-1a digest of
    // the statsJson and interval-series bytes. Table 4 runs exercise
    // the MSHR retry storm, where most landings change little. Each
    // digest also matched the retired cycle-everything polling loop.
    struct Pin
    {
        Workload workload;
        GpuConfig config;
        uint64_t interval;
        uint64_t digest;
    };
    const Pin pins[] = {
        {{SceneId::BUNNY, ShaderKind::AmbientOcclusion},
         GpuConfig::table4(), 500, 11781878327213169817ull},
        {{SceneId::AMR, ShaderKind::PointContainment},
         GpuConfig::table4(), 500, 13373288151099255416ull},
        {{SceneId::WKND, ShaderKind::PathTracing}, GpuConfig::mobile(),
         1000, 3811124429173825115ull},
        {{SceneId::BUNNY, ShaderKind::AmbientOcclusion},
         GpuConfig::mobile(), 1000, 17339789824477161579ull},
        {{SceneId::SPNZA, ShaderKind::AmbientOcclusion},
         GpuConfig::mobile(), 1000, 12660117213596686326ull},
    };
    for (const Pin &pin : pins) {
        RunOptions options;
        options.params.width = 16;
        options.params.height = 16;
        options.config = pin.config;
        options.intervalStats = pin.interval;
        WorkloadResult r = runWorkload(pin.workload, options);
        ASSERT_FALSE(r.intervalSeries.empty());
        uint64_t hash = fnv1a(0xcbf29ce484222325ull, r.statsJson);
        hash = fnv1a(hash, r.intervalSeries.toJson());
        EXPECT_EQ(hash, pin.digest)
            << pin.workload.id() << "/" << pin.config.name;
    }
}

} // namespace
} // namespace lumi
