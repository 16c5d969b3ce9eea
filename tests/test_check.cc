/**
 * @file
 * Tests for the invariant-checking layer (src/check).
 *
 * The corruption tests deliberately break simulator state through
 * test-peer backdoors and assert that the *right* LUMI_CHECK fires
 * in count-and-continue mode. The observer tests establish the other
 * half of the contract: on a healthy run no check fires, and neither
 * the check mode nor a repeated run changes a single reported bit.
 */

#include <gtest/gtest.h>

#include <string>

#include "check/check.hh"
#include "gpu/address_space.hh"
#include "gpu/cache.hh"
#include "gpu/dram.hh"
#include "gpu/mem_system.hh"
#include "gpu/rt_unit.hh"
#include "gpu/simt_core.hh"
#include "gpu/warp_context.hh"
#include "lumibench/runner.hh"
#include "trace/stat_registry.hh"

namespace lumi
{

/** Backdoor into WarpContext's private divergence stack. */
struct WarpContextTestPeer
{
    static void push(WarpContext &wc, uint32_t mask)
    {
        wc.pushMask(mask);
    }

    static void pop(WarpContext &wc) { wc.popMask(); }
};

/** Backdoor into Dram's private counter block. */
struct DramTestPeer
{
    static DramStats &stats(Dram &dram) { return dram.stats_; }
};

} // namespace lumi

using namespace lumi;

namespace
{

RunOptions
tinyOptions()
{
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;
    options.params.samplesPerPixel = 1;
    options.sceneDetail = 0.1f;
    return options;
}

bool
contains(const std::string &haystack, const char *needle)
{
    return haystack.find(needle) != std::string::npos;
}

} // namespace

// --- Satellite: CacheStats::writeMissRate -------------------------

TEST(CacheStatsTest, WriteMissRateGuardsZeroWrites)
{
    CacheStats stats;
    EXPECT_EQ(stats.writeMissRate(), 0.0);
}

TEST(CacheStatsTest, WriteMissRateMirrorsReadMissRate)
{
    CacheStats stats;
    stats.writes = 8;
    stats.writeMisses = 2;
    EXPECT_DOUBLE_EQ(stats.writeMissRate(), 0.25);
    stats.reads = 4;
    stats.readMisses = 3;
    EXPECT_DOUBLE_EQ(stats.readMissRate(), 0.75);
}

// --- Violation counters in the stats schema -----------------------

TEST(CheckStatsTest, ViolationCountersRegisterInEveryBuild)
{
    StatRegistry registry;
    registerCheckStats(registry);
    std::string json = registry.toJson();
    EXPECT_TRUE(contains(json, "check.violations.total"));
    EXPECT_TRUE(contains(json, "check.violations.simt"));
    EXPECT_TRUE(contains(json, "check.violations.sched"));
    EXPECT_TRUE(contains(json, "check.violations.cache"));
    EXPECT_TRUE(contains(json, "check.violations.dram"));
    EXPECT_TRUE(contains(json, "check.violations.rt"));
    EXPECT_TRUE(contains(json, "check.violations.mem"));
    EXPECT_TRUE(contains(json, "check.violations.profile"));
}

TEST(CheckStatsTest, SubsysNamesAreStable)
{
    EXPECT_STREQ(checkSubsysName(CheckSubsys::Simt), "simt");
    EXPECT_STREQ(checkSubsysName(CheckSubsys::Dram), "dram");
    EXPECT_STREQ(checkSubsysName(CheckSubsys::Mem), "mem");
}

#if LUMI_CHECKS_ENABLED

// --- Seeded corruption: the right check fires in count mode -------

TEST(CheckCorruptionTest, EmptyDivergenceMaskFiresSimt)
{
    checks::ScopedCountMode guard;
    WarpContext wc(nullptr, 7);
    WarpContextTestPeer::push(wc, 0);
    EXPECT_EQ(checks::violations(CheckSubsys::Simt), 1u);
    EXPECT_EQ(checks::total(), 1u);
    EXPECT_TRUE(contains(checks::lastMessage(),
                         "empty divergence mask"));
}

TEST(CheckCorruptionTest, EscapingDivergenceMaskFiresSimt)
{
    checks::ScopedCountMode guard;
    WarpContext wc(nullptr, 0, 4); // active mask 0xf
    WarpContextTestPeer::push(wc, 0x30u);
    EXPECT_EQ(checks::violations(CheckSubsys::Simt), 1u);
    EXPECT_TRUE(contains(checks::lastMessage(), "escapes"));
}

TEST(CheckCorruptionTest, UnmatchedPopFiresSimtAndSurvives)
{
    checks::ScopedCountMode guard;
    WarpContext wc(nullptr, 3);
    uint32_t mask_before = wc.activeMask();
    WarpContextTestPeer::pop(wc);
    EXPECT_EQ(checks::violations(CheckSubsys::Simt), 1u);
    EXPECT_TRUE(contains(checks::lastMessage(),
                         "empty divergence stack"));
    // Count mode survived the pop without clobbering the mask.
    EXPECT_EQ(wc.activeMask(), mask_before);
}

TEST(CheckCorruptionTest, UnreconvergedTakeFiresSimt)
{
    checks::ScopedCountMode guard;
    WarpContext wc(nullptr, 1);
    wc.alu(1);
    WarpContextTestPeer::push(wc, 1u);
    (void)wc.take();
    EXPECT_EQ(checks::violations(CheckSubsys::Simt), 1u);
    EXPECT_TRUE(contains(checks::lastMessage(), "unreconverged"));
}

TEST(CheckCorruptionTest, HealthyBranchFiresNothing)
{
    checks::ScopedCountMode guard;
    WarpContext wc(nullptr, 0);
    wc.branch([](int lane) { return lane % 2 == 0; },
              [&] { wc.alu(1); }, [&] { wc.sfu(1); });
    (void)wc.take();
    EXPECT_EQ(checks::total(), 0u);
}

TEST(CheckCorruptionTest, CacheCounterDriftFiresCache)
{
    checks::ScopedCountMode guard;
    Cache cache(1024, 128, 2, 10);
    cache.stats.reads += 3; // drift: reads no one classified
    cache.probe(0, 1);
    EXPECT_GE(checks::violations(CheckSubsys::Cache), 1u);
    EXPECT_TRUE(contains(checks::lastMessage(),
                         "read counter drift"));
}

TEST(CheckCorruptionTest, TimeTravelingFillFiresCache)
{
    checks::ScopedCountMode guard;
    Cache cache(1024, 128, 2, 10);
    cache.fill(0, /*cycle=*/10, /*valid_at=*/5);
    EXPECT_GE(checks::violations(CheckSubsys::Cache), 1u);
}

TEST(CheckCorruptionTest, DramRowHitDriftFiresDram)
{
    checks::ScopedCountMode guard;
    GpuConfig config;
    Dram dram(config);
    DramTestPeer::stats(dram).rowHits =
        DramTestPeer::stats(dram).accesses + 5;
    dram.read(0, 0, 128);
    EXPECT_GE(checks::violations(CheckSubsys::Dram), 1u);
    EXPECT_TRUE(contains(checks::lastMessage(), "row-hit counter"));
}

TEST(CheckCorruptionTest, BadWakeFiresSched)
{
    checks::ScopedCountMode guard;
    GpuConfig config;
    config.numSms = 1;
    AddressSpace space;
    MemSystem mem(config, space);
    GpuStats stats;
    OccupancyGauge gauge;
    CycleProfile profile;
    profile.init(config.numSms);
    RtUnit rt(0, config, mem, stats, gauge, profile);
    SimtCore core(0, config, mem, rt, stats, gauge);

    core.wakeWarp(999, 0); // out of range; count mode survives
    EXPECT_EQ(checks::violations(CheckSubsys::Sched), 1u);
    core.wakeWarp(0, 0); // slot exists but holds no sleeping warp
    EXPECT_GE(checks::violations(CheckSubsys::Sched), 2u);
}

TEST(CheckCorruptionTest, OverlappingRangeFiresMem)
{
    checks::ScopedCountMode guard;
    AddressSpace space;
    space.registerRange(0x20000, 256, DataKind::Triangle, "a");
    space.registerRange(0x20080, 256, DataKind::Triangle, "b");
    EXPECT_EQ(checks::violations(CheckSubsys::Mem), 1u);
    EXPECT_TRUE(contains(checks::lastMessage(), "overlaps"));
}

TEST(CheckCorruptionTest, EmptyRangeFiresMem)
{
    checks::ScopedCountMode guard;
    AddressSpace space;
    space.registerRange(0x20000, 0, DataKind::Triangle, "empty");
    EXPECT_EQ(checks::violations(CheckSubsys::Mem), 1u);
}

TEST(CheckCorruptionTest, ScopedCountModeRestoresState)
{
    CheckMode before = checks::mode();
    {
        checks::ScopedCountMode guard;
        EXPECT_EQ(checks::mode(), CheckMode::Count);
        WarpContext wc(nullptr, 0);
        WarpContextTestPeer::pop(wc);
        EXPECT_EQ(checks::total(), 1u);
    }
    EXPECT_EQ(checks::mode(), before);
    EXPECT_EQ(checks::total(), 0u);
}

#endif // LUMI_CHECKS_ENABLED

// --- Observer contract on a real workload -------------------------

/**
 * A healthy end-to-end run must report zero violations, and the
 * check mode must not perturb a single cycle or stat: checks only
 * read model state. (CI additionally diffs a checks-ON build against
 * a -DLUMI_CHECKS=OFF build of the same workload.)
 */
TEST(CheckObserverTest, ModeDoesNotPerturbTiming)
{
    Workload workload{SceneId::BUNNY, ShaderKind::AmbientOcclusion};

    WorkloadResult fail_fast = runWorkload(workload, tinyOptions());

    checks::ScopedCountMode guard;
    WorkloadResult counted = runWorkload(workload, tinyOptions());
#if LUMI_CHECKS_ENABLED
    EXPECT_EQ(checks::total(), 0u) << checks::lastMessage();
#endif

    EXPECT_EQ(fail_fast.stats.cycles, counted.stats.cycles);
    EXPECT_EQ(fail_fast.stats.instructions,
              counted.stats.instructions);
    EXPECT_EQ(fail_fast.stats.raysTraced, counted.stats.raysTraced);
    EXPECT_EQ(fail_fast.statsJson, counted.statsJson);
}

TEST(CheckObserverTest, RepeatedRunsAreByteIdentical)
{
    Workload workload{SceneId::SPNZA, ShaderKind::Shadow};
    WorkloadResult first = runWorkload(workload, tinyOptions());
    WorkloadResult second = runWorkload(workload, tinyOptions());
    EXPECT_EQ(first.stats.cycles, second.stats.cycles);
    EXPECT_EQ(first.statsJson, second.statsJson);
}
