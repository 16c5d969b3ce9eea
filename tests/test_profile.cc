/**
 * @file
 * Tests for the top-down cycle-accounting profiler (gpu/profile.hh).
 *
 * The load-bearing property is conservation: every SM issue slot and
 * every RT-unit cycle lands in exactly one bucket, so the per-run
 * account sums to cycles x units — fuzzed here across all three
 * workload families (graphics, RTQ queries, Rodinia-equivalent
 * compute) under both the unlimited-resource mobile config and the
 * finite table4() config. The in-model LUMI_CHECK already aborts a
 * run whose per-SM account leaks, so these tests re-assert the
 * aggregate from outside the model and pin the semantic shape:
 * compute kernels never wait on RT, procedural scenes charge
 * busy_procedural, finite memory resources surface no_ready_warp.
 * The cache round-trip test closes the observability loop: profile
 * buckets rehydrate from a cached report bit-exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "gpu/config.hh"
#include "gpu/profile.hh"
#include "lumibench/runner.hh"
#include "lumibench/workload.hh"

using namespace lumi;
using campaign::Job;

namespace
{

RunOptions
tinyOptions(GpuConfig config)
{
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;
    options.params.samplesPerPixel = 1;
    options.sceneDetail = 0.1f;
    options.config = config;
    return options;
}

/** Assert the aggregate account sums to cycles x units, both sides. */
void
expectConserved(const WorkloadResult &result, int num_sms)
{
    uint64_t slots =
        result.stats.cycles * static_cast<uint64_t>(num_sms);
    EXPECT_EQ(result.profileSm.sum(), slots) << result.id;
    EXPECT_EQ(result.profileRt.sum(), slots) << result.id;
}

} // namespace

// --- CycleProfile arithmetic --------------------------------------

TEST(CycleProfile, AddAndMoveMaintainTotals)
{
    CycleProfile profile;
    profile.init(2);
    profile.addSm(0, SmCycleBucket::Issued, 3);
    profile.addSm(1, SmCycleBucket::Drain, 5);
    profile.addRt(0, RtCycleBucket::BusyBox, 7);

    EXPECT_EQ(profile.sm(0).cycles[static_cast<int>(
                  SmCycleBucket::Issued)],
              3u);
    EXPECT_EQ(profile.smTotal().sum(), 8u);
    EXPECT_EQ(profile.rtTotal().sum(), 7u);

    // moveSm reclassifies without changing the total (drain tails
    // become sync when the next kernel launches).
    profile.moveSm(1, SmCycleBucket::Drain, SmCycleBucket::Sync, 5);
    EXPECT_EQ(profile.sm(1).cycles[static_cast<int>(
                  SmCycleBucket::Drain)],
              0u);
    EXPECT_EQ(profile.smTotal().cycles[static_cast<int>(
                  SmCycleBucket::Sync)],
              5u);
    EXPECT_EQ(profile.smTotal().sum(), 8u);
}

TEST(CycleProfile, BucketNamesAreStable)
{
    EXPECT_STREQ(smCycleBucketName(SmCycleBucket::Issued), "issued");
    EXPECT_STREQ(smCycleBucketName(SmCycleBucket::MemPending),
                 "mem_pending");
    EXPECT_STREQ(smCycleBucketName(SmCycleBucket::RtWait),
                 "rt_wait");
    EXPECT_STREQ(smCycleBucketName(SmCycleBucket::Sync), "sync");
    EXPECT_STREQ(smCycleBucketName(SmCycleBucket::NoReadyWarp),
                 "no_ready_warp");
    EXPECT_STREQ(smCycleBucketName(SmCycleBucket::Empty), "empty");
    EXPECT_STREQ(smCycleBucketName(SmCycleBucket::Drain), "drain");
    EXPECT_STREQ(rtCycleBucketName(RtCycleBucket::BusyBox),
                 "busy_box");
    EXPECT_STREQ(rtCycleBucketName(RtCycleBucket::BusyTri),
                 "busy_tri");
    EXPECT_STREQ(rtCycleBucketName(RtCycleBucket::BusyProcedural),
                 "busy_procedural");
    EXPECT_STREQ(rtCycleBucketName(RtCycleBucket::FetchWait),
                 "fetch_wait");
    EXPECT_STREQ(rtCycleBucketName(RtCycleBucket::WritebackStall),
                 "writeback_stall");
    EXPECT_STREQ(rtCycleBucketName(RtCycleBucket::Idle), "idle");
}

// --- Conservation fuzz: families x configs ------------------------

struct ConservationPoint
{
    const char *tag;
    SceneId scene;
    ShaderKind shader;
};

// Without this, gtest prints the point's raw bytes, tag pointer
// included, so the discovered ctest name would change with every
// address-space layout.
void
PrintTo(const ConservationPoint &point, std::ostream *os)
{
    *os << point.tag;
}

class ProfileConservation
    : public ::testing::TestWithParam<ConservationPoint>
{
};

TEST_P(ProfileConservation, HoldsUnderUnlimitedConfig)
{
    const ConservationPoint &point = GetParam();
    GpuConfig config = GpuConfig::mobile();
    WorkloadResult result = runWorkload(
        {point.scene, point.shader}, tinyOptions(config));
    expectConserved(result, config.numSms);
}

TEST_P(ProfileConservation, HoldsUnderTable4Config)
{
    const ConservationPoint &point = GetParam();
    GpuConfig config = GpuConfig::table4();
    WorkloadResult result = runWorkload(
        {point.scene, point.shader}, tinyOptions(config));
    expectConserved(result, config.numSms);
}

INSTANTIATE_TEST_SUITE_P(
    Families, ProfileConservation,
    ::testing::Values(
        // Graphics: one per shader type, plus the procedural and
        // alpha-masking scenes that exercise special RT paths.
        ConservationPoint{"spnza_ao", SceneId::SPNZA,
                          ShaderKind::AmbientOcclusion},
        ConservationPoint{"bunny_pt", SceneId::BUNNY,
                          ShaderKind::PathTracing},
        ConservationPoint{"ship_sh", SceneId::SHIP,
                          ShaderKind::Shadow},
        ConservationPoint{"wknd_pt", SceneId::WKND,
                          ShaderKind::PathTracing},
        ConservationPoint{"chsnt_pt", SceneId::CHSNT,
                          ShaderKind::PathTracing},
        // RTQ: RT cores as compute queries.
        ConservationPoint{"amr_pc", SceneId::AMR,
                          ShaderKind::PointContainment},
        ConservationPoint{"pts_knn", SceneId::PTS,
                          ShaderKind::Knn}),
    [](const ::testing::TestParamInfo<ConservationPoint> &info) {
        return std::string(info.param.tag);
    });

TEST(ProfileConservationCompute, HoldsForComputeKernels)
{
    for (GpuConfig config :
         {GpuConfig::mobile(), GpuConfig::table4()}) {
        for (ComputeKernel kernel :
             {ComputeKernel::Bfs, ComputeKernel::Nn,
              ComputeKernel::Kmeans}) {
            WorkloadResult result =
                runCompute(kernel, tinyOptions(config));
            expectConserved(result, config.numSms);
        }
    }
}

// --- Semantic shape of the taxonomy -------------------------------

TEST(ProfileSemantics, ComputeKernelsNeverWaitOnRt)
{
    WorkloadResult result = runCompute(
        ComputeKernel::Bfs, tinyOptions(GpuConfig::mobile()));
    const uint64_t *sm = result.profileSm.cycles;
    const uint64_t *rt = result.profileRt.cycles;
    EXPECT_EQ(sm[static_cast<int>(SmCycleBucket::RtWait)], 0u);
    EXPECT_GT(sm[static_cast<int>(SmCycleBucket::Issued)], 0u);
    // The RT units see no rays: the whole account is idle.
    EXPECT_EQ(rt[static_cast<int>(RtCycleBucket::Idle)],
              result.profileRt.sum());
}

TEST(ProfileSemantics, ProceduralScenesChargeProceduralBucket)
{
    WorkloadResult wknd = runWorkload(
        {SceneId::WKND, ShaderKind::PathTracing},
        tinyOptions(GpuConfig::mobile()));
    WorkloadResult bunny = runWorkload(
        {SceneId::BUNNY, ShaderKind::PathTracing},
        tinyOptions(GpuConfig::mobile()));
    EXPECT_GT(wknd.profileRt.cycles[static_cast<int>(
                  RtCycleBucket::BusyProcedural)],
              0u);
    EXPECT_GT(bunny.profileRt.cycles[static_cast<int>(
                  RtCycleBucket::BusyTri)],
              0u);
    EXPECT_EQ(bunny.profileRt.cycles[static_cast<int>(
                  RtCycleBucket::BusyProcedural)],
              0u);
    // Graphics workloads park warps in traceRay.
    EXPECT_GT(bunny.profileSm.cycles[static_cast<int>(
                  SmCycleBucket::RtWait)],
              0u);
}

TEST(ProfileSemantics, FiniteResourcesSurfaceNoReadyWarp)
{
    // Under table4() the MSHR/port limits throttle memory-level
    // parallelism, so some cycles must find every warp blocked: the
    // latency-not-hidden bucket the CI smoke also pins.
    WorkloadResult result = runWorkload(
        {SceneId::SPNZA, ShaderKind::AmbientOcclusion},
        tinyOptions(GpuConfig::table4()));
    EXPECT_GT(result.profileSm.cycles[static_cast<int>(
                  SmCycleBucket::NoReadyWarp)],
              0u);
}

// --- Determinism and cache round-trip -----------------------------

TEST(ProfileDeterminism, RepeatedRunsProduceIdenticalAccounts)
{
    RunOptions options = tinyOptions(GpuConfig::mobile());
    Workload workload{SceneId::REF, ShaderKind::Shadow};
    WorkloadResult a = runWorkload(workload, options);
    WorkloadResult b = runWorkload(workload, options);
    EXPECT_EQ(a.statsJson, b.statsJson);
    for (int bucket = 0; bucket < numSmCycleBuckets; bucket++)
        EXPECT_EQ(a.profileSm.cycles[bucket],
                  b.profileSm.cycles[bucket]);
    for (int bucket = 0; bucket < numRtCycleBuckets; bucket++)
        EXPECT_EQ(a.profileRt.cycles[bucket],
                  b.profileRt.cycles[bucket]);
}

TEST(ProfileCacheRoundTrip, BucketsRehydrateBitExactly)
{
    RunOptions options = tinyOptions(GpuConfig::mobile());
    Workload workload{SceneId::BUNNY, ShaderKind::AmbientOcclusion};
    Job job = Job::rayTracing(workload, options);
    WorkloadResult cold = runWorkload(workload, options);

    std::string dir =
        (std::filesystem::temp_directory_path() /
         ("lumi_profile_cache_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string path = dir + "/" + campaign::cacheKey(job);
    ASSERT_TRUE(campaign::writeCachedResult(path, job, cold));

    WorkloadResult warm;
    ASSERT_TRUE(campaign::readCachedResult(path, job, warm));
    // The stat dump round-trips byte-identically, and the typed
    // bucket structs rehydrate to the exact same counters.
    EXPECT_EQ(warm.statsJson, cold.statsJson);
    for (int bucket = 0; bucket < numSmCycleBuckets; bucket++)
        EXPECT_EQ(warm.profileSm.cycles[bucket],
                  cold.profileSm.cycles[bucket]);
    for (int bucket = 0; bucket < numRtCycleBuckets; bucket++)
        EXPECT_EQ(warm.profileRt.cycles[bucket],
                  cold.profileRt.cycles[bucket]);
    EXPECT_GT(warm.profileSm.sum(), 0u);
    std::filesystem::remove_all(dir);
}
