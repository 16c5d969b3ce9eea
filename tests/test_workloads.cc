/**
 * @file
 * Tests for the workload layer: the 46-workload enumeration, the
 * Table 2 subset, the runner end-to-end, and the report helpers.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "lumibench/report.hh"
#include "lumibench/runner.hh"
#include "lumibench/workload.hh"
#include "rt/pipeline.hh"
#include "scene/scene_library.hh"

namespace lumi
{
namespace
{

TEST(Workloads, FortySixUniqueWorkloads)
{
    std::vector<Workload> workloads = allWorkloads();
    EXPECT_EQ(workloads.size(), 46u);
    std::vector<std::string> ids;
    for (const Workload &w : workloads)
        ids.push_back(w.id());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
    // CHSNT appears exactly once (PT only).
    int chsnt = 0;
    for (const std::string &id : ids) {
        if (id.rfind("CHSNT", 0) == 0)
            chsnt++;
    }
    EXPECT_EQ(chsnt, 1);
}

TEST(Workloads, SubsetMatchesTable2)
{
    std::vector<Workload> subset = representativeSubset();
    ASSERT_EQ(subset.size(), 8u);
    std::vector<std::string> expected = {
        "SPNZA_AO", "BUNNY_AO", "WKND_PT", "SHIP_SH",
        "ROBOT_SH", "BATH_PT", "PARK_PT", "CHSNT_PT"};
    for (size_t i = 0; i < subset.size(); i++)
        EXPECT_EQ(subset[i].id(), expected[i]);
    // Every subset member is a real workload.
    std::vector<Workload> all = allWorkloads();
    for (const Workload &w : subset) {
        bool found = false;
        for (const Workload &other : all)
            found = found || other.id() == w.id();
        EXPECT_TRUE(found) << w.id();
    }
}

TEST(Workloads, GameWorkloadsAreSeparate)
{
    std::vector<Workload> games = gameWorkloads();
    EXPECT_EQ(games.size(), 9u);
    std::vector<Workload> all = allWorkloads();
    for (const Workload &g : games) {
        for (const Workload &w : all)
            EXPECT_NE(g.id(), w.id());
    }
}

TEST(Workloads, ChsntOnlySupportsPt)
{
    EXPECT_TRUE(sceneSupportsShader(SceneId::CHSNT,
                                    ShaderKind::PathTracing));
    EXPECT_FALSE(sceneSupportsShader(SceneId::CHSNT,
                                     ShaderKind::Shadow));
    EXPECT_FALSE(sceneSupportsShader(
        SceneId::CHSNT, ShaderKind::AmbientOcclusion));
    EXPECT_TRUE(sceneSupportsShader(SceneId::BUNNY,
                                    ShaderKind::Shadow));
}

TEST(Runner, EndToEndWorkload)
{
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;
    options.sceneDetail = 0.15f;
    WorkloadResult result =
        runWorkload({SceneId::REF, ShaderKind::Shadow}, options);
    EXPECT_EQ(result.id, "REF_SH");
    EXPECT_GT(result.stats.cycles, 0u);
    EXPECT_GT(result.stats.raysTraced, 0u);
    EXPECT_GT(result.ipcThread(), 0.0);
    EXPECT_EQ(result.metrics.workload, "REF_SH");
    EXPECT_EQ(result.metrics.values.size(), metricSchema().size());
    EXPECT_GT(result.accelStats.instances, 0u);
    EXPECT_FALSE(result.timeline.empty());
    EXPECT_GT(result.analytical.measuredIpc, 0.0);
}

TEST(Runner, ComputeWorkload)
{
    RunOptions options;
    WorkloadResult result = runCompute(ComputeKernel::Nn, options);
    EXPECT_EQ(result.id, "nn");
    EXPECT_GT(result.stats.instructions, 0u);
    EXPECT_EQ(result.stats.raysTraced, 0u);
    // RT metric entries are NaN for compute.
    int idx = metricIndex("rt_occupancy");
    EXPECT_TRUE(std::isnan(result.metrics.values[idx]));
}

TEST(Runner, DesktopConfigFasterThanMobile)
{
    RunOptions mobile;
    mobile.params.width = 24;
    mobile.params.height = 24;
    mobile.sceneDetail = 0.2f;
    RunOptions desktop = mobile;
    desktop.config = GpuConfig::desktop();
    Workload w{SceneId::BUNNY, ShaderKind::AmbientOcclusion};
    WorkloadResult r_mobile = runWorkload(w, mobile);
    WorkloadResult r_desktop = runWorkload(w, desktop);
    // More SMs and memory channels: fewer cycles, higher IPC.
    EXPECT_LT(r_desktop.stats.cycles, r_mobile.stats.cycles);
    EXPECT_GT(r_desktop.ipcThread(), r_mobile.ipcThread());
}

TEST(Runner, DramBandwidthScaleTakesEffect)
{
    RunOptions base;
    base.params.width = 16;
    base.params.height = 16;
    base.sceneDetail = 0.2f;
    RunOptions throttled = base;
    throttled.dramBandwidthScale = 0.25;
    Workload w{SceneId::PARTY, ShaderKind::PathTracing};
    WorkloadResult fast = runWorkload(w, base);
    WorkloadResult slow = runWorkload(w, throttled);
    // Throttled DRAM can only slow things down (or leave them equal
    // for latency-bound workloads -- the Sec. 5.3.2 observation).
    EXPECT_GE(slow.stats.cycles, fast.stats.cycles);
    // Compute kernels go through the same Gpu set-up: a
    // bandwidth-bound kernel must actually slow down.
    WorkloadResult kmeans_fast = runCompute(ComputeKernel::Kmeans, base);
    WorkloadResult kmeans_slow =
        runCompute(ComputeKernel::Kmeans, throttled);
    EXPECT_GT(kmeans_slow.stats.cycles, kmeans_fast.stats.cycles);
}

TEST(Runner, CarriesFrameAndTimelineOfTheOneSimulation)
{
    // The CLI writes --ppm-dir / --timeline-dir from the result, so
    // the result must carry exactly what a bare pipeline render on
    // its own Gpu produces.
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;
    options.sceneDetail = 0.2f;
    const Workload w{SceneId::BUNNY, ShaderKind::AmbientOcclusion};
    WorkloadResult result = runWorkload(w, options);

    Scene scene = buildScene(w.scene, options.sceneDetail);
    Gpu gpu(options.config, options.timelineInterval);
    RayTracingPipeline pipeline(gpu, scene, options.params);
    pipeline.render(w.shader);
    ASSERT_EQ(result.framebuffer.size(), 16u * 16u);
    EXPECT_EQ(result.framebuffer, pipeline.framebuffer());
    std::vector<TimelineWindow> windows =
        gpu.timeline().windows(result.rtUnits);
    ASSERT_EQ(result.timeline.size(), windows.size());
    for (size_t i = 0; i < windows.size(); i++) {
        EXPECT_EQ(result.timeline[i].cycleEnd, windows[i].cycleEnd);
        EXPECT_EQ(result.timeline[i].ipc, windows[i].ipc);
    }

    // Query and compute workloads render no image.
    EXPECT_TRUE(runWorkload({SceneId::AMR, ShaderKind::PointContainment},
                            options)
                    .framebuffer.empty());
    EXPECT_TRUE(runCompute(ComputeKernel::Nn, options).framebuffer.empty());
}

TEST(Report, TextTableAlignsColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", TextTable::num(1.5, 2)});
    table.addRow({"b", "x"});
    std::string text = table.render();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("1.50"), std::string::npos);
    EXPECT_NE(text.find("---"), std::string::npos);
    // Banner contains the title.
    EXPECT_NE(banner("Figure 14").find("Figure 14"),
              std::string::npos);
}

TEST(RunOptions, FromEnvDefaults)
{
    // With no env overrides the defaults apply.
    unsetenv("LUMI_RES");
    unsetenv("LUMI_SPP");
    unsetenv("LUMI_DETAIL");
    unsetenv("LUMI_QUICK");
    RunOptions options = RunOptions::fromEnv();
    EXPECT_EQ(options.params.width, 96);
    EXPECT_EQ(options.params.samplesPerPixel, 2);
    EXPECT_FLOAT_EQ(options.sceneDetail, 2.0f);
    // Quick mode shrinks everything.
    setenv("LUMI_QUICK", "1", 1);
    RunOptions quick = RunOptions::fromEnv();
    EXPECT_EQ(quick.params.width, 32);
    EXPECT_LT(quick.sceneDetail, 0.5f);
    unsetenv("LUMI_QUICK");
}

} // namespace
} // namespace lumi
