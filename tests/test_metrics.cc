/**
 * @file
 * Tests for the metric schema and collection: the 35 + 29 + 23
 * structure of Sec. 3.4, value alignment, NaN handling for compute
 * workloads, and CSV export.
 */

#include <cmath>
#include <limits>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "bvh/accel.hh"
#include "compute/rodinia.hh"
#include "metrics/metrics.hh"
#include "rt/pipeline.hh"
#include "scene/scene_library.hh"

namespace lumi
{
namespace
{

TEST(MetricSchema, PaperGroupSizes)
{
    const auto &schema = metricSchema();
    EXPECT_EQ(schema.size(), 87u); // 35 + 29 + 23
    int gpu = 0, rt = 0, scene = 0, rt_specific = 0;
    for (const MetricDef &def : schema) {
        gpu += def.group == MetricGroup::Gpu;
        rt += def.group == MetricGroup::Rt;
        scene += def.group == MetricGroup::Scene;
        rt_specific += def.rtSpecific();
    }
    EXPECT_EQ(gpu, 35);
    EXPECT_EQ(rt, 29);
    EXPECT_EQ(scene, 23);
    EXPECT_EQ(rt_specific, 29 + 23);
    // Each group is one contiguous block, in the paper's order.
    for (size_t i = 1; i < schema.size(); i++)
        EXPECT_LE(schema[i - 1].group, schema[i].group)
            << schema[i].name;
    // Both arch-dependent and arch-independent metrics exist, the
    // deliberate deviation from pure MICA the paper defends.
    int independent = 0;
    for (const MetricDef &def : schema) {
        if (def.archIndependent)
            independent++;
    }
    EXPECT_GT(independent, 10);
    EXPECT_LT(independent, static_cast<int>(schema.size()));
}

TEST(MetricSchema, NamesUniqueAndIndexed)
{
    const auto &schema = metricSchema();
    for (size_t i = 0; i < schema.size(); i++) {
        EXPECT_EQ(metricIndex(schema[i].name), static_cast<int>(i))
            << schema[i].name;
    }
    EXPECT_EQ(metricIndex("no_such_metric"), -1);
    // Table 3 characteristics must exist.
    EXPECT_GE(metricIndex("dram_row_locality"), 0);
    EXPECT_GE(metricIndex("dram_utilization"), 0);
    EXPECT_GE(metricIndex("bvh_total_depth"), 0);
    EXPECT_GE(metricIndex("rt_mem_writes_per_ray"), 0);
    EXPECT_GE(metricIndex("l1_rt_read_hit_rate"), 0);
    EXPECT_GE(metricIndex("rt_frac_tlas_leaf"), 0);
    EXPECT_GE(metricIndex("rt_frac_bvh_nodes"), 0);
    EXPECT_GE(metricIndex("rt_avg_active_cycles"), 0);
}

TEST(MetricCollect, RayTracingWorkloadIsFullyPopulated)
{
    Scene scene = buildScene(SceneId::REF, 0.25f);
    Gpu gpu(GpuConfig::mobile());
    RenderParams params;
    params.width = 16;
    params.height = 16;
    RayTracingPipeline pipeline(gpu, scene, params);
    pipeline.render(ShaderKind::AmbientOcclusion);

    AccelStats accel_stats = pipeline.accel().computeStats();
    WorkloadContext context;
    context.scene = &scene;
    context.accelStats = &accel_stats;
    context.shader = ShaderKind::AmbientOcclusion;
    context.params = params;

    MetricVector row = collectMetrics(gpu, &context);
    ASSERT_EQ(row.values.size(), metricSchema().size());
    for (size_t i = 0; i < row.values.size(); i++) {
        EXPECT_TRUE(std::isfinite(row.values[i]))
            << metricSchema()[i].name;
    }
    // Spot-check semantic values.
    EXPECT_GT(row.values[metricIndex("ipc_thread")], 0.0);
    EXPECT_EQ(row.values[metricIndex("shader_is_ao")], 1.0);
    EXPECT_EQ(row.values[metricIndex("shader_is_pt")], 0.0);
    EXPECT_EQ(row.values[metricIndex("scene_enclosed")], 1.0);
    double hit_rate = row.values[metricIndex("ray_hit_rate")];
    EXPECT_GE(hit_rate, 0.0);
    EXPECT_LE(hit_rate, 1.0);
    // Fractions of RT fetch kinds sum to ~1.
    double frac_sum =
        row.values[metricIndex("rt_frac_tlas_internal")] +
        row.values[metricIndex("rt_frac_tlas_leaf")] +
        row.values[metricIndex("rt_frac_blas_internal")] +
        row.values[metricIndex("rt_frac_blas_leaf")] +
        row.values[metricIndex("rt_frac_instance")] +
        row.values[metricIndex("rt_frac_triangle")] +
        row.values[metricIndex("rt_frac_procedural")];
    EXPECT_NEAR(frac_sum, 1.0, 1e-6);
}

TEST(MetricCollect, ComputeWorkloadHasNanRtGroups)
{
    Gpu gpu(GpuConfig::mobile());
    runComputeKernel(gpu, ComputeKernel::Nn);
    MetricVector row = collectMetrics(gpu, nullptr);
    ASSERT_EQ(row.values.size(), metricSchema().size());
    const auto &schema = metricSchema();
    for (size_t i = 0; i < schema.size(); i++) {
        if (schema[i].rtSpecific()) {
            EXPECT_TRUE(std::isnan(row.values[i]))
                << schema[i].name;
        } else {
            EXPECT_TRUE(std::isfinite(row.values[i]))
                << schema[i].name;
        }
    }
}

TEST(MetricCollect, GroupDecidesWhichMetricsAreNan)
{
    // A scene and its accel stats, but a GPU that traced no ray: the
    // RT group is NaN while the scene group is still defined.
    Scene scene = buildScene(SceneId::REF, 0.25f);
    AccelStructure accel;
    accel.build(scene);
    AccelStats accel_stats = accel.computeStats();
    WorkloadContext context;
    context.scene = &scene;
    context.accelStats = &accel_stats;

    Gpu gpu(GpuConfig::mobile());
    runComputeKernel(gpu, ComputeKernel::Nn);
    MetricVector row = collectMetrics(gpu, &context);
    ASSERT_EQ(row.values.size(), metricSchema().size());
    int rt_nan = 0, scene_finite = 0;
    const auto &schema = metricSchema();
    for (size_t i = 0; i < schema.size(); i++) {
        if (schema[i].group == MetricGroup::Rt)
            rt_nan += std::isnan(row.values[i]);
        else if (schema[i].group == MetricGroup::Scene)
            scene_finite += std::isfinite(row.values[i]);
    }
    EXPECT_EQ(rt_nan, 29);
    EXPECT_EQ(scene_finite, 23);
    EXPECT_EQ(row.values[metricIndex("bvh_total_depth")],
              accel_stats.totalDepth);
}

TEST(MetricCollect, RayFractionsMatchShader)
{
    Scene scene = buildScene(SceneId::BUNNY, 0.2f);
    Gpu gpu(GpuConfig::mobile());
    RenderParams params;
    params.width = 16;
    params.height = 16;
    params.aoRays = 3;
    RayTracingPipeline pipeline(gpu, scene, params);
    pipeline.render(ShaderKind::AmbientOcclusion);
    AccelStats accel_stats = pipeline.accel().computeStats();
    WorkloadContext context;
    context.scene = &scene;
    context.accelStats = &accel_stats;
    context.shader = ShaderKind::AmbientOcclusion;
    MetricVector row = collectMetrics(gpu, &context);
    EXPECT_GT(row.values[metricIndex("rays_frac_ao")], 0.5);
    EXPECT_EQ(row.values[metricIndex("rays_frac_shadow")], 0.0);
    EXPECT_EQ(row.values[metricIndex("rays_frac_secondary")], 0.0);
}

TEST(MetricCsv, WritesHeaderAndRows)
{
    MetricVector a, b;
    a.workload = "W1";
    b.workload = "W2";
    a.values.assign(metricSchema().size(), 1.5);
    b.values.assign(metricSchema().size(), -0.25);
    std::string path = ::testing::TempDir() + "/metrics_test.csv";
    ASSERT_TRUE(writeCsv(path, {a, b}));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header, line1, line2;
    std::getline(in, header);
    std::getline(in, line1);
    std::getline(in, line2);
    EXPECT_EQ(header.rfind("workload,", 0), 0u);
    // Header has 1 + 87 comma-separated fields.
    size_t commas = std::count(header.begin(), header.end(), ',');
    EXPECT_EQ(commas, metricSchema().size());
    EXPECT_EQ(line1.rfind("W1,", 0), 0u);
    EXPECT_EQ(line2.rfind("W2,", 0), 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace lumi

namespace lumi
{
namespace
{

TEST(MetricCsv, RoundTrip)
{
    MetricVector a;
    a.workload = "ROUND";
    a.values.assign(metricSchema().size(), 0.0);
    for (size_t i = 0; i < a.values.size(); i++)
        a.values[i] = 0.5 * static_cast<double>(i) - 3.0;
    // A NaN survives as NaN.
    a.values[metricIndex("rt_occupancy")] =
        std::numeric_limits<double>::quiet_NaN();
    std::string path = ::testing::TempDir() + "/roundtrip.csv";
    ASSERT_TRUE(writeCsv(path, {a}));
    std::vector<MetricVector> rows = readCsv(path);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].workload, "ROUND");
    ASSERT_EQ(rows[0].values.size(), a.values.size());
    for (size_t i = 0; i < a.values.size(); i++) {
        if (std::isnan(a.values[i])) {
            EXPECT_TRUE(std::isnan(rows[0].values[i]));
        } else {
            EXPECT_NEAR(rows[0].values[i], a.values[i], 1e-4);
        }
    }
    std::remove(path.c_str());
}

TEST(MetricCsv, ReadMissingFileIsEmpty)
{
    EXPECT_TRUE(readCsv("/nonexistent/never.csv").empty());
}

} // namespace
} // namespace lumi
