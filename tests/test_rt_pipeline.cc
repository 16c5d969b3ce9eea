/**
 * @file
 * Integration tests for the ray tracing pipeline: all three shaders
 * render, images are plausible, shader-specific behaviors (anyhit,
 * intersection shaders, shadow occlusion) show up in the statistics,
 * and runs are deterministic.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "rt/pipeline.hh"
#include "rt/shading.hh"
#include "scene/scene_library.hh"

namespace lumi
{
namespace
{

RenderParams
tinyParams()
{
    RenderParams params;
    params.width = 16;
    params.height = 16;
    params.samplesPerPixel = 1;
    params.maxDepth = 2;
    params.aoRays = 2;
    return params;
}

double
framebufferMean(const std::vector<Vec3> &fb)
{
    double sum = 0.0;
    for (const Vec3 &p : fb)
        sum += (p.x + p.y + p.z) / 3.0;
    return fb.empty() ? 0.0 : sum / fb.size();
}

TEST(Pipeline, AoRenderProducesImage)
{
    Scene scene = buildScene(SceneId::BUNNY, 0.2f);
    Gpu gpu(GpuConfig::mobile());
    RayTracingPipeline pipeline(gpu, scene, tinyParams());
    pipeline.render(ShaderKind::AmbientOcclusion);
    double mean = framebufferMean(pipeline.framebuffer());
    EXPECT_GT(mean, 0.01);
    EXPECT_LT(mean, 2.0);
    EXPECT_GT(gpu.stats().raysByKind[static_cast<int>(
                  RayKind::AmbientOcclusion)],
              0u);
    EXPECT_GT(gpu.stats().cycles, 0u);
}

TEST(Pipeline, ShadowRenderUsesOcclusionRays)
{
    Scene scene = buildScene(SceneId::REF, 0.25f);
    Gpu gpu(GpuConfig::mobile());
    RayTracingPipeline pipeline(gpu, scene, tinyParams());
    pipeline.render(ShaderKind::Shadow);
    const GpuStats &stats = gpu.stats();
    uint64_t primary =
        stats.raysByKind[static_cast<int>(RayKind::Primary)];
    uint64_t shadow =
        stats.raysByKind[static_cast<int>(RayKind::Shadow)];
    EXPECT_EQ(primary, 256u);
    // One shadow ray per light per hit pixel; REF is enclosed so all
    // pixels hit.
    EXPECT_EQ(shadow, 256u * scene.lights.size());
    EXPECT_GT(framebufferMean(pipeline.framebuffer()), 0.005);
}

TEST(Pipeline, PathTracingBounces)
{
    Scene scene = buildScene(SceneId::REF, 0.25f);
    Gpu gpu(GpuConfig::mobile());
    RenderParams params = tinyParams();
    params.maxDepth = 3;
    RayTracingPipeline pipeline(gpu, scene, params);
    pipeline.render(ShaderKind::PathTracing);
    const GpuStats &stats = gpu.stats();
    uint64_t primary =
        stats.raysByKind[static_cast<int>(RayKind::Primary)];
    uint64_t secondary =
        stats.raysByKind[static_cast<int>(RayKind::Secondary)];
    EXPECT_EQ(primary, 256u);
    // Enclosed scene: every path survives to bounce maxDepth-1 times.
    EXPECT_EQ(secondary, 256u * (params.maxDepth - 1));
}

TEST(Pipeline, OpenScenePathsDieAtMiss)
{
    Scene scene = buildScene(SceneId::WKND, 0.3f);
    Gpu gpu(GpuConfig::mobile());
    RenderParams params = tinyParams();
    params.maxDepth = 4;
    RayTracingPipeline pipeline(gpu, scene, params);
    pipeline.render(ShaderKind::PathTracing);
    const GpuStats &stats = gpu.stats();
    uint64_t primary =
        stats.raysByKind[static_cast<int>(RayKind::Primary)];
    uint64_t secondary =
        stats.raysByKind[static_cast<int>(RayKind::Secondary)];
    // Open scene: some paths exit early, so strictly fewer secondary
    // rays than the enclosed bound.
    EXPECT_LT(secondary, primary * (params.maxDepth - 1));
    EXPECT_GT(stats.raysMissed, 0u);
}

TEST(Pipeline, ChsntTriggersAnyHitInvocations)
{
    Scene scene = buildScene(SceneId::CHSNT, 0.2f);
    Gpu gpu(GpuConfig::mobile());
    RayTracingPipeline pipeline(gpu, scene, tinyParams());
    pipeline.render(ShaderKind::PathTracing);
    EXPECT_GT(gpu.stats().anyHitInvocations, 0u);
    // The anyhit shader fetches the alpha texture on the cores.
    uint64_t texture_reads = gpu.memSystem().kindReads()
        [static_cast<int>(DataKind::Texture)];
    EXPECT_GT(texture_reads, 0u);
}

TEST(Pipeline, WkndTriggersIntersectionShaders)
{
    Scene scene = buildScene(SceneId::WKND, 0.3f);
    Gpu gpu(GpuConfig::mobile());
    RayTracingPipeline pipeline(gpu, scene, tinyParams());
    pipeline.render(ShaderKind::PathTracing);
    EXPECT_GT(gpu.stats().intersectionInvocations, 0u);
    EXPECT_GT(gpu.stats().rtProceduralFetches, 0u);
}

TEST(Pipeline, NonAnyHitSceneHasNoAnyHitWork)
{
    Scene scene = buildScene(SceneId::BUNNY, 0.2f);
    Gpu gpu(GpuConfig::mobile());
    RayTracingPipeline pipeline(gpu, scene, tinyParams());
    pipeline.render(ShaderKind::AmbientOcclusion);
    EXPECT_EQ(gpu.stats().anyHitInvocations, 0u);
    EXPECT_EQ(gpu.stats().intersectionInvocations, 0u);
}

TEST(Pipeline, RaysTracedMatchesFunctionalCount)
{
    Scene scene = buildScene(SceneId::SPNZA, 0.15f);
    Gpu gpu(GpuConfig::mobile());
    RayTracingPipeline pipeline(gpu, scene, tinyParams());
    pipeline.render(ShaderKind::AmbientOcclusion);
    const GpuStats &stats = gpu.stats();
    uint64_t by_kind = 0;
    for (int k = 0; k < numRayKinds; k++)
        by_kind += stats.raysByKind[k];
    // Timing-side ray count equals functional-side ray count.
    EXPECT_EQ(stats.raysTraced, by_kind);
    EXPECT_EQ(stats.raysHit + stats.raysMissed, stats.raysTraced);
}

TEST(Pipeline, DeterministicStatsAndImage)
{
    auto run = [](uint64_t *cycles) {
        Scene scene = buildScene(SceneId::REF, 0.25f);
        Gpu gpu(GpuConfig::mobile());
        RayTracingPipeline pipeline(gpu, scene, tinyParams());
        pipeline.render(ShaderKind::PathTracing);
        *cycles = gpu.stats().cycles;
        return framebufferMean(pipeline.framebuffer());
    };
    uint64_t cycles_a = 0, cycles_b = 0;
    double mean_a = run(&cycles_a);
    double mean_b = run(&cycles_b);
    EXPECT_EQ(cycles_a, cycles_b);
    EXPECT_DOUBLE_EQ(mean_a, mean_b);
}

TEST(Pipeline, WritePpm)
{
    Scene scene = buildScene(SceneId::REF, 0.2f);
    Gpu gpu(GpuConfig::mobile());
    RayTracingPipeline pipeline(gpu, scene, tinyParams());
    pipeline.render(ShaderKind::Shadow);
    std::string path = ::testing::TempDir() + "/lumi_test.ppm";
    ASSERT_TRUE(writePpm(path, pipeline.framebuffer(),
                         pipeline.params().width,
                         pipeline.params().height));
    FILE *file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    char magic[3] = {};
    ASSERT_EQ(std::fread(magic, 1, 2, file), 2u);
    EXPECT_EQ(magic[0], 'P');
    EXPECT_EQ(magic[1], '6');
    std::fseek(file, 0, SEEK_END);
    long size = std::ftell(file);
    std::fclose(file);
    EXPECT_GT(size, 16 * 16 * 3);
    std::remove(path.c_str());
}

TEST(Pipeline, HigherResolutionTracesMoreRays)
{
    Scene scene = buildScene(SceneId::BUNNY, 0.15f);
    RenderParams small = tinyParams();
    RenderParams large = tinyParams();
    large.width = 32;
    large.height = 32;
    Gpu gpu_small(GpuConfig::mobile());
    RayTracingPipeline p_small(gpu_small, scene, small);
    p_small.render(ShaderKind::AmbientOcclusion);
    Gpu gpu_large(GpuConfig::mobile());
    RayTracingPipeline p_large(gpu_large, scene, large);
    p_large.render(ShaderKind::AmbientOcclusion);
    EXPECT_GT(gpu_large.stats().raysTraced,
              gpu_small.stats().raysTraced * 3);
}

TEST(Shading, SurfaceNormalFacesRay)
{
    Scene scene = buildScene(SceneId::BUNNY, 0.2f);
    AccelStructure accel;
    accel.build(scene);
    accel.assignAddresses(0x10000);
    for (int i = 0; i < 32; i++) {
        Ray ray = scene.camera.generateRay(i % 8, i / 8, 8, 4, 0.5f,
                                           0.5f);
        HitInfo hit = TraversalStateMachine::traceFunctional(
            accel, ray, false);
        if (!hit.hit)
            continue;
        SurfaceInteraction surface = computeSurface(scene, hit, ray);
        EXPECT_LE(dot(surface.normal, ray.dir), 1e-4f);
        EXPECT_NEAR(length(surface.normal), 1.0f, 1e-3f);
        // Hit position lies on the ray.
        Vec3 expected = ray.origin + ray.dir * hit.t;
        EXPECT_NEAR(length(surface.position - expected), 0.0f,
                    1e-3f);
    }
}

TEST(Shading, AlbedoModulatedByTexture)
{
    Scene scene = buildScene(SceneId::SPNZA, 0.15f);
    // Find a textured material and verify sampling changes albedo
    // across the surface.
    int textured = -1;
    for (size_t m = 0; m < scene.materials.size(); m++) {
        if (scene.materials[m].textureId >= 0) {
            textured = static_cast<int>(m);
            break;
        }
    }
    ASSERT_GE(textured, 0);
    SurfaceInteraction a, b;
    a.materialId = textured;
    a.uv = {0.1f, 0.1f};
    b.materialId = textured;
    b.uv = {0.37f, 0.68f};
    Vec3 albedo_a = surfaceAlbedo(scene, a);
    Vec3 albedo_b = surfaceAlbedo(scene, b);
    EXPECT_NE(albedo_a.x, albedo_b.x);
}

} // namespace
} // namespace lumi
