/**
 * @file
 * Tests for the RT-cores-as-compute query subsystem (src/compute/rtq):
 * scene-generator invariants (disjoint AMR tiling, per-level inflated
 * point clouds), degenerate-ray traversal (zero-length and
 * zero-direction rays through the full BVH stack), functional
 * correctness of the PC and KNN kernels against brute force, and
 * bit-exact determinism of the simulated runs.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "bvh/accel.hh"
#include "bvh/traversal.hh"
#include "compute/rtq/rtq_pipeline.hh"
#include "compute/rtq/rtq_scene.hh"
#include "lumibench/workload.hh"
#include "math/rng.hh"

namespace lumi
{
namespace
{

constexpr float infinity = std::numeric_limits<float>::max();

RenderParams
queryParams(int queries_side = 8)
{
    RenderParams params;
    params.width = queries_side;
    params.height = queries_side;
    params.samplesPerPixel = 1;
    params.aoRays = 3;       // k
    params.maxDepth = 8;     // round cap (clamped to level count)
    params.aoRadiusScale = 0.25f;
    return params;
}

/** Number of AMR cells (or cloud spheres) containing @p p. */
int
bruteContainment(const Scene &scene, const Vec3 &p)
{
    int count = 0;
    for (const Instance &inst : scene.instances) {
        const Geometry &geom = scene.geometries[inst.geometryId];
        Vec3 local = inst.invTransform.transformPoint(p);
        if (geom.kind == Geometry::Kind::Boxes) {
            for (size_t b = 0; b < geom.boxes.count(); b++) {
                if (geom.boxes.contains(b, local))
                    count++;
            }
        } else if (geom.kind == Geometry::Kind::Procedural) {
            for (const Vec4 &s : geom.spheres.spheres) {
                if (lengthSquared(local - Vec3(s.x, s.y, s.z)) <=
                    s.w * s.w)
                    count++;
            }
        }
    }
    return count;
}

TEST(RtqScene, AmrLeavesTileDomainDisjointly)
{
    Scene scene = rtq::buildRtqScene(SceneId::AMR, 0.5f);
    ASSERT_EQ(scene.geometries.size(), 1u);
    ASSERT_EQ(scene.instances.size(), 1u);
    const Geometry &geom = scene.geometries[0];
    ASSERT_EQ(geom.kind, Geometry::Kind::Boxes);
    // Refinement produced more than the unrefined 8^depth floor of a
    // single cell, i.e. the interfaces actually cut.
    EXPECT_GT(geom.boxes.count(), 64u);

    // Every interior point lies in exactly one leaf cell (random
    // points never land on the measure-zero shared faces).
    Rng rng(2024);
    for (int i = 0; i < 500; i++) {
        Vec3 p = rng.nextInBox(Vec3(-0.999f), Vec3(0.999f));
        int covering = 0;
        for (size_t b = 0; b < geom.boxes.count(); b++) {
            if (geom.boxes.contains(b, p))
                covering++;
        }
        EXPECT_EQ(covering, 1) << "point " << i;
    }
    // Points outside the domain are in no cell.
    EXPECT_EQ(bruteContainment(scene, Vec3(1.5f, 0.0f, 0.0f)), 0);
}

TEST(RtqScene, PtsLevelsShareCentersAndDoubleRadius)
{
    Scene scene = rtq::buildRtqScene(SceneId::PTS, 0.25f);
    ASSERT_EQ(scene.geometries.size(),
              static_cast<size_t>(rtq::knnLevels));
    ASSERT_EQ(scene.instances.size(),
              static_cast<size_t>(rtq::knnLevels));
    const ProceduralSpheres &base = scene.geometries[0].spheres;
    ASSERT_GT(base.count(), 0u);
    float r0 = base.spheres[0].w;
    EXPECT_GT(r0, 0.0f);
    for (int level = 0; level < rtq::knnLevels; level++) {
        const Geometry &geom = scene.geometries[level];
        ASSERT_EQ(geom.kind, Geometry::Kind::Procedural);
        ASSERT_EQ(geom.spheres.count(), base.count());
        float radius = r0 * static_cast<float>(1 << level);
        for (size_t s = 0; s < geom.spheres.count(); s++) {
            const Vec4 &sphere = geom.spheres.spheres[s];
            EXPECT_EQ(sphere.x, base.spheres[s].x);
            EXPECT_EQ(sphere.y, base.spheres[s].y);
            EXPECT_EQ(sphere.z, base.spheres[s].z);
            EXPECT_FLOAT_EQ(sphere.w, radius);
        }
        // Instances sit at disjoint x offsets: level j at x = 8j.
        Vec3 offset = scene.instances[level]
                          .transform.transformPoint(Vec3(0.0f));
        EXPECT_FLOAT_EQ(offset.x, 8.0f * level);
        EXPECT_FLOAT_EQ(offset.y, 0.0f);
        EXPECT_FLOAT_EQ(offset.z, 0.0f);
    }
}

TEST(RtqTraversal, ZeroLengthRayHitsIffOriginInsideCell)
{
    Scene scene = rtq::buildRtqScene(SceneId::AMR, 0.25f);
    AccelStructure accel;
    accel.build(scene);
    accel.assignAddresses(0x10000);

    Rng rng(7);
    for (int i = 0; i < 300; i++) {
        // Mix interior points with guaranteed-outside ones.
        Vec3 p = i % 4 == 0
                     ? rng.nextInBox(Vec3(1.5f), Vec3(3.0f))
                     : rng.nextInBox(Vec3(-0.999f), Vec3(0.999f));
        bool inside = bruteContainment(scene, p) > 0;
        Ray ray{p, Vec3(1.0f, 0.0f, 0.0f)};
        HitInfo hit = TraversalStateMachine::traceFunctional(
            accel, ray, false, 1e-4f, 0.0f);
        ASSERT_FALSE(std::isnan(hit.t)) << "point " << i;
        EXPECT_EQ(hit.hit, inside) << "point " << i;
        if (hit.hit) {
            EXPECT_EQ(hit.t, 0.0f);
        }
    }
}

TEST(RtqTraversal, ZeroDirectionRayIsDeterministicAndNaNFree)
{
    Scene scene = rtq::buildRtqScene(SceneId::AMR, 0.25f);
    AccelStructure accel;
    accel.build(scene);
    accel.assignAddresses(0x10000);

    Rng rng(13);
    for (int i = 0; i < 200; i++) {
        Vec3 p = rng.nextInBox(Vec3(-1.5f), Vec3(1.5f));
        Ray ray{p, Vec3(0.0f)};
        HitInfo first = TraversalStateMachine::traceFunctional(
            accel, ray, false, 1e-4f, 0.0f);
        HitInfo second = TraversalStateMachine::traceFunctional(
            accel, ray, false, 1e-4f, 0.0f);
        ASSERT_FALSE(std::isnan(first.t));
        ASSERT_FALSE(std::isnan(second.t));
        EXPECT_EQ(first.hit, second.hit);
        EXPECT_EQ(first.t, second.t);
        // A fully degenerate ray still answers the containment
        // question: it hits exactly when the origin is in a cell.
        bool inside = bruteContainment(scene, p) > 0;
        EXPECT_EQ(first.hit, inside) << "point " << i;
    }
}

TEST(RtqPipeline, AmrPcMatchesBruteForce)
{
    Scene scene = rtq::buildRtqScene(SceneId::AMR, 0.25f);
    Gpu gpu(GpuConfig::mobile());
    rtq::RtqPipeline pipeline(gpu, scene, queryParams());
    pipeline.run(ShaderKind::PointContainment);

    const std::vector<uint32_t> &result = pipeline.containment();
    const std::vector<Vec3> &origins = pipeline.queryOrigins();
    ASSERT_EQ(result.size(), 64u);
    ASSERT_EQ(origins.size(), 64u);
    uint32_t inside = 0;
    for (size_t q = 0; q < result.size(); q++) {
        EXPECT_EQ(result[q], static_cast<uint32_t>(bruteContainment(
                                 scene, origins[q])))
            << "query " << q;
        // AMR cells are disjoint: containment is 0 or 1.
        EXPECT_LE(result[q], 1u);
        inside += result[q];
    }
    // In-domain queries land in cells; out-of-domain probes miss.
    EXPECT_GT(inside, 0u);
    EXPECT_LT(inside, 64u);

    const GpuStats &stats = gpu.stats();
    EXPECT_EQ(stats.raysByKind[static_cast<int>(RayKind::Query)],
              64u);
    EXPECT_EQ(stats.raysTraced, 64u);
    EXPECT_GT(stats.rtProceduralTests, 0u);
    // Every procedural candidate test is one queued intersection-
    // shader invocation -- the exact-accounting invariant.
    EXPECT_EQ(stats.rtProceduralTests, stats.intersectionInvocations);
    // Exact procedural-prim accounting: unique prims == cell count.
    EXPECT_EQ(pipeline.accel().computeStats().uniqueProceduralPrims,
              static_cast<uint64_t>(scene.geometries[0]
                                        .boxes.count()));
}

TEST(RtqPipeline, PtsPcCountsContainingSpheres)
{
    Scene scene = rtq::buildRtqScene(SceneId::PTS, 0.25f);
    Gpu gpu(GpuConfig::mobile());
    rtq::RtqPipeline pipeline(gpu, scene, queryParams());
    pipeline.run(ShaderKind::PointContainment);

    const std::vector<uint32_t> &result = pipeline.containment();
    const std::vector<Vec3> &origins = pipeline.queryOrigins();
    ASSERT_EQ(result.size(), 64u);
    uint32_t total = 0;
    for (size_t q = 0; q < result.size(); q++) {
        EXPECT_EQ(result[q], static_cast<uint32_t>(bruteContainment(
                                 scene, origins[q])))
            << "query " << q;
        total += result[q];
    }
    // The clustered cloud guarantees some queries sit inside level-0
    // spheres.
    EXPECT_GT(total, 0u);
}

TEST(RtqPipeline, KnnMatchesBruteForce)
{
    Scene scene = rtq::buildRtqScene(SceneId::PTS, 0.25f);
    Gpu gpu(GpuConfig::mobile());
    RenderParams params = queryParams();
    rtq::RtqPipeline pipeline(gpu, scene, params);
    pipeline.run(ShaderKind::Knn);

    const ProceduralSpheres &cloud = scene.geometries[0].spheres;
    float r0 = cloud.spheres[0].w;
    int k = params.aoRays;
    int rounds = std::min(rtq::knnLevels, params.maxDepth);
    float r_max = r0 * static_cast<float>(1 << (rounds - 1));

    const std::vector<float> &dist = pipeline.knnDistance();
    const std::vector<uint8_t> &used = pipeline.knnRounds();
    const std::vector<Vec3> &origins = pipeline.queryOrigins();
    ASSERT_EQ(dist.size(), 64u);

    int resolved = 0;
    for (size_t q = 0; q < dist.size(); q++) {
        std::vector<float> dists;
        dists.reserve(cloud.count());
        for (const Vec4 &s : cloud.spheres)
            dists.push_back(
                length(origins[q] - Vec3(s.x, s.y, s.z)));
        std::sort(dists.begin(), dists.end());
        float kth = static_cast<int>(dists.size()) >= k
                        ? dists[k - 1]
                        : infinity;
        if (kth <= r_max) {
            // Distances are computed with identical float ops in
            // the kernel, so the match is exact.
            EXPECT_EQ(dist[q], kth) << "query " << q;
            resolved++;
        } else {
            EXPECT_EQ(dist[q], infinity) << "query " << q;
            EXPECT_EQ(used[q], rounds) << "query " << q;
        }
        EXPECT_GE(used[q], 1);
        EXPECT_LE(used[q], rounds);
    }
    // Clustered queries resolve in few rounds; most queries find k.
    EXPECT_GT(resolved, 0);

    const GpuStats &stats = gpu.stats();
    // Relaunch rounds trace more query rays than there are queries.
    EXPECT_GT(stats.raysByKind[static_cast<int>(RayKind::Query)],
              64u);
    EXPECT_EQ(stats.rtProceduralTests, stats.intersectionInvocations);
}

TEST(RtqPipeline, RunsAreBitExactlyDeterministic)
{
    Scene scene = rtq::buildRtqScene(SceneId::PTS, 0.25f);
    auto once = [&] {
        Gpu gpu(GpuConfig::mobile());
        rtq::RtqPipeline pipeline(gpu, scene, queryParams());
        pipeline.run(ShaderKind::Knn);
        return std::make_tuple(gpu.stats().cycles,
                               gpu.stats().raysTraced,
                               gpu.stats().rtProceduralTests,
                               pipeline.knnDistance(),
                               pipeline.containment());
    };
    EXPECT_EQ(once(), once());
}

TEST(RtqWorkloads, IdsAndShaderSupport)
{
    std::vector<std::string> ids;
    for (const Workload &w : rtqWorkloads())
        ids.push_back(w.id());
    EXPECT_EQ(ids, (std::vector<std::string>{"AMR_PC", "PTS_PC",
                                             "PTS_KNN"}));

    // The support matrix: query scenes take only query shaders (AMR
    // has no kNN interpretation) and graphics scenes take none.
    EXPECT_TRUE(sceneSupportsShader(SceneId::AMR,
                                    ShaderKind::PointContainment));
    EXPECT_FALSE(sceneSupportsShader(SceneId::AMR, ShaderKind::Knn));
    EXPECT_FALSE(sceneSupportsShader(SceneId::AMR,
                                     ShaderKind::PathTracing));
    EXPECT_TRUE(sceneSupportsShader(SceneId::PTS, ShaderKind::Knn));
    EXPECT_FALSE(sceneSupportsShader(
        SceneId::PTS, ShaderKind::AmbientOcclusion));
    EXPECT_FALSE(sceneSupportsShader(SceneId::BUNNY,
                                     ShaderKind::PointContainment));
    // None of the query workloads leak into the paper's 46.
    for (const Workload &w : allWorkloads())
        EXPECT_FALSE(isQueryShader(w.shader)) << w.id();
}

} // namespace
} // namespace lumi
