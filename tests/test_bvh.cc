/**
 * @file
 * Tests for the BVH builder, the two-level acceleration structure and
 * the traversal state machine -- including the central property test:
 * traversal must agree with brute-force intersection over every
 * instance and primitive.
 */

#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "bvh/accel.hh"
#include "bvh/builder.hh"
#include "bvh/traversal.hh"
#include "compute/rtq/rtq_scene.hh"
#include "geometry/shapes.hh"
#include "math/rng.hh"
#include "scene/scene_library.hh"

namespace lumi
{
namespace
{

constexpr float infinity = std::numeric_limits<float>::max();

std::vector<Aabb>
randomBoxes(int count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Aabb> boxes;
    for (int i = 0; i < count; i++) {
        Vec3 lo = rng.nextInBox({-50, -50, -50}, {50, 50, 50});
        Vec3 size = rng.nextInBox({0.1f, 0.1f, 0.1f}, {4, 4, 4});
        Aabb box;
        box.extend(lo);
        box.extend(lo + size);
        boxes.push_back(box);
    }
    return boxes;
}

TEST(BvhBuilder, EmptyInput)
{
    BvhBuilder builder;
    Bvh bvh = builder.build({});
    EXPECT_TRUE(bvh.empty());
    EXPECT_TRUE(bvh.bounds().empty());
}

TEST(BvhBuilder, SinglePrimitive)
{
    BvhBuilder builder;
    Bvh bvh = builder.build(randomBoxes(1, 1));
    EXPECT_EQ(bvh.nodes.size(), 1u);
    EXPECT_TRUE(bvh.root().isLeaf());
    EXPECT_EQ(bvh.primIndices.size(), 1u);
}

TEST(BvhBuilder, AllPrimitivesCoveredExactlyOnce)
{
    BvhBuilder builder;
    std::vector<Aabb> boxes = randomBoxes(500, 2);
    Bvh bvh = builder.build(boxes);
    ASSERT_EQ(bvh.primIndices.size(), boxes.size());
    std::vector<int> seen(boxes.size(), 0);
    for (uint32_t idx : bvh.primIndices)
        seen[idx]++;
    for (int count : seen)
        EXPECT_EQ(count, 1);
    // Every leaf range must be in bounds and disjoint.
    uint64_t leaf_total = 0;
    for (const BvhNode &node : bvh.nodes) {
        if (node.isLeaf()) {
            leaf_total += node.primCount;
            EXPECT_LE(node.firstPrim + node.primCount,
                      bvh.primIndices.size());
        }
    }
    EXPECT_EQ(leaf_total, boxes.size());
}

TEST(BvhBuilder, NodesBoundTheirChildren)
{
    BvhBuilder builder;
    std::vector<Aabb> boxes = randomBoxes(300, 3);
    Bvh bvh = builder.build(boxes);
    for (const BvhNode &node : bvh.nodes) {
        if (node.isLeaf()) {
            for (uint32_t i = 0; i < node.primCount; i++) {
                const Aabb &prim =
                    boxes[bvh.primIndices[node.firstPrim + i]];
                EXPECT_TRUE(node.bounds.contains(prim.lo));
                EXPECT_TRUE(node.bounds.contains(prim.hi));
            }
        } else {
            const Aabb &lb = bvh.nodes[node.left].bounds;
            const Aabb &rb = bvh.nodes[node.right].bounds;
            EXPECT_TRUE(node.bounds.contains(lb.lo));
            EXPECT_TRUE(node.bounds.contains(lb.hi));
            EXPECT_TRUE(node.bounds.contains(rb.lo));
            EXPECT_TRUE(node.bounds.contains(rb.hi));
        }
    }
}

TEST(BvhBuilder, StrictLeafSizeWhenMaxOne)
{
    BuilderConfig config;
    config.maxLeafPrims = 1;
    BvhBuilder builder(config);
    Bvh bvh = builder.build(randomBoxes(64, 4));
    for (const BvhNode &node : bvh.nodes) {
        if (node.isLeaf()) {
            EXPECT_EQ(node.primCount, 1u);
        }
    }
    BvhStats stats = bvh.computeStats();
    EXPECT_EQ(stats.leafCount, 64u);
}

TEST(BvhBuilder, IdenticalCentroidsDoNotRecurseForever)
{
    // 100 boxes at the same position: median fallback must bound
    // the depth.
    std::vector<Aabb> boxes;
    for (int i = 0; i < 100; i++) {
        Aabb box;
        box.extend({0, 0, 0});
        box.extend({1, 1, 1});
        boxes.push_back(box);
    }
    BvhBuilder builder;
    Bvh bvh = builder.build(boxes);
    BvhStats stats = bvh.computeStats();
    EXPECT_LE(stats.maxDepth, 20);
    uint32_t covered = 0;
    for (const BvhNode &node : bvh.nodes) {
        if (node.isLeaf())
            covered += node.primCount;
    }
    EXPECT_EQ(covered, 100u);
}

// ------------------------------------------------------------------
// Tree pins: the builder's output is part of every simulated address
// (leaf order, node numbering), so its exact trees are pinned here.
// ------------------------------------------------------------------

/** FNV-1a over @p bytes, continuing from @p hash. */
uint64_t
fnv1a(uint64_t hash, const void *bytes, size_t size)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (size_t i = 0; i < size; i++) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * Digest of a tree: every node's bounds (as v + 0.0f, so -0 and +0
 * hash alike), children and leaf range, then primIndices.
 */
uint64_t
treeDigest(const Bvh &bvh, uint64_t hash = 0xcbf29ce484222325ull)
{
    for (const BvhNode &node : bvh.nodes) {
        const float coords[6] = {node.bounds.lo.x, node.bounds.lo.y,
                                 node.bounds.lo.z, node.bounds.hi.x,
                                 node.bounds.hi.y, node.bounds.hi.z};
        for (float v : coords) {
            float canonical = v + 0.0f;
            hash = fnv1a(hash, &canonical, sizeof(canonical));
        }
        hash = fnv1a(hash, &node.left, sizeof(node.left));
        hash = fnv1a(hash, &node.right, sizeof(node.right));
        hash = fnv1a(hash, &node.firstPrim, sizeof(node.firstPrim));
        hash = fnv1a(hash, &node.primCount, sizeof(node.primCount));
    }
    return fnv1a(hash, bvh.primIndices.data(),
                 bvh.primIndices.size() * sizeof(uint32_t));
}

/** Boxes on a coarse grid straddling zero: tied centroids, ±0. */
std::vector<Aabb>
gridBoxes(int count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Aabb> boxes;
    for (int i = 0; i < count; i++) {
        float x = static_cast<float>(rng.nextBelow(25)) * 0.25f - 3.0f;
        float y = static_cast<float>(rng.nextBelow(3)) - 1.0f;
        Vec3 lo{x, y, i % 2 ? -0.0f : 0.0f};
        Aabb box;
        box.extend(lo);
        box.extend(lo + Vec3(1.0f, 1.0f, 0.0f));
        boxes.push_back(box);
    }
    return boxes;
}

TEST(BvhBuilder, TreesMatchPinnedDigests)
{
    // Every BLAS then the TLAS of each scene, at detail 1 with the
    // pipeline's default BuilderConfig.
    struct ScenePin
    {
        SceneId id;
        uint64_t digest;
    };
    const ScenePin scene_pins[] = {
        {SceneId::LANDS, 13194566961073505001ull},
        {SceneId::FRST, 1748297675099718662ull},
        {SceneId::FOX, 2521029008194075174ull},
        {SceneId::PARTY, 5707322370381169636ull},
        {SceneId::SPRNG, 15947190986417425031ull},
        {SceneId::ROBOT, 13508153003996376804ull},
        {SceneId::CAR, 2148692208626042670ull},
        {SceneId::SHIP, 13048518618487468284ull},
        {SceneId::BATH, 8866547928164633617ull},
        {SceneId::REF, 4224661569696774127ull},
        {SceneId::BUNNY, 5906290905158272585ull},
        {SceneId::SPNZA, 12791451822829007792ull},
        {SceneId::CRNVL, 17391780660024705303ull},
        {SceneId::WKND, 14251765408322604184ull},
        {SceneId::CHSNT, 17369829358485473568ull},
        {SceneId::PARK, 6404061530436787525ull},
        {SceneId::AMR, 10004477792474940028ull},
        {SceneId::PTS, 2265068817083746226ull},
    };
    for (const ScenePin &pin : scene_pins) {
        bool rtq = pin.id == SceneId::AMR || pin.id == SceneId::PTS;
        Scene scene = rtq ? rtq::buildRtqScene(pin.id, 1.0f)
                          : buildScene(pin.id, 1.0f);
        AccelStructure accel;
        accel.build(scene);
        uint64_t hash = 0xcbf29ce484222325ull;
        for (const BlasAccel &blas : accel.blases())
            hash = treeDigest(blas.bvh, hash);
        hash = treeDigest(accel.tlas().bvh, hash);
        EXPECT_EQ(hash, pin.digest) << sceneName(pin.id);
    }

    // Every (binCount, maxLeafPrims) the builder ablation sweeps,
    // plus the TLAS's (16, 1).
    struct ConfigPin
    {
        int bins;
        uint32_t leaf;
        uint64_t random;
        uint64_t grid;
    };
    const ConfigPin config_pins[] = {
        {4, 2, 2948904719627532095ull, 18374204315785297800ull},
        {4, 4, 2857244259395657887ull, 8164427420393883642ull},
        {4, 8, 12346933819803198765ull, 17542339262492504255ull},
        {16, 2, 250508317826056765ull, 18374204315785297800ull},
        {16, 4, 3995087972322929091ull, 8164427420393883642ull},
        {16, 8, 12674180422322521152ull, 17542339262492504255ull},
        {32, 2, 16732580788326132466ull, 11649439497699312061ull},
        {32, 4, 8510110490305721063ull, 8851853453346745803ull},
        {32, 8, 6824845442930940417ull, 6951045769921396911ull},
        {16, 1, 1343723258540226613ull, 15773238780873165702ull},
    };
    const std::vector<Aabb> random = randomBoxes(3000, 17);
    const std::vector<Aabb> grid = gridBoxes(600, 18);
    for (const ConfigPin &pin : config_pins) {
        BuilderConfig config;
        config.binCount = pin.bins;
        config.maxLeafPrims = pin.leaf;
        BvhBuilder builder(config);
        EXPECT_EQ(treeDigest(builder.build(random)), pin.random)
            << "randomBoxes bins " << pin.bins << " leaf " << pin.leaf;
        EXPECT_EQ(treeDigest(builder.build(grid)), pin.grid)
            << "gridBoxes bins " << pin.bins << " leaf " << pin.leaf;
    }
}

TEST(BvhBuilder, BinCountOutsideRangeFailsClosed)
{
    // The builder's bins are fixed arrays of BvhBuilder::maxBins.
    for (int bins : {-1, 0, BvhBuilder::maxBins + 1, 1000}) {
        BuilderConfig config;
        config.binCount = bins;
        try {
            BvhBuilder builder(config);
            ADD_FAILURE() << "binCount " << bins << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("binCount"),
                      std::string::npos)
                << e.what();
        }
    }
    for (int bins : {1, BvhBuilder::maxBins}) {
        BuilderConfig config;
        config.binCount = bins;
        Bvh bvh = BvhBuilder(config).build(randomBoxes(200, 9));
        EXPECT_EQ(bvh.primIndices.size(), 200u) << "binCount " << bins;
    }
}

TEST(BvhStats, DepthAndCounts)
{
    BvhBuilder builder;
    Bvh bvh = builder.build(randomBoxes(256, 5));
    BvhStats stats = bvh.computeStats();
    EXPECT_EQ(stats.nodeCount, bvh.nodes.size());
    EXPECT_EQ(stats.leafCount + stats.internalCount, stats.nodeCount);
    EXPECT_GE(stats.maxDepth, 5);  // 256 prims, <=4 per leaf
    EXPECT_LE(stats.maxDepth, 40);
    EXPECT_GE(stats.avgLeafPrims, 1.0);
    EXPECT_LE(stats.avgLeafPrims, 16.0);
}

TEST(BvhStats, LongThinOverlapHigherThanCompact)
{
    // Long thin diagonal slivers overlap far more than a grid of
    // compact boxes (Sec. 3.1.2's stress rationale).
    Rng rng(6);
    std::vector<Aabb> thin;
    for (int i = 0; i < 200; i++) {
        Vec3 base = rng.nextInBox({-10, -10, -10}, {10, 10, 10});
        Aabb box;
        box.extend(base);
        box.extend(base + Vec3(8.0f, 8.0f, 0.05f));
        thin.push_back(box);
    }
    std::vector<Aabb> compact;
    for (int i = 0; i < 200; i++) {
        Vec3 base{static_cast<float>(i % 20),
                  static_cast<float>(i / 20), 0.0f};
        Aabb box;
        box.extend(base);
        box.extend(base + Vec3(0.9f));
        compact.push_back(box);
    }
    BvhBuilder builder;
    double thin_overlap =
        builder.build(thin).computeStats().siblingOverlap;
    double compact_overlap =
        builder.build(compact).computeStats().siblingOverlap;
    EXPECT_GT(thin_overlap, compact_overlap);
}

// ------------------------------------------------------------------
// Traversal correctness: compare against brute force over a real
// multi-instance scene.
// ------------------------------------------------------------------

HitInfo
bruteForce(const Scene &scene, const Ray &ray, float t_max)
{
    HitInfo best;
    best.t = t_max;
    for (size_t inst = 0; inst < scene.instances.size(); inst++) {
        const Instance &instance = scene.instances[inst];
        const Geometry &geom =
            scene.geometries[instance.geometryId];
        Vec3 o = instance.invTransform.transformPoint(ray.origin);
        Vec3 d = instance.invTransform.transformVector(ray.dir);
        if (geom.kind == Geometry::Kind::Triangles) {
            const Material &mat =
                scene.materials[geom.mesh.materialId];
            for (size_t t = 0; t < geom.mesh.triangleCount(); t++) {
                TriangleHit hit;
                if (!geom.mesh.intersect(t, o, d, 1e-4f, best.t,
                                         hit)) {
                    continue;
                }
                if (mat.needsAnyHit()) {
                    Vec2 uv = geom.mesh.uvAt(t, hit.u, hit.v);
                    const Texture &tex =
                        scene.textures[mat.alphaTextureId];
                    if (tex.sample(uv.x, uv.y).w < 0.5f)
                        continue;
                }
                best.hit = true;
                best.t = hit.t;
                best.instanceIndex = static_cast<int>(inst);
                best.geometryId = instance.geometryId;
                best.primIndex = static_cast<uint32_t>(t);
            }
        } else {
            for (size_t s = 0; s < geom.spheres.count(); s++) {
                float t;
                if (geom.spheres.intersect(s, o, d, 1e-4f, best.t,
                                           t)) {
                    best.hit = true;
                    best.t = t;
                    best.instanceIndex = static_cast<int>(inst);
                    best.geometryId = instance.geometryId;
                    best.primIndex = static_cast<uint32_t>(s);
                }
            }
        }
    }
    if (!best.hit)
        best.t = 0.0f;
    return best;
}

class TraversalMatchesBruteForce
    : public ::testing::TestWithParam<SceneId>
{
};

TEST_P(TraversalMatchesBruteForce, RandomRays)
{
    Scene scene = buildScene(GetParam(), 0.15f);
    AccelStructure accel;
    accel.build(scene);
    accel.assignAddresses(0x10000);

    Aabb bounds = scene.worldBounds();
    Vec3 center = bounds.center();
    float radius = length(bounds.extent()) * 0.5f + 1.0f;
    Rng rng(77);
    int hits = 0;
    for (int i = 0; i < 150; i++) {
        Ray ray;
        ray.origin = center + rng.nextInBox({-1, -1, -1}, {1, 1, 1}) *
                                  radius;
        Vec3 target = center + rng.nextInBox({-1, -1, -1}, {1, 1, 1}) *
                                   (radius * 0.4f);
        ray.dir = normalize(target - ray.origin);
        HitInfo expect = bruteForce(scene, ray, infinity);
        HitInfo got = TraversalStateMachine::traceFunctional(
            accel, ray, false, 1e-4f, infinity);
        ASSERT_EQ(got.hit, expect.hit) << "ray " << i;
        if (expect.hit) {
            hits++;
            EXPECT_NEAR(got.t, expect.t, 1e-3f * radius)
                << "ray " << i;
        }
    }
    // The sampling above must actually exercise hits.
    EXPECT_GT(hits, 10);
}

INSTANTIATE_TEST_SUITE_P(
    Scenes, TraversalMatchesBruteForce,
    ::testing::Values(SceneId::BUNNY, SceneId::REF, SceneId::WKND,
                      SceneId::SHIP, SceneId::PARTY, SceneId::CHSNT,
                      SceneId::SPNZA),
    [](const ::testing::TestParamInfo<SceneId> &info) {
        return sceneName(info.param);
    });

TEST(Traversal, AnyHitTerminatesEarly)
{
    Scene scene = buildScene(SceneId::BUNNY, 0.2f);
    AccelStructure accel;
    accel.build(scene);
    accel.assignAddresses(0x10000);

    Ray ray = scene.camera.generateRay(16, 16, 32, 32, 0.5f, 0.5f);
    TraversalStats closest_stats, any_stats;
    HitInfo closest = TraversalStateMachine::traceFunctional(
        accel, ray, false, 1e-4f, infinity, &closest_stats);
    HitInfo any = TraversalStateMachine::traceFunctional(
        accel, ray, true, 1e-4f, infinity, &any_stats);
    ASSERT_TRUE(closest.hit);
    ASSERT_TRUE(any.hit);
    // Occlusion query visits at most as many nodes.
    EXPECT_LE(any_stats.nodesVisited(),
              closest_stats.nodesVisited());
    // And its hit may be any hit, so t >= closest t.
    EXPECT_GE(any.t, closest.t - 1e-4f);
}

TEST(Traversal, TMaxLimitsHits)
{
    Scene scene = buildScene(SceneId::BUNNY, 0.2f);
    AccelStructure accel;
    accel.build(scene);
    accel.assignAddresses(0x10000);
    Ray ray = scene.camera.generateRay(16, 16, 32, 32, 0.5f, 0.5f);
    HitInfo unlimited = TraversalStateMachine::traceFunctional(
        accel, ray, false, 1e-4f, infinity);
    ASSERT_TRUE(unlimited.hit);
    // A t_max below the closest hit distance must miss.
    HitInfo limited = TraversalStateMachine::traceFunctional(
        accel, ray, false, 1e-4f, unlimited.t * 0.5f);
    EXPECT_FALSE(limited.hit);
}

TEST(Traversal, MissingRayVisitsNothing)
{
    Scene scene = buildScene(SceneId::WKND, 0.2f);
    AccelStructure accel;
    accel.build(scene);
    accel.assignAddresses(0x10000);
    // Shoot away from the scene.
    Aabb bounds = scene.worldBounds();
    Ray ray;
    ray.origin = bounds.center() +
                 Vec3(0.0f, bounds.extent().y * 4.0f, 0.0f);
    ray.dir = {0.0f, 1.0f, 0.0f};
    TraversalStats stats;
    HitInfo hit = TraversalStateMachine::traceFunctional(
        accel, ray, false, 1e-4f, infinity, &stats);
    EXPECT_FALSE(hit.hit);
    EXPECT_EQ(stats.nodesVisited(), 0u);
}

TEST(Traversal, AnyHitQueueRecordsAlphaTests)
{
    Scene scene = buildScene(SceneId::CHSNT, 0.15f);
    AccelStructure accel;
    accel.build(scene);
    accel.assignAddresses(0x10000);

    // Fire a bundle of rays through the canopy; at least one must
    // touch an alpha-masked leaf card and queue anyhit work.
    Aabb bounds = scene.worldBounds();
    Vec3 canopy = bounds.center();
    Rng rng(5);
    size_t total_anyhit = 0;
    for (int i = 0; i < 64; i++) {
        Ray ray;
        ray.origin = canopy + Vec3(12.0f, rng.nextRange(-2.0f, 4.0f),
                                   rng.nextRange(-3.0f, 3.0f));
        ray.dir = normalize(canopy - ray.origin);
        TraversalStateMachine machine(accel, ray, false);
        while (!machine.done())
            machine.advance();
        total_anyhit += machine.anyHitQueue().size();
    }
    EXPECT_GT(total_anyhit, 0u);
}

TEST(Traversal, IntersectionQueueForProcedural)
{
    Scene scene = buildScene(SceneId::WKND, 0.3f);
    AccelStructure accel;
    accel.build(scene);
    accel.assignAddresses(0x10000);
    Ray ray = scene.camera.generateRay(16, 16, 32, 32, 0.5f, 0.5f);
    TraversalStateMachine machine(accel, ray, false);
    while (!machine.done())
        machine.advance();
    EXPECT_GT(machine.intersectionQueue().size(), 0u);
    EXPECT_GT(machine.stats().proceduralTests, 0u);
}

TEST(Traversal, EventAddressesWithinAssignedRanges)
{
    Scene scene = buildScene(SceneId::REF, 0.3f);
    AccelStructure accel;
    accel.build(scene);
    uint64_t base = 0x10000;
    uint64_t end = accel.assignAddresses(base);
    Ray ray = scene.camera.generateRay(8, 8, 16, 16, 0.5f, 0.5f);
    TraversalStateMachine machine(accel, ray, false);
    while (!machine.done()) {
        TraversalEvent event = machine.advance();
        if (event.type == TraversalEvent::Type::Done)
            break;
        EXPECT_GE(event.address, base);
        EXPECT_LT(event.address + event.bytes, end + 128);
        EXPECT_GT(event.bytes, 0u);
    }
}

TEST(AccelStructure, StatsConsistent)
{
    Scene scene = buildScene(SceneId::PARTY, 0.2f);
    AccelStructure accel;
    accel.build(scene);
    AccelStats stats = accel.computeStats();
    EXPECT_EQ(stats.instances, scene.instances.size());
    EXPECT_EQ(stats.blasCount, scene.geometries.size());
    EXPECT_GT(stats.instancedPrimitives, stats.uniqueTriangles);
    EXPECT_EQ(stats.totalDepth,
              stats.tlasDepth + stats.maxBlasDepth);
    EXPECT_GT(stats.memoryFootprintBytes, 0u);
}

TEST(AccelStructure, TlasLeafPerInstance)
{
    Scene scene = buildScene(SceneId::FOX, 0.15f);
    AccelStructure accel;
    accel.build(scene);
    const Bvh &tlas = accel.tlas().bvh;
    uint32_t leaf_prims = 0;
    for (const BvhNode &node : tlas.nodes) {
        if (node.isLeaf()) {
            EXPECT_EQ(node.primCount, 1u);
            leaf_prims += node.primCount;
        }
    }
    EXPECT_EQ(leaf_prims, scene.instances.size());
}

} // namespace
} // namespace lumi
