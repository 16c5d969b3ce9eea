#include "compute/rtq/rtq_scene.hh"

#include <algorithm>
#include <cmath>

#include "math/rng.hh"

namespace lumi
{
namespace rtq
{

namespace
{

/** Distance from point @p p to the closest point of @p cell. */
float
distanceToCell(const Vec3 &p, const Aabb &cell)
{
    Vec3 clamped{std::min(std::max(p.x, cell.lo.x), cell.hi.x),
                 std::min(std::max(p.y, cell.lo.y), cell.hi.y),
                 std::min(std::max(p.z, cell.lo.z), cell.hi.z)};
    return length(p - clamped);
}

/** Distance from point @p p to the farthest corner of @p cell. */
float
farthestCorner(const Vec3 &p, const Aabb &cell)
{
    float best = 0.0f;
    for (int i = 0; i < 8; i++) {
        Vec3 corner{(i & 1) ? cell.hi.x : cell.lo.x,
                    (i & 2) ? cell.hi.y : cell.lo.y,
                    (i & 4) ? cell.hi.z : cell.lo.z};
        best = std::max(best, length(p - corner));
    }
    return best;
}

/** One spherical refinement interface (an AMR "shock front"). */
struct Interface
{
    Vec3 center;
    float radius;

    /** True when the interface surface passes through @p cell. */
    bool
    cuts(const Aabb &cell) const
    {
        return distanceToCell(center, cell) <= radius &&
               farthestCorner(center, cell) >= radius;
    }
};

/**
 * Recursively refine @p cell: cells cut by an interface subdivide
 * until @p max_depth, everything else becomes a leaf. The leaves are
 * disjoint and tile the root domain exactly -- the AMR property the
 * containment queries rely on.
 */
void
subdivide(const Aabb &cell, int depth, int max_depth,
          const Interface *interfaces, int interface_count,
          std::vector<Aabb> &leaves)
{
    bool refine = false;
    if (depth < max_depth) {
        for (int i = 0; i < interface_count && !refine; i++)
            refine = interfaces[i].cuts(cell);
    }
    if (!refine) {
        leaves.push_back(cell);
        return;
    }
    Vec3 mid = cell.center();
    for (int child = 0; child < 8; child++) {
        Aabb sub;
        sub.lo = {(child & 1) ? mid.x : cell.lo.x,
                  (child & 2) ? mid.y : cell.lo.y,
                  (child & 4) ? mid.z : cell.lo.z};
        sub.hi = {(child & 1) ? cell.hi.x : mid.x,
                  (child & 2) ? cell.hi.y : mid.y,
                  (child & 4) ? cell.hi.z : mid.z};
        subdivide(sub, depth + 1, max_depth, interfaces,
                  interface_count, leaves);
    }
}

Scene
buildAmr(float detail)
{
    Scene scene;
    scene.name = "AMR";
    scene.stress = "octree cell soup: shallow leaves + deep "
                   "refinement bands, zero-length containment rays";

    // Refinement depth scales with detail: ~3 at test detail, up to
    // 6 for full characterization runs. Leaf counts grow with the
    // *surface* of the interfaces, not the volume, as in real AMR.
    int max_depth = 3 + static_cast<int>(detail * 1.5f);
    max_depth = std::min(std::max(max_depth, 3), 6);

    Aabb domain;
    domain.lo = Vec3(-1.0f);
    domain.hi = Vec3(1.0f);
    const Interface interfaces[2] = {
        {Vec3(0.0f, 0.0f, 0.0f), 0.65f},
        {Vec3(0.35f, 0.2f, -0.15f), 0.3f},
    };

    ProceduralBoxes cells;
    subdivide(domain, 0, max_depth, interfaces, 2, cells.boxes);
    cells.materialId = 0;

    Material material;
    material.albedo = {0.8f, 0.8f, 0.8f};
    scene.addMaterial(material);
    int geom = scene.addGeometry(std::move(cells));
    scene.addInstance(geom, Mat4::identity());
    scene.frame({1.0f, 0.8f, 1.0f});
    return scene;
}

Scene
buildPts(float detail)
{
    Scene scene;
    scene.name = "PTS";
    scene.stress = "clustered point cloud: sphere queries with "
                   "per-level relaunch, divergent escalation depth";

    int points = static_cast<int>(3000.0f * detail);
    points = std::min(std::max(points, 256), 12000);

    Aabb domain;
    domain.lo = Vec3(-1.0f);
    domain.hi = Vec3(1.0f);

    // Clustered cloud: 80% of the points in tight clusters (dense
    // kNN neighborhoods), 20% uniform background (queries there must
    // escalate through several radius levels).
    Rng rng(0x9e3779b97f4a7c15ULL, 0x52545153ULL); // "RTQS"
    constexpr int cluster_count = 24;
    Vec3 cluster_centers[cluster_count];
    for (Vec3 &c : cluster_centers)
        c = rng.nextInBox(domain.lo * 0.8f, domain.hi * 0.8f);

    std::vector<Vec3> cloud;
    cloud.reserve(points);
    for (int i = 0; i < points; i++) {
        if (i % 5 == 4) {
            cloud.push_back(rng.nextInBox(domain.lo, domain.hi));
        } else {
            const Vec3 &c = cluster_centers[rng.nextBelow(
                cluster_count)];
            Vec3 jitter = rng.nextInBox(Vec3(-0.1f), Vec3(0.1f));
            cloud.push_back(Vec3::min(
                Vec3::max(c + jitter, domain.lo), domain.hi));
        }
    }

    // Base radius ~half the uniform mean spacing: level 0 resolves
    // in-cluster queries, background queries relaunch upward.
    float volume = 8.0f;
    float r0 = 0.5f * std::cbrt(volume / static_cast<float>(points));
    r0 = std::min(std::max(r0, 0.02f), 0.2f);

    Material material;
    material.albedo = {0.8f, 0.8f, 0.8f};
    scene.addMaterial(material);

    // One pre-inflated copy of the cloud per radius level, instanced
    // at disjoint offsets: a kNN round against level j is a plain
    // traceRay into instance j. Centers are identical across levels,
    // so candidate distances computed in level-local space are exact.
    for (int level = 0; level < knnLevels; level++) {
        float radius = r0 * static_cast<float>(1 << level);
        ProceduralSpheres spheres;
        spheres.spheres.reserve(cloud.size());
        for (const Vec3 &p : cloud)
            spheres.spheres.push_back(Vec4(p, radius));
        spheres.materialId = 0;
        int geom = scene.addGeometry(std::move(spheres));
        scene.addInstance(
            geom, Mat4::translate({static_cast<float>(level) * 8.0f,
                                   0.0f, 0.0f}));
    }
    scene.frame({1.0f, 0.8f, 1.0f});
    return scene;
}

} // namespace

Scene
buildRtqScene(SceneId id, float detail)
{
    if (id == SceneId::AMR)
        return buildAmr(detail);
    if (id == SceneId::PTS)
        return buildPts(detail);
    return Scene{};
}

} // namespace rtq
} // namespace lumi
