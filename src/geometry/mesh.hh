/**
 * @file
 * Indexed triangle meshes and procedural (analytic) geometry.
 *
 * These are the two primitive kinds the Vulkan ray tracing pipeline
 * distinguishes: triangles use the fixed-function ray-triangle units
 * inside the RT core, while procedural geometry is bounded by AABBs
 * and requires an intersection shader on the SIMT cores (Sec. 3.1.4).
 */

#ifndef LUMI_GEOMETRY_MESH_HH
#define LUMI_GEOMETRY_MESH_HH

#include <cstdint>
#include <vector>

#include "math/aabb.hh"
#include "math/vec.hh"

namespace lumi
{

/** Result of a ray-triangle intersection test. */
struct TriangleHit
{
    float t = 0.0f;     ///< distance along the ray
    float u = 0.0f;     ///< barycentric coordinate
    float v = 0.0f;     ///< barycentric coordinate
};

/** An indexed triangle mesh with optional normals and UVs. */
class TriangleMesh
{
  public:
    std::vector<Vec3> positions;
    /** Three indices per triangle. */
    std::vector<uint32_t> indices;
    /** Per-vertex shading normals; empty means use face normals. */
    std::vector<Vec3> normals;
    /** Per-vertex texture coordinates; empty means (0,0). */
    std::vector<Vec2> uvs;
    /** Material index into the scene material table. */
    int materialId = 0;

    /** Number of triangles. */
    size_t triangleCount() const { return indices.size() / 3; }

    /** Bounding box of triangle @p tri (inline: the BLAS build
     *  gathers one per triangle). */
    Aabb
    triangleBounds(size_t tri) const
    {
        Aabb box;
        box.extend(positions[indices[tri * 3 + 0]]);
        box.extend(positions[indices[tri * 3 + 1]]);
        box.extend(positions[indices[tri * 3 + 2]]);
        return box;
    }

    /** Centroid of triangle @p tri (used for BVH binning). */
    Vec3 triangleCentroid(size_t tri) const;

    /** Bounding box of the whole mesh. */
    Aabb bounds() const;

    /** Geometric (face) normal of triangle @p tri. */
    Vec3 faceNormal(size_t tri) const;

    /** Interpolated shading normal at barycentrics (u, v). */
    Vec3 shadingNormal(size_t tri, float u, float v) const;

    /** Interpolated texture coordinate at barycentrics (u, v). */
    Vec2 uvAt(size_t tri, float u, float v) const;

    /**
     * Watertight-enough Moller-Trumbore ray-triangle test.
     *
     * @param tri triangle index
     * @param origin ray origin
     * @param dir ray direction (not necessarily unit)
     * @param t_min minimum accepted distance
     * @param t_max maximum accepted distance
     * @param[out] hit filled in when the test passes
     * @return true on intersection within (t_min, t_max)
     */
    bool intersect(size_t tri, const Vec3 &origin, const Vec3 &dir,
                   float t_min, float t_max, TriangleHit &hit) const;

    /** Recompute smooth per-vertex normals by area-weighted average. */
    void computeVertexNormals();

    /** Append all triangles of @p other (materials must match). */
    void append(const TriangleMesh &other);

    /** Transform all positions (and normals) by @p xform in place. */
    void transform(const Mat4 &xform);

    /** Total size in bytes of the GPU-resident vertex/index data. */
    size_t dataBytes() const;
};

/**
 * Analytic spheres: the procedural geometry kind used by the WKND
 * scene (Ray Tracing in One Weekend). Each sphere is (center, radius);
 * the BVH stores only its AABB and the hit is confirmed by the
 * intersection shader.
 */
class ProceduralSpheres
{
  public:
    /** xyz = center, w = radius. */
    std::vector<Vec4> spheres;
    int materialId = 0;

    size_t count() const { return spheres.size(); }

    /** Bounding box of sphere @p i. */
    Aabb sphereBounds(size_t i) const;

    /** Bounding box of all spheres. */
    Aabb bounds() const;

    /**
     * Analytic ray-sphere test; this is what the intersection shader
     * computes on the SIMT cores.
     */
    bool intersect(size_t i, const Vec3 &origin, const Vec3 &dir,
                   float t_min, float t_max, float &t) const;

    /** Outward normal at point @p p on sphere @p i. */
    Vec3 normalAt(size_t i, const Vec3 &p) const;
};

/**
 * Analytic axis-aligned boxes: the procedural geometry kind used by
 * the RT-cores-as-compute query workloads (AMR cell soups). Each box
 * is its own AABB; like spheres, the BVH stores the bound and the hit
 * is confirmed by the intersection shader. Unlike the triangle test,
 * the slab test accepts on the *closed* interval [t_min, t_max] so a
 * zero-length ray (t_min == t_max == 0) hits exactly when its origin
 * lies inside the box -- the point-containment contract.
 */
class ProceduralBoxes
{
  public:
    std::vector<Aabb> boxes;
    int materialId = 0;

    size_t count() const { return boxes.size(); }

    /** Bounding box of box @p i (the box itself). */
    Aabb boxBounds(size_t i) const { return boxes[i]; }

    /** Bounding box of all boxes. */
    Aabb bounds() const;

    /**
     * Slab test on the closed interval [t_min, t_max]. Handles
     * zero-direction components exactly (origin inside the slab =>
     * the slab never rejects), so degenerate query rays are
     * deterministic and NaN-free.
     */
    bool intersect(size_t i, const Vec3 &origin, const Vec3 &dir,
                   float t_min, float t_max, float &t) const;

    /** Outward normal at point @p p on box @p i (largest-axis face). */
    Vec3 normalAt(size_t i, const Vec3 &p) const;

    /** True if point @p p lies inside (or on) box @p i. */
    bool contains(size_t i, const Vec3 &p) const;
};

} // namespace lumi

#endif // LUMI_GEOMETRY_MESH_HH
