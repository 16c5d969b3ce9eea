/**
 * @file
 * The two-level acceleration structure: one BLAS per scene geometry
 * plus a TLAS over the instances, with simulated-memory address
 * assignment so traversal produces real memory traffic.
 */

#ifndef LUMI_BVH_ACCEL_HH
#define LUMI_BVH_ACCEL_HH

#include <cstdint>
#include <vector>

#include "bvh/builder.hh"
#include "bvh/bvh.hh"
#include "scene/scene.hh"

namespace lumi
{

/** A bottom-level acceleration structure over one Geometry. */
struct BlasAccel
{
    Bvh bvh;
    int geometryId = 0;
    /** Base address of the node array in simulated memory. */
    uint64_t nodeBase = 0;
    /** Base address of the primitive data this BLAS references. */
    uint64_t primBase = 0;
    /** Bytes fetched per primitive test. */
    uint32_t primStride = 48;
};

/** The top-level acceleration structure over scene instances. */
struct TlasAccel
{
    Bvh bvh;
    uint64_t nodeBase = 0;
    /** Base address of the instance descriptor table. */
    uint64_t instanceBase = 0;
    /** Bytes per instance descriptor (transform + BLAS pointer). */
    static constexpr uint32_t instanceStride = 64;
};

/** Aggregate structural statistics used by Table 1 / Fig. 7. */
struct AccelStats
{
    size_t uniqueTriangles = 0;
    size_t uniqueProceduralPrims = 0;
    size_t instances = 0;
    size_t instancedPrimitives = 0;
    size_t blasCount = 0;
    size_t blasNodes = 0;
    size_t tlasNodes = 0;
    int tlasDepth = 0;
    int maxBlasDepth = 0;
    /** TLAS depth + deepest BLAS: the worst-case traversal depth. */
    int totalDepth = 0;
    double avgSiblingOverlap = 0.0;
    size_t memoryFootprintBytes = 0;

    /** Field list of the accel.* stats: @p visit(name, field). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&visit)
    {
        visit("unique_triangles", self.uniqueTriangles);
        visit("unique_procedural_prims", self.uniqueProceduralPrims);
        visit("instances", self.instances);
        visit("instanced_primitives", self.instancedPrimitives);
        visit("blas_count", self.blasCount);
        visit("blas_nodes", self.blasNodes);
        visit("tlas_nodes", self.tlasNodes);
        visit("tlas_depth", self.tlasDepth);
        visit("max_blas_depth", self.maxBlasDepth);
        visit("total_depth", self.totalDepth);
        visit("avg_sibling_overlap", self.avgSiblingOverlap);
        visit("memory_footprint_bytes", self.memoryFootprintBytes);
    }
};

/**
 * Builds and owns the full two-level structure for a scene. The
 * referenced Scene must outlive the AccelStructure.
 */
class AccelStructure
{
  public:
    /** Build all BLASes and the TLAS for @p scene. */
    void build(const Scene &scene,
               const BuilderConfig &config = BuilderConfig{});

    const Scene &scene() const { return *scene_; }
    const std::vector<BlasAccel> &blases() const { return blases_; }
    const TlasAccel &tlas() const { return tlas_; }

    /**
     * Lay the node arrays, primitive buffers and instance table out
     * in simulated memory starting at @p base.
     *
     * @return one past the last assigned address
     */
    uint64_t assignAddresses(uint64_t base);

    /** Structural statistics for tables and figures. */
    AccelStats computeStats() const;

    /**
     * Rebuild the TLAS over the scene's *current* instance
     * transforms, keeping every BLAS untouched -- the per-frame
     * update step for animated/dynamic scenes (the paper's stated
     * future-work direction). With one instance per leaf the node
     * count is invariant (2n-1), so the TLAS is rebuilt in place at
     * its existing addresses.
     */
    void refitTlas(const BuilderConfig &config = BuilderConfig{});

  private:
    /** Build the TLAS over the current instance transforms. */
    void buildTlas(const BuilderConfig &config);

    const Scene *scene_ = nullptr;
    std::vector<BlasAccel> blases_;
    TlasAccel tlas_;
};

} // namespace lumi

#endif // LUMI_BVH_ACCEL_HH
