#include "bvh/accel.hh"

#include <algorithm>

namespace lumi
{

void
AccelStructure::build(const Scene &scene, const BuilderConfig &config)
{
    scene_ = &scene;
    blases_.clear();

    BvhBuilder builder(config);
    for (size_t g = 0; g < scene.geometries.size(); g++) {
        const Geometry &geom = scene.geometries[g];
        std::vector<Aabb> bounds;
        bounds.reserve(geom.primitiveCount());
        if (geom.kind == Geometry::Kind::Triangles) {
            for (size_t t = 0; t < geom.mesh.triangleCount(); t++)
                bounds.push_back(geom.mesh.triangleBounds(t));
        } else if (geom.kind == Geometry::Kind::Boxes) {
            for (size_t b = 0; b < geom.boxes.count(); b++)
                bounds.push_back(geom.boxes.boxBounds(b));
        } else {
            for (size_t s = 0; s < geom.spheres.count(); s++)
                bounds.push_back(geom.spheres.sphereBounds(s));
        }
        BlasAccel blas;
        blas.geometryId = static_cast<int>(g);
        blas.bvh = builder.build(bounds);
        // Triangles fetch 3 vertices + indices; procedural spheres
        // fetch a (center, radius) record; boxes fetch (lo, hi).
        blas.primStride = geom.kind == Geometry::Kind::Triangles
                              ? 48
                              : (geom.kind == Geometry::Kind::Boxes
                                     ? 32
                                     : 16);
        blases_.push_back(std::move(blas));
    }

    buildTlas(config);
}

void
AccelStructure::refitTlas(const BuilderConfig &config)
{
    buildTlas(config);
}

void
AccelStructure::buildTlas(const BuilderConfig &config)
{
    // One leaf per instance so every leaf visit resolves to exactly
    // one instance transform fetch. Only the tree is replaced: the
    // node and instance addresses stay where assignAddresses put them.
    std::vector<Aabb> instance_bounds;
    instance_bounds.reserve(scene_->instances.size());
    for (const Instance &inst : scene_->instances) {
        Aabb local = blases_[inst.geometryId].bvh.bounds();
        instance_bounds.push_back(local.transformed(inst.transform));
    }
    BuilderConfig tlas_config = config;
    tlas_config.maxLeafPrims = 1;
    tlas_.bvh = BvhBuilder(tlas_config).build(instance_bounds);
}

uint64_t
AccelStructure::assignAddresses(uint64_t base)
{
    auto align = [](uint64_t addr) { return (addr + 127) & ~127ull; };

    tlas_.nodeBase = align(base);
    uint64_t cursor = tlas_.nodeBase + tlas_.bvh.nodeArrayBytes();
    tlas_.instanceBase = align(cursor);
    cursor = tlas_.instanceBase +
             scene_->instances.size() * TlasAccel::instanceStride;

    for (BlasAccel &blas : blases_) {
        blas.nodeBase = align(cursor);
        cursor = blas.nodeBase + blas.bvh.nodeArrayBytes();
        blas.primBase = align(cursor);
        const Geometry &geom = scene_->geometries[blas.geometryId];
        cursor = blas.primBase +
                 geom.primitiveCount() * blas.primStride;
    }
    return cursor;
}

AccelStats
AccelStructure::computeStats() const
{
    AccelStats stats;
    stats.instances = scene_->instances.size();
    stats.blasCount = blases_.size();

    double overlap_sum = 0.0;
    for (const BlasAccel &blas : blases_) {
        const Geometry &geom = scene_->geometries[blas.geometryId];
        if (geom.kind == Geometry::Kind::Triangles)
            stats.uniqueTriangles += geom.mesh.triangleCount();
        else
            stats.uniqueProceduralPrims += geom.primitiveCount();
        BvhStats tree = blas.bvh.computeStats();
        stats.blasNodes += tree.nodeCount;
        stats.maxBlasDepth = std::max(stats.maxBlasDepth,
                                      tree.maxDepth);
        overlap_sum += tree.siblingOverlap;
        stats.memoryFootprintBytes += blas.bvh.nodeArrayBytes();
        stats.memoryFootprintBytes +=
            geom.primitiveCount() * blas.primStride;
    }
    stats.avgSiblingOverlap = blases_.empty()
                                  ? 0.0
                                  : overlap_sum / blases_.size();

    for (const Instance &inst : scene_->instances) {
        stats.instancedPrimitives +=
            scene_->geometries[inst.geometryId].primitiveCount();
    }

    BvhStats tlas_tree = tlas_.bvh.computeStats();
    stats.tlasNodes = tlas_tree.nodeCount;
    stats.tlasDepth = tlas_tree.maxDepth;
    stats.totalDepth = stats.tlasDepth + stats.maxBlasDepth;
    stats.memoryFootprintBytes += tlas_.bvh.nodeArrayBytes();
    stats.memoryFootprintBytes +=
        scene_->instances.size() * TlasAccel::instanceStride;
    return stats;
}

} // namespace lumi
