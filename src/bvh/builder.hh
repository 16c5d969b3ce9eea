/**
 * @file
 * Binned surface-area-heuristic BVH builder.
 *
 * The builder is generic over "primitive bounds + centroid" so the
 * same code constructs BLASes (over triangles or procedural AABBs)
 * and the TLAS (over instance world bounds).
 */

#ifndef LUMI_BVH_BUILDER_HH
#define LUMI_BVH_BUILDER_HH

#include <cstdint>
#include <vector>

#include "bvh/bvh.hh"
#include "math/aabb.hh"

namespace lumi
{

/** Tunables for BVH construction. */
struct BuilderConfig
{
    /** SAH bin count along the split axis, in [1, BvhBuilder::maxBins]. */
    int binCount = 16;
    /** Stop splitting below this many primitives. */
    uint32_t maxLeafPrims = 4;
    /** Relative cost of a traversal step versus a primitive test. */
    float traversalCost = 1.2f;
};

/**
 * Builds BVHs with binned SAH splits. The tree is a pure function of
 * the input boxes and the config: nodes are numbered in depth-first
 * order (left subtree first), and each split reorders its range with
 * an explicit swap order (DESIGN.md §4.2), never a library algorithm.
 */
class BvhBuilder
{
  public:
    /** Largest supported BuilderConfig::binCount. */
    static constexpr int maxBins = 32;

    /** @throw std::invalid_argument if binCount is outside [1, 32] */
    explicit BvhBuilder(const BuilderConfig &config = BuilderConfig{});

    /**
     * Build a tree over @p bounds (one AABB per primitive).
     *
     * @param bounds per-primitive bounding boxes
     * @return the built tree; primIndices gives the leaf ordering
     */
    Bvh build(const std::vector<Aabb> &bounds) const;

  private:
    BuilderConfig config_;
};

} // namespace lumi

#endif // LUMI_BVH_BUILDER_HH
