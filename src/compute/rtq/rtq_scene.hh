/**
 * @file
 * RTQ query-scene generators (RT-cores-as-compute).
 *
 * Non-graphics spatial queries recast as BVH traversals (the
 * point-containment pattern of Zellmann et al.): the "scenes" here are
 * not renderable content but spatial data structures expressed as
 * procedural geometry, so the RT unit traverses them like any other
 * acceleration structure.
 *
 * - AMR: an adaptively refined octree whose leaf cells tile the
 *   domain, each leaf a procedural AABB. Point-containment queries
 *   resolve "which cell holds this sample point" (AMR cell location).
 * - PTS: a clustered point cloud as procedural spheres. kNN queries
 *   run against several pre-inflated copies (radius r0 * 2^j per
 *   level, instanced at disjoint offsets) so a sphere query of
 *   growing radius is a relaunch against the next level.
 *
 * These builders live in the compute layer (not scene/) because the
 * query semantics belong to the RTQ workload family; the scene
 * library's buildScene() intentionally returns an empty scene for the
 * AMR/PTS ids.
 */

#ifndef LUMI_COMPUTE_RTQ_RTQ_SCENE_HH
#define LUMI_COMPUTE_RTQ_RTQ_SCENE_HH

#include "scene/scene.hh"
#include "scene/scene_library.hh"

namespace lumi
{
namespace rtq
{

/** Number of kNN radius levels the PTS scene instantiates. */
constexpr int knnLevels = 4;

/**
 * Build an RTQ query scene.
 *
 * @param id SceneId::AMR or SceneId::PTS
 * @param detail octree refinement depth / point-cloud size scale in
 *        (0, ...]; deterministic for a given (id, detail) pair, like
 *        every scene generator.
 */
Scene buildRtqScene(SceneId id, float detail = 1.0f);

} // namespace rtq
} // namespace lumi

#endif // LUMI_COMPUTE_RTQ_RTQ_SCENE_HH
