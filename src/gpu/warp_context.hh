/**
 * @file
 * The warp-level shader programming interface.
 *
 * Shaders (and compute kernels) are C++ functions over a WarpContext
 * of 32 lanes. Every call both *computes* (so the image or kernel
 * output is functionally correct) and *emits* a warp instruction into
 * the trace the timing model replays. Control flow uses explicit
 * mask-splitting (branch / loopWhile), which serializes divergent
 * paths exactly like a SIMT reconvergence stack -- the emitted active
 * masks are therefore the true SIMT masks, and the SIMT-efficiency
 * numbers in Fig. 9 fall out of them.
 */

#ifndef LUMI_GPU_WARP_CONTEXT_HH
#define LUMI_GPU_WARP_CONTEXT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "bvh/traversal.hh"
#include "gpu/scene_layout.hh"
#include "gpu/stats.hh"
#include "gpu/warp_instr.hh"

namespace lumi
{

/** Functional + trace-emitting execution context for one warp. */
class WarpContext
{
  public:
    static constexpr int warpSize = 32;

    /**
     * @param layout scene layout; may be null for compute kernels
     *        (traceRay is then unavailable)
     * @param warp_id global warp index of this warp
     * @param lane_count lanes with work (tail warps may be partial)
     */
    WarpContext(const SceneGpuLayout *layout, uint32_t warp_id,
                int lane_count = warpSize);

    uint32_t warpId() const { return warpId_; }
    uint32_t activeMask() const { return activeMask_; }
    bool anyActive() const { return activeMask_ != 0; }

    bool
    laneActive(int lane) const
    {
        return (activeMask_ >> lane) & 1u;
    }

    /** Global thread index of @p lane. */
    uint32_t
    threadIndex(int lane) const
    {
        return warpId_ * warpSize + lane;
    }

    // --- Instruction emitters -------------------------------------

    /** @p count back-to-back arithmetic instructions. */
    void alu(int count = 1);

    /** @p count transcendental (SFU) instructions. */
    void sfu(int count = 1);

    /** Per-lane load of @p bytes at addr_fn(lane). */
    void load(uint32_t bytes,
              const std::function<uint64_t(int)> &addr_fn);

    /** Load where every active lane reads the same address. */
    void loadUniform(uint64_t addr, uint32_t bytes);

    /** Per-lane store of @p bytes at addr_fn(lane). */
    void store(uint32_t bytes,
               const std::function<uint64_t(int)> &addr_fn);

    /**
     * Trace one ray per active lane through the scene.
     *
     * Functionally resolves each ray immediately (results land in
     * @p out_hits, indexed by lane); emits a TraceRay warp
     * instruction for the RT unit, followed by the deferred anyhit /
     * intersection shader work the traversals queued (coalesced, as
     * Vulkan-Sim executes them, Sec. 3.1.4).
     *
     * @param ray_fn world-space ray per lane
     * @param tmax_fn maximum hit distance per lane
     * @param any_hit occlusion query (terminate on first hit)
     * @param kind ray category for the workload statistics
     * @param out_hits per-lane results (array of >= 32)
     * @param out_candidates optional per-lane copies of the
     *        intersection-shader candidate queues (array of >= 32
     *        vectors); the RTQ query kernels read their results from
     *        these instead of the closest-hit record. Purely
     *        functional -- filling them emits no instructions.
     */
    void traceRay(const std::function<Ray(int)> &ray_fn,
                  const std::function<float(int)> &tmax_fn,
                  bool any_hit, RayKind kind, HitInfo *out_hits,
                  std::vector<IntersectionRecord> *out_candidates =
                      nullptr);

    // --- Control flow ---------------------------------------------

    /**
     * SIMT branch: runs @p then_fn with the lanes where cond holds,
     * then @p else_fn (if given) with the complement. A side with an
     * empty mask is skipped entirely, like a uniform branch.
     */
    void branch(const std::function<bool(int)> &cond,
                const std::function<void()> &then_fn,
                const std::function<void()> &else_fn = {});

    /**
     * SIMT loop: iterates @p body while any active lane satisfies
     * cond; lanes that fail drop out (stay masked) until the loop
     * exits, exactly like a divergent loop on hardware.
     */
    void loopWhile(const std::function<bool(int)> &cond,
                   const std::function<void()> &body,
                   int max_iterations = 100000);

    // --- Trace extraction -----------------------------------------

    /**
     * Finish and take the emitted program. Checks that every
     * divergence push was matched by a pop (the warp reconverged).
     */
    WarpProgram take();

    /** Functional-side ray counts by kind (for workload metrics). */
    const uint64_t *rayCounts() const { return rayCounts_; }

  private:
    /** Divergence nesting beyond this is treated as runaway. */
    static constexpr size_t maxDivergenceDepth = 1024;

    void pushMask(uint32_t mask);
    void popMask();
    WarpInstr &emit(WarpOp op);

    /** Lets tests corrupt the divergence stack to prove checks fire. */
    friend struct WarpContextTestPeer;

    const SceneGpuLayout *layout_;
    uint32_t warpId_;
    uint32_t activeMask_;
    std::vector<uint32_t> maskStack_;
    WarpProgram program_;

    uint64_t rayCounts_[numRayKinds] = {};
};

} // namespace lumi

#endif // LUMI_GPU_WARP_CONTEXT_HH
