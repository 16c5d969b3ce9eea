#include "gpu/warp_context.hh"

#include "check/check.hh"

namespace lumi
{

WarpContext::WarpContext(const SceneGpuLayout *layout, uint32_t warp_id,
                         int lane_count)
    : layout_(layout), warpId_(warp_id)
{
    activeMask_ = lane_count >= warpSize
                      ? 0xffffffffu
                      : ((1u << lane_count) - 1u);
}

WarpInstr &
WarpContext::emit(WarpOp op)
{
    // Callers gate on anyActive(); an empty-mask instruction would
    // be a divergence-stack bookkeeping bug upstream.
    LUMI_CHECK(Simt, activeMask_ != 0,
               "warp %u emitted op %d with empty active mask",
               warpId_, static_cast<int>(op));
    WarpInstr instr;
    instr.op = op;
    instr.mask = activeMask_;
    program_.instrs.push_back(std::move(instr));
    return program_.instrs.back();
}

void
WarpContext::alu(int count)
{
    if (!anyActive() || count <= 0)
        return;
    // Merge with a preceding ALU under the same mask.
    if (!program_.instrs.empty()) {
        WarpInstr &prev = program_.instrs.back();
        if (prev.op == WarpOp::Alu && prev.mask == activeMask_ &&
            prev.repeat + count < 60000) {
            prev.repeat = static_cast<uint16_t>(prev.repeat + count);
            return;
        }
    }
    WarpInstr &instr = emit(WarpOp::Alu);
    instr.repeat = static_cast<uint16_t>(count);
}

void
WarpContext::sfu(int count)
{
    if (!anyActive() || count <= 0)
        return;
    if (!program_.instrs.empty()) {
        WarpInstr &prev = program_.instrs.back();
        if (prev.op == WarpOp::Sfu && prev.mask == activeMask_ &&
            prev.repeat + count < 60000) {
            prev.repeat = static_cast<uint16_t>(prev.repeat + count);
            return;
        }
    }
    WarpInstr &instr = emit(WarpOp::Sfu);
    instr.repeat = static_cast<uint16_t>(count);
}

void
WarpContext::load(uint32_t bytes,
                  const std::function<uint64_t(int)> &addr_fn)
{
    if (!anyActive())
        return;
    WarpInstr &instr = emit(WarpOp::MemLoad);
    instr.bytesPerLane = bytes;
    for (int lane = 0; lane < warpSize; lane++) {
        if (laneActive(lane))
            instr.addrs.push_back(addr_fn(lane));
    }
}

void
WarpContext::loadUniform(uint64_t addr, uint32_t bytes)
{
    load(bytes, [addr](int) { return addr; });
}

void
WarpContext::store(uint32_t bytes,
                   const std::function<uint64_t(int)> &addr_fn)
{
    if (!anyActive())
        return;
    WarpInstr &instr = emit(WarpOp::MemStore);
    instr.bytesPerLane = bytes;
    for (int lane = 0; lane < warpSize; lane++) {
        if (laneActive(lane))
            instr.addrs.push_back(addr_fn(lane));
    }
}

void
WarpContext::traceRay(const std::function<Ray(int)> &ray_fn,
                      const std::function<float(int)> &tmax_fn,
                      bool any_hit, RayKind kind, HitInfo *out_hits,
                      std::vector<IntersectionRecord> *out_candidates)
{
    if (!anyActive())
        return;
    LUMI_CHECK(Simt, layout_ && layout_->accel,
               "warp %u traceRay without a scene layout", warpId_);
#if LUMI_CHECKS_ENABLED
    if (!layout_ || !layout_->accel)
        return; // count mode: a layout-less traceRay cannot proceed
#endif

    WarpInstr &instr = emit(WarpOp::TraceRay);
    instr.anyHitQuery = any_hit;
    instr.rayKind = static_cast<uint8_t>(kind);

    // Per-lane deferred shader invocation queues gathered during the
    // functional traversal; their cost is emitted after the traceRay
    // instruction, coalesced across the warp.
    uint32_t anyhit_counts[warpSize] = {};
    uint32_t isect_counts[warpSize] = {};
    std::vector<AnyHitRecord> anyhit_records[warpSize];
    std::vector<IntersectionRecord> isect_records[warpSize];

    for (int lane = 0; lane < warpSize; lane++) {
        if (!laneActive(lane))
            continue;
        Ray ray = ray_fn(lane);
        float t_max = tmax_fn(lane);
        instr.rays.push_back(ray);
        instr.tMaxes.push_back(t_max);
        rayCounts_[static_cast<int>(kind)]++;

        TraversalStateMachine machine(*layout_->accel, ray, any_hit,
                                      1e-4f, t_max);
        while (!machine.done())
            machine.advance();
        out_hits[lane] = machine.result();
        anyhit_counts[lane] =
            static_cast<uint32_t>(machine.anyHitQueue().size());
        isect_counts[lane] =
            static_cast<uint32_t>(machine.intersectionQueue().size());
        anyhit_records[lane] = machine.anyHitQueue();
        isect_records[lane] = machine.intersectionQueue();
        if (out_candidates)
            out_candidates[lane] = isect_records[lane];
    }

    // The shader reads back the hit record the RT unit wrote for its
    // thread (payload delivery in the real pipeline).
    load(SceneGpuLayout::hitRecordStride, [this](int lane) {
        return layout_->hitRecordAddress(threadIndex(lane));
    });

    // Deferred anyhit shader executions: iterate until every lane's
    // queue drains; lanes with shorter queues sit masked out, which
    // is precisely the coalesced-invocation SIMT cost.
    const Scene &scene = layout_->accel->scene();
    uint32_t saved_mask = activeMask_;
    for (uint32_t round = 0;; round++) {
        uint32_t mask = 0;
        for (int lane = 0; lane < warpSize; lane++) {
            if (laneActive(lane) && anyhit_counts[lane] > round)
                mask |= 1u << lane;
        }
        if (!mask)
            break;
        activeMask_ = mask;
        alu(3); // barycentric interpolation of texcoords
        load(4, [&](int lane) {
            const AnyHitRecord &record = anyhit_records[lane][round];
            (void)scene;
            return layout_->texelAddress(record.alphaTextureId,
                                         record.texelOffset);
        });
        alu(3); // alpha compare + accept/ignore
        activeMask_ = saved_mask;
    }

    // Deferred intersection shader executions (procedural spheres):
    // fetch the primitive record, solve the quadratic.
    for (uint32_t round = 0;; round++) {
        uint32_t mask = 0;
        for (int lane = 0; lane < warpSize; lane++) {
            if (laneActive(lane) && isect_counts[lane] > round)
                mask |= 1u << lane;
        }
        if (!mask)
            break;
        activeMask_ = mask;
        load(16, [&](int lane) {
            return isect_records[lane][round].primAddress;
        });
        alu(10); // quadratic setup + discriminant + roots
        sfu(1);  // sqrt
        activeMask_ = saved_mask;
    }
}

void
WarpContext::pushMask(uint32_t mask)
{
    // Divergence discipline: a pushed side of a branch executes a
    // non-empty, strict subset-or-equal of its parent's lanes.
    LUMI_CHECK(Simt, mask != 0,
               "warp %u pushed an empty divergence mask", warpId_);
    LUMI_CHECK(Simt, (mask & ~activeMask_) == 0,
               "warp %u divergence mask 0x%08x escapes parent mask "
               "0x%08x",
               warpId_, mask, activeMask_);
    LUMI_CHECK(Simt, maskStack_.size() < maxDivergenceDepth,
               "warp %u divergence stack depth %zu exceeds %zu "
               "(runaway nesting)",
               warpId_, maskStack_.size(), maxDivergenceDepth);
    maskStack_.push_back(activeMask_);
    activeMask_ = mask;
}

void
WarpContext::popMask()
{
    // Reconvergence ordering: every pop must match a prior push.
    LUMI_CHECK(Simt, !maskStack_.empty(),
               "warp %u popped an empty divergence stack", warpId_);
#if LUMI_CHECKS_ENABLED
    if (maskStack_.empty())
        return; // count mode: survive the unmatched pop
#endif
    activeMask_ = maskStack_.back();
    maskStack_.pop_back();
}

void
WarpContext::branch(const std::function<bool(int)> &cond,
                    const std::function<void()> &then_fn,
                    const std::function<void()> &else_fn)
{
    if (!anyActive())
        return;
    // Evaluating the predicate costs one instruction.
    alu(1);
    uint32_t taken = 0;
    for (int lane = 0; lane < warpSize; lane++) {
        if (laneActive(lane) && cond(lane))
            taken |= 1u << lane;
    }
    uint32_t not_taken = activeMask_ & ~taken;
    // The two sides partition the parent mask exactly: no lane runs
    // both paths, no active lane is dropped.
    LUMI_CHECK(Simt,
               (taken & not_taken) == 0 &&
                   (taken | not_taken) == activeMask_,
               "warp %u branch broke the lane partition: parent "
               "0x%08x taken 0x%08x else 0x%08x",
               warpId_, activeMask_, taken, not_taken);
    if (taken) {
        pushMask(taken);
        then_fn();
        popMask();
    }
    if (not_taken && else_fn) {
        pushMask(not_taken);
        else_fn();
        popMask();
    }
}

WarpProgram
WarpContext::take()
{
    LUMI_CHECK(Simt, maskStack_.empty(),
               "warp %u program taken with %zu unreconverged "
               "divergence frames",
               warpId_, maskStack_.size());
    return std::move(program_);
}

void
WarpContext::loopWhile(const std::function<bool(int)> &cond,
                       const std::function<void()> &body,
                       int max_iterations)
{
    if (!anyActive())
        return;
    uint32_t saved = activeMask_;
    for (int iter = 0; iter < max_iterations; iter++) {
        alu(1); // loop predicate evaluation
        uint32_t mask = 0;
        for (int lane = 0; lane < warpSize; lane++) {
            if (laneActive(lane) && cond(lane))
                mask |= 1u << lane;
        }
        if (!mask)
            break;
        activeMask_ = mask;
        body();
    }
    activeMask_ = saved;
}

} // namespace lumi
