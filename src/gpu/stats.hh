/**
 * @file
 * The simulator-wide statistics block.
 *
 * Every counter the characterization study reports lives here; the
 * metrics module (src/metrics) turns these into the named metric
 * vector used for the similarity analysis.
 */

#ifndef LUMI_GPU_STATS_HH
#define LUMI_GPU_STATS_HH

#include <cstdint>

#include "gpu/warp_instr.hh"

namespace lumi
{

/** Ray categories for the scene/shader metric group (Fig. 2). */
enum class RayKind : uint8_t
{
    Primary,
    Secondary, ///< path tracing bounces / reflections
    Shadow,
    AmbientOcclusion,
    Query, ///< RTQ zero-length / sphere-query rays (non-graphics)
    NumKinds,
};

constexpr int numRayKinds = static_cast<int>(RayKind::NumKinds);
constexpr int numWarpOps = 5;

/**
 * Live occupancy of the whole GPU, kept as running totals: each
 * SimtCore and RtUnit adjusts it at the state change itself (warp
 * assign/retire, RT admit, ray done, RT warp release), so the cycle
 * loop weights residency statistics by a span without visiting any
 * component. Gpu owns it and recounts it from the components at
 * every launch end.
 */
struct OccupancyGauge
{
    /** Warps resident in SIMT cores. */
    int residentWarps = 0;
    /** Warps resident in RT units, and their unfinished rays. */
    int rtWarps = 0;
    int rtRays = 0;
    /** RT units holding at least one warp. */
    int rtActiveUnits = 0;
    /** rtWarps and rtRays split by the warp's ray kind. */
    int rtWarpsByKind[numRayKinds] = {};
    int rtRaysByKind[numRayKinds] = {};

    bool operator==(const OccupancyGauge &) const = default;
};

/** Counters accumulated over one simulation. */
struct GpuStats
{
    // --- System ---
    uint64_t cycles = 0;
    uint64_t warpsLaunched = 0;

    // --- Instruction stream ---
    uint64_t instructions = 0;
    uint64_t threadInstructions = 0;
    uint64_t instrByOp[numWarpOps] = {};
    /** Accumulated issue-to-complete latency per op class (Fig. 8). */
    uint64_t latencyByOp[numWarpOps] = {};
    uint64_t coalescedSegments = 0;
    uint64_t memInstructions = 0;

    // --- SIMT core residency ---
    uint64_t warpCyclesResident = 0;
    uint64_t issueCycles = 0;

    // --- RT unit ---
    uint64_t rtWarpCycles = 0;
    uint64_t rtRayCycles = 0;
    uint64_t rtActiveCycles = 0;
    /** Residency and in-flight-ray cycles split by ray kind. */
    uint64_t rtWarpCyclesByKind[numRayKinds] = {};
    uint64_t rtRayCyclesByKind[numRayKinds] = {};
    uint64_t raysTraced = 0;
    uint64_t raysByKind[numRayKinds] = {};
    uint64_t rtTlasInternalFetches = 0;
    uint64_t rtTlasLeafFetches = 0;
    uint64_t rtBlasInternalFetches = 0;
    uint64_t rtBlasLeafFetches = 0;
    uint64_t rtInstanceFetches = 0;
    uint64_t rtTriangleFetches = 0;
    uint64_t rtProceduralFetches = 0;
    uint64_t rtBoxTests = 0;
    uint64_t rtTriangleTests = 0;
    uint64_t rtProceduralTests = 0;
    uint64_t rtNodesTraversed = 0;
    uint64_t rtResultWrites = 0;
    uint64_t anyHitInvocations = 0;
    uint64_t intersectionInvocations = 0;
    /** Rays that found a hit / rays that missed everything. */
    uint64_t raysHit = 0;
    uint64_t raysMissed = 0;

    // --- Derived ---
    double
    ipc() const
    {
        return cycles > 0
                   ? static_cast<double>(instructions) / cycles
                   : 0.0;
    }

    double
    simtEfficiency() const
    {
        return instructions > 0
                   ? static_cast<double>(threadInstructions) /
                         (static_cast<double>(instructions) * 32.0)
                   : 0.0;
    }

    /** Average in-flight warps per RT unit (over all cycles). */
    double
    rtOccupancy(int rt_units) const
    {
        uint64_t denom = cycles * static_cast<uint64_t>(rt_units);
        return denom > 0
                   ? static_cast<double>(rtWarpCycles) / denom
                   : 0.0;
    }

    /** Average active rays per resident RT warp. */
    double
    rtEfficiency() const
    {
        return rtWarpCycles > 0
                   ? static_cast<double>(rtRayCycles) /
                         (static_cast<double>(rtWarpCycles) * 32.0)
                   : 0.0;
    }

    /** Mean BVH nodes traversed per traced ray. */
    double
    avgTraversalLength() const
    {
        return raysTraced > 0
                   ? static_cast<double>(rtNodesTraversed) /
                         raysTraced
                   : 0.0;
    }
};

} // namespace lumi

#endif // LUMI_GPU_STATS_HH
