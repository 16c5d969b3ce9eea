/**
 * @file
 * Registration of the simulator's counter structs into the named
 * StatRegistry (src/trace/stat_registry.hh).
 *
 * The counter structs themselves stay plain fields — increments on
 * the hot path never pay for indirection — and these bindings expose
 * them after (or during) a run under stable hierarchical names:
 *
 *   gpu.*            GpuStats core counters (+ ipc, simt_efficiency)
 *   rt.*             RT-unit counters, fetch mix, per-ray-kind splits
 *   sm<NN>.l1d.*     per-SM L1 data cache counters (+ miss_rate)
 *   l2.*             shared L2 counters
 *   l1.rt.* / l1.shader.* / l2.rt.* / l2.shader.*
 *                    requester-split hierarchy counters (aggregate)
 *   sm<NN>.l1.rt.* / sm<NN>.l1.shader.*
 *                    the per-SM summands of the L1 aggregates
 *   l1.kind.<kind>.* per-DataKind L1 reads/misses
 *   mem.*            request/port contention counters (MSHR stalls,
 *                    port conflicts, in-flight occupancy histogram)
 *   dram.*           DRAM counters (+ row_locality, avg_latency, ...)
 *   accel.*          acceleration-structure structural stats
 *
 * Registered entries point into the source structs: keep the Gpu (or
 * result structs) alive until the registry has been dumped.
 */

#ifndef LUMI_GPU_STAT_BINDINGS_HH
#define LUMI_GPU_STAT_BINDINGS_HH

#include <string>

#include "bvh/accel.hh"
#include "gpu/cache.hh"
#include "gpu/dram.hh"
#include "gpu/mem_system.hh"
#include "gpu/profile.hh"
#include "gpu/stats.hh"
#include "trace/stat_registry.hh"

namespace lumi
{

class Gpu;

/** Printable WarpOp name for stat/report keys. */
const char *warpOpName(WarpOp op);

/** Printable RayKind name for stat/report keys. */
const char *rayKindName(RayKind kind);

/** GpuStats under @p prefix ("gpu") and its RT group under "rt". */
void registerGpuStats(StatRegistry &registry, const GpuStats &stats,
                      const std::string &prefix = "gpu");

/** One CacheStats block under @p prefix (e.g. "sm03.l1d"). */
void registerCacheStats(StatRegistry &registry,
                        const CacheStats &stats,
                        const std::string &prefix);

/** One RequesterStats block under @p prefix (e.g. "l1.rt"). */
void registerRequesterStats(StatRegistry &registry,
                            const RequesterStats &stats,
                            const std::string &prefix);

/** MemSystemStats under @p prefix ("mem"). */
void registerMemSystemStats(StatRegistry &registry,
                            const MemSystemStats &stats,
                            const std::string &prefix = "mem");

/** DramStats under @p prefix ("dram"). */
void registerDramStats(StatRegistry &registry, const DramStats &stats,
                       const std::string &prefix = "dram");

/** AccelStats under @p prefix ("accel"). */
void registerAccelStats(StatRegistry &registry,
                        const AccelStats &stats,
                        const std::string &prefix = "accel");

/** numDataKinds-long arrays as "l1.kind.<kind>.{reads,misses}". */
void registerKindStats(StatRegistry &registry, const uint64_t *reads,
                       const uint64_t *misses);

/**
 * One SM-bucket/RT-bucket pair of the cycle account under
 * "<sm_prefix>.<bucket>" / "<rt_prefix>.<bucket>" (e.g. "profile.sm"
 * and "profile.rt" for the aggregates, "sm03.profile" and
 * "sm03.profile.rt" for one SM's summands).
 */
void registerCycleBuckets(StatRegistry &registry,
                          const SmCycleBuckets &sm,
                          const RtCycleBuckets &rt,
                          const std::string &sm_prefix,
                          const std::string &rt_prefix);

/**
 * Everything observable on a Gpu: GpuStats, per-SM L1s, the L2, the
 * requester splits, per-DataKind counters and DRAM.
 */
void registerGpu(StatRegistry &registry, const Gpu &gpu);

} // namespace lumi

#endif // LUMI_GPU_STAT_BINDINGS_HH
