#include "gpu/stat_bindings.hh"

#include <cstdio>

#include "gpu/data_kind.hh"
#include "gpu/gpu.hh"

namespace lumi
{

const char *
warpOpName(WarpOp op)
{
    switch (op) {
      case WarpOp::Alu: return "alu";
      case WarpOp::Sfu: return "sfu";
      case WarpOp::MemLoad: return "mem_load";
      case WarpOp::MemStore: return "mem_store";
      case WarpOp::TraceRay: return "trace_ray";
      default: return "unknown";
    }
}

const char *
rayKindName(RayKind kind)
{
    switch (kind) {
      case RayKind::Primary: return "primary";
      case RayKind::Secondary: return "secondary";
      case RayKind::Shadow: return "shadow";
      case RayKind::AmbientOcclusion: return "ao";
      case RayKind::Query: return "query";
      default: return "unknown";
    }
}

void
registerGpuStats(StatRegistry &registry, const GpuStats &stats,
                 const std::string &prefix)
{
    const GpuStats *s = &stats;
    registry.addCounter(prefix + ".cycles", &s->cycles);
    registry.addCounter(prefix + ".warps_launched",
                        &s->warpsLaunched);
    registry.addCounter(prefix + ".instructions", &s->instructions);
    registry.addCounter(prefix + ".thread_instructions",
                        &s->threadInstructions);
    registry.addCounter(prefix + ".mem_instructions",
                        &s->memInstructions);
    registry.addCounter(prefix + ".coalesced_segments",
                        &s->coalescedSegments);
    registry.addCounter(prefix + ".warp_cycles_resident",
                        &s->warpCyclesResident);
    registry.addCounter(prefix + ".issue_cycles", &s->issueCycles);
    for (int op = 0; op < numWarpOps; op++) {
        std::string name = warpOpName(static_cast<WarpOp>(op));
        registry.addCounter(prefix + ".instr." + name,
                            &s->instrByOp[op]);
        registry.addCounter(prefix + ".latency." + name,
                            &s->latencyByOp[op]);
    }
    registry.addFormula(prefix + ".ipc",
                        [s] { return s->ipc(); });
    registry.addFormula(prefix + ".simt_efficiency",
                        [s] { return s->simtEfficiency(); });

    // The RT-unit group gets its own top-level namespace.
    registry.addCounter("rt.warp_cycles", &s->rtWarpCycles);
    registry.addCounter("rt.ray_cycles", &s->rtRayCycles);
    registry.addCounter("rt.active_cycles", &s->rtActiveCycles);
    registry.addCounter("rt.rays_traced", &s->raysTraced);
    registry.addCounter("rt.rays_hit", &s->raysHit);
    registry.addCounter("rt.rays_missed", &s->raysMissed);
    registry.addCounter("rt.result_writes", &s->rtResultWrites);
    registry.addCounter("rt.any_hit_invocations",
                        &s->anyHitInvocations);
    registry.addCounter("rt.intersection_invocations",
                        &s->intersectionInvocations);
    registry.addCounter("rt.nodes_traversed", &s->rtNodesTraversed);
    registry.addCounter("rt.box_tests", &s->rtBoxTests);
    registry.addCounter("rt.triangle_tests", &s->rtTriangleTests);
    registry.addCounter("rt.procedural_tests",
                        &s->rtProceduralTests);
    registry.addCounter("rt.fetch.tlas_internal",
                        &s->rtTlasInternalFetches);
    registry.addCounter("rt.fetch.tlas_leaf", &s->rtTlasLeafFetches);
    registry.addCounter("rt.fetch.blas_internal",
                        &s->rtBlasInternalFetches);
    registry.addCounter("rt.fetch.blas_leaf", &s->rtBlasLeafFetches);
    registry.addCounter("rt.fetch.instance", &s->rtInstanceFetches);
    registry.addCounter("rt.fetch.triangle", &s->rtTriangleFetches);
    registry.addCounter("rt.fetch.procedural",
                        &s->rtProceduralFetches);
    for (int k = 0; k < numRayKinds; k++) {
        std::string name = rayKindName(static_cast<RayKind>(k));
        registry.addCounter("rt.rays." + name, &s->raysByKind[k]);
        registry.addCounter("rt.warp_cycles_by_kind." + name,
                            &s->rtWarpCyclesByKind[k]);
        registry.addCounter("rt.ray_cycles_by_kind." + name,
                            &s->rtRayCyclesByKind[k]);
    }
    registry.addFormula("rt.efficiency",
                        [s] { return s->rtEfficiency(); });
    registry.addFormula("rt.avg_traversal_length",
                        [s] { return s->avgTraversalLength(); });
}

void
registerCacheStats(StatRegistry &registry, const CacheStats &stats,
                   const std::string &prefix)
{
    const CacheStats *s = &stats;
    registry.addCounter(prefix + ".reads", &s->reads);
    registry.addCounter(prefix + ".read_hits", &s->readHits);
    registry.addCounter(prefix + ".read_pending_hits",
                        &s->readPendingHits);
    registry.addCounter(prefix + ".misses", &s->readMisses);
    registry.addCounter(prefix + ".writes", &s->writes);
    registry.addCounter(prefix + ".write_hits", &s->writeHits);
    registry.addCounter(prefix + ".write_misses", &s->writeMisses);
    registry.addFormula(prefix + ".miss_rate",
                        [s] { return s->readMissRate(); });
    registry.addFormula(prefix + ".write_miss_rate",
                        [s] { return s->writeMissRate(); });
}

void
registerRequesterStats(StatRegistry &registry,
                       const RequesterStats &stats,
                       const std::string &prefix)
{
    const RequesterStats *s = &stats;
    registry.addCounter(prefix + ".reads", &s->reads);
    registry.addCounter(prefix + ".hits", &s->hits);
    registry.addCounter(prefix + ".pending_hits", &s->pendingHits);
    registry.addCounter(prefix + ".misses", &s->misses);
    registry.addCounter(prefix + ".cold_misses", &s->coldMisses);
    registry.addCounter(prefix + ".writes", &s->writes);
}

void
registerMemSystemStats(StatRegistry &registry,
                       const MemSystemStats &stats,
                       const std::string &prefix)
{
    const MemSystemStats *s = &stats;
    registry.addCounter(prefix + ".read_requests",
                        &s->readRequests);
    registry.addCounter(prefix + ".write_requests",
                        &s->writeRequests);
    registry.addCounter(prefix + ".port_rejects", &s->portRejects);
    registry.addCounter(prefix + ".port_conflict_cycles",
                        &s->portConflictCycles);
    registry.addCounter(prefix + ".mshr_full_stalls",
                        &s->mshrFullStalls);
    registry.addCounter(prefix + ".l2_mshr_full_stalls",
                        &s->l2MshrFullStalls);
    registry.addCounter(prefix + ".l2_mshr_wait_cycles",
                        &s->l2MshrWaitCycles);
    registry.addCounter(prefix + ".mshr_allocs", &s->mshrAllocs);
    registry.addCounter(prefix + ".mshr_frees", &s->mshrFrees);
    registry.addCounter(prefix + ".mshr_merges", &s->mshrMerges);
    registry.addCounter(prefix + ".mshr_live_peak",
                        &s->mshrLivePeak);
    registry.addCounter(prefix + ".icnt_flits", &s->icntFlits);
    registry.addCounter(prefix + ".icnt_wait_cycles",
                        &s->icntWaitCycles);
    for (int b = 0; b < memOccupancyBuckets; b++) {
        registry.addCounter(prefix + ".inflight_cycles." +
                                std::to_string(b),
                            &s->inflightCycles[b]);
    }
}

void
registerDramStats(StatRegistry &registry, const DramStats &stats,
                  const std::string &prefix)
{
    const DramStats *s = &stats;
    registry.addCounter(prefix + ".accesses", &s->accesses);
    registry.addCounter(prefix + ".row_hits", &s->rowHits);
    registry.addCounter(prefix + ".read_bytes", &s->readBytes);
    registry.addCounter(prefix + ".write_bytes", &s->writeBytes);
    registry.addCounter(prefix + ".data_cycles", &s->dataCycles);
    registry.addCounter(prefix + ".occupied_cycles",
                        &s->occupiedCycles);
    registry.addCounter(prefix + ".total_latency", &s->totalLatency);
    registry.addFormula(prefix + ".channels", [s] {
        return static_cast<double>(s->channels);
    });
    registry.addFormula(prefix + ".row_locality",
                        [s] { return s->rowLocality(); });
    registry.addFormula(prefix + ".avg_latency",
                        [s] { return s->avgLatency(); });
    registry.addFormula(prefix + ".efficiency",
                        [s] { return s->efficiency(); });
}

void
registerAccelStats(StatRegistry &registry, const AccelStats &stats,
                   const std::string &prefix)
{
    // AccelStats fields are size_t/int/double; expose them as
    // formulas reading the live struct.
    AccelStats::fields(stats, [&](const char *name, const auto &field) {
        registry.addFormula(prefix + "." + name, [p = &field] {
            return static_cast<double>(*p);
        });
    });
}

void
registerKindStats(StatRegistry &registry, const uint64_t *reads,
                  const uint64_t *misses)
{
    for (int k = 0; k < numDataKinds; k++) {
        std::string name = dataKindName(static_cast<DataKind>(k));
        registry.addCounter("l1.kind." + name + ".reads", &reads[k]);
        registry.addCounter("l1.kind." + name + ".misses",
                            &misses[k]);
    }
}

void
registerCycleBuckets(StatRegistry &registry,
                     const SmCycleBuckets &sm,
                     const RtCycleBuckets &rt,
                     const std::string &sm_prefix,
                     const std::string &rt_prefix)
{
    const SmCycleBuckets *s = &sm;
    for (int b = 0; b < numSmCycleBuckets; b++) {
        registry.addCounter(
            sm_prefix + "." +
                smCycleBucketName(static_cast<SmCycleBucket>(b)),
            &s->cycles[b]);
    }
    const RtCycleBuckets *r = &rt;
    for (int b = 0; b < numRtCycleBuckets; b++) {
        registry.addCounter(
            rt_prefix + "." +
                rtCycleBucketName(static_cast<RtCycleBucket>(b)),
            &r->cycles[b]);
    }
}

void
registerGpu(StatRegistry &registry, const Gpu &gpu)
{
    registerGpuStats(registry, gpu.stats());
    // The top-down cycle account: aggregates under profile.*, per-SM
    // summands under sm<NN>.profile.*.
    registerCycleBuckets(registry, gpu.profile().smTotal(),
                         gpu.profile().rtTotal(), "profile.sm",
                         "profile.rt");
    const MemSystem &mem = gpu.memSystem();
    for (int sm = 0; sm < gpu.config().numSms; sm++) {
        char prefix[32];
        std::snprintf(prefix, sizeof(prefix), "sm%02d.l1d", sm);
        registerCacheStats(registry, mem.l1(sm).stats, prefix);
        std::snprintf(prefix, sizeof(prefix), "sm%02d.l1.rt", sm);
        registerRequesterStats(registry, mem.l1Rt(sm), prefix);
        std::snprintf(prefix, sizeof(prefix), "sm%02d.l1.shader",
                      sm);
        registerRequesterStats(registry, mem.l1Shader(sm), prefix);
        std::snprintf(prefix, sizeof(prefix), "sm%02d.profile", sm);
        std::string sm_prefix = prefix;
        registerCycleBuckets(registry, gpu.profile().sm(sm),
                             gpu.profile().rt(sm), sm_prefix,
                             sm_prefix + ".rt");
    }
    registerCacheStats(registry, mem.l2().stats, "l2");
    registerRequesterStats(registry, mem.l1Rt(), "l1.rt");
    registerRequesterStats(registry, mem.l1Shader(), "l1.shader");
    registerRequesterStats(registry, mem.l2Rt(), "l2.rt");
    registerRequesterStats(registry, mem.l2Shader(), "l2.shader");
    registerKindStats(registry, mem.kindReads(), mem.kindMisses());
    registerMemSystemStats(registry, mem.memStats());
    registerDramStats(registry, mem.dram().stats());
}

} // namespace lumi
