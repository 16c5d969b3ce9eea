#include "metrics/metrics.hh"

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <limits>
#include <unordered_map>

namespace lumi
{

namespace
{

constexpr double nan_value = std::numeric_limits<double>::quiet_NaN();

std::vector<MetricDef>
buildSchema()
{
    using C = MetricCategory;
    std::vector<MetricDef> schema;
    auto add = [&](const char *name, C cat, bool rt, bool indep) {
        schema.push_back({name, cat, rt, indep});
    };

    // ---- Group 1: 35 general GPU metrics ----
    add("ipc_thread", C::Performance, false, false);
    add("ipc_warp", C::Performance, false, false);
    add("simt_efficiency", C::Performance, false, true);
    add("instr_total_log", C::Instruction, false, true);
    add("instr_frac_alu", C::Instruction, false, true);
    add("instr_frac_sfu", C::Instruction, false, true);
    add("instr_frac_mem", C::Instruction, false, true);
    add("instr_frac_trace", C::Instruction, false, true);
    add("lat_frac_alu", C::Instruction, false, false);
    add("lat_frac_sfu", C::Instruction, false, false);
    add("lat_frac_mem", C::Instruction, false, false);
    add("lat_frac_trace", C::Instruction, false, false);
    add("loads_per_kinstr", C::Memory, false, true);
    add("stores_per_kinstr", C::Memory, false, true);
    add("segments_per_mem_instr", C::Memory, false, true);
    add("l1_read_miss_rate", C::Memory, false, false);
    add("l1_shader_miss_rate", C::Memory, false, false);
    add("l1_pending_hit_rate", C::Memory, false, false);
    add("l1_cold_miss_frac", C::Memory, false, false);
    add("l2_read_miss_rate", C::Memory, false, false);
    add("l2_reads_per_kcycle", C::Memory, false, false);
    add("dram_reads_per_kcycle", C::Memory, false, false);
    add("dram_row_locality", C::Memory, false, false);
    add("dram_avg_latency", C::Memory, false, false);
    add("dram_utilization", C::Memory, false, false);
    add("dram_efficiency", C::Memory, false, false);
    add("dram_read_bytes_per_cycle", C::Memory, false, false);
    add("dram_write_frac", C::Memory, false, false);
    add("warp_occupancy", C::Performance, false, false);
    add("issue_utilization", C::Performance, false, false);
    add("instr_per_warp", C::Instruction, false, true);
    add("threads_log", C::Instruction, false, true);
    add("l1_writes_per_kinstr", C::Memory, false, false);
    add("avg_mem_latency", C::Memory, false, false);
    add("cycles_log", C::Performance, false, false);

    // ---- Group 2: 29 RT-unit metrics ----
    add("rt_occupancy", C::Shader, true, false);
    add("rt_efficiency", C::Shader, true, false);
    add("rt_active_frac", C::Shader, true, false);
    add("rt_avg_active_cycles", C::Shader, true, false);
    add("rays_per_kcycle", C::Shader, true, false);
    add("rays_total_log", C::Shader, true, true);
    add("avg_traversal_length", C::Shader, true, true);
    add("traversal_ratio", C::Shader, true, true);
    add("box_tests_per_ray", C::Shader, true, true);
    add("tri_tests_per_ray", C::Shader, true, true);
    add("proc_tests_per_ray", C::Shader, true, true);
    add("rt_frac_tlas_internal", C::Scene, true, true);
    add("rt_frac_tlas_leaf", C::Scene, true, true);
    add("rt_frac_blas_internal", C::Scene, true, true);
    add("rt_frac_blas_leaf", C::Scene, true, true);
    add("rt_frac_instance", C::Scene, true, true);
    add("rt_frac_triangle", C::Scene, true, true);
    add("rt_frac_procedural", C::Scene, true, true);
    add("rt_frac_bvh_nodes", C::Scene, true, true);
    add("l1_rt_read_hit_rate", C::Memory, true, false);
    add("l1_rt_miss_rate", C::Memory, true, false);
    add("l1_rt_reads_per_ray", C::Memory, true, false);
    add("rt_mem_writes_per_ray", C::Shader, true, false);
    add("anyhit_per_ray", C::Shader, true, true);
    add("isect_per_ray", C::Shader, true, true);
    add("ray_hit_rate", C::Shader, true, true);
    add("trace_latency_avg", C::Shader, true, false);
    add("rays_per_warp_trace", C::Shader, true, true);
    add("rt_reads_frac_of_l1", C::Memory, true, false);

    // ---- Group 3: 23 scene/shader characteristics ----
    add("scene_tris_log", C::Scene, true, true);
    add("scene_proc_prims_log", C::Scene, true, true);
    add("scene_instances_log", C::Scene, true, true);
    add("scene_instanced_prims_log", C::Scene, true, true);
    add("scene_blas_count_log", C::Scene, true, true);
    add("bvh_tlas_depth", C::Scene, true, true);
    add("bvh_max_blas_depth", C::Scene, true, true);
    add("bvh_total_depth", C::Scene, true, true);
    add("bvh_nodes_log", C::Scene, true, true);
    add("bvh_sibling_overlap", C::Scene, true, true);
    add("scene_footprint_log", C::Scene, true, true);
    add("scene_num_lights", C::Scene, true, true);
    add("scene_num_textures", C::Scene, true, true);
    add("scene_enclosed", C::Scene, true, true);
    add("scene_uses_anyhit", C::Scene, true, true);
    add("scene_uses_procedural", C::Scene, true, true);
    add("shader_is_pt", C::Shader, true, true);
    add("shader_is_sh", C::Shader, true, true);
    add("shader_is_ao", C::Shader, true, true);
    add("rays_frac_primary", C::Shader, true, true);
    add("rays_frac_secondary", C::Shader, true, true);
    add("rays_frac_shadow", C::Shader, true, true);
    add("rays_frac_ao", C::Shader, true, true);

    return schema;
}

double
safeDiv(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

double
log10p1(double v)
{
    return std::log10(1.0 + std::max(0.0, v));
}

} // namespace

const std::vector<MetricDef> &
metricSchema()
{
    static const std::vector<MetricDef> schema = buildSchema();
    return schema;
}

int
metricIndex(const std::string &name)
{
    static const std::unordered_map<std::string, int> index = [] {
        std::unordered_map<std::string, int> map;
        const auto &schema = metricSchema();
        for (size_t i = 0; i < schema.size(); i++)
            map[schema[i].name] = static_cast<int>(i);
        return map;
    }();
    auto it = index.find(name);
    return it == index.end() ? -1 : it->second;
}

MetricVector
collectMetrics(const Gpu &gpu, const WorkloadContext *context)
{
    const GpuStats &s = gpu.stats();
    const MemSystem &mem = gpu.memSystem();
    const GpuConfig &config = gpu.config();
    const DramStats &dram = mem.dram().stats();

    MetricVector row;
    row.values.reserve(metricSchema().size());
    auto push = [&](double v) { row.values.push_back(v); };

    double cycles = static_cast<double>(s.cycles);
    double instr = static_cast<double>(s.instructions);
    double rt_units = static_cast<double>(config.numSms) *
                      config.rtUnitsPerSm;

    uint64_t l1_reads = mem.l1Rt().reads + mem.l1Shader().reads;
    uint64_t l1_hits = mem.l1Rt().hits + mem.l1Shader().hits;
    uint64_t l1_pending = mem.l1Rt().pendingHits +
                          mem.l1Shader().pendingHits;
    uint64_t l1_misses = mem.l1Rt().misses + mem.l1Shader().misses;
    uint64_t l1_cold = mem.l1Rt().coldMisses +
                       mem.l1Shader().coldMisses;
    uint64_t l2_reads = mem.l2Rt().reads + mem.l2Shader().reads;
    uint64_t l2_misses = mem.l2Rt().misses + mem.l2Shader().misses;
    (void)l1_hits;

    // ---- Group 1 ----
    push(safeDiv(static_cast<double>(s.threadInstructions), cycles));
    push(safeDiv(instr, cycles));
    push(s.simtEfficiency());
    push(log10p1(instr));
    push(safeDiv(s.instrByOp[0], instr));
    push(safeDiv(s.instrByOp[1], instr));
    push(safeDiv(static_cast<double>(s.instrByOp[2]) + s.instrByOp[3],
                 instr));
    push(safeDiv(s.instrByOp[4], instr));
    double lat_total = 0;
    for (int i = 0; i < numWarpOps; i++)
        lat_total += static_cast<double>(s.latencyByOp[i]);
    push(safeDiv(s.latencyByOp[0], lat_total));
    push(safeDiv(s.latencyByOp[1], lat_total));
    push(safeDiv(static_cast<double>(s.latencyByOp[2]) +
                     s.latencyByOp[3],
                 lat_total));
    push(safeDiv(s.latencyByOp[4], lat_total));
    push(safeDiv(1000.0 * s.instrByOp[2], instr));
    push(safeDiv(1000.0 * s.instrByOp[3], instr));
    push(safeDiv(s.coalescedSegments, s.memInstructions));
    push(safeDiv(l1_misses, l1_reads));
    push(safeDiv(mem.l1Shader().misses, mem.l1Shader().reads));
    push(safeDiv(l1_pending, l1_reads));
    push(safeDiv(l1_cold, l1_misses));
    push(safeDiv(l2_misses, l2_reads));
    push(safeDiv(1000.0 * l2_reads, cycles));
    push(safeDiv(1000.0 * dram.accesses, cycles));
    push(dram.rowLocality());
    push(dram.avgLatency());
    push(dram.utilization(s.cycles));
    push(dram.efficiency());
    push(safeDiv(static_cast<double>(dram.readBytes), cycles));
    push(safeDiv(dram.writeBytes,
                 static_cast<double>(dram.readBytes) +
                     dram.writeBytes));
    push(safeDiv(s.warpCyclesResident,
                 cycles * config.numSms * config.maxWarpsPerSm));
    push(safeDiv(s.issueCycles, cycles * config.numSms));
    push(safeDiv(instr, s.warpsLaunched));
    push(log10p1(static_cast<double>(s.warpsLaunched) * 32.0));
    push(safeDiv(1000.0 * (mem.l1Rt().writes + mem.l1Shader().writes),
                 instr));
    push(safeDiv(s.latencyByOp[2],
                 static_cast<double>(s.instrByOp[2])));
    push(log10p1(cycles));

    // ---- Group 2 (RT) ----
    bool has_rt = context != nullptr && s.raysTraced > 0;
    double rays = static_cast<double>(s.raysTraced);
    uint64_t rt_fetches = s.rtTlasInternalFetches +
                          s.rtTlasLeafFetches +
                          s.rtBlasInternalFetches +
                          s.rtBlasLeafFetches + s.rtInstanceFetches +
                          s.rtTriangleFetches + s.rtProceduralFetches;
    double fetches = static_cast<double>(rt_fetches);
    int bvh_depth = context && context->accelStats
                        ? context->accelStats->totalDepth
                        : 0;
    if (has_rt) {
        push(s.rtOccupancy(static_cast<int>(rt_units)));
        push(s.rtEfficiency());
        push(safeDiv(s.rtActiveCycles, cycles * rt_units));
        push(safeDiv(s.rtActiveCycles, rt_units));
        push(safeDiv(1000.0 * rays, cycles));
        push(log10p1(rays));
        push(s.avgTraversalLength());
        push(bvh_depth > 0
                 ? s.avgTraversalLength() / bvh_depth
                 : 0.0);
        push(safeDiv(s.rtBoxTests, rays));
        push(safeDiv(s.rtTriangleTests, rays));
        push(safeDiv(s.rtProceduralTests, rays));
        push(safeDiv(s.rtTlasInternalFetches, fetches));
        push(safeDiv(s.rtTlasLeafFetches, fetches));
        push(safeDiv(s.rtBlasInternalFetches, fetches));
        push(safeDiv(s.rtBlasLeafFetches, fetches));
        push(safeDiv(s.rtInstanceFetches, fetches));
        push(safeDiv(s.rtTriangleFetches, fetches));
        push(safeDiv(s.rtProceduralFetches, fetches));
        push(safeDiv(static_cast<double>(s.rtTlasInternalFetches) +
                         s.rtTlasLeafFetches +
                         s.rtBlasInternalFetches +
                         s.rtBlasLeafFetches,
                     fetches));
        push(safeDiv(mem.l1Rt().hits, mem.l1Rt().reads));
        push(safeDiv(mem.l1Rt().misses, mem.l1Rt().reads));
        push(safeDiv(mem.l1Rt().reads, rays));
        push(safeDiv(s.rtResultWrites, rays));
        push(safeDiv(s.anyHitInvocations, rays));
        push(safeDiv(s.intersectionInvocations, rays));
        push(safeDiv(s.raysHit, rays));
        push(safeDiv(s.latencyByOp[4],
                     static_cast<double>(s.instrByOp[4])));
        push(safeDiv(rays, s.instrByOp[4]));
        push(safeDiv(mem.l1Rt().reads, l1_reads));
    } else {
        for (int i = 0; i < 29; i++)
            push(nan_value);
    }

    // ---- Group 3 (scene/shader) ----
    if (context && context->scene && context->accelStats) {
        const Scene &scene = *context->scene;
        const AccelStats &a = *context->accelStats;
        push(log10p1(static_cast<double>(a.uniqueTriangles)));
        push(log10p1(static_cast<double>(a.uniqueProceduralPrims)));
        push(log10p1(static_cast<double>(a.instances)));
        push(log10p1(static_cast<double>(a.instancedPrimitives)));
        push(log10p1(static_cast<double>(a.blasCount)));
        push(a.tlasDepth);
        push(a.maxBlasDepth);
        push(a.totalDepth);
        push(log10p1(static_cast<double>(a.blasNodes + a.tlasNodes)));
        push(a.avgSiblingOverlap);
        push(log10p1(static_cast<double>(a.memoryFootprintBytes)));
        push(static_cast<double>(scene.lights.size()));
        push(static_cast<double>(scene.textures.size()));
        push(scene.enclosed ? 1.0 : 0.0);
        push(scene.usesAnyHit() ? 1.0 : 0.0);
        push(scene.proceduralGeometryCount() > 0 ? 1.0 : 0.0);
        push(context->shader == ShaderKind::PathTracing ? 1.0 : 0.0);
        push(context->shader == ShaderKind::Shadow ? 1.0 : 0.0);
        push(context->shader == ShaderKind::AmbientOcclusion ? 1.0
                                                             : 0.0);
        double ray_total = 0;
        for (int k = 0; k < numRayKinds; k++)
            ray_total += static_cast<double>(s.raysByKind[k]);
        push(safeDiv(s.raysByKind[0], ray_total));
        push(safeDiv(s.raysByKind[1], ray_total));
        push(safeDiv(s.raysByKind[2], ray_total));
        push(safeDiv(s.raysByKind[3], ray_total));
    } else {
        for (int i = 0; i < 23; i++)
            push(nan_value);
    }

    return row;
}

std::vector<MetricVector>
readCsv(const std::string &path)
{
    std::vector<MetricVector> rows;
    FILE *file = std::fopen(path.c_str(), "r");
    if (!file)
        return rows;

    auto split = [](const std::string &line) {
        std::vector<std::string> cells;
        size_t start = 0;
        for (;;) {
            size_t comma = line.find(',', start);
            if (comma == std::string::npos) {
                cells.push_back(line.substr(start));
                break;
            }
            cells.push_back(line.substr(start, comma - start));
            start = comma + 1;
        }
        return cells;
    };

    char buffer[16384];
    if (!std::fgets(buffer, sizeof(buffer), file)) {
        std::fclose(file);
        return rows;
    }
    std::string header(buffer);
    while (!header.empty() &&
           (header.back() == '\n' || header.back() == '\r')) {
        header.pop_back();
    }
    std::vector<std::string> names = split(header);
    // Map file columns to schema indices (column 0 is the workload).
    std::vector<int> target(names.size(), -1);
    for (size_t c = 1; c < names.size(); c++)
        target[c] = metricIndex(names[c]);

    while (std::fgets(buffer, sizeof(buffer), file)) {
        std::string line(buffer);
        while (!line.empty() &&
               (line.back() == '\n' || line.back() == '\r')) {
            line.pop_back();
        }
        if (line.empty())
            continue;
        std::vector<std::string> cells = split(line);
        MetricVector row;
        row.workload = cells[0];
        row.values.assign(metricSchema().size(), nan_value);
        for (size_t c = 1; c < cells.size() && c < target.size();
             c++) {
            if (target[c] >= 0)
                row.values[target[c]] = std::atof(cells[c].c_str());
        }
        rows.push_back(std::move(row));
    }
    std::fclose(file);
    return rows;
}

bool
writeCsv(const std::string &path, const std::vector<MetricVector> &rows)
{
    FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    std::fprintf(file, "workload");
    for (const MetricDef &def : metricSchema())
        std::fprintf(file, ",%s", def.name.c_str());
    std::fprintf(file, "\n");
    for (const MetricVector &row : rows) {
        std::fprintf(file, "%s", row.workload.c_str());
        for (double v : row.values)
            std::fprintf(file, ",%.6g", v);
        std::fprintf(file, "\n");
    }
    bool ok = !std::ferror(file);
    return std::fclose(file) == 0 && ok;
}

} // namespace lumi
