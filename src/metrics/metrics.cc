#include "metrics/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <unordered_map>

namespace lumi
{

namespace
{

constexpr double nan_value = std::numeric_limits<double>::quiet_NaN();

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

/** Sum of a counter array, accumulated in double in index order. */
template <size_t N>
double
total(const uint64_t (&counts)[N])
{
    double sum = 0.0;
    for (uint64_t count : counts)
        sum += static_cast<double>(count);
    return sum;
}

/**
 * What the formulas read: the finished simulation, the workload
 * context (null for compute kernels) and the sums several formulas
 * share. scene and accel are null when the context lacks them.
 */
struct Run
{
    Run(const Gpu &gpu, const WorkloadContext *workload)
        : s(gpu.stats()), mem(gpu.memSystem()), config(gpu.config()),
          context(workload)
    {
    }

    const GpuStats &s;
    const MemSystem &mem;
    const GpuConfig &config;
    const WorkloadContext *context;
    const DramStats &dram = mem.dram().stats();
    const RequesterStats &l1Rt = mem.l1Rt();
    const RequesterStats &l1Sh = mem.l1Shader();
    const Scene *scene = context ? context->scene : nullptr;
    const AccelStats *accel = context ? context->accelStats : nullptr;
    double cycles = static_cast<double>(s.cycles);
    double instr = static_cast<double>(s.instructions);
    double latTotal = total(s.latencyByOp);
    double rays = static_cast<double>(s.raysTraced);
    double rayTotal = total(s.raysByKind);
    double rtUnits =
        static_cast<double>(config.numSms) * config.rtUnitsPerSm;
    double fetches = static_cast<double>(
        s.rtTlasInternalFetches + s.rtTlasLeafFetches +
        s.rtBlasInternalFetches + s.rtBlasLeafFetches +
        s.rtInstanceFetches + s.rtTriangleFetches +
        s.rtProceduralFetches);
    uint64_t l1Reads = l1Rt.reads + l1Sh.reads;
    uint64_t l1Misses = l1Rt.misses + l1Sh.misses;
    uint64_t l2Reads = mem.l2Rt().reads + mem.l2Shader().reads;
};

/** One metric: its schema entry and its formula. */
struct MetricEntry
{
    const char *name;
    MetricCategory category;
    MetricGroup group;
    bool archIndependent;
    double (*formula)(const Run &);
};

// One table entry; FORMULA is an expression over the Run `r`.
#define METRIC(NAME, CATEGORY, GROUP, INDEPENDENT, FORMULA)              \
    {NAME, MetricCategory::CATEGORY, MetricGroup::GROUP, INDEPENDENT,    \
     [](const Run &r) -> double { return FORMULA; }}

/**
 * The metric vector in column order: 35 GPU, 29 RT-unit and 23
 * scene/shader metrics (Sec. 3.4, Table 3). A formula runs only when
 * its group is defined for the run (collectMetrics()).
 */
constexpr MetricEntry metricTable[] = {
    // ---- GPU ----
    METRIC("ipc_thread", Performance, Gpu, false,
           safeDiv(r.s.threadInstructions, r.cycles)),
    METRIC("ipc_warp", Performance, Gpu, false,
           safeDiv(r.instr, r.cycles)),
    METRIC("simt_efficiency", Performance, Gpu, true,
           r.s.simtEfficiency()),
    METRIC("instr_total_log", Instruction, Gpu, true, log10p1(r.instr)),
    METRIC("instr_frac_alu", Instruction, Gpu, true,
           safeDiv(r.s.instrByOp[0], r.instr)),
    METRIC("instr_frac_sfu", Instruction, Gpu, true,
           safeDiv(r.s.instrByOp[1], r.instr)),
    METRIC("instr_frac_mem", Instruction, Gpu, true,
           safeDiv(static_cast<double>(r.s.instrByOp[2]) +
                       r.s.instrByOp[3],
                   r.instr)),
    METRIC("instr_frac_trace", Instruction, Gpu, true,
           safeDiv(r.s.instrByOp[4], r.instr)),
    METRIC("lat_frac_alu", Instruction, Gpu, false,
           safeDiv(r.s.latencyByOp[0], r.latTotal)),
    METRIC("lat_frac_sfu", Instruction, Gpu, false,
           safeDiv(r.s.latencyByOp[1], r.latTotal)),
    METRIC("lat_frac_mem", Instruction, Gpu, false,
           safeDiv(static_cast<double>(r.s.latencyByOp[2]) +
                       r.s.latencyByOp[3],
                   r.latTotal)),
    METRIC("lat_frac_trace", Instruction, Gpu, false,
           safeDiv(r.s.latencyByOp[4], r.latTotal)),
    METRIC("loads_per_kinstr", Memory, Gpu, true,
           safeDiv(1000.0 * r.s.instrByOp[2], r.instr)),
    METRIC("stores_per_kinstr", Memory, Gpu, true,
           safeDiv(1000.0 * r.s.instrByOp[3], r.instr)),
    METRIC("segments_per_mem_instr", Memory, Gpu, true,
           safeDiv(r.s.coalescedSegments, r.s.memInstructions)),
    METRIC("l1_read_miss_rate", Memory, Gpu, false,
           safeDiv(r.l1Misses, r.l1Reads)),
    METRIC("l1_shader_miss_rate", Memory, Gpu, false,
           safeDiv(r.l1Sh.misses, r.l1Sh.reads)),
    METRIC("l1_pending_hit_rate", Memory, Gpu, false,
           safeDiv(r.l1Rt.pendingHits + r.l1Sh.pendingHits, r.l1Reads)),
    METRIC("l1_cold_miss_frac", Memory, Gpu, false,
           safeDiv(r.l1Rt.coldMisses + r.l1Sh.coldMisses, r.l1Misses)),
    METRIC("l2_read_miss_rate", Memory, Gpu, false,
           safeDiv(r.mem.l2Rt().misses + r.mem.l2Shader().misses,
                   r.l2Reads)),
    METRIC("l2_reads_per_kcycle", Memory, Gpu, false,
           safeDiv(1000.0 * r.l2Reads, r.cycles)),
    METRIC("dram_reads_per_kcycle", Memory, Gpu, false,
           safeDiv(1000.0 * r.dram.accesses, r.cycles)),
    METRIC("dram_row_locality", Memory, Gpu, false,
           r.dram.rowLocality()),
    METRIC("dram_avg_latency", Memory, Gpu, false, r.dram.avgLatency()),
    METRIC("dram_utilization", Memory, Gpu, false,
           r.dram.utilization(r.s.cycles)),
    METRIC("dram_efficiency", Memory, Gpu, false, r.dram.efficiency()),
    METRIC("dram_read_bytes_per_cycle", Memory, Gpu, false,
           safeDiv(r.dram.readBytes, r.cycles)),
    METRIC("dram_write_frac", Memory, Gpu, false,
           safeDiv(r.dram.writeBytes,
                   static_cast<double>(r.dram.readBytes) +
                       r.dram.writeBytes)),
    METRIC("warp_occupancy", Performance, Gpu, false,
           safeDiv(r.s.warpCyclesResident,
                   r.cycles * r.config.numSms * r.config.maxWarpsPerSm)),
    METRIC("issue_utilization", Performance, Gpu, false,
           safeDiv(r.s.issueCycles, r.cycles * r.config.numSms)),
    METRIC("instr_per_warp", Instruction, Gpu, true,
           safeDiv(r.instr, r.s.warpsLaunched)),
    METRIC("threads_log", Instruction, Gpu, true,
           log10p1(static_cast<double>(r.s.warpsLaunched) * 32.0)),
    METRIC("l1_writes_per_kinstr", Memory, Gpu, false,
           safeDiv(1000.0 * (r.l1Rt.writes + r.l1Sh.writes), r.instr)),
    METRIC("avg_mem_latency", Memory, Gpu, false,
           safeDiv(r.s.latencyByOp[2], r.s.instrByOp[2])),
    METRIC("cycles_log", Performance, Gpu, false, log10p1(r.cycles)),

    // ---- RT unit ----
    METRIC("rt_occupancy", Shader, Rt, false,
           r.s.rtOccupancy(static_cast<int>(r.rtUnits))),
    METRIC("rt_efficiency", Shader, Rt, false, r.s.rtEfficiency()),
    METRIC("rt_active_frac", Shader, Rt, false,
           safeDiv(r.s.rtActiveCycles, r.cycles * r.rtUnits)),
    METRIC("rt_avg_active_cycles", Shader, Rt, false,
           safeDiv(r.s.rtActiveCycles, r.rtUnits)),
    METRIC("rays_per_kcycle", Shader, Rt, false,
           safeDiv(1000.0 * r.rays, r.cycles)),
    METRIC("rays_total_log", Shader, Rt, true, log10p1(r.rays)),
    METRIC("avg_traversal_length", Shader, Rt, true,
           r.s.avgTraversalLength()),
    METRIC("traversal_ratio", Shader, Rt, true,
           r.accel && r.accel->totalDepth > 0
               ? r.s.avgTraversalLength() / r.accel->totalDepth
               : 0.0),
    METRIC("box_tests_per_ray", Shader, Rt, true,
           safeDiv(r.s.rtBoxTests, r.rays)),
    METRIC("tri_tests_per_ray", Shader, Rt, true,
           safeDiv(r.s.rtTriangleTests, r.rays)),
    METRIC("proc_tests_per_ray", Shader, Rt, true,
           safeDiv(r.s.rtProceduralTests, r.rays)),
    METRIC("rt_frac_tlas_internal", Scene, Rt, true,
           safeDiv(r.s.rtTlasInternalFetches, r.fetches)),
    METRIC("rt_frac_tlas_leaf", Scene, Rt, true,
           safeDiv(r.s.rtTlasLeafFetches, r.fetches)),
    METRIC("rt_frac_blas_internal", Scene, Rt, true,
           safeDiv(r.s.rtBlasInternalFetches, r.fetches)),
    METRIC("rt_frac_blas_leaf", Scene, Rt, true,
           safeDiv(r.s.rtBlasLeafFetches, r.fetches)),
    METRIC("rt_frac_instance", Scene, Rt, true,
           safeDiv(r.s.rtInstanceFetches, r.fetches)),
    METRIC("rt_frac_triangle", Scene, Rt, true,
           safeDiv(r.s.rtTriangleFetches, r.fetches)),
    METRIC("rt_frac_procedural", Scene, Rt, true,
           safeDiv(r.s.rtProceduralFetches, r.fetches)),
    METRIC("rt_frac_bvh_nodes", Scene, Rt, true,
           safeDiv(static_cast<double>(r.s.rtTlasInternalFetches) +
                       r.s.rtTlasLeafFetches +
                       r.s.rtBlasInternalFetches +
                       r.s.rtBlasLeafFetches,
                   r.fetches)),
    METRIC("l1_rt_read_hit_rate", Memory, Rt, false,
           safeDiv(r.l1Rt.hits, r.l1Rt.reads)),
    METRIC("l1_rt_miss_rate", Memory, Rt, false,
           safeDiv(r.l1Rt.misses, r.l1Rt.reads)),
    METRIC("l1_rt_reads_per_ray", Memory, Rt, false,
           safeDiv(r.l1Rt.reads, r.rays)),
    METRIC("rt_mem_writes_per_ray", Shader, Rt, false,
           safeDiv(r.s.rtResultWrites, r.rays)),
    METRIC("anyhit_per_ray", Shader, Rt, true,
           safeDiv(r.s.anyHitInvocations, r.rays)),
    METRIC("isect_per_ray", Shader, Rt, true,
           safeDiv(r.s.intersectionInvocations, r.rays)),
    METRIC("ray_hit_rate", Shader, Rt, true,
           safeDiv(r.s.raysHit, r.rays)),
    METRIC("trace_latency_avg", Shader, Rt, false,
           safeDiv(r.s.latencyByOp[4], r.s.instrByOp[4])),
    METRIC("rays_per_warp_trace", Shader, Rt, true,
           safeDiv(r.rays, r.s.instrByOp[4])),
    METRIC("rt_reads_frac_of_l1", Memory, Rt, false,
           safeDiv(r.l1Rt.reads, r.l1Reads)),

    // ---- Scene/shader ----
    METRIC("scene_tris_log", Scene, Scene, true,
           log10p1(r.accel->uniqueTriangles)),
    METRIC("scene_proc_prims_log", Scene, Scene, true,
           log10p1(r.accel->uniqueProceduralPrims)),
    METRIC("scene_instances_log", Scene, Scene, true,
           log10p1(r.accel->instances)),
    METRIC("scene_instanced_prims_log", Scene, Scene, true,
           log10p1(r.accel->instancedPrimitives)),
    METRIC("scene_blas_count_log", Scene, Scene, true,
           log10p1(r.accel->blasCount)),
    METRIC("bvh_tlas_depth", Scene, Scene, true, r.accel->tlasDepth),
    METRIC("bvh_max_blas_depth", Scene, Scene, true,
           r.accel->maxBlasDepth),
    METRIC("bvh_total_depth", Scene, Scene, true, r.accel->totalDepth),
    METRIC("bvh_nodes_log", Scene, Scene, true,
           log10p1(r.accel->blasNodes + r.accel->tlasNodes)),
    METRIC("bvh_sibling_overlap", Scene, Scene, true,
           r.accel->avgSiblingOverlap),
    METRIC("scene_footprint_log", Scene, Scene, true,
           log10p1(r.accel->memoryFootprintBytes)),
    METRIC("scene_num_lights", Scene, Scene, true,
           r.scene->lights.size()),
    METRIC("scene_num_textures", Scene, Scene, true,
           r.scene->textures.size()),
    METRIC("scene_enclosed", Scene, Scene, true, r.scene->enclosed),
    METRIC("scene_uses_anyhit", Scene, Scene, true,
           r.scene->usesAnyHit()),
    METRIC("scene_uses_procedural", Scene, Scene, true,
           r.scene->proceduralGeometryCount() > 0),
    METRIC("shader_is_pt", Shader, Scene, true,
           r.context->shader == ShaderKind::PathTracing),
    METRIC("shader_is_sh", Shader, Scene, true,
           r.context->shader == ShaderKind::Shadow),
    METRIC("shader_is_ao", Shader, Scene, true,
           r.context->shader == ShaderKind::AmbientOcclusion),
    METRIC("rays_frac_primary", Shader, Scene, true,
           safeDiv(r.s.raysByKind[0], r.rayTotal)),
    METRIC("rays_frac_secondary", Shader, Scene, true,
           safeDiv(r.s.raysByKind[1], r.rayTotal)),
    METRIC("rays_frac_shadow", Shader, Scene, true,
           safeDiv(r.s.raysByKind[2], r.rayTotal)),
    METRIC("rays_frac_ao", Shader, Scene, true,
           safeDiv(r.s.raysByKind[3], r.rayTotal)),
};

#undef METRIC

} // namespace

const std::vector<MetricDef> &
metricSchema()
{
    static const std::vector<MetricDef> schema = [] {
        std::vector<MetricDef> defs;
        for (const MetricEntry &m : metricTable)
            defs.push_back({m.name, m.category, m.group,
                            m.archIndependent});
        return defs;
    }();
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
    const Run run(gpu, context);
    const bool has_rt = context && run.s.raysTraced > 0;
    const bool has_scene = run.scene && run.accel;
    MetricVector row;
    row.values.reserve(std::size(metricTable));
    for (const MetricEntry &m : metricTable) {
        bool defined = m.group == MetricGroup::Gpu ||
                       (m.group == MetricGroup::Rt ? has_rt : has_scene);
        row.values.push_back(defined ? m.formula(run) : nan_value);
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
