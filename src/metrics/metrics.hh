/**
 * @file
 * The LumiBench metric vector (Sec. 3.4): 35 general GPU metrics, 29
 * RT-unit metrics and 23 scene/shader characteristics. One table in
 * metrics.cc holds each metric's name, category, group, whether it
 * is microarchitecture-independent (the MICA distinction of Table
 * 3) and its formula; the schema, the name index and collection are
 * all read off that table.
 *
 * Compute (Rodinia) workloads populate only the GPU group; the RT and
 * scene groups are NaN and excluded from any combined analysis, as in
 * the paper (Sec. 3.4.1).
 */

#ifndef LUMI_METRICS_METRICS_HH
#define LUMI_METRICS_METRICS_HH

#include <string>
#include <vector>

#include "bvh/accel.hh"
#include "gpu/gpu.hh"
#include "rt/shader.hh"
#include "scene/scene.hh"

namespace lumi
{

/** Category labels matching Table 3's "Category" column. */
enum class MetricCategory
{
    Memory,
    Shader,
    Scene,
    Instruction,
    Performance,
};

/**
 * The paper's three metric groups. The group decides when a metric
 * is NaN: RT metrics without a workload context or when no ray was
 * traced, scene metrics without a scene and its accel stats.
 */
enum class MetricGroup
{
    Gpu,
    Rt,
    Scene,
};

/** Static description of one metric. */
struct MetricDef
{
    std::string name;
    MetricCategory category;
    MetricGroup group;
    /** False when the value depends on the simulated hardware. */
    bool archIndependent = false;

    /** True when the metric needs the RT unit (excluded for compute). */
    bool rtSpecific() const { return group != MetricGroup::Gpu; }
};

/** One workload's metric values, aligned with metricSchema(). */
struct MetricVector
{
    std::string workload;
    std::vector<double> values;

    double operator[](size_t i) const { return values[i]; }
};

/** The full ordered metric schema (87 metrics). */
const std::vector<MetricDef> &metricSchema();

/** Index of a metric by name; -1 if unknown. */
int metricIndex(const std::string &name);

/** Extra context for scene/shader metrics. */
struct WorkloadContext
{
    const Scene *scene = nullptr;
    const AccelStats *accelStats = nullptr;
    ShaderKind shader = ShaderKind::PathTracing;
    RenderParams params;
};

/**
 * Collect the metric vector from a finished simulation.
 *
 * @param gpu the simulator after the run
 * @param context scene/shader context, or null for compute kernels
 *        (RT and scene metrics become NaN)
 */
MetricVector collectMetrics(const Gpu &gpu,
                            const WorkloadContext *context);

/** Write rows as CSV (schema header + rows); false on I/O failure. */
bool writeCsv(const std::string &path,
              const std::vector<MetricVector> &rows);

/**
 * Read rows back from a CSV produced by writeCsv. Columns are
 * matched to the current schema by header name; missing columns
 * read as NaN. Returns an empty vector when the file is unreadable.
 */
std::vector<MetricVector> readCsv(const std::string &path);

} // namespace lumi

#endif // LUMI_METRICS_METRICS_HH
