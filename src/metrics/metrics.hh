/**
 * @file
 * The LumiBench metric vector (Sec. 3.4): 35 general GPU metrics, 29
 * RT-unit metrics and 23 scene/shader characteristics, each tagged
 * with its category and whether it is microarchitecture-independent
 * (the MICA distinction of Table 3).
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

/** Static description of one metric. */
struct MetricDef
{
    std::string name;
    MetricCategory category;
    /** True when the metric needs the RT unit (excluded for compute). */
    bool rtSpecific = false;
    /** False when the value depends on the simulated hardware. */
    bool archIndependent = false;
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
