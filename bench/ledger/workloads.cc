/**
 * @file
 * The ledger's four workloads. Each stresses a different layer; the
 * README gives the measured shares behind each choice. Sizes are set
 * so one cold pass takes about 1 s on a 4-core host: a measuring
 * window holds ten or more passes, whose median shrugs off bursts
 * of host noise.
 */

#include <stdexcept>

#include "ledger.hh"

namespace lumi
{
namespace ledger
{

namespace
{

Workload
findWorkload(const std::string &id)
{
    for (const auto &list : {allWorkloads(), rtqWorkloads()}) {
        for (const Workload &workload : list) {
            if (workload.id() == id)
                return workload;
        }
    }
    throw std::invalid_argument("unknown workload " + id);
}

ComputeKernel
findKernel(const std::string &name)
{
    for (ComputeKernel kernel : allComputeKernels()) {
        if (name == computeKernelName(kernel))
            return kernel;
    }
    throw std::invalid_argument("unknown kernel " + name);
}

RunOptions
options(const GpuConfig &config, int res, float detail, uint32_t seed,
        bool smoke)
{
    RunOptions options;
    options.config = config;
    options.params.width = smoke ? 16 : res;
    options.params.height = options.params.width;
    options.params.samplesPerPixel = 1;
    options.params.seed = seed;
    options.sceneDetail = smoke ? 1.0f : detail;
    return options;
}

void
addRows(std::vector<campaign::Job> &rows,
        const std::vector<std::string> &ids, const RunOptions &options)
{
    for (const std::string &id : ids)
        rows.push_back(campaign::Job::rayTracing(findWorkload(id),
                                                 options));
}

void
addKernels(std::vector<campaign::Job> &rows,
           const std::vector<ComputeKernel> &kernels,
           const RunOptions &options)
{
    for (ComputeKernel kernel : kernels)
        rows.push_back(campaign::Job::compute(kernel, options));
}

/** Table 2's subset plus one RTQ query of each kind and Rodinia. */
void
addSubsetRows(std::vector<campaign::Job> &rows,
              const RunOptions &options)
{
    for (const Workload &workload : representativeSubset())
        rows.push_back(campaign::Job::rayTracing(workload, options));
    addRows(rows, {"AMR_PC", "PTS_KNN"}, options);
    addKernels(rows, allComputeKernels(), options);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "subset_mobile", "backpressure_table4", "structure_detail4",
        "reports_warm"};
    return names;
}

std::string
rowKey(const campaign::Job &job)
{
    return job.id() + "@" + job.options.config.name;
}

bool
makeWorkload(const std::string &name, uint32_t seed, bool smoke,
             WorkloadSpec &out)
{
    out = WorkloadSpec{};
    const GpuConfig mobile = GpuConfig::mobile();
    const GpuConfig table4 = GpuConfig::table4();
    if (name == "subset_mobile") {
        // The paper's characterization sweep across all three
        // families; the cycle loop dominates.
        addSubsetRows(out.rows, options(mobile, 32, 2.0f, seed, smoke));
    } else if (name == "backpressure_table4") {
        // Finite MSHRs: rejected RT fetches replay every cycle, so
        // nearly every landing is a stall storm.
        RunOptions t4 = options(table4, 16, 2.0f, seed, smoke);
        addRows(out.rows, {"BUNNY_AO", "ROBOT_SH", "AMR_PC", "PTS_PC"},
                t4);
        addKernels(out.rows, {findKernel("kmeans"), findKernel("srad")},
                   t4);
    } else if (name == "structure_detail4") {
        // Tessellation scaling (Sec. 4.3): every scene once, at
        // detail 4 and a tiny frame, so scene and BVH build dominate.
        RunOptions opts = options(mobile, 8, 4.0f, seed, smoke);
        for (const Workload &workload : allWorkloads()) {
            if (workload.shader == ShaderKind::PathTracing)
                out.rows.push_back(
                    campaign::Job::rayTracing(workload, opts));
        }
        addRows(out.rows, {"AMR_PC", "PTS_PC"}, opts);
    } else if (name == "reports_warm") {
        // The read side: set-up writes a corpus with interval series
        // under both configs; timed sweeps are all cache hits.
        RunOptions m = options(mobile, 16, 2.0f, seed, smoke);
        m.intervalStats = 4000;
        addSubsetRows(out.rows, m);
        RunOptions t4 = options(table4, 12, 2.0f, seed, smoke);
        t4.intervalStats = 4000;
        addRows(out.rows,
                {"SPNZA_AO", "BUNNY_AO", "WKND_PT", "SHIP_SH",
                 "ROBOT_SH", "AMR_PC", "PTS_KNN"},
                t4);
        out.warm = true;
    } else {
        return false;
    }
    return true;
}

} // namespace ledger
} // namespace lumi
