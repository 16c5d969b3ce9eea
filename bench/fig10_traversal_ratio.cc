/**
 * @file
 * Figure 10: the traversal ratio -- average BVH nodes traversed per
 * ray relative to the tree depth -- for every workload. High ratios
 * mean the BVH prunes poorly (CHSNT_PT's anyhit re-confirmation);
 * low ratios can mean a good BVH or early termination.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace lumi;
using namespace lumi::bench;

int
main()
{
    RunOptions options = RunOptions::fromEnv();
    std::printf("%s", banner("Figure 10: traversal ratio").c_str());

    std::vector<Workload> workloads = allWorkloads();
    std::vector<WorkloadResult> results = runAll(workloads, options);

    TextTable table({"workload", "bvh_depth", "avg_nodes_per_ray",
                     "traversal_ratio"});
    double chsnt_ratio = 0.0, max_other = 0.0;
    for (const WorkloadResult &r : results) {
        double ratio = metric(r, "traversal_ratio");
        table.addRow({r.id,
                      std::to_string(r.accelStats.totalDepth),
                      TextTable::num(r.stats.avgTraversalLength(), 2),
                      TextTable::num(ratio, 3)});
        if (r.id == "CHSNT_PT")
            chsnt_ratio = ratio;
        else
            max_other = std::max(max_other, ratio);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("CHSNT_PT ratio = %.3f vs best-of-rest %.3f "
                "(paper: CHSNT_PT highest -- anyhit rejections "
                "defeat pruning)\n",
                chsnt_ratio, max_other);
    return 0;
}
