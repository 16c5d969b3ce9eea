/**
 * @file
 * Figure 13: distribution of data types fetched by the RT unit for
 * the representative subset. The paper's takeaway: the long-and-thin
 * scenes (SHIP_SH, PARK_PT) fetch a much higher proportion of leaf
 * nodes because their bounding boxes contain mostly empty space.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace lumi;
using namespace lumi::bench;

int
main()
{
    RunOptions options = RunOptions::fromEnv();
    std::printf("%s",
                banner("Figure 13: RT unit data-type mix").c_str());

    std::vector<Workload> subset = representativeSubset();
    std::vector<WorkloadResult> results = runAll(subset, options);

    TextTable table({"workload", "tlas_internal", "tlas_leaf",
                     "blas_internal", "blas_leaf", "instance",
                     "triangle", "procedural", "leaf_share"});
    const char *metrics[] = {"rt_frac_tlas_internal",
                             "rt_frac_tlas_leaf",
                             "rt_frac_blas_internal",
                             "rt_frac_blas_leaf", "rt_frac_instance",
                             "rt_frac_triangle", "rt_frac_procedural"};
    double ship_leaf = 0.0, park_leaf = 0.0, others = 0.0;
    int other_count = 0;
    for (const WorkloadResult &r : results) {
        const GpuStats &s = r.stats;
        double total = static_cast<double>(
            s.rtTlasInternalFetches + s.rtTlasLeafFetches +
            s.rtBlasInternalFetches + s.rtBlasLeafFetches +
            s.rtInstanceFetches + s.rtTriangleFetches +
            s.rtProceduralFetches);
        double leaf_share =
            total > 0
                ? (static_cast<double>(s.rtBlasLeafFetches) +
                   s.rtTriangleFetches + s.rtProceduralFetches) /
                      total
                : 0.0;
        std::vector<std::string> row = {r.id};
        for (const char *name : metrics)
            row.push_back(TextTable::num(metric(r, name), 3));
        row.push_back(TextTable::num(leaf_share, 3));
        table.addRow(row);
        if (r.id == "SHIP_SH") {
            ship_leaf = leaf_share;
        } else if (r.id == "PARK_PT") {
            park_leaf = leaf_share;
        } else if (r.id != "WKND_PT") {
            // WKND is all-procedural and not comparable.
            others += leaf_share;
            other_count++;
        }
    }
    std::printf("%s\n", table.render().c_str());
    double avg_other = other_count > 0 ? others / other_count : 0.0;
    std::printf("leaf-fetch share: SHIP_SH %.3f, PARK_PT %.3f vs "
                "other avg %.3f (paper: SHIP/PARK markedly "
                "higher)\n",
                ship_leaf, park_leaf, avg_other);
    return 0;
}
