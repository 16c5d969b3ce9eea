/**
 * @file
 * Table 3: the eight most representative characteristics, selected
 * with the MICA genetic algorithm -- the subset of metrics whose
 * pairwise workload distances best match the full PCA space.
 */

#include <cstdio>

#include "analysis/genetic.hh"
#include "analysis/pca.hh"
#include "bench_util.hh"
#include "metrics/metrics.hh"

using namespace lumi;
using namespace lumi::bench;

int
main()
{
    RunOptions options = RunOptions::fromEnv();
    std::printf("%s",
                banner("Table 3: selected similarity characteristics")
                    .c_str());

    std::vector<Workload> workloads = allWorkloads();
    std::vector<WorkloadResult> results = runAll(workloads, options);
    std::vector<std::vector<double>> rows;
    for (const WorkloadResult &result : results)
        rows.push_back(result.metrics.values);

    std::vector<int> kept;
    auto dense = denseColumns(rows, kept);
    PcaResult reference = pca(dense, 0.9);

    GeneticParams params;
    params.subsetSize = 8;
    GeneticResult selection = selectMetrics(dense, reference.scores,
                                            params);

    std::printf("\nGA fitness (distance-matrix correlation): %.3f\n\n",
                selection.fitness);
    TextTable table({"#", "characteristic", "architecture", "rt",
                     "category"});
    const auto &schema = metricSchema();
    auto category_name = [](MetricCategory c) {
        switch (c) {
          case MetricCategory::Memory: return "Memory";
          case MetricCategory::Shader: return "Shader";
          case MetricCategory::Scene: return "Scene";
          case MetricCategory::Instruction: return "Instruction";
          case MetricCategory::Performance: return "Performance";
        }
        return "?";
    };
    int rank = 1;
    for (int column : selection.selected) {
        const MetricDef &def = schema[kept[column]];
        table.addRow({std::to_string(rank++), def.name,
                      def.archIndependent ? "Independent"
                                          : "Dependent",
                      def.rtSpecific() ? "yes" : "no",
                      category_name(def.category)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper expectation: a mix of arch-dependent and "
                "-independent metrics across Memory/Shader/Scene "
                "categories, mostly RT-specific\n");
    return 0;
}
