/**
 * @file
 * Figure 11: distribution of L1D accesses for the representative
 * subset -- traceRay (RT unit) accesses versus shader accesses, hit
 * and miss components, and the compulsory (cold) miss share. The
 * paper's points: the average traceRay miss rate is around 50%; cold
 * misses are a small fraction (the caches thrash); BUNNY_AO's misses
 * are shader-driven while PARK_PT's come from traversal.
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
                banner("Figure 11: L1D access distribution").c_str());

    std::vector<Workload> subset = representativeSubset();
    std::vector<WorkloadResult> results = runAll(subset, options);

    TextTable table({"workload", "rt_share", "rt_hit_rate",
                     "rt_miss_rate", "shader_hit_rate",
                     "shader_miss_rate", "cold_miss_frac",
                     "miss_from_rt"});
    double rt_miss_sum = 0.0;
    for (const WorkloadResult &r : results) {
        auto rate = [](uint64_t part, uint64_t whole) {
            return whole > 0
                       ? static_cast<double>(part) / whole
                       : 0.0;
        };
        uint64_t misses = r.l1Rt.misses + r.l1Shader.misses;
        double rt_miss = metric(r, "l1_rt_miss_rate");
        rt_miss_sum += rt_miss;
        table.addRow({r.id,
                      TextTable::num(metric(r, "rt_reads_frac_of_l1"),
                                     3),
                      TextTable::num(rate(r.l1Rt.hits + r.l1Rt
                                              .pendingHits,
                                          r.l1Rt.reads), 3),
                      TextTable::num(rt_miss, 3),
                      TextTable::num(rate(r.l1Shader.hits +
                                              r.l1Shader.pendingHits,
                                          r.l1Shader.reads), 3),
                      TextTable::num(metric(r, "l1_shader_miss_rate"),
                                     3),
                      TextTable::num(metric(r, "l1_cold_miss_frac"),
                                     3),
                      TextTable::num(rate(r.l1Rt.misses, misses),
                                     3)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("avg traceRay L1D miss rate = %.2f "
                "(paper: ~0.50, up to ~0.66 for large scenes)\n",
                rt_miss_sum / results.size());
    std::printf("paper expectations: cold misses are a small "
                "fraction of misses (thrashing); PARK_PT misses are "
                "traversal-driven, BUNNY_AO misses shader-driven\n");
    return 0;
}
