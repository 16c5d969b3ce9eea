/**
 * @file
 * Figure 8: instruction-type distribution by dynamic count (top) and
 * by simulated latency (bottom) for each scene's PT workload. The
 * paper's takeaway: ALU dominates the count, but the few traceRay
 * instructions dominate latency, with memory second.
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
                banner("Figure 8: instruction mix, count vs latency")
                    .c_str());

    TextTable table({"scene", "cnt_alu", "cnt_sfu", "cnt_mem",
                     "cnt_rt", "lat_alu", "lat_sfu", "lat_mem",
                     "lat_rt"});
    std::vector<Workload> workloads;
    for (SceneId id : lumiScenes())
        workloads.push_back({id, ShaderKind::PathTracing});
    std::vector<WorkloadResult> results = runAll(workloads, options);
    const char *metrics[] = {"instr_frac_alu", "instr_frac_sfu",
                             "instr_frac_mem", "instr_frac_trace",
                             "lat_frac_alu", "lat_frac_sfu",
                             "lat_frac_mem", "lat_frac_trace"};
    for (size_t w = 0; w < workloads.size(); w++) {
        std::vector<std::string> row = {sceneName(workloads[w].scene)};
        for (const char *name : metrics)
            row.push_back(TextTable::num(metric(results[w], name), 3));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper expectations: ALU dominates dynamic count; "
                "RT (traceRay) dominates latency with Mem second; "
                "WKND shifts toward shader memory because its "
                "traversal is short\n");
    return 0;
}
