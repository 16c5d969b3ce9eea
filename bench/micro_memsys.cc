/**
 * @file
 * The MSHR backpressure sweep: renders BUNNY_AO on the Table 4
 * config while shrinking the L1 MSHR file (64/16/4/1), printing IPC
 * and mem.mshr_full_stalls per point. Finite MSHRs must cost
 * performance monotonically; CI asserts exactly that on this output.
 *
 * Sweep points go through the campaign engine, so LUMI_JOBS /
 * LUMI_CACHE_DIR / LUMI_RES apply as in every other bench.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "trace/json_read.hh"

namespace
{

using namespace lumi;

/** mem.* counter out of a result's flat stat-registry dump. */
uint64_t
statCounter(const WorkloadResult &result, const std::string &name)
{
    JsonValue stats;
    if (!parseJson(result.statsJson, stats, nullptr))
        return 0;
    const JsonValue *value = stats.find(name);
    return value ? value->counter() : 0;
}

/**
 * The MSHR sweep: BUNNY_AO on the Table 4 config with the L1 MSHR
 * file at 64/16/4/1 entries, plus the unlimited oracle-parity
 * baseline. The sweep points leave the interconnect and L1 ports
 * unlimited so the MSHR file is the isolated bottleneck: under the
 * full Table 4 interconnect, MSHR throttling *relieves* link
 * congestion and the points stop ordering by MSHR count. One
 * campaign job per point; the config fingerprint keys the result
 * cache, so points never collide.
 */
int
runMshrSweep()
{
    const int mshr_points[] = {64, 16, 4, 1};

    const std::vector<Workload> workloads = allWorkloads();
    const Workload *workload = nullptr;
    for (const Workload &cand : workloads) {
        if (cand.id() == "BUNNY_AO")
            workload = &cand;
    }
    if (!workload) {
        std::fprintf(stderr, "micro_memsys: BUNNY_AO not found\n");
        return 1;
    }

    std::vector<campaign::Job> jobs;
    {
        RunOptions options = RunOptions::fromEnv();
        options.config = GpuConfig::mobile();
        jobs.push_back(campaign::Job::rayTracing(*workload, options));
    }
    for (int entries : mshr_points) {
        RunOptions options = RunOptions::fromEnv();
        options.config = GpuConfig::table4();
        options.config.icntFlitsPerCycle = 0;
        options.config.l1PortWidth = 0;
        options.config.l1MshrEntries = entries;
        jobs.push_back(campaign::Job::rayTracing(*workload, options));
    }
    std::vector<WorkloadResult> results = bench::runJobs(jobs);

    std::printf("# MSHR backpressure sweep (BUNNY_AO, Table 4 "
                "memory system)\n");
    std::printf("%-10s %12s %8s %18s %18s\n", "l1_mshrs", "cycles",
                "ipc", "mshr_full_stalls", "port_conflicts");
    for (size_t i = 0; i < results.size(); i++) {
        const WorkloadResult &result = results[i];
        int entries = jobs[i].options.config.l1MshrEntries;
        double ipc =
            result.stats.cycles > 0
                ? static_cast<double>(result.stats.instructions) /
                      result.stats.cycles
                : 0.0;
        char label[16];
        if (entries == 0)
            std::snprintf(label, sizeof(label), "unlimited");
        else
            std::snprintf(label, sizeof(label), "%d", entries);
        std::printf("%-10s %12llu %8.4f %18llu %18llu\n", label,
                    static_cast<unsigned long long>(
                        result.stats.cycles),
                    ipc,
                    static_cast<unsigned long long>(statCounter(
                        result, "mem.mshr_full_stalls")),
                    static_cast<unsigned long long>(statCounter(
                        result, "mem.port_conflict_cycles")));
    }
    return 0;
}

} // namespace

int
main()
{
    return runMshrSweep();
}
