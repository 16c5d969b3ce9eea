/**
 * @file
 * Figure 6: RT-unit residency, IPC and L1D miss rate over time for
 * PARK_PT, BUNNY_AO and SHIP_SH, plus a higher-resolution SHIP_SH
 * run demonstrating that the key metrics stabilize and follow the
 * same trends (the Sec. 4.3 representative-sampling argument).
 *
 * The time series comes from the generic interval sampler
 * (trace/interval.hh, --interval-stats): the figure derives its
 * per-window metrics from counter deltas instead of a bespoke
 * timeline probe, so the same sampled reports answer `lumibench
 * query --series` queries.
 */

#include <cmath>
#include <cstdio>

#include "bench_util.hh"
#include "trace/interval.hh"

using namespace lumi;
using namespace lumi::bench;

namespace
{

/** One derived timeline row (counter deltas over one interval). */
struct TimeRow
{
    uint64_t cycle = 0;
    double rtWarpsPerUnit = 0.0;
    double ipc = 0.0;
    double l1MissRate = 0.0;
};

std::vector<TimeRow>
deriveRows(const WorkloadResult &result)
{
    const IntervalSeries &s = result.intervalSeries;
    std::vector<TimeRow> rows;
    int instr = s.seriesIndex("gpu.instructions");
    int rt_warp = s.seriesIndex("rt.warp_cycles");
    int rt_reads = s.seriesIndex("l1.rt.reads");
    int rt_misses = s.seriesIndex("l1.rt.misses");
    int sh_reads = s.seriesIndex("l1.shader.reads");
    int sh_misses = s.seriesIndex("l1.shader.misses");
    if (instr < 0 || rt_warp < 0 || rt_reads < 0 ||
        rt_misses < 0 || sh_reads < 0 || sh_misses < 0)
        return rows;
    auto d = [&](int series, size_t i) {
        return s.delta(static_cast<size_t>(series), i);
    };
    int units = result.rtUnits > 0 ? result.rtUnits : 1;
    uint64_t prev_cycle = 0;
    for (size_t i = 0; i < s.sampleCount(); i++) {
        uint64_t dc = s.cycles[i] - prev_cycle;
        prev_cycle = s.cycles[i];
        if (dc == 0)
            continue; // the pre-launch baseline sample
        TimeRow row;
        row.cycle = s.cycles[i];
        row.ipc = static_cast<double>(d(instr, i)) /
                  static_cast<double>(dc);
        row.rtWarpsPerUnit =
            static_cast<double>(d(rt_warp, i)) /
            (static_cast<double>(dc) * units);
        uint64_t reads = d(rt_reads, i) + d(sh_reads, i);
        uint64_t misses = d(rt_misses, i) + d(sh_misses, i);
        row.l1MissRate =
            reads > 0
                ? static_cast<double>(misses) /
                      static_cast<double>(reads)
                : 0.0;
        rows.push_back(row);
    }
    return rows;
}

void
printTimeline(const std::vector<TimeRow> &rows, int max_rows)
{
    TextTable table({"cycles", "rt_warps_per_unit", "ipc",
                     "l1d_miss_rate"});
    int stride = std::max<size_t>(1, rows.size() / max_rows);
    for (size_t i = 0; i < rows.size();
         i += static_cast<size_t>(stride)) {
        const TimeRow &w = rows[i];
        table.addRow({std::to_string(w.cycle),
                      TextTable::num(w.rtWarpsPerUnit, 2),
                      TextTable::num(w.ipc, 3),
                      TextTable::num(w.l1MissRate, 3)});
    }
    std::printf("%s\n", table.render().c_str());
}

/** Max and tail-mean of the per-window RT residency. */
void
summarize(const std::vector<TimeRow> &rows, int rt_max_warps)
{
    double peak = 0.0;
    for (const TimeRow &w : rows)
        peak = std::max(peak, w.rtWarpsPerUnit);
    // Stability: stddev of IPC over the second half of the run.
    size_t half = rows.size() / 2;
    double mean = 0.0, var = 0.0;
    size_t n = rows.size() - half;
    for (size_t i = half; i < rows.size(); i++)
        mean += rows[i].ipc;
    if (n > 0)
        mean /= n;
    for (size_t i = half; i < rows.size(); i++) {
        double d = rows[i].ipc - mean;
        var += d * d;
    }
    double stddev = n > 1 ? std::sqrt(var / n) : 0.0;
    std::printf("peak rt warps/unit = %.2f of %d; second-half IPC "
                "= %.2f +/- %.2f (stabilized: %s)\n\n",
                peak, rt_max_warps, mean, stddev,
                stddev < 0.35 * (mean + 1e-9) ? "yes" : "no");
}

} // namespace

int
main()
{
    RunOptions options = RunOptions::fromEnv();
    options.params.width = 128;
    options.params.height = 128;
    options.intervalStats = 2000;
    std::printf("%s",
                banner("Figure 6: architectural behavior over time")
                    .c_str());

    const Workload picks[3] = {
        {SceneId::PARK, ShaderKind::PathTracing},
        {SceneId::BUNNY, ShaderKind::AmbientOcclusion},
        {SceneId::SHIP, ShaderKind::Shadow},
    };
    // Resolution scaling: SHIP_SH at a higher resolution follows the
    // same trends with a somewhat higher L1D miss rate (Sec. 4.3).
    RunOptions hires = options;
    hires.params.width = 256;
    hires.params.height = 256;
    std::vector<campaign::Job> jobs;
    for (const Workload &workload : picks)
        jobs.push_back(campaign::Job::rayTracing(workload, options));
    jobs.push_back(campaign::Job::rayTracing(picks[2], hires));
    std::vector<WorkloadResult> results = runJobs(jobs);

    for (int i = 0; i < 3; i++) {
        const WorkloadResult &result = results[i];
        std::vector<TimeRow> rows = deriveRows(result);
        std::printf("--- %s (128x128) ---\n", result.id.c_str());
        printTimeline(rows, 14);
        summarize(rows, options.config.rtMaxWarps);
    }
    const WorkloadResult &lo = results[2];
    const WorkloadResult &hi = results[3];
    std::printf("--- SHIP_SH resolution scaling ---\n");
    TextTable table({"resolution", "cycles", "ipc",
                     "l1d_miss_rate", "rt_occupancy"});
    auto add = [&](const char *label, const WorkloadResult &r) {
        table.addRow({label, std::to_string(r.stats.cycles),
                      TextTable::num(r.ipcThread(), 2),
                      TextTable::num(metric(r, "l1_read_miss_rate"),
                                     3),
                      TextTable::num(r.stats.rtOccupancy(r.rtUnits),
                                     2)});
    };
    add("128x128", lo);
    add("256x256", hi);
    std::printf("%s\n", table.render().c_str());
    std::printf("paper expectation: key metrics follow the same "
                "trends across resolutions. (The paper also sees a "
                "higher L1D miss rate at 1080p from the larger "
                "working set; our scaled-down scenes largely fit in "
                "cache, so the extra rays instead amortize cold "
                "misses -- see EXPERIMENTS.md.)\n");
    return 0;
}
