/**
 * @file
 * The Hong & Kim (ISCA 2009) analytical GPU performance model, with
 * the paper's adaptation: average memory latency estimated as DRAM
 * latency scaled by the L1 miss rate (Sec. 5.5).
 *
 * The model predicts execution cycles from Memory Warp Parallelism
 * (MWP) and Computation Warp Parallelism (CWP). It has no concept of
 * an RT unit, so applying it to ray tracing workloads produces the
 * poor fit the paper reports in Fig. 15 -- reproducing that failure
 * is the point of this module.
 */

#ifndef LUMI_ANALYSIS_ANALYTICAL_HH
#define LUMI_ANALYSIS_ANALYTICAL_HH

#include "gpu/gpu.hh"

namespace lumi
{

/** Inputs and intermediates of the Hong-Kim model. */
struct AnalyticalModel
{
    /** MWP/CWP and derived inputs of the *largest* launch. */
    double mwp = 0.0;
    double cwp = 0.0;
    double memLatency = 0.0;
    double compCyclesPerWarp = 0.0;
    double memInstrPerWarp = 0.0;
    uint64_t reportedLaunchCycles = 0;
    /** Summed over every launch of the workload. */
    double predictedCycles = 0.0;
    double predictedIpc = 0.0;
    double measuredIpc = 0.0;

    /** Run-report field list: @p visit(key, field). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&visit)
    {
        visit("mwp", self.mwp);
        visit("cwp", self.cwp);
        visit("mem_latency", self.memLatency);
        visit("comp_cycles_per_warp", self.compCyclesPerWarp);
        visit("mem_instr_per_warp", self.memInstrPerWarp);
        visit("reported_launch_cycles", self.reportedLaunchCycles);
        visit("predicted_cycles", self.predictedCycles);
        visit("predicted_ipc", self.predictedIpc);
        visit("measured_ipc", self.measuredIpc);
    }
};

/**
 * Evaluate the model against a finished simulation.
 * IPC values are thread-instructions per cycle.
 */
AnalyticalModel evaluateHongKim(const Gpu &gpu);

} // namespace lumi

#endif // LUMI_ANALYSIS_ANALYTICAL_HH
