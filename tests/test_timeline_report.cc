/**
 * @file
 * Focused tests for the smaller reporting substrates: the timeline
 * (AerialVision-style sampling and CSV export), the text-table
 * renderer, and the three branches of the Hong-Kim analytical model.
 */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "analysis/analytical.hh"
#include "gpu/gpu.hh"
#include "gpu/timeline.hh"
#include "lumibench/report.hh"

namespace lumi
{
namespace
{

TEST(Timeline, RecordsOnGrid)
{
    Timeline timeline(100);
    TimelineSample sample;
    sample.instructions = 10;
    timeline.record(0, sample);
    sample.instructions = 20;
    timeline.record(50, sample); // within interval: dropped
    sample.instructions = 30;
    timeline.record(120, sample); // crosses: recorded
    sample.instructions = 40;
    timeline.record(500, sample); // far jump: recorded once
    ASSERT_EQ(timeline.samples().size(), 3u);
    EXPECT_EQ(timeline.samples()[0].cycle, 0u);
    EXPECT_EQ(timeline.samples()[1].cycle, 120u);
    EXPECT_EQ(timeline.samples()[2].cycle, 500u);
}

TEST(Timeline, WindowsComputeDeltas)
{
    Timeline timeline(10);
    TimelineSample a;
    a.instructions = 0;
    a.l1Reads = 0;
    a.l1Misses = 0;
    a.rtWarpCycles = 0;
    timeline.record(0, a);
    TimelineSample b;
    b.instructions = 200;
    b.l1Reads = 100;
    b.l1Misses = 25;
    b.rtWarpCycles = 400;
    timeline.record(100, b);
    auto windows = timeline.windows(8);
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_DOUBLE_EQ(windows[0].ipc, 2.0);
    EXPECT_DOUBLE_EQ(windows[0].l1MissRate, 0.25);
    EXPECT_DOUBLE_EQ(windows[0].rtWarpsPerUnit, 0.5);
}

TEST(Timeline, CsvExport)
{
    Timeline timeline(10);
    TimelineSample sample;
    timeline.record(0, sample);
    sample.instructions = 50;
    sample.l1Reads = 10;
    sample.l1Misses = 5;
    timeline.record(20, sample);
    std::string path = ::testing::TempDir() + "/timeline.csv";
    ASSERT_TRUE(writeTimelineCsv(path, timeline.windows(8)));
    std::ifstream in(path);
    std::string header, row;
    std::getline(in, header);
    std::getline(in, row);
    EXPECT_EQ(header,
              "cycle_start,cycle_end,ipc,l1d_miss_rate,"
              "rt_warps_per_unit");
    EXPECT_EQ(row.rfind("0,20,2.5", 0), 0u);
    std::remove(path.c_str());
    // Unwritable path reports failure instead of crashing.
    EXPECT_FALSE(
        writeTimelineCsv("/nonexistent/dir/t.csv", timeline.windows(8)));
}

TEST(Report, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(-0.5, 3), "-0.500");
    EXPECT_EQ(TextTable::num(42.0, 0), "42");
}

TEST(Report, ShortRowsArePadded)
{
    TextTable table({"a", "b", "c"});
    table.addRow({"only"});
    std::string text = table.render();
    // Renders without crashing; the missing cells are blank.
    EXPECT_NE(text.find("only"), std::string::npos);
}

// The three Hong-Kim prediction regimes, driven through real runs.

TEST(Analytical, ComputeBoundCase)
{
    // Pure ALU kernel: no memory waiting, MWP/CWP saturate, the
    // prediction tracks issue-limited execution.
    Gpu gpu(GpuConfig::mobile());
    KernelLaunch launch;
    launch.warpCount = 256;
    launch.program = [](WarpContext &ctx) { ctx.alu(64); };
    gpu.run(launch);
    AnalyticalModel model = evaluateHongKim(gpu);
    EXPECT_GT(model.predictedIpc, 0.0);
    double ratio = model.predictedIpc / model.measuredIpc;
    EXPECT_GT(ratio, 0.1);
    EXPECT_LT(ratio, 10.0);
}

TEST(Analytical, MemoryBoundCase)
{
    // Streaming misses: CWP saturates, prediction is memory-ruled.
    Gpu gpu(GpuConfig::mobile());
    uint64_t buf = gpu.addressSpace().allocate(DataKind::Compute,
                                               1 << 24, "buf");
    KernelLaunch launch;
    launch.warpCount = 128;
    launch.program = [buf](WarpContext &ctx) {
        for (int i = 0; i < 4; i++) {
            ctx.load(4, [&](int lane) {
                return buf +
                       (static_cast<uint64_t>(
                            ctx.threadIndex(lane)) *
                            4 +
                        i) *
                           4096;
            });
            ctx.alu(2);
        }
    };
    gpu.run(launch);
    AnalyticalModel model = evaluateHongKim(gpu);
    EXPECT_GT(model.cwp, model.mwp * 0.5);
    EXPECT_GT(model.memLatency,
              static_cast<double>(gpu.config().l1Latency));
}

TEST(Analytical, MultiLaunchSumsPredictions)
{
    // Two identical launches should predict ~2x one launch.
    auto predicted = [](int launches) {
        Gpu gpu(GpuConfig::mobile());
        KernelLaunch launch;
        launch.warpCount = 64;
        launch.program = [](WarpContext &ctx) { ctx.alu(32); };
        for (int i = 0; i < launches; i++)
            gpu.run(launch);
        return evaluateHongKim(gpu).predictedCycles;
    };
    double one = predicted(1);
    double two = predicted(2);
    EXPECT_NEAR(two, 2.0 * one, 0.25 * one);
}

TEST(Analytical, EmptyGpuIsZero)
{
    Gpu gpu(GpuConfig::mobile());
    AnalyticalModel model = evaluateHongKim(gpu);
    EXPECT_EQ(model.predictedIpc, 0.0);
    EXPECT_EQ(model.measuredIpc, 0.0);
}

} // namespace
} // namespace lumi
