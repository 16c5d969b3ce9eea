/**
 * @file
 * Tests for the observability layer: the event tracer (ring
 * wraparound, category gating, Chrome-trace serialization), the stat
 * registry, phase timers, run reports, and the hardened env parsing
 * — plus the no-observer-effect guarantee on a real workload.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "lumibench/run_report.hh"
#include "lumibench/runner.hh"
#include "trace/phase.hh"
#include "trace/stat_registry.hh"
#include "trace/trace.hh"

using namespace lumi;

namespace
{

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * Quote-aware structural check: braces and brackets balance and
 * never go negative outside string literals.
 */
bool
balancedJson(const std::string &text)
{
    int braces = 0;
    int brackets = 0;
    bool inString = false;
    for (size_t i = 0; i < text.size(); i++) {
        char c = text[i];
        if (inString) {
            if (c == '\\')
                i++;
            else if (c == '"')
                inString = false;
            continue;
        }
        switch (c) {
          case '"': inString = true; break;
          case '{': braces++; break;
          case '}': braces--; break;
          case '[': brackets++; break;
          case ']': brackets--; break;
          default: break;
        }
        if (braces < 0 || brackets < 0)
            return false;
    }
    return braces == 0 && brackets == 0 && !inString;
}

RunOptions
tinyOptions()
{
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;
    options.params.samplesPerPixel = 1;
    options.sceneDetail = 0.1f;
    return options;
}

} // namespace

TEST(Tracer, RingWraparoundKeepsNewestOldestFirst)
{
    Tracer tracer(4);
    tracer.setMask(traceAllCategories);
    for (uint64_t i = 0; i < 10; i++)
        tracer.instant(TraceCategory::Sm, "tick", 0, i);

    EXPECT_EQ(tracer.emitted(TraceCategory::Sm), 10u);
    EXPECT_EQ(tracer.dropped(TraceCategory::Sm), 6u);
    std::vector<TraceEvent> events =
        tracer.events(TraceCategory::Sm);
    ASSERT_EQ(events.size(), 4u);
    for (size_t i = 0; i < events.size(); i++)
        EXPECT_EQ(events[i].start, 6u + i);
}

TEST(Tracer, MaskGatesPerCategory)
{
    Tracer tracer(16);
    tracer.setMask(traceBit(TraceCategory::Sm) |
                   traceBit(TraceCategory::Rt));
    EXPECT_TRUE(tracer.wants(TraceCategory::Sm));
    EXPECT_FALSE(tracer.wants(TraceCategory::Dram));

    tracer.instant(TraceCategory::Sm, "kept", 0, 1);
    tracer.instant(TraceCategory::Dram, "gated", 0, 2);
    tracer.span(TraceCategory::Cache, "gated", 0, 1, 5);

    EXPECT_EQ(tracer.emitted(TraceCategory::Sm), 1u);
    EXPECT_EQ(tracer.emitted(TraceCategory::Dram), 0u);
    EXPECT_EQ(tracer.emitted(TraceCategory::Cache), 0u);
    EXPECT_EQ(tracer.size(), 1u);

    tracer.setMask(0);
    tracer.instant(TraceCategory::Sm, "gated", 0, 3);
    EXPECT_EQ(tracer.emitted(TraceCategory::Sm), 1u);
}

TEST(Tracer, ParseCategorySpec)
{
    EXPECT_EQ(parseTraceCategories("all"), traceAllCategories);
    EXPECT_EQ(parseTraceCategories(""), traceAllCategories);
    EXPECT_EQ(parseTraceCategories("sm,rt"),
              traceBit(TraceCategory::Sm) |
                  traceBit(TraceCategory::Rt));
    // Unknown tokens warn but never add bits.
    EXPECT_EQ(parseTraceCategories("dram,bogus"),
              traceBit(TraceCategory::Dram));
}

TEST(Tracer, ChromeTraceJsonIsStructurallyValid)
{
    Tracer tracer(16);
    tracer.setMask(traceAllCategories);
    tracer.instant(TraceCategory::Cache, "l1_miss", 2, 100, "line",
                   0xdead, "kind", 3);
    tracer.span(TraceCategory::Rt, "rt_warp", 1, 50, 90, "kind", 0,
                "nodes", 12);
    tracer.span(TraceCategory::Sm, "warp", 0, 10, 200);

    std::string json = tracer.toJson();
    EXPECT_TRUE(balancedJson(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":40"), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"cache\""), std::string::npos);
    EXPECT_NE(json.find("\"nodes\":12"), std::string::npos);

    std::string path = tempPath("trace_test.json");
    ASSERT_TRUE(tracer.writeChromeTrace(path));
    EXPECT_EQ(slurp(path), json);
    std::remove(path.c_str());
}

TEST(Tracer, SortedEventsMergeCategoriesByCycle)
{
    Tracer tracer(8);
    tracer.setMask(traceAllCategories);
    tracer.instant(TraceCategory::Dram, "late", 0, 30);
    tracer.instant(TraceCategory::Sm, "early", 0, 10);
    tracer.instant(TraceCategory::Cache, "mid", 0, 20);

    std::vector<TraceEvent> events = tracer.sortedEvents();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].start, 10u);
    EXPECT_EQ(events[1].start, 20u);
    EXPECT_EQ(events[2].start, 30u);
}

TEST(StatRegistry, RejectsDuplicateNames)
{
    StatRegistry registry;
    uint64_t a = 1;
    uint64_t b = 2;
    EXPECT_TRUE(registry.addCounter("sm00.l1d.misses", &a));
    EXPECT_FALSE(registry.addCounter("sm00.l1d.misses", &b));
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_DOUBLE_EQ(registry.value("sm00.l1d.misses"), 1.0);
}

TEST(StatRegistry, FormulaAndDistributionEvaluateLive)
{
    StatRegistry registry;
    uint64_t hits = 90;
    uint64_t total = 100;
    registry.addCounter("hits", &hits);
    registry.addFormula("hit_rate", [&] {
        return static_cast<double>(hits) / total;
    });
    StatDistribution latency;
    latency.record(10.0);
    latency.record(30.0);
    registry.addDistribution("latency", &latency);

    EXPECT_DOUBLE_EQ(registry.value("hit_rate"), 0.9);
    hits = 50; // live pointer: no re-registration needed
    EXPECT_DOUBLE_EQ(registry.value("hit_rate"), 0.5);
    EXPECT_DOUBLE_EQ(registry.value("latency"), 20.0);

    std::string json = registry.toJson();
    EXPECT_TRUE(balancedJson(json));
    EXPECT_NE(json.find("\"hit_rate\""), std::string::npos);
    EXPECT_NE(json.find("\"mean\":20"), std::string::npos);
    // names() is sorted, so the dump is deterministic.
    std::vector<std::string> names = registry.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "hit_rate");
    EXPECT_EQ(names[1], "hits");
    EXPECT_EQ(names[2], "latency");
}

TEST(PhaseProfiler, ScopedTimersAccumulateByName)
{
    PhaseProfiler profiler;
    {
        PhaseProfiler::Scoped scoped(profiler, "build");
    }
    {
        PhaseProfiler::Scoped scoped(profiler, "build");
    }
    {
        PhaseProfiler::Scoped scoped(profiler, "simulate");
    }
    ASSERT_EQ(profiler.timings().size(), 2u);
    EXPECT_EQ(profiler.timings()[0].name, "build");
    EXPECT_EQ(profiler.timings()[0].count, 2u);
    EXPECT_EQ(profiler.timings()[1].name, "simulate");
    EXPECT_GE(profiler.totalSeconds(), 0.0);
}

TEST(Runner, TracingHasNoObserverEffect)
{
    Workload workload{SceneId::BUNNY, ShaderKind::AmbientOcclusion};

    RunOptions plain = tinyOptions();
    WorkloadResult off = runWorkload(workload, plain);
    EXPECT_EQ(off.trace, nullptr);

    RunOptions traced = tinyOptions();
    traced.traceMask = traceAllCategories;
    WorkloadResult on = runWorkload(workload, traced);
    ASSERT_NE(on.trace, nullptr);
    EXPECT_GT(on.trace->size(), 0u);

    EXPECT_EQ(off.stats.cycles, on.stats.cycles);
    EXPECT_EQ(off.stats.threadInstructions,
              on.stats.threadInstructions);
    EXPECT_EQ(off.stats.raysTraced, on.stats.raysTraced);
    EXPECT_EQ(off.dram.accesses, on.dram.accesses);
}

TEST(Runner, ResultCarriesStatsPhasesAndTrace)
{
    Workload workload{SceneId::BUNNY, ShaderKind::AmbientOcclusion};
    RunOptions options = tinyOptions();
    options.traceMask = traceAllCategories;
    WorkloadResult result = runWorkload(workload, options);

    EXPECT_TRUE(balancedJson(result.statsJson));
    EXPECT_NE(result.statsJson.find("\"gpu.cycles\""),
              std::string::npos);
    EXPECT_NE(result.statsJson.find("\"sm00.l1d.misses\""),
              std::string::npos);
    EXPECT_NE(result.statsJson.find("\"dram.accesses\""),
              std::string::npos);

    std::vector<std::string> expected = {"scene_build", "bvh_build",
                                         "simulate", "analysis"};
    ASSERT_EQ(result.phases.size(), expected.size());
    for (size_t i = 0; i < expected.size(); i++)
        EXPECT_EQ(result.phases[i].name, expected[i]);

    // At least the four hardware categories must have events.
    EXPECT_GT(result.trace->emitted(TraceCategory::Sm), 0u);
    EXPECT_GT(result.trace->emitted(TraceCategory::Rt), 0u);
    EXPECT_GT(result.trace->emitted(TraceCategory::Cache), 0u);
    EXPECT_GT(result.trace->emitted(TraceCategory::Dram), 0u);
}

TEST(RunReport, RoundTripsThroughDisk)
{
    Workload workload{SceneId::BUNNY, ShaderKind::AmbientOcclusion};
    RunOptions options = tinyOptions();
    WorkloadResult result = runWorkload(workload, options);

    std::vector<WorkloadResult> results;
    results.push_back(result);
    std::string path = tempPath("report_test.json");
    ASSERT_TRUE(writeRunReport(path, results, options));

    // Golden check: file content is exactly the serializer output.
    std::string body = slurp(path);
    EXPECT_EQ(body, runReportJson(results, options));
    std::remove(path.c_str());

    EXPECT_TRUE(balancedJson(body));
    EXPECT_NE(body.find("\"schema\":\"lumibench-run-report-v1\""),
              std::string::npos);
    EXPECT_NE(body.find("\"id\":\"BUNNY_AO\""), std::string::npos);
    EXPECT_NE(body.find("\"phases\""), std::string::npos);
    EXPECT_NE(body.find("\"gpu.cycles\""), std::string::npos);
    EXPECT_NE(body.find(configFingerprint(options.config)),
              std::string::npos);
}

TEST(RunReport, FingerprintTracksTimingFields)
{
    GpuConfig mobile = GpuConfig::mobile();
    EXPECT_EQ(configFingerprint(mobile), configFingerprint(mobile));
    GpuConfig tweaked = mobile;
    tweaked.l2SizeBytes *= 2;
    EXPECT_NE(configFingerprint(mobile), configFingerprint(tweaked));
    EXPECT_NE(configFingerprint(GpuConfig::mobile()),
              configFingerprint(GpuConfig::desktop()));
}

TEST(RunOptions, FromEnvRejectsMalformedValues)
{
    setenv("LUMI_QUICK", "1", 1);
    setenv("LUMI_RES", "abc", 1);
    setenv("LUMI_SPP", "-3", 1);
    setenv("LUMI_DETAIL", "nope", 1);
    RunOptions options = RunOptions::fromEnv();
    // Malformed values fall back to the quick-run defaults.
    EXPECT_EQ(options.params.width, 32);
    EXPECT_EQ(options.params.height, 32);
    EXPECT_EQ(options.params.samplesPerPixel, 1);
    EXPECT_FLOAT_EQ(options.sceneDetail, 0.25f);

    setenv("LUMI_RES", "48", 1);
    setenv("LUMI_SPP", "2", 1);
    options = RunOptions::fromEnv();
    EXPECT_EQ(options.params.width, 48);
    EXPECT_EQ(options.params.samplesPerPixel, 2);

    unsetenv("LUMI_QUICK");
    unsetenv("LUMI_RES");
    unsetenv("LUMI_SPP");
    unsetenv("LUMI_DETAIL");
}

TEST(RunOptions, FromEnvParsesTraceCategories)
{
    setenv("LUMI_TRACE", "sm,dram", 1);
    RunOptions options = RunOptions::fromEnv();
    EXPECT_EQ(options.traceMask, traceBit(TraceCategory::Sm) |
                                     traceBit(TraceCategory::Dram));
    unsetenv("LUMI_TRACE");
    options = RunOptions::fromEnv();
    EXPECT_EQ(options.traceMask, 0u);
}
