/**
 * @file
 * Interval-sampler tests: the grid-sampling mechanics, the canonical
 * JSON round trip (constant-series compaction included), the
 * observer-effect-zero contract (sampling changes nothing about the
 * simulation), run-to-run determinism of the series, and the result
 * cache reproducing a report byte-identically, series included, for
 * every workload family.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "lumibench/run_report.hh"
#include "lumibench/runner.hh"
#include "lumibench/workload.hh"
#include "trace/interval.hh"
#include "trace/json_read.hh"
#include "trace/stat_registry.hh"

using namespace lumi;

namespace
{

RunOptions
quickOptions()
{
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;
    options.sceneDetail = 0.15f;
    return options;
}

Workload
quickWorkload()
{
    return {SceneId::BUNNY, ShaderKind::AmbientOcclusion};
}

/** Unique fresh temp directory under the system temp root. */
std::string
freshDir(const char *tag)
{
    static std::atomic<int> counter{0};
    std::string path =
        (std::filesystem::temp_directory_path() /
         (std::string("lumi_interval_") + tag + "_" +
          std::to_string(::getpid()) + "_" +
          std::to_string(counter.fetch_add(1))))
            .string();
    std::filesystem::remove_all(path);
    return path;
}

} // namespace

TEST(IntervalSampler, SamplesOnGridCrossings)
{
    IntervalSampler sampler(100);
    uint64_t work = 0;
    uint64_t idle = 7; // never changes: must compact to "constant"
    sampler.registry().addCounter("test.work", &work);
    sampler.registry().addCounter("test.idle", &idle);

    sampler.maybeSample(0); // baseline
    work = 10;
    sampler.maybeSample(50); // below the next grid point: no sample
    work = 25;
    sampler.maybeSample(100);
    work = 60;
    // An event-accelerated jump across two grid points yields one
    // sample at the landing cycle.
    sampler.maybeSample(350);
    work = 61;
    sampler.maybeSample(350); // same cycle: idempotent
    work = 80;
    sampler.sampleFinal(371);

    const IntervalSeries &series = sampler.series();
    EXPECT_EQ(series.interval, 100u);
    ASSERT_EQ(series.cycles,
              (std::vector<uint64_t>{0, 100, 350, 371}));
    int work_idx = series.seriesIndex("test.work");
    int idle_idx = series.seriesIndex("test.idle");
    ASSERT_GE(work_idx, 0);
    ASSERT_GE(idle_idx, 0);
    EXPECT_EQ(series.seriesIndex("test.missing"), -1);
    EXPECT_EQ(series.values[work_idx],
              (std::vector<uint64_t>{0, 25, 60, 80}));
    EXPECT_EQ(series.values[idle_idx],
              (std::vector<uint64_t>{7, 7, 7, 7}));
    // Deltas: delta at sample 0 is the cumulative value itself.
    EXPECT_EQ(series.delta(work_idx, 0), 0u);
    EXPECT_EQ(series.delta(work_idx, 1), 25u);
    EXPECT_EQ(series.delta(work_idx, 2), 35u);
    EXPECT_EQ(series.delta(work_idx, 3), 20u);
}

TEST(IntervalSeries, JsonRoundTripIsByteIdentical)
{
    IntervalSampler sampler(10);
    uint64_t varying = 0;
    uint64_t constant = 1234567890123456789ull;
    sampler.registry().addCounter("b.varying", &varying);
    sampler.registry().addCounter("a.constant", &constant);
    for (uint64_t c = 0; c <= 30; c += 10) {
        varying = c * 3;
        sampler.maybeSample(c);
    }

    std::string cold = sampler.series().toJson();
    // The never-changing counter compacts into the constant map.
    EXPECT_NE(cold.find("\"constant\":{\"a.constant\":"
                        "1234567890123456789}"),
              std::string::npos);
    EXPECT_NE(cold.find("\"series\":{\"b.varying\":"),
              std::string::npos);

    JsonTape tape;
    ASSERT_TRUE(tape.parse(cold));
    IntervalSeries warm;
    ASSERT_TRUE(IntervalSeries::fromJson(tape.root(), warm));
    EXPECT_EQ(warm.toJson(), cold);
    // The expanded form matches the original matrix exactly.
    ASSERT_EQ(warm.names, sampler.series().names);
    EXPECT_EQ(warm.values, sampler.series().values);
    EXPECT_EQ(warm.cycles, sampler.series().cycles);
}

TEST(IntervalSeries, FromJsonRejectsMalformedDocuments)
{
    auto parseSeries = [](const std::string &text) {
        JsonTape tape;
        EXPECT_TRUE(tape.parse(text)) << text;
        IntervalSeries out;
        return IntervalSeries::fromJson(tape.root(), out);
    };
    // The shape every bad row below breaks in one place.
    auto doc = [](const std::string &interval, const std::string &cycles,
                  const std::string &series, const std::string &constant) {
        return "{\"interval\":" + interval + ",\"cycles\":[" + cycles +
               "],\"series\":{" + series + "},\"constant\":{" +
               constant + "}}";
    };
    EXPECT_TRUE(parseSeries(
        doc("10", "10,20", "\"b\":[1,2]", "\"a\":3,\"c\":4")));

    const std::pair<const char *, std::string> bad[] = {
        {"column shorter than the grid",
         doc("10", "10,20", "\"a\":[1]", "")},
        {"no cycles array",
         "{\"interval\":10,\"series\":{},\"constant\":{}}"},
        {"no constant map",
         "{\"interval\":10,\"cycles\":[10],\"series\":{}}"},
        {"fractional interval", doc("1.5", "10", "", "")},
        {"fractional cycle", doc("10", "10,2.5", "", "")},
        {"negative cycle", doc("10", "-1", "", "")},
        {"fractional value", doc("10", "10,20", "\"a\":[1,1.5]", "")},
        {"negative value", doc("10", "10,20", "\"a\":[1,-1]", "")},
        {"string value", doc("10", "10,20", "\"a\":[1,\"7\"]", "")},
        {"fractional constant", doc("10", "10", "", "\"a\":1.5")},
        {"exponent constant", doc("10", "10", "", "\"a\":1e3")},
        {"string constant", doc("10", "10", "", "\"a\":\"7\"")},
        {"overflowing constant",
         doc("10", "10", "", "\"a\":18446744073709551616")},
        {"name in both sections",
         doc("10", "10,20", "\"a\":[1,2]", "\"a\":3")},
        {"repeated series name",
         doc("10", "10,20", "\"a\":[1,2],\"a\":[1,2]", "")},
        {"repeated constant name",
         doc("10", "10", "", "\"a\":1,\"a\":1")},
        {"unsorted series",
         doc("10", "10,20", "\"b\":[1,2],\"a\":[1,2]", "")},
        {"unsorted constants", doc("10", "10", "", "\"b\":1,\"a\":1")},
    };
    for (const auto &[name, text] : bad)
        EXPECT_FALSE(parseSeries(text)) << name << ": " << text;
}

TEST(Interval, SamplingHasZeroObserverEffect)
{
    Workload workload = quickWorkload();
    RunOptions plain = quickOptions();
    WorkloadResult baseline = runWorkload(workload, plain);

    // Any period — including one that samples every few cycles —
    // must leave cycles and every stat byte-identical.
    for (uint64_t interval : {64ull, 1000ull}) {
        RunOptions sampled = quickOptions();
        sampled.intervalStats = interval;
        WorkloadResult probed = runWorkload(workload, sampled);
        EXPECT_EQ(probed.stats.cycles, baseline.stats.cycles)
            << "interval " << interval;
        EXPECT_EQ(probed.statsJson, baseline.statsJson)
            << "interval " << interval;
        EXPECT_FALSE(probed.intervalSeries.empty());
    }
    EXPECT_TRUE(baseline.intervalSeries.empty());
}

TEST(Interval, FinalSampleMatchesEndOfRunStats)
{
    RunOptions options = quickOptions();
    options.intervalStats = 500;
    WorkloadResult result = runWorkload(quickWorkload(), options);

    const IntervalSeries &series = result.intervalSeries;
    ASSERT_FALSE(series.empty());
    size_t last = series.sampleCount() - 1;
    EXPECT_EQ(series.cycles[last], result.stats.cycles);
    int cycles_idx = series.seriesIndex("gpu.cycles");
    int rays_idx = series.seriesIndex("rt.rays_traced");
    ASSERT_GE(cycles_idx, 0);
    ASSERT_GE(rays_idx, 0);
    EXPECT_EQ(series.at(cycles_idx, last), result.stats.cycles);
    EXPECT_EQ(series.at(rays_idx, last), result.stats.raysTraced);
    // Cumulative columns never decrease.
    for (size_t s = 0; s < series.names.size(); s++) {
        for (size_t i = 1; i < series.sampleCount(); i++)
            EXPECT_LE(series.at(s, i - 1), series.at(s, i))
                << series.names[s];
    }
}

TEST(Interval, SeriesIsDeterministicAcrossRuns)
{
    RunOptions options = quickOptions();
    options.intervalStats = 250;
    WorkloadResult a = runWorkload(quickWorkload(), options);
    WorkloadResult b = runWorkload(quickWorkload(), options);
    EXPECT_EQ(a.intervalSeries.toJson(), b.intervalSeries.toJson());
}

/** One simulation point of the cache round trip. */
struct RoundTripPoint
{
    const char *tag;
    campaign::Job job;
};

void
PrintTo(const RoundTripPoint &point, std::ostream *os)
{
    *os << point.tag;
}

/** Every field of @p record as a double, in field-list order. */
template <typename Record>
void
appendFields(const Record &record, std::vector<double> &values)
{
    Record::fields(record, [&](const char *, const auto &field) {
        values.push_back(static_cast<double>(field));
    });
}

/** Equal up to one %.12g round trip; NaN equals NaN. */
void
expectSameFields(const std::vector<double> &cold,
                 const std::vector<double> &warm)
{
    ASSERT_EQ(warm.size(), cold.size());
    for (size_t i = 0; i < cold.size(); i++) {
        if (std::isnan(cold[i]))
            EXPECT_TRUE(std::isnan(warm[i])) << "field " << i;
        else
            EXPECT_NEAR(warm[i], cold[i], 1e-9 * std::fabs(cold[i]))
                << "field " << i;
    }
}

uint64_t
bitsOf(double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** A number token as the strtod-based reader converted it. */
double
strtodNumber(const std::string &token)
{
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    return end == token.c_str() || errno == ERANGE ? 0.0 : value;
}

/** A number token as the strtoull-based reader converted it. */
uint64_t
strtoullCounter(const std::string &token)
{
    if (token.empty() || token[0] == '-')
        return 0;
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(token.c_str(), &end, 10);
    return end == token.c_str() || *end != '\0' || errno == ERANGE
               ? 0
               : value;
}

class CacheRoundTrip : public ::testing::TestWithParam<RoundTripPoint>
{
};

TEST_P(CacheRoundTrip, WarmReportMatchesCold)
{
    const campaign::Job &job = GetParam().job;
    WorkloadResult cold =
        job.kind == campaign::Job::Kind::Compute
            ? runCompute(job.kernel, job.options)
            : runWorkload(job.workload, job.options);
    std::string cold_report = runReportJson({cold}, job.options);

    std::string dir = freshDir("cache");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/" + campaign::cacheKey(job);
    ASSERT_TRUE(campaign::writeCachedResult(path, job, cold));

    WorkloadResult warm;
    ASSERT_TRUE(campaign::readCachedResult(path, job, warm));
    std::filesystem::remove_all(dir);
    // The whole re-serialized report, series included, matches the
    // cold bytes, so warm campaign manifests never drift.
    EXPECT_EQ(runReportJson({warm}, job.options), cold_report);
    EXPECT_EQ(warm.intervalSeries.toJson(),
              cold.intervalSeries.toJson());

    std::vector<double> cold_fields;
    std::vector<double> warm_fields;
    for (const TimelineWindow &window : cold.timeline)
        appendFields(window, cold_fields);
    for (const TimelineWindow &window : warm.timeline)
        appendFields(window, warm_fields);
    appendFields(cold.analytical, cold_fields);
    appendFields(warm.analytical, warm_fields);
    appendFields(cold.accelStats, cold_fields);
    appendFields(warm.accelStats, warm_fields);
    expectSameFields(cold_fields, warm_fields);

    // The restored counter structs themselves, not the verbatim
    // statsJson slice: bound to a registry, they dump the same bytes.
    StatRegistry cold_counters;
    StatRegistry warm_counters;
    registerResultCounters(cold_counters, cold);
    registerResultCounters(warm_counters, warm);
    EXPECT_EQ(warm_counters.toJson(), cold_counters.toJson());

    // Numeric parity: std::from_chars gives every metric value and
    // counter of the report the bits strtod/strtoull gave.
    JsonTape tape;
    ASSERT_TRUE(parseRunReport(cold_report, tape));
    JsonRef entry = *runReportEntries(tape.root()).begin();
    size_t m = 0;
    for (JsonMember metric : entryMember(entry, EntryMetrics).members()) {
        std::string token(metric.value.raw());
        double want = metric.value.isNull() ? std::nan("")
                                            : strtodNumber(token);
        ASSERT_LT(m, warm.metrics.values.size());
        EXPECT_EQ(bitsOf(warm.metrics.values[m++]), bitsOf(want))
            << metric.key.string() << " = " << token;
    }
    EXPECT_EQ(m, metricSchema().size());
    size_t counters = 0;
    for (JsonMember stat : entryMember(entry, EntryStats).members()) {
        if (!stat.value.isNumber())
            continue;
        std::string token(stat.value.raw());
        EXPECT_EQ(bitsOf(stat.value.number()), bitsOf(strtodNumber(token)))
            << stat.key.string() << " = " << token;
        EXPECT_EQ(stat.value.counter(), strtoullCounter(token))
            << stat.key.string() << " = " << token;
        counters++;
    }
    EXPECT_GT(counters, 0u);
}

std::vector<RoundTripPoint>
roundTripPoints()
{
    using campaign::Job;
    RunOptions options = quickOptions();
    RunOptions sampled = options;
    sampled.intervalStats = 500;
    RunOptions table4 = options;
    table4.config = GpuConfig::table4();
    return {
        {"bunny_ao", Job::rayTracing(quickWorkload(), options)},
        {"bunny_pt_interval",
         Job::rayTracing({SceneId::BUNNY, ShaderKind::PathTracing},
                         sampled)},
        {"amr_pc",
         Job::rayTracing({SceneId::AMR, ShaderKind::PointContainment},
                         options)},
        {"pts_knn",
         Job::rayTracing({SceneId::PTS, ShaderKind::Knn}, options)},
        {"nn", Job::compute(ComputeKernel::Nn, options)},
        {"kmeans", Job::compute(ComputeKernel::Kmeans, options)},
        {"bunny_ao_table4", Job::rayTracing(quickWorkload(), table4)},
    };
}

INSTANTIATE_TEST_SUITE_P(
    Families, CacheRoundTrip, ::testing::ValuesIn(roundTripPoints()),
    [](const ::testing::TestParamInfo<RoundTripPoint> &info) {
        return std::string(info.param.tag);
    });

TEST(Interval, SamplingPeriodChangesCacheKey)
{
    RunOptions a = quickOptions();
    RunOptions b = quickOptions();
    b.intervalStats = 500;
    EXPECT_NE(campaign::cacheKey(campaign::Job::rayTracing(
                  quickWorkload(), a)),
              campaign::cacheKey(campaign::Job::rayTracing(
                  quickWorkload(), b)));
}

TEST(Interval, SelfProfiledRunsAreNotCacheable)
{
    RunOptions options = quickOptions();
    options.selfProfile = true;
    EXPECT_FALSE(campaign::cacheable(
        campaign::Job::rayTracing(quickWorkload(), options)));
    options.selfProfile = false;
    EXPECT_TRUE(campaign::cacheable(
        campaign::Job::rayTracing(quickWorkload(), options)));
}

TEST(HostProfile, ProfiledRunReportsComponents)
{
    RunOptions options = quickOptions();
    options.selfProfile = true;
    WorkloadResult result = runWorkload(quickWorkload(), options);
    const HostProfile &profile = result.hostProfile;
    ASSERT_FALSE(profile.empty());
    EXPECT_GT(profile.totalIterations, 0u);
    EXPECT_GT(profile.sampledIterations, 0u);
    EXPECT_GE(profile.totalIterations, profile.sampledIterations);
    double share = 0.0;
    for (const HostProfileComponent &component :
         profile.components) {
        EXPECT_GE(component.seconds, 0.0);
        share += component.share;
    }
    // Shares are fractions of the sampled loop time.
    EXPECT_GT(share, 0.0);
    EXPECT_LE(share, 1.0 + 1e-9);
    // Simulation results are untouched by the profiler.
    WorkloadResult baseline =
        runWorkload(quickWorkload(), quickOptions());
    EXPECT_EQ(result.statsJson, baseline.statsJson);
}
