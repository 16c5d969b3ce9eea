/**
 * @file
 * Query/serve layer tests: CLI-over-environment precedence for run
 * flags (the contract lumibench's flag parsing relies on), filter
 * parsing, report indexing and stat/series queries over real run
 * reports, and the HTTP router both as a pure function and over a
 * real loopback socket.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "lumibench/query.hh"
#include "lumibench/run_report.hh"
#include "lumibench/runner.hh"
#include "lumibench/serve.hh"
#include "lumibench/workload.hh"

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

/** Unique fresh temp directory under the system temp root. */
std::string
freshDir(const char *tag)
{
    static std::atomic<int> counter{0};
    std::string path =
        (std::filesystem::temp_directory_path() /
         (std::string("lumi_query_") + tag + "_" +
          std::to_string(::getpid()) + "_" +
          std::to_string(counter.fetch_add(1))))
            .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

/** Write @p text to @p path; false on any I/O failure. */
bool
writeText(const std::string &path, const std::string &text)
{
    FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        return false;
    bool ok = std::fwrite(text.data(), 1, text.size(), file) ==
              text.size();
    return std::fclose(file) == 0 && ok;
}

/** Populate @p dir with two sampled single-workload reports. */
void
writeSampleReports(const std::string &dir, WorkloadResult &bunny,
                   RunOptions &options)
{
    options = quickOptions();
    options.intervalStats = 500;
    bunny = runWorkload(
        {SceneId::BUNNY, ShaderKind::AmbientOcclusion}, options);
    WorkloadResult ref =
        runWorkload({SceneId::REF, ShaderKind::Shadow}, options);
    ASSERT_TRUE(
        writeRunReport(dir + "/b_bunny.json", {bunny}, options));
    ASSERT_TRUE(
        writeRunReport(dir + "/a_ref.json", {ref}, options));
    // A foreign JSON file must be skipped, not break the scan.
    FILE *junk = std::fopen((dir + "/junk.json").c_str(), "w");
    ASSERT_NE(junk, nullptr);
    std::fputs("{\"schema\":\"other\"}", junk);
    std::fclose(junk);
}

} // namespace

TEST(RunFlags, CliFlagsWinOverEnvironment)
{
    // fromEnv picks up the environment defaults...
    ::setenv("LUMI_RES", "64", 1);
    ::setenv("LUMI_SPP", "3", 1);
    ::setenv("LUMI_INTERVAL_STATS", "123", 1);
    ::setenv("LUMI_SELF_PROFILE", "1", 1);
    // A non-finite detail warns and falls back to the default: it
    // would be recorded as null and never match a cache entry.
    const float default_detail = RunOptions::fromEnv().sceneDetail;
    ::setenv("LUMI_DETAIL", "inf", 1);
    RunOptions options = RunOptions::fromEnv();
    EXPECT_EQ(options.params.width, 64);
    EXPECT_EQ(options.params.samplesPerPixel, 3);
    EXPECT_EQ(options.intervalStats, 123u);
    EXPECT_TRUE(options.selfProfile);
    EXPECT_FLOAT_EQ(options.sceneDetail, default_detail);

    // ...and a CLI flag applied on top always wins. The CLI calls
    // fromEnv() first and applyRunFlag() per flag, so this ordering
    // IS the precedence contract.
    EXPECT_TRUE(applyRunFlag(options, "--res", "32"));
    EXPECT_EQ(options.params.width, 32);
    EXPECT_EQ(options.params.height, 32);
    EXPECT_TRUE(applyRunFlag(options, "--spp", "1"));
    EXPECT_EQ(options.params.samplesPerPixel, 1);
    EXPECT_TRUE(applyRunFlag(options, "--interval-stats", "250"));
    EXPECT_EQ(options.intervalStats, 250u);
    EXPECT_TRUE(applyRunFlag(options, "--detail", "0.5"));
    EXPECT_FLOAT_EQ(options.sceneDetail, 0.5f);

    // Unknown flags are not applyRunFlag's to consume.
    EXPECT_FALSE(applyRunFlag(options, "--bogus", "1"));

    ::unsetenv("LUMI_RES");
    ::unsetenv("LUMI_SPP");
    ::unsetenv("LUMI_INTERVAL_STATS");
    ::unsetenv("LUMI_SELF_PROFILE");
    ::unsetenv("LUMI_DETAIL");
}

TEST(RunFlags, OutOfRangeEnvironmentFallsBack)
{
    // A detail past a float's range, and a LUMI_RES x LUMI_SPP past
    // the int of RenderParams::totalSamples(), warn and fall back.
    const RunOptions defaults = RunOptions::fromEnv();
    ::setenv("LUMI_DETAIL", "1e39", 1);
    ::setenv("LUMI_RES", "50000", 1);
    RunOptions options = RunOptions::fromEnv();
    EXPECT_FLOAT_EQ(options.sceneDetail, defaults.sceneDetail);
    EXPECT_EQ(options.params.width, defaults.params.width);
    EXPECT_EQ(options.params.height, defaults.params.height);
    EXPECT_EQ(options.params.samplesPerPixel,
              defaults.params.samplesPerPixel);
    ::unsetenv("LUMI_DETAIL");
    ::unsetenv("LUMI_RES");
}

TEST(QueryFilter, ParsesKnownTermsOnly)
{
    query::QueryFilter filter;
    EXPECT_TRUE(filter.add("workload=BUNNY_AO"));
    EXPECT_TRUE(filter.add("config=mobile"));
    EXPECT_TRUE(filter.add("width=16"));
    EXPECT_FALSE(filter.add("bogus=1"));
    EXPECT_FALSE(filter.add("noequals"));
    EXPECT_FALSE(filter.add("=value"));
    EXPECT_FALSE(filter.add("workload="));
    EXPECT_EQ(filter.terms.size(), 3u);
}

TEST(QueryFilter, WorkloadGlobsMatchFamilies)
{
    query::ReportRef ref;
    auto matched = [&](const char *term, const char *id) {
        query::QueryFilter filter;
        EXPECT_TRUE(filter.add(term));
        return filter.matches(ref, id);
    };
    // Precedence: a value without '*' stays an exact compare -- a
    // literal id never widens into a prefix match.
    EXPECT_TRUE(matched("workload=PTS_KNN", "PTS_KNN"));
    EXPECT_FALSE(matched("workload=PTS", "PTS_KNN"));
    EXPECT_FALSE(matched("workload=PTS_KN", "PTS_KNN"));
    // A '*' opts into glob matching: prefix, suffix, infix, multi.
    EXPECT_TRUE(matched("workload=PTS_*", "PTS_KNN"));
    EXPECT_TRUE(matched("workload=PTS_*", "PTS_PC"));
    EXPECT_FALSE(matched("workload=PTS_*", "AMR_PC"));
    EXPECT_TRUE(matched("workload=*_PC", "AMR_PC"));
    EXPECT_TRUE(matched("workload=*", "ANYTHING"));
    EXPECT_TRUE(matched("workload=A*_P*", "AMR_PC"));
    EXPECT_FALSE(matched("workload=A*_K*", "AMR_PC"));
    EXPECT_TRUE(matched("workload=*KNN", "PTS_KNN"));
    EXPECT_FALSE(matched("workload=*KNN*X", "PTS_KNN"));
    // Conjunction: every term must match.
    query::QueryFilter both;
    EXPECT_TRUE(both.add("workload=PTS_*"));
    EXPECT_TRUE(both.add("workload=*_PC"));
    EXPECT_TRUE(both.matches(ref, "PTS_PC"));
    EXPECT_FALSE(both.matches(ref, "PTS_KNN"));
}

TEST(QueryFilter, ConfigAndSceneGlobsMatch)
{
    query::ReportRef ref;
    ref.header.config.name = "mobile";
    auto matched = [&](const char *term, const char *id) {
        query::QueryFilter filter;
        EXPECT_TRUE(filter.add(term));
        return filter.matches(ref, id);
    };
    // config=: exact stays exact (no silent prefix widening), '*'
    // opts into globbing -- same contract as workload= (PR 8).
    EXPECT_TRUE(matched("config=mobile", "BUNNY_AO"));
    EXPECT_FALSE(matched("config=mob", "BUNNY_AO"));
    EXPECT_TRUE(matched("config=mob*", "BUNNY_AO"));
    EXPECT_TRUE(matched("config=*", "BUNNY_AO"));
    EXPECT_FALSE(matched("config=desk*", "BUNNY_AO"));
    // scene=: matches the id up to the last '_'; a compute kernel id
    // without '_' is its own scene.
    EXPECT_TRUE(matched("scene=BUNNY", "BUNNY_AO"));
    EXPECT_FALSE(matched("scene=BUNNY_AO", "BUNNY_AO"));
    EXPECT_FALSE(matched("scene=BUN", "BUNNY_AO"));
    EXPECT_TRUE(matched("scene=BUN*", "BUNNY_AO"));
    EXPECT_TRUE(matched("scene=*NY", "BUNNY_AO"));
    EXPECT_TRUE(matched("scene=bfs", "bfs"));
    EXPECT_TRUE(matched("scene=PTS", "PTS_KNN"));
    // matchesReport honors config globs for report-level pruning.
    query::QueryFilter report_level;
    EXPECT_TRUE(report_level.add("config=m*"));
    EXPECT_TRUE(report_level.matchesReport(ref));
    query::QueryFilter miss;
    EXPECT_TRUE(miss.add("config=d*"));
    EXPECT_FALSE(miss.matchesReport(ref));

    EXPECT_EQ(query::sceneOfWorkload("SPNZA_AO"), "SPNZA");
    EXPECT_EQ(query::sceneOfWorkload("PTS_KNN"), "PTS");
    EXPECT_EQ(query::sceneOfWorkload("bfs"), "bfs");
}

TEST(Query, BreakdownRowsAreConservedShares)
{
    std::string dir = freshDir("breakdown");
    WorkloadResult bunny;
    RunOptions options;
    writeSampleReports(dir, bunny, options);
    query::ReportStore store(dir);

    std::vector<query::BreakdownRow> rows = store.breakdown({});
    ASSERT_EQ(rows.size(), 2u);
    // Sorted file-name order: a_ref.json before b_bunny.json.
    EXPECT_EQ(rows[0].workload, "REF_SH");
    EXPECT_EQ(rows[1].workload, "BUNNY_AO");
    for (const query::BreakdownRow &row : rows) {
        // Conservation: raw buckets sum to cycles x SMs, and the
        // normalized shares to 1 on both sides.
        uint64_t slots =
            row.cycles *
            static_cast<uint64_t>(options.config.numSms);
        EXPECT_EQ(row.sm.sum(), slots) << row.workload;
        EXPECT_EQ(row.rt.sum(), slots) << row.workload;
        double sm_total = 0.0, rt_total = 0.0;
        for (int b = 0; b < numSmCycleBuckets; b++)
            sm_total += row.smShare[b];
        for (int b = 0; b < numRtCycleBuckets; b++)
            rt_total += row.rtShare[b];
        EXPECT_NEAR(sm_total, 1.0, 1e-9) << row.workload;
        EXPECT_NEAR(rt_total, 1.0, 1e-9) << row.workload;
    }
    EXPECT_EQ(rows[1].cycles, bunny.stats.cycles);
    EXPECT_EQ(rows[1].sm.cycles[static_cast<int>(
                  SmCycleBucket::Issued)],
              bunny.profileSm.cycles[static_cast<int>(
                  SmCycleBucket::Issued)]);

    // Filters narrow by workload glob and by scene.
    query::QueryFilter bunny_only;
    ASSERT_TRUE(bunny_only.add("workload=BUNNY*"));
    EXPECT_EQ(store.breakdown(bunny_only).size(), 1u);
    query::QueryFilter ref_scene;
    ASSERT_TRUE(ref_scene.add("scene=REF"));
    std::vector<query::BreakdownRow> ref_rows = store.breakdown(ref_scene);
    ASSERT_EQ(ref_rows.size(), 1u);
    EXPECT_EQ(ref_rows[0].workload, "REF_SH");
    std::filesystem::remove_all(dir);
}

TEST(Query, IndexAndStatLookup)
{
    std::string dir = freshDir("stat");
    WorkloadResult bunny;
    RunOptions options;
    writeSampleReports(dir, bunny, options);
    query::ReportStore store(dir);

    query::ReportIndex index = query::ReportIndex::scan(dir);
    ASSERT_EQ(index.reports.size(), 2u);
    // Sorted file-name order, foreign JSON skipped.
    EXPECT_EQ(index.reports[0].file, "a_ref.json");
    EXPECT_EQ(index.reports[1].file, "b_bunny.json");
    EXPECT_EQ(index.reports[0].header.options.width, 16);
    EXPECT_EQ(index.reports[0].header.options.intervalStats, 500u);
    EXPECT_EQ(index.reports[1].workloads,
              std::vector<std::string>{"BUNNY_AO"});

    query::QueryFilter filter;
    ASSERT_TRUE(filter.add("workload=BUNNY_AO"));
    std::vector<query::StatRow> rows = store.stat("gpu.cycles", filter);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].workload, "BUNNY_AO");
    // Integer counters come back with the exact source token.
    EXPECT_EQ(rows[0].token,
              std::to_string(bunny.stats.cycles));

    // Derived metrics resolve through the metrics object.
    std::vector<query::StatRow> metric_rows =
        store.stat("ipc_thread", filter);
    ASSERT_EQ(metric_rows.size(), 1u);
    EXPECT_GT(metric_rows[0].value, 0.0);

    // An unfiltered query sees both reports.
    EXPECT_EQ(store.stat("gpu.cycles", {}).size(), 2u);

    // Glob filters select workload families over real reports.
    query::QueryFilter glob;
    ASSERT_TRUE(glob.add("workload=*_AO"));
    std::vector<query::StatRow> glob_rows = store.stat("gpu.cycles", glob);
    ASSERT_EQ(glob_rows.size(), 1u);
    EXPECT_EQ(glob_rows[0].workload, "BUNNY_AO");
    query::QueryFilter bare;
    ASSERT_TRUE(bare.add("workload=BUNNY"));
    EXPECT_TRUE(store.stat("gpu.cycles", bare).empty());
    EXPECT_TRUE(store.stat("no.such.stat", {}).empty());

    // statNames covers both namespaces.
    std::vector<std::string> names = store.statNames(filter);
    EXPECT_NE(std::find(names.begin(), names.end(), "gpu.cycles"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "ipc_thread"),
              names.end());
    std::filesystem::remove_all(dir);
}

TEST(Query, SeriesDeltasSumToFinalValue)
{
    std::string dir = freshDir("series");
    WorkloadResult bunny;
    RunOptions options;
    writeSampleReports(dir, bunny, options);
    query::ReportStore store(dir);

    query::QueryFilter filter;
    ASSERT_TRUE(filter.add("workload=BUNNY_AO"));
    std::vector<query::SeriesResult> results =
        store.series("rt.rays_traced", filter);
    ASSERT_EQ(results.size(), 1u);
    const query::SeriesResult &series = results[0];
    EXPECT_EQ(series.interval, 500u);
    ASSERT_FALSE(series.cycles.empty());
    ASSERT_EQ(series.values.size(), series.cycles.size());
    ASSERT_EQ(series.deltas.size(), series.cycles.size());

    uint64_t sum = 0;
    for (uint64_t delta : series.deltas)
        sum += delta;
    EXPECT_EQ(sum, series.values.back());
    EXPECT_EQ(series.values.back(), bunny.stats.raysTraced);
    EXPECT_EQ(series.cycles.back(), bunny.stats.cycles);

    EXPECT_TRUE(store.series("no.such.stat", filter).empty());
    std::filesystem::remove_all(dir);
}

TEST(Serve, RoutesRequestsWithoutSockets)
{
    std::string dir = freshDir("routes");
    WorkloadResult bunny;
    RunOptions options;
    writeSampleReports(dir, bunny, options);

    query::ReportServer server(dir);
    query::ReportServer::Response health =
        server.handle("/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("\"reports\":2"),
              std::string::npos);

    query::ReportServer::Response idx = server.handle("/index");
    EXPECT_EQ(idx.status, 200);
    EXPECT_NE(idx.body.find("b_bunny.json"), std::string::npos);

    query::ReportServer::Response stat = server.handle(
        "/stat?name=gpu.cycles&workload=BUNNY_AO");
    EXPECT_EQ(stat.status, 200);
    EXPECT_NE(
        stat.body.find(std::to_string(bunny.stats.cycles)),
        std::string::npos);

    query::ReportServer::Response series = server.handle(
        "/series?name=rt.rays_traced&workload=BUNNY_AO");
    EXPECT_EQ(series.status, 200);
    EXPECT_NE(series.body.find("\"deltas\":["),
              std::string::npos);

    query::ReportServer::Response stats =
        server.handle("/stats?workload=BUNNY_AO");
    EXPECT_EQ(stats.status, 200);
    EXPECT_NE(stats.body.find("\"gpu.cycles\""),
              std::string::npos);

    // Error paths: missing name, traversal attempts, bad keys,
    // unknown routes.
    EXPECT_EQ(server.handle("/stat").status, 400);
    EXPECT_EQ(server.handle("/stat?name=x&bogus=1").status, 400);
    EXPECT_EQ(server.handle("/report?file=../etc/passwd").status,
              400);
    EXPECT_EQ(server.handle("/report?file=missing.json").status,
              404);
    EXPECT_EQ(server.handle("/nope").status, 404);

    // /report returns the stored bytes verbatim.
    query::ReportServer::Response report =
        server.handle("/report?file=b_bunny.json");
    EXPECT_EQ(report.status, 200);
    EXPECT_EQ(report.body, runReportJson({bunny}, options));
    std::filesystem::remove_all(dir);
}

TEST(Serve, VersionBreakdownAndViewRoutes)
{
    std::string dir = freshDir("breakroutes");
    WorkloadResult bunny;
    RunOptions options;
    writeSampleReports(dir, bunny, options);
    query::ReportServer server(dir);

    // /version pins the wire contract dashboards key off.
    query::ReportServer::Response version =
        server.handle("/version");
    EXPECT_EQ(version.status, 200);
    EXPECT_NE(version.body.find(kRunReportSchema),
              std::string::npos);
    EXPECT_NE(version.body.find(kConfigFingerprintScheme),
              std::string::npos);

    query::ReportServer::Response breakdown = server.handle(
        "/breakdown?workload=BUNNY_AO");
    EXPECT_EQ(breakdown.status, 200);
    EXPECT_NE(breakdown.body.find("\"workload\":\"BUNNY_AO\""),
              std::string::npos);
    EXPECT_NE(breakdown.body.find("\"sm_share\""),
              std::string::npos);
    EXPECT_NE(breakdown.body.find("\"busy_box\""),
              std::string::npos);
    EXPECT_EQ(breakdown.body.find("REF_SH"), std::string::npos);
    EXPECT_EQ(server.handle("/breakdown?bogus=1").status, 400);

    query::ReportServer::Response view = server.handle("/view");
    EXPECT_EQ(view.status, 200);
    EXPECT_EQ(view.contentType, "text/html");
    EXPECT_NE(view.body.find("<canvas"), std::string::npos);
    EXPECT_NE(view.body.find("/series?name="), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Serve, RouterEdgeCases)
{
    std::string dir = freshDir("edges");
    WorkloadResult bunny;
    RunOptions options;
    writeSampleReports(dir, bunny, options);
    query::ReportServer server(dir);

    // Percent-encoded paths route like their decoded forms.
    EXPECT_EQ(server.handle("/%68ealthz").status, 200);
    EXPECT_EQ(server.handle("/%62reakdown").status, 200);
    // Percent-encoded traversal still hits the guard: params decode
    // before the ".." / "/" check.
    EXPECT_EQ(
        server.handle("/report?file=%2e%2e%2fetc%2fpasswd").status,
        400);
    EXPECT_EQ(server.handle("/report?file=a%2fb.json").status, 400);
    // A decoded NUL or other control byte is rejected, not cut
    // short at the file-system call.
    EXPECT_EQ(server.handle("/report?file=b_bunny.json%00x").status,
              400);
    EXPECT_EQ(server.handle("/report?file=b_bunny%0a.json").status,
              400);
    // /report serves run reports only: a foreign JSON file and a
    // non-JSON file in the directory are both unknown.
    EXPECT_EQ(server.handle("/report?file=junk.json").status, 404);
    ASSERT_TRUE(writeText(dir + "/notes.txt", "not a report"));
    EXPECT_EQ(server.handle("/report?file=notes.txt").status, 404);
    EXPECT_EQ(server.handle("/report?file=b_bunny.json").status, 200);
    // Unknown query keys are a client error on every filtered
    // route, not silently ignored.
    EXPECT_EQ(server.handle("/breakdown?bogus=1").status, 400);
    EXPECT_EQ(server.handle("/series?name=x&nope=2").status, 400);
    EXPECT_EQ(server.handle("/stats?scene=REF&bad=3").status, 400);
    // Errors still carry a JSON body and content type (the HTTP
    // framing adds Connection: close to every response).
    query::ReportServer::Response error =
        server.handle("/stat?name=x&bogus=1");
    EXPECT_EQ(error.status, 400);
    EXPECT_EQ(error.contentType, "application/json");
    EXPECT_NE(error.body.find("\"error\""), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Serve, AnswersOverLoopbackSocket)
{
    std::string dir = freshDir("socket");
    WorkloadResult bunny;
    RunOptions options;
    writeSampleReports(dir, bunny, options);

    query::ReportServer server(dir);
    if (!server.bind(0))
        GTEST_SKIP() << "cannot bind a loopback socket here";
    ASSERT_GT(server.port(), 0);
    std::thread pump([&] { server.serve(1); });

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char request[] = "GET /healthz HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, request, sizeof(request) - 1, 0),
              static_cast<ssize_t>(sizeof(request) - 1));
    std::string response;
    char buf[4096];
    ssize_t got;
    while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<size_t>(got));
    ::close(fd);
    pump.join();

    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(response.find("\"status\":\"ok\""),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Serve, StoreSeesChangedReports)
{
    std::string dir = freshDir("changes");
    WorkloadResult bunny;
    RunOptions options;
    writeSampleReports(dir, bunny, options);
    query::ReportServer server(dir);
    auto health = [&] { return server.handle("/healthz").body; };
    auto indexed = [&](const std::string &file) {
        return server.handle("/index").body.find("\"" + file + "\"") !=
               std::string::npos;
    };
    const std::string stat_target =
        "/stat?name=gpu.cycles&workload=BUNNY_AO";
    EXPECT_NE(health().find("\"reports\":2"), std::string::npos);
    std::string before = server.handle(stat_target).body;
    EXPECT_NE(before.find(std::to_string(bunny.stats.cycles)),
              std::string::npos);

    // A report added after the first requests is visible.
    std::string bunny_text;
    ASSERT_TRUE(readWholeFile(dir + "/b_bunny.json", bunny_text));
    ASSERT_TRUE(writeText(dir + "/c_late.json", bunny_text));
    EXPECT_NE(health().find("\"reports\":3"), std::string::npos);
    EXPECT_TRUE(indexed("c_late.json"));

    // A report replaced by temp file plus rename answers with its
    // new contents.
    WorkloadResult changed = bunny;
    const std::string key = "\"gpu.cycles\":";
    size_t at = changed.statsJson.find(key);
    ASSERT_NE(at, std::string::npos);
    size_t digits = at + key.size();
    size_t stop = changed.statsJson.find_first_not_of("0123456789",
                                                      digits);
    ASSERT_GT(stop, digits);
    changed.statsJson.replace(digits, stop - digits, "987654321");
    ASSERT_TRUE(writeRunReport(dir + "/b_bunny.json.tmp", {changed},
                               options));
    std::filesystem::rename(dir + "/b_bunny.json.tmp",
                            dir + "/b_bunny.json");
    std::string after = server.handle(stat_target).body;
    EXPECT_NE(after.find("{\"file\":\"b_bunny.json\",\"workload\":"
                         "\"BUNNY_AO\",\"value\":987654321}"),
              std::string::npos)
        << after;
    EXPECT_NE(after.find("{\"file\":\"c_late.json\",\"workload\":"
                         "\"BUNNY_AO\",\"value\":" +
                         std::to_string(bunny.stats.cycles) + "}"),
              std::string::npos)
        << after;

    // A report overwritten with garbage drops out.
    ASSERT_TRUE(server.handle("/stat?name=gpu.cycles&workload=REF_SH")
                    .body.find("a_ref.json") != std::string::npos);
    ASSERT_TRUE(writeText(dir + "/a_ref.json", "{\"schema\": garbage"));
    EXPECT_NE(health().find("\"reports\":2"), std::string::npos);
    EXPECT_FALSE(indexed("a_ref.json"));
    EXPECT_EQ(server.handle("/stat?name=gpu.cycles&workload=REF_SH")
                  .body,
              "[]");

    // A deleted report drops out.
    std::filesystem::remove(dir + "/c_late.json");
    EXPECT_NE(health().find("\"reports\":1"), std::string::npos);
    EXPECT_FALSE(indexed("c_late.json"));
    EXPECT_TRUE(indexed("b_bunny.json"));
    EXPECT_EQ(server.handle("/report?file=c_late.json").status, 404);
    std::filesystem::remove_all(dir);
}

TEST(Serve, ConcurrentHandleMatchesSerial)
{
    std::string dir = freshDir("concurrent");
    WorkloadResult bunny;
    RunOptions options;
    writeSampleReports(dir, bunny, options);
    const std::vector<std::string> targets = {
        "/healthz",
        "/version",
        "/index",
        "/stats?workload=BUNNY_AO",
        "/stat?name=gpu.cycles",
        "/stat?name=ipc&scene=REF",
        "/series?name=rt.rays_traced",
        "/series?name=gpu.cycles&workload=REF_SH",
        "/breakdown",
        "/breakdown?workload=BUNNY_AO",
        "/view",
        "/report?file=b_bunny.json",
        "/report?file=junk.json",
        "/stat?name=x&bogus=1",
        "/nope",
    };
    std::vector<query::ReportServer::Response> serial;
    {
        query::ReportServer reference(dir);
        for (const std::string &target : targets)
            serial.push_back(reference.handle(target));
    }

    // A fresh server, so the threads also race its first indexing.
    query::ReportServer server(dir);
    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::vector<std::vector<int>> mismatches(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; round++) {
                for (size_t k = 0; k < targets.size(); k++) {
                    // Each thread starts at a different route.
                    size_t i = (k + static_cast<size_t>(t) * 4) %
                               targets.size();
                    query::ReportServer::Response got =
                        server.handle(targets[i]);
                    if (got.status != serial[i].status ||
                        got.contentType != serial[i].contentType ||
                        got.body != serial[i].body)
                        mismatches[t].push_back(static_cast<int>(i));
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; t++) {
        for (int i : mismatches[t])
            ADD_FAILURE() << "thread " << t << ": " << targets[i]
                          << " differs from the serial answer";
    }
    std::filesystem::remove_all(dir);
}
