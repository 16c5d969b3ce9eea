/**
 * @file
 * The LumiBench command-line driver: the C++ analog of the paper
 * artifact's run_benchmark.py / generate_results.py /
 * plot_dendrogram.py workflow (Appendix Sec. 5).
 *
 *   lumibench list
 *       Enumerate scenes and the 46 workloads.
 *   lumibench run [--subset|--all|--workload ID]...
 *                 [--config mobile|desktop|alternate|table4]
 *                 [--csv results.csv] [--ppm-dir DIR]
 *       Simulate workloads; write the metric table and images.
 *   lumibench results --csv results.csv
 *       Summarize a metric table (the Fig. 14-style report).
 *   lumibench dendrogram --csv results.csv
 *       PCA + clustering over a metric table (the Fig. 3 figure).
 *   lumibench campaign [--subset|--all|--compute|--workload ID]...
 *                      [--config NAME]... [--jobs N] [--retries N]
 *                      [--cache-dir DIR] [--manifest FILE]
 *                      [--event-log FILE] [--heartbeat SECONDS]
 *       Run a job matrix (workloads x configs) through the parallel
 *       campaign engine; write an aggregated campaign.json manifest.
 *   lumibench query --cache-dir DIR --stat NAME [--series]
 *                   [--where KEY=VALUE]... [--list-stats]
 *                   [--breakdown] [--json]
 *       Answer stat/time-series queries over cached run reports;
 *       --breakdown renders the top-down cycle account (profile.*)
 *       as stacked percentages.
 *   lumibench serve --cache-dir DIR [--port N] [--max-requests N]
 *       Serve the same queries over an embedded HTTP endpoint.
 *
 * Resolution/detail honor LUMI_RES / LUMI_SPP / LUMI_DETAIL /
 * LUMI_QUICK, like the bench binaries; the campaign command also
 * honors LUMI_JOBS / LUMI_RETRIES / LUMI_CACHE_DIR / LUMI_EVENT_LOG /
 * LUMI_HEARTBEAT. CLI flags always win over environment defaults
 * (tests/test_query.cc pins that precedence).
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "analysis/cluster.hh"
#include "analysis/pca.hh"
#include "campaign/campaign.hh"
#include "lumibench/query.hh"
#include "lumibench/report.hh"
#include "lumibench/run_report.hh"
#include "lumibench/runner.hh"
#include "lumibench/serve.hh"
#include "rt/pipeline.hh"
#include "trace/json.hh"
#include "trace/stat_registry.hh"
#include "trace/trace.hh"

using namespace lumi;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: lumibench "
                 "<list|run|campaign|query|serve|results|dendrogram> "
                 "[options]\n"
                 "  run options: --subset | --all | --workload ID "
                 "(repeatable)\n"
                 "               --config "
                 "mobile|desktop|alternate|table4\n"
                 "               --res N  --spp N  --detail X  "
                 "--interval-stats CYCLES  --self-profile\n"
                 "               --csv FILE  --ppm-dir DIR  "
                 "--timeline-dir DIR\n"
                 "               --trace FILE  "
                 "--trace-categories sm,rt,cache,dram\n"
                 "               --stats-json FILE  --report FILE\n"
                 "  campaign options: --subset | --all | --compute | "
                 "--workload ID (repeatable)\n"
                 "               --config NAME (repeatable: job "
                 "matrix = workloads x configs)\n"
                 "               --res N  --spp N  --detail X  "
                 "--interval-stats CYCLES\n"
                 "               --jobs N  --retries N  "
                 "--cache-dir DIR\n"
                 "               --manifest FILE (default "
                 "campaign.json)  --trace FILE\n"
                 "               --event-log FILE (JSONL)  "
                 "--heartbeat SECONDS\n"
                 "  query options: --cache-dir DIR  --stat NAME  "
                 "--series\n"
                 "               --where KEY=VALUE (repeatable)  "
                 "--list-stats  --breakdown  --json\n"
                 "  serve options: --cache-dir DIR  --port N  "
                 "--max-requests N\n"
                 "  results/dendrogram options: --csv FILE\n"
                 "  (observability flags imply 'run'; a %%w in FILE "
                 "expands to the workload id)\n");
    return 2;
}

/** Expand "%w" in @p path to @p workload_id. */
std::string
perWorkloadPath(const std::string &path,
                const std::string &workload_id)
{
    std::string out = path;
    size_t pos = out.find("%w");
    if (pos != std::string::npos)
        out.replace(pos, 2, workload_id);
    return out;
}

/** @p ok, with a message on stderr when the write of @p path failed. */
bool
wrote(bool ok, const std::string &path)
{
    if (!ok)
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return ok;
}

/** The workload named @p id; exits 2 naming it when there is none. */
Workload
parseWorkload(const std::string &id)
{
    for (const std::vector<Workload> &family :
         {allWorkloads(), gameWorkloads(), rtqWorkloads()}) {
        for (const Workload &w : family) {
            if (w.id() == id)
                return w;
        }
    }
    std::fprintf(stderr, "unknown workload '%s' (see 'lumibench list')\n",
                 id.c_str());
    std::exit(2);
}

/** The GpuConfig preset named @p name; exits 2 on an unknown name. */
GpuConfig
parseConfig(const std::string &name)
{
    for (const GpuConfig &config :
         {GpuConfig::mobile(), GpuConfig::desktop(),
          GpuConfig::alternate(), GpuConfig::table4()}) {
        if (config.name == name)
            return config;
    }
    std::fprintf(stderr,
                 "unknown config '%s' (mobile, desktop, alternate, "
                 "table4)\n",
                 name.c_str());
    std::exit(2);
}

/**
 * A cursor over one command's arguments: next() steps to the next
 * flag, value() takes that flag's operand and number() parses it
 * through parseFlagNumber. A missing operand or an unknown flag
 * exits 2 with a message naming the flag.
 */
struct ArgCursor
{
    const std::vector<std::string> &args;
    size_t at = 0;
    std::string flag{};

    /** Step to the next flag; false when none is left. */
    bool
    next()
    {
        if (at >= args.size())
            return false;
        flag = args[at++];
        return true;
    }

    /** The current flag's operand. */
    std::string
    value()
    {
        if (at >= args.size()) {
            std::fprintf(stderr, "%s needs a value\n", flag.c_str());
            std::exit(2);
        }
        return args[at++];
    }

    /** The current flag's operand as a T in [@p min, @p max]. */
    template <typename T>
    T
    number(T min, T max = std::numeric_limits<T>::max())
    {
        return parseFlagNumber(flag, value(), min, max);
    }

    [[noreturn]] void
    unknown() const
    {
        std::fprintf(stderr, "unknown option %s\n", flag.c_str());
        std::exit(2);
    }
};

/**
 * Consume one flag that run and campaign share: a workload selection
 * (--subset, --all, --workload ID; each appends to @p workloads) or
 * an observability flag (--res, --spp, --detail, --interval-stats,
 * --self-profile) applied to @p options. False when the current flag
 * is neither.
 */
bool
parseRunFlag(ArgCursor &args, std::vector<Workload> &workloads,
             RunOptions &options)
{
    const std::string &flag = args.flag;
    if (flag == "--subset" || flag == "--all") {
        std::vector<Workload> picked = flag == "--all"
                                           ? allWorkloads()
                                           : representativeSubset();
        workloads.insert(workloads.end(), picked.begin(),
                         picked.end());
    } else if (flag == "--workload") {
        workloads.push_back(parseWorkload(args.value()));
    } else if (flag == "--self-profile") {
        options.selfProfile = true;
    } else if (flag == "--res" || flag == "--spp" ||
               flag == "--detail" || flag == "--interval-stats") {
        applyRunFlag(options, flag, args.value());
    } else {
        return false;
    }
    return true;
}

int
cmdList()
{
    std::printf("scenes (Table 1):\n");
    for (SceneId id : lumiScenes()) {
        Scene scene = buildScene(id, 0.1f);
        std::printf("  %-6s %s\n", sceneName(id),
                    scene.stress.c_str());
    }
    std::printf("\ncomparison maps: ");
    for (SceneId id : gameScenes())
        std::printf("%s ", sceneName(id));
    std::printf("\n\nworkloads (%zu):\n ", allWorkloads().size());
    int col = 0;
    for (const Workload &w : allWorkloads()) {
        std::printf(" %-9s", w.id().c_str());
        if (++col % 6 == 0)
            std::printf("\n ");
    }
    std::printf("\n\nrepresentative subset (Table 2): ");
    for (const Workload &w : representativeSubset())
        std::printf("%s ", w.id().c_str());
    std::printf("\n\nRT-cores-as-compute query family: ");
    for (const Workload &w : rtqWorkloads())
        std::printf("%s ", w.id().c_str());
    std::printf("\n");
    return 0;
}

int
cmdRun(const std::vector<std::string> &args)
{
    RunOptions options = RunOptions::fromEnv();
    std::vector<Workload> workloads;
    std::string csv_path = "results.csv";
    std::string ppm_dir;
    std::string timeline_dir;
    std::string trace_path;
    std::string trace_categories;
    std::string stats_path;
    std::string report_path;

    for (ArgCursor arg{args}; arg.next();) {
        const std::string &flag = arg.flag;
        if (parseRunFlag(arg, workloads, options))
            continue;
        if (flag == "--config")
            options.config = parseConfig(arg.value());
        else if (flag == "--csv")
            csv_path = arg.value();
        else if (flag == "--ppm-dir")
            ppm_dir = arg.value();
        else if (flag == "--timeline-dir")
            timeline_dir = arg.value();
        else if (flag == "--trace")
            trace_path = arg.value();
        else if (flag == "--trace-categories")
            trace_categories = arg.value();
        else if (flag == "--stats-json")
            stats_path = arg.value();
        else if (flag == "--report")
            report_path = arg.value();
        else
            arg.unknown();
    }
    if (workloads.empty())
        workloads = representativeSubset();
    if (!trace_path.empty()) {
        // Precedence: an explicit --trace-categories always wins; a
        // LUMI_TRACE selection from fromEnv() is honored otherwise;
        // the default is everything.
        if (!trace_categories.empty())
            options.traceMask =
                parseTraceCategories(trace_categories);
        else if (options.traceMask == 0)
            options.traceMask = parseTraceCategories("all");
        if (options.traceMask == 0) {
            std::fprintf(stderr,
                         "--trace-categories '%s' selects nothing\n",
                         trace_categories.c_str());
            return 2;
        }
    }
    if (workloads.size() > 1 &&
        trace_path.find("%w") == std::string::npos &&
        (!trace_path.empty() || !stats_path.empty())) {
        std::fprintf(stderr,
                     "note: multiple workloads share one --trace/"
                     "--stats-json path; last run wins (use %%w in "
                     "the path for per-workload files)\n");
    }

    std::vector<WorkloadResult> results;
    std::vector<MetricVector> rows;
    TextTable table({"workload", "cycles", "ipc", "rays",
                     "rt_efficiency", "simt"});
    for (const Workload &workload : workloads) {
        std::fprintf(stderr, "running %-10s ...\n",
                     workload.id().c_str());
        WorkloadResult result = runWorkload(workload, options);
        // Query workloads render no image, so they write no PPM.
        if (!ppm_dir.empty() && !result.framebuffer.empty()) {
            std::string path = ppm_dir + "/" + result.id + ".ppm";
            if (!wrote(writePpm(path, result.framebuffer,
                                options.params.width,
                                options.params.height),
                       path))
                return 1;
        }
        if (!timeline_dir.empty()) {
            std::string path = timeline_dir + "/" + result.id +
                               ".csv";
            if (!wrote(writeTimelineCsv(path, result.timeline), path))
                return 1;
        }
        rows.push_back(result.metrics);
        table.addRow({result.id, std::to_string(result.stats.cycles),
                      TextTable::num(result.ipcThread(), 2),
                      std::to_string(result.stats.raysTraced),
                      TextTable::num(result.stats.rtEfficiency(), 3),
                      TextTable::num(result.stats.simtEfficiency(),
                                     3)});
        if (!trace_path.empty() && result.trace) {
            std::string path = perWorkloadPath(trace_path,
                                               result.id);
            if (!wrote(result.trace->writeChromeTrace(path), path))
                return 1;
        }
        if (!stats_path.empty()) {
            std::string path = perWorkloadPath(stats_path,
                                               result.id);
            if (!wrote(writeWholeFile(path, result.statsJson), path))
                return 1;
        }
        if (!report_path.empty())
            results.push_back(std::move(result));
    }
    if (!wrote(writeCsv(csv_path, rows), csv_path))
        return 1;
    if (!report_path.empty() &&
        !wrote(writeRunReport(report_path, results, options),
               report_path))
        return 1;
    std::printf("%s\n", table.render().c_str());
    std::printf("Simulation complete! wrote %s (%zu workloads x %zu "
                "metrics)\n",
                csv_path.c_str(), rows.size(),
                metricSchema().size());
    return 0;
}

int
cmdCampaign(const std::vector<std::string> &args)
{
    RunOptions base = RunOptions::fromEnv();
    campaign::CampaignOptions engine =
        campaign::CampaignOptions::fromEnv();
    engine.echoProgress = true;

    std::vector<Workload> workloads;
    bool compute = false;
    std::vector<std::string> configs;
    std::string manifest_path = "campaign.json";
    std::string trace_path;

    for (ArgCursor arg{args}; arg.next();) {
        const std::string &flag = arg.flag;
        if (parseRunFlag(arg, workloads, base))
            continue;
        if (flag == "--compute")
            compute = true;
        else if (flag == "--config")
            configs.push_back(arg.value());
        else if (flag == "--jobs")
            engine.jobs = arg.number(0);
        else if (flag == "--retries")
            engine.retries = arg.number(0);
        else if (flag == "--cache-dir")
            engine.cacheDir = arg.value();
        else if (flag == "--manifest")
            manifest_path = arg.value();
        else if (flag == "--trace")
            trace_path = arg.value();
        else if (flag == "--event-log")
            engine.eventLogPath = arg.value();
        else if (flag == "--heartbeat")
            engine.heartbeatSeconds = arg.number(0.0);
        else
            arg.unknown();
    }
    if (workloads.empty() && !compute)
        workloads = representativeSubset();
    if (configs.empty())
        configs.push_back("mobile");

    // The job matrix: every selected workload/kernel under every
    // selected config, config-major so one config's jobs are
    // adjacent in the manifest.
    std::vector<campaign::Job> jobs;
    std::vector<std::string> job_configs;
    for (const std::string &name : configs) {
        RunOptions options = base;
        options.config = parseConfig(name);
        for (const Workload &w : workloads) {
            jobs.push_back(campaign::Job::rayTracing(w, options));
            job_configs.push_back(name);
        }
        if (compute) {
            for (ComputeKernel kernel : allComputeKernels()) {
                jobs.push_back(campaign::Job::compute(kernel,
                                                      options));
                job_configs.push_back(name);
            }
        }
    }

    Tracer tracer;
    if (!trace_path.empty()) {
        tracer.setMask(traceBit(TraceCategory::Phase));
        engine.tracer = &tracer;
    }

    std::fprintf(stderr,
                 "campaign: %zu jobs (%zu workloads%s x %zu "
                 "configs), %d workers\n",
                 jobs.size(), workloads.size(),
                 compute ? " + compute" : "", configs.size(),
                 campaign::resolveWorkerCount(engine.jobs,
                                              jobs.size()));
    campaign::CampaignResult done =
        campaign::runCampaign(jobs, engine);

    // The manifest: one machine-readable document for the whole
    // sweep — per-job status, attempts, phase timings and the full
    // stat dump, plus the aggregated campaign.jobs.* counters.
    StatRegistry registry;
    done.registerStats(registry);
    JsonWriter json;
    json.beginObject();
    json.key("schema");
    json.value("lumibench-campaign-v1");
    json.key("workers");
    json.value(done.workers);
    json.key("wall_seconds");
    json.value(done.wallSeconds);
    json.key("jobs");
    json.beginArray();
    for (size_t i = 0; i < done.outcomes.size(); i++) {
        const campaign::JobOutcome &outcome = done.outcomes[i];
        json.beginObject();
        json.key("id");
        json.value(outcome.id);
        json.key("kind");
        json.value(jobs[i].kind == campaign::Job::Kind::Compute
                       ? "compute"
                       : "ray_tracing");
        json.key("config");
        json.value(job_configs[i]);
        json.key("status");
        json.value(campaign::jobStatusName(outcome.status));
        json.key("attempts");
        json.value(outcome.attempts);
        json.key("from_cache");
        json.value(outcome.fromCache);
        json.key("worker");
        json.value(outcome.worker);
        json.key("wall_seconds");
        json.value(outcome.wallSeconds);
        if (!outcome.error.empty()) {
            json.key("error");
            json.value(outcome.error);
        }
        if (outcome.succeeded()) {
            const WorkloadResult &result = outcome.result;
            json.key("cycles");
            json.value(result.stats.cycles);
            writePhasesJson(json, result.phases);
            if (!result.statsJson.empty()) {
                json.key("stats");
                json.raw(result.statsJson);
            }
        }
        json.endObject();
    }
    json.endArray();
    json.key("stats");
    json.raw(registry.toJson());
    json.endObject();

    if (!wrote(writeWholeFile(manifest_path, json.str()),
               manifest_path) ||
        (!trace_path.empty() &&
         !wrote(tracer.writeChromeTrace(trace_path), trace_path)))
        return 1;

    std::printf("campaign: %llu ok, %llu cached, %llu failed, "
                "%llu timeout (%llu retries) in %.2fs on %d "
                "workers; wrote %s\n",
                static_cast<unsigned long long>(done.stats.ok),
                static_cast<unsigned long long>(done.stats.cached),
                static_cast<unsigned long long>(done.stats.failed),
                static_cast<unsigned long long>(done.stats.timeout),
                static_cast<unsigned long long>(done.stats.retries),
                done.wallSeconds, done.workers,
                manifest_path.c_str());
    return done.allOk() ? 0 : 1;
}

/**
 * Report directory of @p command: the flag value, else
 * LUMI_CACHE_DIR; exits 2 when neither is set.
 */
std::string
reportDir(const char *command, const std::string &flag_value)
{
    if (!flag_value.empty())
        return flag_value;
    if (const char *dir = std::getenv("LUMI_CACHE_DIR");
        dir && *dir)
        return dir;
    std::fprintf(stderr, "%s needs --cache-dir DIR (or "
                         "LUMI_CACHE_DIR)\n",
                 command);
    std::exit(2);
}

int
cmdQuery(const std::vector<std::string> &args)
{
    std::string dir;
    std::string stat;
    bool series = false;
    bool list_stats = false;
    bool breakdown = false;
    bool as_json = false;
    query::QueryFilter filter;

    for (ArgCursor arg{args}; arg.next();) {
        const std::string &flag = arg.flag;
        if (flag == "--cache-dir" || flag == "--dir") {
            dir = arg.value();
        } else if (flag == "--stat") {
            stat = arg.value();
        } else if (flag == "--series") {
            series = true;
        } else if (flag == "--list-stats") {
            list_stats = true;
        } else if (flag == "--breakdown") {
            breakdown = true;
        } else if (flag == "--json") {
            as_json = true;
        } else if (flag == "--where") {
            std::string term = arg.value();
            if (!filter.add(term)) {
                std::fprintf(stderr,
                             "--where needs KEY=VALUE with a known "
                             "key (got '%s')\n",
                             term.c_str());
                return 2;
            }
        } else {
            arg.unknown();
        }
    }

    dir = reportDir("query", dir);
    // One store answers both the emptiness check and the query, so
    // the directory is indexed once.
    query::ReportStore store(dir);
    if (store.index().empty()) {
        std::fprintf(stderr, "no run reports under %s\n",
                     dir.c_str());
        return 1;
    }

    if (list_stats) {
        for (const std::string &name : store.statNames(filter))
            std::printf("%s\n", name.c_str());
        return 0;
    }
    if (breakdown) {
        std::vector<query::BreakdownRow> rows =
            store.breakdown(filter);
        if (rows.empty()) {
            std::fprintf(stderr,
                         "no profile.* buckets matched (reports "
                         "predate the profiler, or the filter "
                         "matched nothing)\n");
            return 1;
        }
        auto pct = [](double share) {
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%.1f", share * 100.0);
            return std::string(buf);
        };
        if (as_json) {
            std::printf("%s\n", query::breakdownJson(rows).c_str());
            return 0;
        }
        // Two stacked-percentage tables: issue slots, then RT-unit
        // cycles. Conservation pins each row to 100%.
        std::vector<std::string> sm_heads = {"workload"};
        for (int b = 0; b < numSmCycleBuckets; b++)
            sm_heads.push_back(smCycleBucketName(
                static_cast<SmCycleBucket>(b)));
        TextTable sm_table(sm_heads);
        for (const query::BreakdownRow &row : rows) {
            std::vector<std::string> cells = {row.workload};
            for (int b = 0; b < numSmCycleBuckets; b++)
                cells.push_back(pct(row.smShare[b]));
            sm_table.addRow(cells);
        }
        std::printf("SM issue slots (%% of cycles)\n%s\n",
                    sm_table.render().c_str());
        std::vector<std::string> rt_heads = {"workload"};
        for (int b = 0; b < numRtCycleBuckets; b++)
            rt_heads.push_back(rtCycleBucketName(
                static_cast<RtCycleBucket>(b)));
        TextTable rt_table(rt_heads);
        for (const query::BreakdownRow &row : rows) {
            std::vector<std::string> cells = {row.workload};
            for (int b = 0; b < numRtCycleBuckets; b++)
                cells.push_back(pct(row.rtShare[b]));
            rt_table.addRow(cells);
        }
        std::printf("RT units (%% of cycles)\n%s",
                    rt_table.render().c_str());
        return 0;
    }
    if (stat.empty()) {
        std::fprintf(stderr,
                     "query needs --stat NAME (or --list-stats)\n");
        return 2;
    }

    if (series) {
        std::vector<query::SeriesResult> results =
            store.series(stat, filter);
        if (results.empty()) {
            std::fprintf(stderr,
                         "no interval series for '%s' (was the run "
                         "sampled with --interval-stats?)\n",
                         stat.c_str());
            return 1;
        }
        if (as_json) {
            std::printf("%s\n", query::seriesJson(results).c_str());
            return 0;
        }
        for (const query::SeriesResult &result : results) {
            std::printf("%s  %s  (interval %llu, %zu samples, "
                        "%s)\n",
                        result.workload.c_str(), stat.c_str(),
                        static_cast<unsigned long long>(
                            result.interval),
                        result.cycles.size(),
                        result.file.c_str());
            std::printf("  %12s %16s %16s\n", "cycle",
                        "cumulative", "delta");
            for (size_t i = 0; i < result.cycles.size(); i++) {
                std::printf("  %12llu %16llu %16llu\n",
                            static_cast<unsigned long long>(
                                result.cycles[i]),
                            static_cast<unsigned long long>(
                                result.values[i]),
                            static_cast<unsigned long long>(
                                result.deltas[i]));
            }
        }
        return 0;
    }

    std::vector<query::StatRow> rows = store.stat(stat, filter);
    if (rows.empty()) {
        std::fprintf(stderr, "no values for '%s'\n", stat.c_str());
        return 1;
    }
    if (as_json) {
        std::printf("%s\n", query::statRowsJson(rows).c_str());
        return 0;
    }
    TextTable table({"workload", stat, "file"});
    for (const query::StatRow &row : rows)
        table.addRow({row.workload, row.token, row.file});
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdServe(const std::vector<std::string> &args)
{
    std::string dir;
    int port = 8090;
    int max_requests = 0;

    for (ArgCursor arg{args}; arg.next();) {
        const std::string &flag = arg.flag;
        if (flag == "--cache-dir" || flag == "--dir")
            dir = arg.value();
        else if (flag == "--port")
            port = arg.number(0, 65535);
        else if (flag == "--max-requests")
            max_requests = arg.number(0);
        else
            arg.unknown();
    }

    dir = reportDir("serve", dir);
    query::ReportServer server(dir);
    if (!server.bind(port))
        return 1;
    std::fprintf(stderr,
                 "serving %s on http://127.0.0.1:%d/ (routes: "
                 "/healthz /version /index /stats /stat /series "
                 "/breakdown /view /report)\n",
                 dir.c_str(), server.port());
    server.serve(max_requests);
    return 0;
}

/** The --csv operand of results and dendrogram (results.csv). */
std::string
csvPath(const std::vector<std::string> &args)
{
    std::string path = "results.csv";
    for (ArgCursor arg{args}; arg.next();) {
        if (arg.flag == "--csv")
            path = arg.value();
        else
            arg.unknown();
    }
    return path;
}

int
cmdResults(const std::vector<std::string> &args)
{
    std::string path = csvPath(args);
    std::vector<MetricVector> rows = readCsv(path);
    if (rows.empty()) {
        std::fprintf(stderr, "no rows in %s\n", path.c_str());
        return 1;
    }
    int ipc = metricIndex("ipc_thread");
    int rt_eff = metricIndex("rt_efficiency");
    int rt_occ = metricIndex("rt_occupancy");
    int dram_eff = metricIndex("dram_efficiency");
    TextTable table({"workload", "ipc", "rt_occupancy",
                     "rt_efficiency", "dram_efficiency"});
    for (const MetricVector &row : rows) {
        table.addRow({row.workload, TextTable::num(row[ipc], 2),
                      TextTable::num(row[rt_occ], 2),
                      TextTable::num(row[rt_eff], 3),
                      TextTable::num(row[dram_eff], 3)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdDendrogram(const std::vector<std::string> &args)
{
    std::vector<MetricVector> rows = readCsv(csvPath(args));
    if (rows.size() < 2) {
        std::fprintf(stderr, "need at least 2 rows\n");
        return 1;
    }
    std::vector<std::vector<double>> data;
    std::vector<std::string> names;
    for (const MetricVector &row : rows) {
        data.push_back(row.values);
        names.push_back(row.workload);
    }
    std::vector<int> kept;
    auto dense = denseColumns(data, kept);
    PcaResult reduced = pca(dense, 0.9);
    std::printf("PCA: %d components, %.1f%% variance, %zu metrics\n",
                reduced.kept, 100.0 * reduced.coveredVariance,
                kept.size());
    Dendrogram tree = agglomerate(reduced.scores);
    std::printf("%s", renderDendrogram(tree, names).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (command.size() >= 2 && command[0] == '-') {
        // Bare observability/run flags imply the run command.
        command = "run";
        args.assign(argv + 1, argv + argc);
    }
    if (command == "list")
        return cmdList();
    if (command == "run")
        return cmdRun(args);
    if (command == "campaign")
        return cmdCampaign(args);
    if (command == "query")
        return cmdQuery(args);
    if (command == "serve")
        return cmdServe(args);
    if (command == "results")
        return cmdResults(args);
    if (command == "dendrogram")
        return cmdDendrogram(args);
    return usage();
}
