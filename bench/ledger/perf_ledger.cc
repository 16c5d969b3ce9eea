/**
 * @file
 * perf_ledger: the layered performance ledger (see README.md).
 *
 * One command runs the workloads, prints every end-to-end and
 * per-layer metric by name with its unit, checks the outputs and
 * writes ledger.json (plus ledger_trace.json, Chrome-trace format,
 * from the traced passes).
 *
 * The parent process generates the load, closed loop with one client:
 * it re-executes itself for each pass, one child at a time, and reads
 * the child's peak RSS from wait4(). End-to-end metrics come from
 * untraced children; separate traced children give the per-layer
 * numbers, and must reproduce every row's simulated counters from
 * the untraced children or the run fails.
 *
 *   perf_ledger                       all workloads, both kinds of run
 *   perf_ledger --workload W --seed N --seconds S --trace 0|1
 *                                     one workload, one kind of run;
 *                                     the last stdout line is a JSON
 *                                     result
 *   perf_ledger --smoke               every workload at 16x16, one
 *                                     pass; checks the metric set
 *                                     against BENCHMARK.json
 *   perf_ledger --repin               rewrite pins.json (seed 7)
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hh"
#include "trace/json.hh"
#include "trace/json_read.hh"

namespace
{

using namespace lumi;
using namespace lumi::ledger;
namespace fs = std::filesystem;

/** Cold passes per untraced run, at the least. */
constexpr int kMinColdPasses = 5;
/** Children per untraced warm run: each is one set-up sample. */
constexpr int kWarmChildren = 4;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (untraced runs), in print order. */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_mcycles_per_s", "Mcycles/s"},
    {"warm_job_ms.p50", "ms"},
    {"request_ms.p50", "ms"},
    {"peak_rss_mb", "MB"},
};

/** Per-layer metrics (traced runs), in print order. */
const MetricDef kPerLayer[] = {
    {"scene.build_s", "s"},
    {"scene.primitives", "count"},
    {"bvh.build_s", "s"},
    {"bvh.nodes", "count"},
    {"gpu.simulate_s", "s"},
    {"gpu.loop.rt_s", "s"},
    {"gpu.loop.simt_s", "s"},
    {"gpu.loop.fill_s", "s"},
    {"gpu.loop.mem_s", "s"},
    {"gpu.loop.observe_s", "s"},
    {"gpu.landings", "count"},
    {"gpu.ns_per_landing", "ns"},
    {"gpu.sim_cycles", "count"},
    {"mem.mshr_full_stalls", "count"},
    {"rt.rays_traced", "count"},
    {"metrics.collect_s", "s"},
    {"analysis.model_s", "s"},
    {"trace.stats_dump_s", "s"},
    {"report.serialize_s", "s"},
    {"report.bytes", "bytes"},
    {"cache.write_s", "s"},
    {"campaign.overhead_s", "s"},
    {"cache.read_s", "s"},
    {"cache.read_ms.p90", "ms"},
    {"cache.hit_ratio", "ratio"},
    {"json.parse_mb_per_s", "MB/s"},
    {"query.scan_s", "s"},
    {"query.bytes_read_per_request", "bytes"},
    {"serve.index_ms", "ms"},
    {"serve.stat_ms", "ms"},
    {"serve.series_ms", "ms"},
    {"serve.breakdown_ms", "ms"},
    {"serve.report_ms", "ms"},
    {"serve.request_ms.p90", "ms"},
    {"trace_overhead_pct", "%"},
};

/** The pinned per-row counters (child.cc writes them by name). */
const char *const kPinned[] = {"gpu.cycles", "gpu.thread_instructions",
                               "rt.rays_traced",
                               "mem.mshr_full_stalls"};

/** Linear-interpolated quantile (q in [0,1]); 0 for no samples. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

std::vector<double>
numbers(const JsonValue &doc, const char *key)
{
    std::vector<double> out;
    if (const JsonValue *array = doc.find(key)) {
        for (const JsonValue &item : array->items)
            out.push_back(item.number());
    }
    return out;
}

void
append(std::vector<double> &to, const std::vector<double> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

/**
 * Per-pass latency samples of one child, folded into each pass's
 * median. The reported p50 is the median of the passes' medians, so
 * a burst of host noise during one pass moves it less than it would
 * move the median of the pooled samples.
 */
struct PassLatency
{
    std::vector<double> p50;
    size_t samples = 0;

    void
    add(const JsonValue &doc, const char *key)
    {
        for (const JsonValue &pass : doc.find(key)->items) {
            std::vector<double> values;
            for (const JsonValue &item : pass.items)
                values.push_back(item.number());
            if (values.empty())
                continue;
            p50.push_back(median(values));
            samples += values.size();
        }
    }
};

bool
readJson(const std::string &path, JsonValue &doc)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    return parseJson(text.str(), doc);
}

bool
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text << "\n";
    return static_cast<bool>(out);
}

/** One finished child process. */
struct ChildRun
{
    bool ok = false;
    double setupS = 0.0;
    double peakRssMb = 0.0;
    JsonValue doc;
};

/** Options shared by every run of one invocation. */
struct Settings
{
    uint32_t seed = 7;
    double seconds = 20.0;
    bool smoke = false;
    std::string workRoot;
};

/** Re-execute this binary as a child and wait for it. */
ChildRun
spawnChild(const ChildArgs &args)
{
    std::vector<std::string> argv = {
        "perf_ledger", "--child", args.workload,
        "--seed", std::to_string(args.seed),
        "--slice", std::to_string(args.sliceSeconds),
        "--min-passes", std::to_string(args.minPasses),
        "--work-dir", args.workDir,
        "--child-out", args.outPath};
    if (args.smoke)
        argv.push_back("--smoke");
    if (args.traced)
        argv.push_back("--traced");
    std::vector<char *> cargv;
    for (std::string &arg : argv)
        cargv.push_back(arg.data());
    cargv.push_back(nullptr);

    ChildRun run;
    std::fflush(nullptr);
    uint64_t start = nowNs();
    pid_t pid = fork();
    if (pid == 0) {
        execv("/proc/self/exe", cargv.data());
        _exit(127);
    }
    if (pid < 0) {
        std::perror("perf_ledger: fork");
        return run;
    }
    int status = 0;
    struct rusage usage = {};
    while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    run.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !readJson(args.outPath, run.doc)) {
        std::fprintf(stderr, "perf_ledger: %s child failed (status %d)\n",
                     args.workload.c_str(), status);
        return run;
    }
    double ready = run.doc.num("ready_ns");
    run.setupS = (ready - static_cast<double>(start)) * 1e-9;
    run.ok = true;
    return run;
}

/** Everything the ledger learned about one workload. */
struct WorkloadLedger
{
    std::string name;
    std::vector<std::pair<std::string, double>> endToEnd;
    std::vector<std::pair<std::string, double>> perLayer;
    std::map<std::string, size_t> samples;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    /** Child result documents (a deque: rows/traces point in). */
    std::deque<JsonValue> docs;
    /** Row facts of the first child: "key" + pinned counters. */
    std::vector<const JsonValue *> rows;
    /** Traced children's spans, for ledger_trace.json. */
    std::vector<std::pair<std::string, const JsonValue *>> traces;

    void
    fail(const std::string &what)
    {
        failed++;
        attempted++;
        if (errors.size() < 20)
            errors.push_back(what);
    }
};

class Ledger
{
  public:
    Ledger(const Settings &settings, const JsonValue *pins)
        : settings_(settings), pins_(pins)
    {
    }

    /** Untraced children: the end-to-end metrics of @p name. */
    void
    runUntraced(WorkloadLedger &ledger)
    {
        WorkloadSpec spec;
        makeWorkload(ledger.name, settings_.seed, settings_.smoke, spec);
        std::vector<double> setup, rss, wall, cycles;
        PassLatency warm, requests;
        uint64_t start = nowNs();
        for (int n = 0;; n++) {
            bool more = spec.warm
                            ? n < (onePass() ? 1 : kWarmChildren)
                            : n < (onePass() ? 1 : kMinColdPasses) ||
                                  elapsed(start) < settings_.seconds;
            if (!more)
                break;
            ChildArgs args = childArgs(ledger.name, n, false);
            if (spec.warm && !onePass()) {
                args.sliceSeconds = settings_.seconds / kWarmChildren;
                args.minPasses = 2;
            }
            const JsonValue *doc = collect(ledger, spawnChild(args), n,
                                           setup, rss);
            if (!doc)
                continue;
            append(wall, numbers(*doc, "wall_s"));
            append(cycles, numbers(*doc, "cycles"));
            warm.add(*doc, "warm_job_ms");
            requests.add(*doc, "request_ms");
        }
        double wall_s = median(wall);
        double pass_cycles = median(cycles);
        auto put = [&](const char *name, double value, size_t n) {
            ledger.endToEnd.emplace_back(name, value);
            ledger.samples[name] = n;
        };
        put("setup_s", median(setup), setup.size());
        put("wall_s", wall_s, wall.size());
        put("sim_mcycles_per_s",
            wall_s > 0.0 ? pass_cycles / wall_s * 1e-6 : 0.0,
            wall.size());
        put("warm_job_ms.p50", median(warm.p50), warm.samples);
        put("request_ms.p50", median(requests.p50), requests.samples);
        put("peak_rss_mb", median(rss), rss.size());
    }

    /**
     * Untraced and traced children, alternating until the window
     * closes: the traced ones give the per-layer metrics, the
     * untraced ones the parity and overhead base from the same
     * stretch of time.
     */
    void
    runTraced(WorkloadLedger &ledger)
    {
        WorkloadSpec spec;
        makeWorkload(ledger.name, settings_.seed, settings_.smoke, spec);
        std::vector<double> setup, rss, base_walls;
        std::map<std::string, std::vector<double>> layers;
        std::vector<const JsonValue *> traced;
        uint64_t start = nowNs();
        for (int n = 0; n < 2 || (!onePass() &&
                                  elapsed(start) < settings_.seconds);
             n++) {
            const bool trace = n % 2 == 1;
            const JsonValue *doc = collect(
                ledger, spawnChild(childArgs(ledger.name, n, trace)), n,
                setup, rss);
            if (!doc)
                continue;
            if (trace) {
                traced.push_back(doc);
                ledger.traces.emplace_back(
                    ledger.name + " traced pass " + std::to_string(n),
                    doc);
            } else {
                append(base_walls, numbers(*doc, "wall_s"));
                append(layers["campaign.overhead_s"],
                       numbers(*doc, "campaign_overhead_s"));
            }
        }
        // Tails pool the spans of every traced child; one child holds
        // too few samples for a p90.
        std::map<std::string, std::vector<double>> tails;
        for (const JsonValue *doc : traced) {
            for (const auto &[name, value] :
                 layerMetrics(*doc, spec.warm, median(base_walls)))
                layers[name].push_back(value);
            for (const JsonValue &span : doc->find("spans")->items) {
                std::string name = span.str("name");
                double ms = (span.num("end_ns") - span.num("begin_ns")) *
                            1e-6;
                if (name == "cache.read")
                    tails["cache.read_ms.p90"].push_back(ms);
                else if (name.rfind("serve.", 0) == 0)
                    tails["serve.request_ms.p90"].push_back(ms);
            }
        }
        for (const MetricDef &def : kPerLayer) {
            auto tail = tails.find(def.name);
            const std::vector<double> &values =
                tail != tails.end() ? tail->second : layers[def.name];
            ledger.perLayer.emplace_back(
                def.name, tail != tails.end() ? quantile(values, 0.9)
                                              : median(values));
            ledger.samples[def.name] = values.size();
        }
    }

  private:
    /** A zero window (smoke, repin): one pass of each kind. */
    bool onePass() const { return settings_.seconds <= 0.0; }

    static double
    elapsed(uint64_t start)
    {
        return static_cast<double>(nowNs() - start) * 1e-9;
    }

    ChildArgs
    childArgs(const std::string &workload, int n, bool traced) const
    {
        ChildArgs args;
        args.workload = workload;
        args.seed = settings_.seed;
        args.smoke = settings_.smoke;
        args.traced = traced;
        std::string stem = settings_.workRoot + "/" + workload +
                           (traced ? "-traced-" : "-") +
                           std::to_string(n);
        args.workDir = stem;
        args.outPath = stem + ".json";
        return args;
    }

    /**
     * Fold one child into @p ledger: its tallies, its set-up and RSS
     * samples, and its row facts, checked against every earlier
     * child and the pins. Null when the child failed.
     */
    const JsonValue *
    collect(WorkloadLedger &ledger, ChildRun run, int n,
            std::vector<double> &setup, std::vector<double> &rss)
    {
        if (!run.ok) {
            ledger.fail("child " + std::to_string(n) + " failed");
            return nullptr;
        }
        ledger.docs.push_back(std::move(run.doc));
        const JsonValue &doc = ledger.docs.back();
        setup.push_back(run.setupS);
        rss.push_back(run.peakRssMb);
        ledger.attempted += doc.find("attempted")->counter();
        ledger.failed += doc.find("failed")->counter();
        for (const JsonValue &error : doc.find("errors")->items) {
            if (ledger.errors.size() < 20)
                ledger.errors.push_back(error.text);
        }
        const JsonValue &rows = *doc.find("rows");
        if (ledger.rows.empty()) {
            for (const JsonValue &row : rows.items)
                ledger.rows.push_back(&row);
            checkPins(ledger);
        } else if (!sameRows(ledger.rows, rows)) {
            ledger.fail("child " + std::to_string(n) +
                        ": simulated counters differ from the first pass");
        }
        return &doc;
    }

    static bool
    sameRows(const std::vector<const JsonValue *> &first,
             const JsonValue &rows)
    {
        if (rows.items.size() != first.size())
            return false;
        for (size_t i = 0; i < first.size(); i++) {
            for (const char *key : {"key", "digest"}) {
                const JsonValue *a = first[i]->find(key);
                const JsonValue *b = rows.items[i].find(key);
                if (!a || !b ||
                    (a->isString() ? a->text != b->text
                                   : a->token != b->token))
                    return false;
            }
        }
        return true;
    }

    /** At the default seed and full size, rows must hit pins.json. */
    void
    checkPins(WorkloadLedger &ledger) const
    {
        if (!pins_ || settings_.smoke ||
            settings_.seed != static_cast<uint32_t>(pins_->num("seed")))
            return;
        const JsonValue *rows = pins_->find("rows");
        const JsonValue *pinned = rows ? rows->find(ledger.name) : nullptr;
        for (const JsonValue *row : ledger.rows) {
            std::string key = row->str("key");
            const JsonValue *pin = pinned ? pinned->find(key) : nullptr;
            bool ok = pin != nullptr;
            for (const char *counter : kPinned) {
                const JsonValue *want = pin ? pin->find(counter) : nullptr;
                const JsonValue *got = row->find(counter);
                ok = ok && want && got && want->token == got->token;
            }
            if (!ok)
                ledger.fail(key + ": pinned counters differ from pins.json");
        }
    }

    /** Per-layer metrics of one traced child, from its spans. */
    static std::vector<std::pair<std::string, double>>
    layerMetrics(const JsonValue &doc, bool warm, double base_wall)
    {
        std::map<std::string, double> seconds, count;
        std::map<std::string, std::vector<double>> durations;
        std::map<std::string, double> counts;
        for (const JsonValue &span : doc.find("spans")->items) {
            std::string name = span.str("name");
            double dur = (span.num("end_ns") - span.num("begin_ns")) * 1e-9;
            seconds[name] += dur;
            count[name] += 1.0;
            durations[name].push_back(dur);
            std::string family =
                name.rfind("serve.", 0) == 0 ? "serve.*" : name;
            if (family != name)
                count[family] += 1.0;
            for (const auto &[key, value] : span.find("counts")->members)
                counts[family + ":" + key] += value.number();
        }
        auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
        double rays = 0.0, stalls = 0.0;
        for (const JsonValue &row : doc.find("rows")->items) {
            rays += row.num("rt.rays_traced");
            stalls += row.num("mem.mshr_full_stalls");
        }
        const char *sweep = warm ? "campaign.warm" : "campaign.cold";
        std::vector<std::pair<std::string, double>> out = {
            {"scene.build_s", seconds["scene.build"]},
            {"scene.primitives", counts["scene.build:primitives"]},
            {"bvh.build_s", seconds["bvh.build"]},
            {"bvh.nodes", counts["bvh.build:nodes"]},
            {"gpu.simulate_s", seconds["gpu.simulate"]},
            {"gpu.loop.rt_s", counts["gpu.simulate:loop.rt_s"]},
            {"gpu.loop.simt_s", counts["gpu.simulate:loop.simt_s"]},
            {"gpu.loop.fill_s", counts["gpu.simulate:loop.fill_s"]},
            {"gpu.loop.mem_s", counts["gpu.simulate:loop.mem_s"]},
            {"gpu.loop.observe_s", counts["gpu.simulate:loop.observe_s"]},
            {"gpu.landings", counts["gpu.simulate:landings"]},
            {"gpu.ns_per_landing",
             ratio(counts["gpu.simulate:loop_s"] * 1e9,
                   counts["gpu.simulate:landings"])},
            {"gpu.sim_cycles", counts["gpu.simulate:cycles"]},
            {"mem.mshr_full_stalls", stalls},
            {"rt.rays_traced", rays},
            {"metrics.collect_s", seconds["metrics.collect"]},
            {"analysis.model_s", seconds["analysis.model"]},
            {"trace.stats_dump_s", seconds["trace.stats_dump"]},
            {"report.serialize_s", seconds["report.serialize"]},
            {"report.bytes", counts["report.serialize:bytes"]},
            {"cache.write_s", seconds["cache.write"]},
            {"cache.read_s", seconds["cache.read"]},
            {"cache.hit_ratio",
             ratio(counts["cache.read:hit"], count["cache.read"])},
            {"json.parse_mb_per_s",
             ratio(counts["json.parse:bytes"] * 1e-6,
                   seconds["json.parse"])},
            {"query.scan_s", seconds["query.scan"]},
            {"query.bytes_read_per_request",
             ratio(counts["serve.*:rchar"], count["serve.*"])},
            {"trace_overhead_pct",
             base_wall > 0.0
                 ? (seconds[sweep] / base_wall - 1.0) * 100.0
                 : 0.0},
        };
        for (const char *route :
             {"index", "stat", "series", "breakdown", "report"}) {
            out.emplace_back(std::string("serve.") + route + "_ms",
                             median(durations[std::string("serve.") +
                                              route]) *
                                 1e3);
        }
        return out;
    }

    const Settings &settings_;
    const JsonValue *pins_;
};

// ------------------------------------------------------------- //
// Output: the table, ledger.json, ledger_trace.json, pins.json.
// ------------------------------------------------------------- //

const char *
unitOf(const std::string &name)
{
    for (const MetricDef &def : kEndToEnd) {
        if (name == def.name)
            return def.unit;
    }
    for (const MetricDef &def : kPerLayer) {
        if (name == def.name)
            return def.unit;
    }
    return "";
}

void
printLedger(const WorkloadLedger &ledger)
{
    std::printf("# %s: %llu ops attempted, %llu failed\n",
                ledger.name.c_str(),
                static_cast<unsigned long long>(ledger.attempted),
                static_cast<unsigned long long>(ledger.failed));
    for (const auto *metrics : {&ledger.endToEnd, &ledger.perLayer}) {
        for (const auto &[name, value] : *metrics) {
            std::printf("  %-20s %-29s %16.10g %-9s (n=%zu)\n",
                        ledger.name.c_str(), name.c_str(), value,
                        unitOf(name), ledger.samples.at(name));
        }
    }
    for (const std::string &error : ledger.errors)
        std::fprintf(stderr, "perf_ledger: %s: %s\n", ledger.name.c_str(),
                     error.c_str());
}

/** "name": {"value", "unit"[, "samples"]} members of an object. */
void
writeMetrics(JsonWriter &json,
             const std::vector<std::pair<std::string, double>> &metrics,
             const std::map<std::string, size_t> *samples)
{
    for (const auto &[name, value] : metrics) {
        json.key(name);
        json.beginObject();
        json.key("value");
        json.value(value);
        json.key("unit");
        json.value(unitOf(name));
        if (samples) {
            json.key("samples");
            json.value(static_cast<uint64_t>(samples->at(name)));
        }
        json.endObject();
    }
}

void
writeRows(JsonWriter &json, const std::vector<const JsonValue *> &rows)
{
    for (const JsonValue *row : rows) {
        json.key(row->str("key"));
        json.beginObject();
        for (const char *counter : kPinned) {
            json.key(counter);
            json.raw(row->find(counter)->token);
        }
        json.endObject();
    }
}

std::string
ledgerJson(const std::vector<WorkloadLedger> &ledgers,
           const Settings &settings)
{
    JsonWriter json;
    json.beginObject();
    json.key("schema");
    json.value("lumibench-perf-ledger-v1");
    json.key("machine");
    json.beginObject();
    json.key("nproc");
    json.value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
    json.key("compiler");
    json.value(__VERSION__);
    json.key("build_type");
    json.value(LEDGER_BUILD_TYPE);
    json.endObject();
    json.key("seed");
    json.value(static_cast<uint64_t>(settings.seed));
    json.key("seconds");
    json.value(settings.seconds);
    json.key("smoke");
    json.value(settings.smoke);
    json.key("workloads");
    json.beginObject();
    for (const WorkloadLedger &ledger : ledgers) {
        json.key(ledger.name);
        json.beginObject();
        json.key("attempted");
        json.value(ledger.attempted);
        json.key("failed");
        json.value(ledger.failed);
        json.key("errors");
        json.beginArray();
        for (const std::string &error : ledger.errors)
            json.value(error);
        json.endArray();
        json.key("end_to_end");
        json.beginObject();
        writeMetrics(json, ledger.endToEnd, &ledger.samples);
        json.endObject();
        json.key("per_layer");
        json.beginObject();
        writeMetrics(json, ledger.perLayer, &ledger.samples);
        json.endObject();
        json.key("rows");
        json.beginObject();
        writeRows(json, ledger.rows);
        json.endObject();
        json.endObject();
    }
    json.endObject();
    json.endObject();
    return json.str();
}

/**
 * Chrome-trace document of every traced child's spans: one process
 * per child, microsecond timestamps from the earliest span, and the
 * span id, parent id, op id and counts as event args.
 */
std::string
traceJson(const std::vector<WorkloadLedger> &ledgers)
{
    double origin = -1.0;
    for (const WorkloadLedger &ledger : ledgers) {
        for (const auto &[label, doc] : ledger.traces) {
            for (const JsonValue &span : doc->find("spans")->items) {
                double begin = span.num("begin_ns");
                if (origin < 0.0 || begin < origin)
                    origin = begin;
            }
        }
    }
    JsonWriter json;
    json.beginObject();
    json.key("displayTimeUnit");
    json.value("ms");
    json.key("traceEvents");
    json.beginArray();
    int pid = 0;
    for (const WorkloadLedger &ledger : ledgers) {
        for (const auto &[label, doc] : ledger.traces) {
            pid++;
            json.beginObject();
            json.key("name");
            json.value("process_name");
            json.key("ph");
            json.value("M");
            json.key("pid");
            json.value(pid);
            json.key("args");
            json.beginObject();
            json.key("name");
            json.value(label);
            json.endObject();
            json.endObject();
            const std::vector<JsonValue> &spans = doc->find("spans")->items;
            for (size_t i = 0; i < spans.size(); i++) {
                const JsonValue &span = spans[i];
                double begin = span.num("begin_ns");
                json.beginObject();
                json.key("name");
                json.value(span.str("name"));
                json.key("cat");
                json.value("ledger");
                json.key("ph");
                json.value("X");
                json.key("ts");
                json.value((begin - origin) * 1e-3);
                json.key("dur");
                json.value((span.num("end_ns") - begin) * 1e-3);
                json.key("pid");
                json.value(pid);
                json.key("tid");
                json.value(0);
                json.key("args");
                json.beginObject();
                json.key("id");
                json.value(static_cast<int>(i));
                json.key("parent");
                json.raw(span.find("parent")->token);
                json.key("op");
                json.raw(span.find("op")->token);
                for (const auto &[key, value] :
                     span.find("counts")->members) {
                    json.key(key);
                    json.raw(value.token);
                }
                json.endObject();
                json.endObject();
            }
        }
    }
    json.endArray();
    json.endObject();
    return json.str();
}

/** pins.json, one row per line so re-pins diff row by row. */
std::string
pinsJson(const std::vector<WorkloadLedger> &ledgers, uint32_t seed)
{
    std::string text = "{\n  \"seed\": " + std::to_string(seed) +
                       ",\n  \"rows\": {";
    for (size_t w = 0; w < ledgers.size(); w++) {
        text += (w ? ",\n    \"" : "\n    \"") + ledgers[w].name +
                "\": {";
        for (size_t r = 0; r < ledgers[w].rows.size(); r++) {
            JsonWriter row;
            row.beginObject();
            writeRows(row, {ledgers[w].rows[r]});
            row.endObject();
            const std::string &body = row.str();
            text += (r ? ",\n      " : "\n      ") +
                    body.substr(1, body.size() - 2);
        }
        text += "\n    }";
    }
    return text + "\n  }\n}";
}

/** A one-workload run's result line: every metric of its kind. */
std::string
resultLine(const WorkloadLedger &ledger)
{
    JsonWriter json;
    json.beginObject();
    json.key("correct");
    json.value(ledger.failed == 0);
    json.key("attempted");
    json.value(std::max<uint64_t>(ledger.attempted, 1));
    json.key("failed");
    json.value(ledger.failed);
    json.key("metrics");
    json.beginObject();
    writeMetrics(json, ledger.endToEnd, nullptr);
    writeMetrics(json, ledger.perLayer, nullptr);
    json.endObject();
    json.endObject();
    return json.str();
}

/**
 * Smoke contract: every metric BENCHMARK.json names is present on
 * every workload with the same unit, and nothing failed.
 */
bool
checkAgainstBenchmark(const std::vector<WorkloadLedger> &ledgers,
                      const std::string &path)
{
    JsonValue bench;
    if (!readJson(path, bench)) {
        std::fprintf(stderr, "perf_ledger: cannot read %s\n",
                     path.c_str());
        return false;
    }
    bool ok = true;
    for (const WorkloadLedger &ledger : ledgers) {
        if (ledger.failed != 0) {
            std::fprintf(stderr, "perf_ledger: %s: failed_share %g\n",
                         ledger.name.c_str(),
                         static_cast<double>(ledger.failed) /
                             static_cast<double>(ledger.attempted));
            ok = false;
        }
        for (const char *kind : {"end_to_end", "per_layer"}) {
            const auto &metrics = std::strcmp(kind, "end_to_end") == 0
                                      ? ledger.endToEnd
                                      : ledger.perLayer;
            const JsonValue *listed = bench.find(kind);
            if (!listed || !listed->isArray()) {
                std::fprintf(stderr, "perf_ledger: %s has no %s list\n",
                             path.c_str(), kind);
                return false;
            }
            for (const JsonValue &metric : listed->items) {
                std::string name = metric.str("name");
                bool found = std::any_of(
                    metrics.begin(), metrics.end(),
                    [&](const auto &m) { return m.first == name; });
                if (!found || metric.str("unit") != unitOf(name)) {
                    std::fprintf(stderr,
                                 "perf_ledger: %s: %s metric %s missing "
                                 "or not in %s\n",
                                 ledger.name.c_str(), kind, name.c_str(),
                                 metric.str("unit").c_str());
                    ok = false;
                }
            }
        }
    }
    return ok;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perf_ledger [--workload W] [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--repin]\n"
                 "                   [--out ledger.json]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Settings settings;
    ChildArgs child;
    bool is_child = false;
    bool repin = false;
    int trace = -1;
    std::string workload;
    std::string out = "ledger.json";
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(usage());
            }
            return argv[++i];
        };
        // A number in [lo, hi], or exit 2 naming the flag.
        auto number = [&](double lo, double hi) {
            std::string text = next();
            char *end = nullptr;
            double value = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || !(value >= lo) ||
                !(value <= hi)) {
                std::fprintf(stderr, "%s needs a number in [%g, %g]\n",
                             arg.c_str(), lo, hi);
                std::exit(usage());
            }
            return value;
        };
        if (arg == "--child") {
            is_child = true;
            child.workload = next();
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--seed") {
            settings.seed = static_cast<uint32_t>(number(0, UINT32_MAX));
        } else if (arg == "--seconds") {
            settings.seconds = number(0, 3600);
        } else if (arg == "--trace") {
            trace = static_cast<int>(number(0, 1));
        } else if (arg == "--smoke") {
            settings.smoke = true;
        } else if (arg == "--repin") {
            repin = true;
        } else if (arg == "--out") {
            out = next();
        } else if (arg == "--traced") {
            child.traced = true;
        } else if (arg == "--slice") {
            child.sliceSeconds = number(0, 3600);
        } else if (arg == "--min-passes") {
            child.minPasses = static_cast<int>(number(1, 1000));
        } else if (arg == "--work-dir") {
            child.workDir = next();
        } else if (arg == "--child-out") {
            child.outPath = next();
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage();
        }
    }
    if (is_child) {
        child.seed = settings.seed;
        child.smoke = settings.smoke;
        return runChild(child);
    }

    std::vector<std::string> names = workloadNames();
    if (!workload.empty()) {
        if (std::find(names.begin(), names.end(), workload) ==
            names.end()) {
            std::fprintf(stderr, "perf_ledger: unknown workload %s\n",
                         workload.c_str());
            return 2;
        }
        names = {workload};
    }
    if (repin) {
        settings.seed = 7;
        settings.smoke = false;
    }
    // Smoke and repin runs make exactly one pass of each kind.
    if (repin || settings.smoke)
        settings.seconds = 0.0;
    fs::path out_dir = fs::absolute(out).parent_path();
    settings.workRoot = (out_dir / "ledger_work").string();
    fs::remove_all(settings.workRoot);
    fs::create_directories(settings.workRoot);

    JsonValue pins;
    bool have_pins = !repin && readJson(std::string(LEDGER_SOURCE_DIR) +
                                            "/pins.json",
                                        pins);
    Ledger runner(settings, have_pins ? &pins : nullptr);
    std::vector<WorkloadLedger> ledgers;
    ledgers.reserve(names.size());
    for (const std::string &name : names) {
        ledgers.emplace_back();
        WorkloadLedger &ledger = ledgers.back();
        ledger.name = name;
        if (trace != 1)
            runner.runUntraced(ledger);
        if (trace != 0 && !repin)
            runner.runTraced(ledger);
        printLedger(ledger);
    }
    fs::remove_all(settings.workRoot);

    if (repin) {
        std::string path = std::string(LEDGER_SOURCE_DIR) + "/pins.json";
        if (!writeText(path, pinsJson(ledgers, settings.seed)))
            return 1;
        std::printf("# wrote %s\n", path.c_str());
        return 0;
    }
    writeText(out, ledgerJson(ledgers, settings));
    if (trace != 0) {
        writeText((out_dir / "ledger_trace.json").string(),
                  traceJson(ledgers));
    }
    if (settings.smoke)
        return checkAgainstBenchmark(
                   ledgers, std::string(LEDGER_REPO_ROOT) + "/BENCHMARK.json")
                   ? 0
                   : 1;
    if (!workload.empty()) {
        std::printf("%s\n", resultLine(ledgers.front()).c_str());
        return 0;
    }
    bool correct = std::all_of(
        ledgers.begin(), ledgers.end(),
        [](const WorkloadLedger &l) { return l.failed == 0; });
    std::printf("# ledger %s; wrote %s\n", correct ? "correct" : "FAILED",
                out.c_str());
    return correct ? 0 : 1;
}
