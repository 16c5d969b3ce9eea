/**
 * @file
 * The child pass of the perf ledger. perf_ledger re-executes itself
 * for every child, so passes share no in-process state and the
 * parent reads each child's peak RSS from wait4().
 *
 * An untraced child sets up, then runs passes of:
 *  1. a cold sweep: runCampaign with one worker into a fresh cache
 *     directory, so every job ends with its report on disk (skipped
 *     on warm workloads, whose set-up wrote the corpus);
 *  2. warm re-sweeps of the same rows, all cache hits;
 *  3. seeded requests through ReportServer::handle() over the
 *     reports.
 * A traced child does the same work, but the ledger calls each
 * layer's public entry point itself and records a span around it.
 *
 * Every output is checked: job statuses, warm statsJson bytes
 * against cold, and every request answer against the rows that
 * wrote the reports. The result document goes to ChildArgs::outPath.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/analytical.hh"
#include "campaign/cache.hh"
#include "check/check.hh"
#include "compute/rtq/rtq_pipeline.hh"
#include "compute/rtq/rtq_scene.hh"
#include "gpu/host_profile.hh"
#include "gpu/stat_bindings.hh"
#include "ledger.hh"
#include "lumibench/query.hh"
#include "lumibench/run_report.hh"
#include "lumibench/serve.hh"
#include "math/rng.hh"
#include "metrics/metrics.hh"
#include "rt/pipeline.hh"
#include "trace/interval.hh"
#include "trace/json.hh"
#include "trace/json_read.hh"
#include "trace/stat_registry.hh"
#include "trace/trace.hh"

namespace lumi
{
namespace ledger
{

namespace
{

namespace fs = std::filesystem;

/** Warm cache hits per pass, at the least: a 5-pass run has 120. */
constexpr size_t kWarmJobsPerPass = 24;

double
secondsBetween(uint64_t begin_ns, uint64_t end_ns)
{
    return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Bytes this process has read through syscalls (/proc/self/io). */
double
readChars()
{
    std::ifstream io("/proc/self/io");
    std::string key;
    double value = 0.0;
    while (io >> key >> value) {
        if (key == "rchar:")
            return value;
    }
    return 0.0;
}

uint64_t
fnv1a(const std::string &text)
{
    uint64_t hash = 14695981039346656037ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

/** The exact counters of one finished row, pinned and compared. */
struct RowFacts
{
    std::string key;
    std::string id;
    uint64_t cycles = 0;
    uint64_t threadInstructions = 0;
    uint64_t raysTraced = 0;
    uint64_t mshrFullStalls = 0;
    /** FNV-1a of the whole statsJson (cross-pass parity). */
    uint64_t digest = 0;
    bool hasSeries = false;
};

RowFacts
factsOf(const campaign::Job &job, const WorkloadResult &result)
{
    JsonValue stats;
    if (!parseJson(result.statsJson, stats))
        throw std::runtime_error(result.id + ": unparseable statsJson");
    auto counter = [&](const char *name) {
        const JsonValue *value = stats.find(name);
        if (!value)
            throw std::runtime_error(result.id + ": no " + name);
        return value->counter();
    };
    RowFacts facts;
    facts.key = rowKey(job);
    facts.id = job.id();
    facts.cycles = counter("gpu.cycles");
    facts.threadInstructions = counter("gpu.thread_instructions");
    facts.raysTraced = counter("rt.rays_traced");
    facts.mshrFullStalls = counter("mem.mshr_full_stalls");
    facts.digest = fnv1a(result.statsJson);
    facts.hasSeries = job.options.intervalStats > 0;
    return facts;
}

/** Counts attempted/failed operations and keeps the first errors. */
class Tally
{
  public:
    /** Count one operation; false (and a logged reason) on failure. */
    bool
    check(bool ok, const std::string &what)
    {
        attempted_++;
        if (!ok) {
            failed_++;
            if (errors_.size() < 20)
                errors_.push_back(what);
        }
        return ok;
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &errors() const { return errors_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> errors_;
};

/** What the reports in one directory must answer. */
struct Corpus
{
    std::string dir;
    /** Per row, in row order: report file name, facts, stats. */
    std::vector<std::string> files;
    std::vector<RowFacts> facts;
    /** Cold statsJson per row (warm hits must match byte for byte). */
    std::vector<std::string> statsJson;
    /** Report file bytes per row, for /report answers. */
    std::vector<std::string> bytes;
};

/**
 * Record one cold row into @p corpus; @p result is null when the row
 * failed, which leaves an empty entry so indices stay row indices.
 */
void
addRow(Corpus &corpus, const campaign::Job &job,
       const WorkloadResult *result)
{
    std::string file = campaign::cacheKey(job);
    RowFacts facts;
    facts.key = rowKey(job);
    facts.id = job.id();
    corpus.files.push_back(file);
    corpus.facts.push_back(result ? factsOf(job, *result) : facts);
    corpus.statsJson.push_back(result ? result->statsJson : "");
    corpus.bytes.push_back(result ? readFile(corpus.dir + "/" + file) : "");
}

// ------------------------------------------------------------- //
// Requests: a seeded mix over the five data routes.
// ------------------------------------------------------------- //

enum class Route
{
    Index,
    Stat,
    Series,
    Breakdown,
    Report,
    NumRoutes,
};

const char *
routeName(Route route)
{
    switch (route) {
      case Route::Index: return "index";
      case Route::Stat: return "stat";
      case Route::Series: return "series";
      case Route::Breakdown: return "breakdown";
      case Route::Report: return "report";
      default: return "unknown";
    }
}

struct Request
{
    Route route = Route::Index;
    std::string target;
    /** Row the request names (workload or file); -1 for /index. */
    int row = -1;
    /** Stat asked by /stat. */
    std::string stat;
};

/**
 * @p count requests cycling through the routes; the row and stat of
 * each come from a generator seeded by (@p seed, @p pass).
 */
std::vector<Request>
makeRequests(const Corpus &corpus, uint32_t seed, int pass, int count)
{
    static const char *const stats[] = {
        "gpu.cycles", "gpu.thread_instructions", "rt.rays_traced"};
    Rng rng(seed, static_cast<uint64_t>(pass) + 1);
    std::vector<Request> requests;
    for (int i = 0; i < count; i++) {
        Request request;
        request.route = static_cast<Route>(
            i % static_cast<int>(Route::NumRoutes));
        request.row = static_cast<int>(rng.nextBelow(
            static_cast<uint32_t>(corpus.files.size())));
        const std::string &id = corpus.facts[request.row].id;
        switch (request.route) {
          case Route::Index:
            request.target = "/index";
            request.row = -1;
            break;
          case Route::Stat:
            request.stat = stats[rng.nextBelow(3)];
            request.target = "/stat?name=" + request.stat +
                             "&workload=" + id;
            break;
          case Route::Series:
            request.target = "/series?name=gpu.cycles&workload=" + id;
            break;
          case Route::Breakdown:
            request.target = "/breakdown?workload=" + id;
            break;
          default:
            request.target = "/report?file=" +
                             corpus.files[request.row];
            break;
        }
        requests.push_back(std::move(request));
    }
    return requests;
}

uint64_t
statOf(const RowFacts &facts, const std::string &stat)
{
    if (stat == "gpu.cycles")
        return facts.cycles;
    if (stat == "gpu.thread_instructions")
        return facts.threadInstructions;
    return facts.raysTraced;
}

/** True when @p response is the right answer to @p request. */
bool
rightAnswer(const Request &request,
            const query::ReportServer::Response &response,
            const Corpus &corpus)
{
    if (response.status != 200)
        return false;
    if (request.route == Route::Report)
        return response.body == corpus.bytes[request.row];
    JsonValue doc;
    if (!parseJson(response.body, doc) || !doc.isArray())
        return false;
    if (request.route == Route::Index)
        return doc.items.size() == corpus.files.size();

    // The reports of every row with the requested id (one per config).
    const std::string &id = corpus.facts[request.row].id;
    std::map<std::string, const RowFacts *> expect;
    for (size_t r = 0; r < corpus.files.size(); r++) {
        if (corpus.facts[r].id == id &&
            (request.route != Route::Series ||
             corpus.facts[r].hasSeries))
            expect[corpus.files[r]] = &corpus.facts[r];
    }
    if (doc.items.size() != expect.size())
        return false;
    for (const JsonValue &item : doc.items) {
        auto it = expect.find(item.str("file"));
        if (it == expect.end())
            return false;
        const RowFacts &facts = *it->second;
        const JsonValue *value = nullptr;
        uint64_t want = facts.cycles;
        if (request.route == Route::Stat) {
            value = item.find("value");
            want = statOf(facts, request.stat);
        } else if (request.route == Route::Series) {
            const JsonValue *values = item.find("values");
            if (!values || !values->isArray() || values->items.empty())
                return false;
            value = &values->items.back();
        } else {
            value = item.find("cycles");
        }
        if (!value || value->counter(~0ull) != want)
            return false;
    }
    return true;
}

// ------------------------------------------------------------- //
// The traced pass: runWorkload()/runCompute() with the ledger
// calling each layer's entry point itself.
// ------------------------------------------------------------- //

/** The trace layer's stat dump, as runner.cc builds it. */
std::string
statDump(const Gpu &gpu, const AccelStats *accel, const Tracer *tracer)
{
    StatRegistry registry;
    registerGpu(registry, gpu);
    if (accel)
        registerAccelStats(registry, *accel);
    registerCheckStats(registry);
    registerTraceStats(registry, tracer);
    return registry.toJson();
}

/** HostProfiler split of Gpu::run, as counts on the simulate span. */
void
countLoop(Scope &span, const Gpu &gpu, const HostProfiler &profiler)
{
    static const char *const keys[HostProfiler::NumComponents] = {
        "loop.simt_s", "loop.rt_s", "loop.fill_s", "loop.mem_s",
        "loop.observe_s"};
    HostProfile profile = profiler.profile();
    for (size_t c = 0; c < profile.components.size(); c++)
        span.count(keys[c], profile.components[c].seconds);
    span.count("loop_s", profile.loopSeconds);
    span.count("landings",
               static_cast<double>(profile.totalIterations));
    span.count("cycles", static_cast<double>(gpu.stats().cycles));
}

/**
 * Simulate @p job the way runWorkload()/runCompute() do, with a span
 * around every layer call. The HostProfiler is a pure observer, so
 * statsJson must equal the untraced run's; the parent checks that.
 */
WorkloadResult
runLayered(const campaign::Job &job, SpanLog &log, int parent, int op)
{
    const RunOptions &options = job.options;
    PhaseProfiler phases;
    auto tracer = std::make_shared<Tracer>(options.traceCapacity);
    tracer->setMask(options.traceMask);
    Gpu gpu(options.config, options.timelineInterval, tracer.get());
    std::unique_ptr<IntervalSampler> sampler;
    if (options.intervalStats > 0) {
        sampler = std::make_unique<IntervalSampler>(
            options.intervalStats);
        registerGpu(sampler->registry(), gpu);
        gpu.setIntervalSampler(sampler.get());
    }
    HostProfiler profiler;
    gpu.setHostProfiler(&profiler);

    const bool rt = job.kind == campaign::Job::Kind::RayTracing;
    const bool query = rt && isQueryShader(job.workload.shader);
    Scene scene;
    std::optional<RayTracingPipeline> pipeline;
    std::optional<rtq::RtqPipeline> rtqPipeline;
    int bvh_span = -1;
    if (rt) {
        {
            Scope span(log, "scene.build", parent, op);
            PhaseProfiler::Scoped phase(phases, "scene_build");
            scene = query ? rtq::buildRtqScene(job.workload.scene,
                                               options.sceneDetail)
                          : buildScene(job.workload.scene,
                                       options.sceneDetail);
            span.count("primitives",
                       static_cast<double>(scene.uniquePrimitives()));
        }
        {
            Scope span(log, "bvh.build", parent, op);
            PhaseProfiler::Scoped phase(phases, "bvh_build");
            bvh_span = span.id();
            if (query)
                rtqPipeline.emplace(gpu, scene, options.params);
            else
                pipeline.emplace(gpu, scene, options.params);
        }
    }
    {
        Scope span(log, "gpu.simulate", parent, op);
        PhaseProfiler::Scoped phase(phases, "simulate");
        if (query) {
            rtqPipeline->run(job.workload.shader);
        } else if (rt) {
            pipeline->render(job.workload.shader);
        } else {
            ComputeParams params;
            params.scale = 1;
            runComputeKernel(gpu, job.kernel, params);
        }
        countLoop(span, gpu, profiler);
    }
    if (gpu.aborted())
        throw std::runtime_error(job.id() + ": simulation aborted");

    WorkloadResult result;
    {
        PhaseProfiler::Scoped phase(phases, "analysis");
        result.id = job.id();
        result.stats = gpu.stats();
        result.profileSm = gpu.profile().smTotal();
        result.profileRt = gpu.profile().rtTotal();
        result.dram = gpu.memSystem().dram().stats();
        result.l1Rt = gpu.memSystem().l1Rt();
        result.l1Shader = gpu.memSystem().l1Shader();
        result.l2Rt = gpu.memSystem().l2Rt();
        result.l2Shader = gpu.memSystem().l2Shader();
        for (int k = 0; k < numDataKinds; k++) {
            result.kindReads[k] = gpu.memSystem().kindReads()[k];
            result.kindMisses[k] = gpu.memSystem().kindMisses()[k];
        }
        if (rt) {
            result.accelStats = query
                                    ? rtqPipeline->accel().computeStats()
                                    : pipeline->accel().computeStats();
            log.count(bvh_span, "nodes",
                      static_cast<double>(result.accelStats.blasNodes +
                                          result.accelStats.tlasNodes));
        }
        result.rtUnits = options.config.numSms *
                         options.config.rtUnitsPerSm;
        {
            Scope span(log, "metrics.collect", parent, op);
            WorkloadContext context;
            context.scene = &scene;
            context.accelStats = &result.accelStats;
            context.shader = job.workload.shader;
            context.params = options.params;
            result.metrics = collectMetrics(gpu, rt ? &context : nullptr);
        }
        result.metrics.workload = result.id;
        result.timeline = gpu.timeline().windows(result.rtUnits);
        {
            Scope span(log, "analysis.model", parent, op);
            result.analytical = evaluateHongKim(gpu);
        }
        {
            Scope span(log, "trace.stats_dump", parent, op);
            result.statsJson = statDump(
                gpu, rt ? &result.accelStats : nullptr, tracer.get());
        }
        if (sampler)
            result.intervalSeries = sampler->series();
    }
    result.phases = phases.timings();
    return result;
}

// ------------------------------------------------------------- //
// The child itself.
// ------------------------------------------------------------- //

class Child
{
  public:
    explicit Child(const ChildArgs &args) : args_(args)
    {
        if (!makeWorkload(args.workload, args.seed, args.smoke, spec_))
            throw std::invalid_argument("unknown workload " +
                                        args.workload);
        engine_.jobs = 1;
        engine_.retries = 0;
        requestsPerPass_ = args.smoke ? 10 : 24;
        warmSweeps_ = spec_.warm ? 1
                                 : (kWarmJobsPerPass +
                                    spec_.rows.size() - 1) /
                                       spec_.rows.size();
    }

    int
    run()
    {
        fs::remove_all(args_.workDir);
        fs::create_directories(args_.workDir);
        if (spec_.warm)
            coldSweep(args_.workDir + "/corpus", "setup", -1);
        readyNs_ = nowNs();
        int pass = 0;
        do {
            runPass(pass++);
        } while (!args_.traced &&
                 (pass < args_.minPasses ||
                  secondsBetween(readyNs_, nowNs()) < args_.sliceSeconds));
        return writeResult() ? 0 : 1;
    }

  private:
    void
    runPass(int pass)
    {
        int root = args_.traced ? log_.begin("pass", -1, pass) : -1;
        warmJobMs_.emplace_back();
        requestMs_.emplace_back();
        if (!spec_.warm) {
            coldSweep(args_.workDir + "/pass" + std::to_string(pass),
                      "campaign.cold", root);
        }
        for (size_t s = 0; s < warmSweeps_; s++)
            warmSweep(root);
        if (args_.traced) {
            parseReports(root);
            Scope scan(log_, "query.scan", root, -1);
            size_t reports =
                query::ReportIndex::scan(corpus_.dir).reports.size();
            scan.count("reports", static_cast<double>(reports));
        }
        serveRequests(pass, root);
        if (root >= 0)
            log_.end(root);
    }

    /**
     * Sweep every row cold into @p dir, which becomes the corpus.
     * Untraced: one runCampaign call, timed as the pass's wall on
     * cold workloads. Traced: the layered runner per row, under a
     * span @p label below @p parent.
     */
    void
    coldSweep(const std::string &dir, const char *label, int parent)
    {
        fs::remove_all(dir);
        Corpus corpus;
        corpus.dir = dir;
        const bool timed = !spec_.warm;
        if (args_.traced) {
            fs::create_directories(dir);
            std::vector<WorkloadResult> results(spec_.rows.size());
            std::vector<bool> written(spec_.rows.size(), false);
            {
                Scope sweep(log_, label, parent, -1);
                for (size_t i = 0; i < spec_.rows.size(); i++)
                    written[i] = tracedJob(i, dir, sweep.id(), results[i]);
            }
            // Bookkeeping stays outside the spans, as it stays outside
            // the timed sweep when untraced.
            for (size_t i = 0; i < spec_.rows.size(); i++)
                addRow(corpus, spec_.rows[i],
                       written[i] ? &results[i] : nullptr);
        } else {
            campaign::CampaignOptions engine = engine_;
            engine.cacheDir = dir;
            uint64_t begin = nowNs();
            campaign::CampaignResult cold =
                campaign::runCampaign(spec_.rows, engine);
            double wall = secondsBetween(begin, nowNs());
            for (size_t i = 0; i < cold.outcomes.size(); i++) {
                const campaign::JobOutcome &outcome = cold.outcomes[i];
                bool ok = tally_.check(
                    outcome.status == campaign::JobStatus::Ok &&
                        outcome.wroteCache,
                    rowKey(spec_.rows[i]) + ": cold " +
                        campaign::jobStatusName(outcome.status) + " " +
                        outcome.error);
                addRow(corpus, spec_.rows[i],
                       ok ? &outcome.result : nullptr);
            }
            if (timed)
                addPass(cold, wall, corpus);
        }
        if (rows_.empty())
            rows_ = corpus.facts;
        corpus_ = std::move(corpus);
    }

    /**
     * One traced cold job: simulate layer by layer, serialize the
     * report, write it into the cache at @p dir. True when written.
     */
    bool
    tracedJob(size_t row, const std::string &dir, int parent,
              WorkloadResult &result)
    {
        const campaign::Job &job = spec_.rows[row];
        const int op = static_cast<int>(row);
        Scope span(log_, "job", parent, op);
        try {
            result = runLayered(job, log_, span.id(), op);
            {
                Scope serialize(log_, "report.serialize", span.id(), op);
                std::string report = runReportJson({result}, job.options);
                serialize.count("bytes",
                                static_cast<double>(report.size()));
            }
            Scope write(log_, "cache.write", span.id(), op);
            return tally_.check(
                campaign::writeCachedResult(
                    dir + "/" + campaign::cacheKey(job), job, result),
                rowKey(job) + ": cache write failed");
        } catch (const std::exception &error) {
            return tally_.check(false, error.what());
        }
    }

    /** Record one timed sweep's wall, cycles and engine overhead. */
    void
    addPass(const campaign::CampaignResult &sweep, double wall,
            const Corpus &corpus)
    {
        double jobs = 0.0;
        for (const campaign::JobOutcome &outcome : sweep.outcomes)
            jobs += outcome.wallSeconds;
        uint64_t cycles = 0;
        for (const RowFacts &facts : corpus.facts)
            cycles += facts.cycles;
        passWall_.push_back(wall);
        passCycles_.push_back(static_cast<double>(cycles));
        campaignOverhead_.push_back(sweep.wallSeconds - jobs);
    }

    /** Re-sweep the corpus; every job must be a byte-exact hit. */
    void
    warmSweep(int root)
    {
        const Corpus &corpus = corpus_;
        auto same = [&](size_t i, const WorkloadResult &result) {
            return !corpus.statsJson[i].empty() &&
                   result.statsJson == corpus.statsJson[i];
        };
        if (args_.traced) {
            Scope sweep(log_, "campaign.warm", root, -1);
            for (size_t i = 0; i < corpus.files.size(); i++) {
                Scope read(log_, "cache.read", sweep.id(),
                           static_cast<int>(i));
                WorkloadResult result;
                bool hit = campaign::readCachedResult(
                    corpus.dir + "/" + corpus.files[i], spec_.rows[i],
                    result);
                read.count("hit", hit ? 1.0 : 0.0);
                tally_.check(hit && same(i, result),
                             corpus.facts[i].key + ": warm read differs");
            }
            return;
        }
        campaign::CampaignOptions engine = engine_;
        engine.cacheDir = corpus.dir;
        uint64_t begin = nowNs();
        campaign::CampaignResult warm =
            campaign::runCampaign(spec_.rows, engine);
        double wall = secondsBetween(begin, nowNs());
        for (size_t i = 0; i < warm.outcomes.size(); i++) {
            const campaign::JobOutcome &outcome = warm.outcomes[i];
            warmJobMs_.back().push_back(outcome.wallSeconds * 1e3);
            tally_.check(outcome.status == campaign::JobStatus::Cached &&
                             same(i, outcome.result),
                         rowKey(spec_.rows[i]) + ": warm " +
                             campaign::jobStatusName(outcome.status) +
                             " or statsJson differs from cold");
        }
        if (spec_.warm)
            addPass(warm, wall, corpus);
    }

    /** The trace layer's JSON parser over every report (traced). */
    void
    parseReports(int root)
    {
        Scope all(log_, "trace.parse", root, -1);
        for (size_t i = 0; i < corpus_.files.size(); i++) {
            const std::string &text = corpus_.bytes[i];
            Scope parse(log_, "json.parse", all.id(), static_cast<int>(i));
            JsonValue doc;
            bool ok = parseJson(text, doc);
            parse.count("bytes", static_cast<double>(text.size()));
            tally_.check(ok, corpus_.files[i] + ": report does not parse");
        }
    }

    void
    serveRequests(int pass, int root)
    {
        query::ReportServer server(corpus_.dir);
        std::vector<Request> requests =
            makeRequests(corpus_, args_.seed, pass, requestsPerPass_);
        int serve = args_.traced ? log_.begin("serve", root, -1) : -1;
        for (size_t i = 0; i < requests.size(); i++) {
            const Request &request = requests[i];
            query::ReportServer::Response response;
            if (args_.traced) {
                Scope span(log_,
                           std::string("serve.") +
                               routeName(request.route),
                           serve, static_cast<int>(i));
                double before = readChars();
                response = server.handle(request.target);
                span.count("rchar", readChars() - before);
            } else {
                uint64_t begin = nowNs();
                response = server.handle(request.target);
                requestMs_.back().push_back(
                    secondsBetween(begin, nowNs()) * 1e3);
            }
            tally_.check(rightAnswer(request, response, corpus_),
                         request.target + ": wrong answer (status " +
                             std::to_string(response.status) + ")");
        }
        if (serve >= 0)
            log_.end(serve);
    }

    static void
    numbers(JsonWriter &json, const std::vector<double> &values)
    {
        json.beginArray();
        for (double value : values)
            json.value(value);
        json.endArray();
    }

    /** One array of samples per pass. */
    static void
    perPass(JsonWriter &json, const char *key,
            const std::vector<std::vector<double>> &passes)
    {
        json.key(key);
        json.beginArray();
        for (const std::vector<double> &values : passes)
            numbers(json, values);
        json.endArray();
    }

    bool
    writeResult() const
    {
        JsonWriter json;
        json.beginObject();
        json.key("ready_ns");
        json.value(readyNs_);
        json.key("attempted");
        json.value(tally_.attempted());
        json.key("failed");
        json.value(tally_.failed());
        json.key("errors");
        json.beginArray();
        for (const std::string &error : tally_.errors())
            json.value(error);
        json.endArray();
        json.key("rows");
        json.beginArray();
        for (const RowFacts &facts : rows_) {
            json.beginObject();
            json.key("key");
            json.value(facts.key);
            json.key("gpu.cycles");
            json.value(facts.cycles);
            json.key("gpu.thread_instructions");
            json.value(facts.threadInstructions);
            json.key("rt.rays_traced");
            json.value(facts.raysTraced);
            json.key("mem.mshr_full_stalls");
            json.value(facts.mshrFullStalls);
            json.key("digest");
            json.value(facts.digest);
            json.endObject();
        }
        json.endArray();
        json.key("wall_s");
        numbers(json, passWall_);
        json.key("cycles");
        numbers(json, passCycles_);
        json.key("campaign_overhead_s");
        numbers(json, campaignOverhead_);
        perPass(json, "warm_job_ms", warmJobMs_);
        perPass(json, "request_ms", requestMs_);
        json.key("spans");
        json.beginArray();
        for (const Span &span : log_.spans()) {
            json.beginObject();
            json.key("name");
            json.value(span.name);
            json.key("begin_ns");
            json.value(span.beginNs);
            json.key("end_ns");
            json.value(span.endNs);
            json.key("parent");
            json.value(span.parent);
            json.key("op");
            json.value(span.op);
            json.key("counts");
            json.beginObject();
            for (const auto &[key, value] : span.counts) {
                json.key(key);
                json.value(value);
            }
            json.endObject();
            json.endObject();
        }
        json.endArray();
        json.endObject();

        std::ofstream out(args_.outPath, std::ios::binary);
        out << json.str();
        return static_cast<bool>(out);
    }

    const ChildArgs &args_;
    WorkloadSpec spec_;
    campaign::CampaignOptions engine_;
    int requestsPerPass_ = 24;
    size_t warmSweeps_ = 1;
    Tally tally_;
    SpanLog log_;
    /** The reports the current pass answers from. */
    Corpus corpus_;
    /** Facts of the first sweep, reported for parity and pins. */
    std::vector<RowFacts> rows_;
    uint64_t readyNs_ = 0;
    std::vector<double> passWall_;
    std::vector<double> passCycles_;
    std::vector<double> campaignOverhead_;
    std::vector<std::vector<double>> warmJobMs_;
    std::vector<std::vector<double>> requestMs_;
};

} // namespace

int
runChild(const ChildArgs &args)
{
    try {
        return Child(args).run();
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perf_ledger child %s: %s\n",
                     args.workload.c_str(), error.what());
        return 1;
    }
}

} // namespace ledger
} // namespace lumi
