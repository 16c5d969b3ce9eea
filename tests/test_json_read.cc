/**
 * @file
 * The JSON reader: the strict RFC 8259 grammar of the one tokenizer
 * (an accept/reject table), JsonWriter output reading back, the tape
 * layout and its fail-closed limits, and a deterministic mutation
 * test of the report read side: every truncation prefix and a
 * seeded set of byte flips and inserts of one report must either
 * fail closed or parse, through both the result cache and the serve
 * router.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "lumibench/run_report.hh"
#include "lumibench/serve.hh"
#include "math/rng.hh"
#include "metrics/metrics.hh"
#include "trace/interval.hh"
#include "trace/json.hh"
#include "trace/json_read.hh"
#include "trace/stat_registry.hh"

using namespace lumi;

namespace
{

struct GrammarCase
{
    const char *name;
    std::string text;
    bool accept;
    /** The whole error of a rejected text: its offset and reason. */
    const char *error = "";
};

std::vector<GrammarCase>
grammarCases()
{
    using namespace std::string_literals;
    return {
        {"zero", "0", true},
        {"negative zero", "-0", true},
        {"fraction", "-1.5", true},
        {"exponent", "1e5", true},
        {"signed exponent", "1E+5", true},
        {"writer small double", "1.5e-07", true},
        {"long integer", "123456789012345678901234567890", true},
        {"largest decade", "1e308", true},
        {"underflow reads tiny", "1e-400", true},
        {"string", "\"a\"", true},
        {"all short escapes", "\"\\/\\b\\f\\n\\r\\t\\\"\\\\\"", true},
        {"bmp escape", "\"\\u00e9\"", true},
        {"surrogate pair", "\"\\ud83d\\ude00\"", true},
        {"empty containers", "[{},[]]", true},
        {"nested", "{\"a\":{\"b\":[null,true,false]}}", true},
        {"rfc whitespace", " \t\n\r[1 , 2]\r\n ", true},
        {"literal", "null", true},
        {"plus sign", "+1", false, "offset 0: expected a value"},
        {"leading zero", "01", false, "offset 1: malformed number"},
        {"negative leading zero", "-01", false, "offset 2: malformed number"},
        {"bare fraction", ".5", false, "offset 0: expected a value"},
        {"empty fraction", "1.", false, "offset 2: malformed number"},
        {"empty exponent", "1e", false, "offset 2: malformed number"},
        {"signed empty exponent", "1e+", false, "offset 3: malformed number"},
        {"bare minus", "-", false, "offset 1: malformed number"},
        {"overflow", "1e999", false, "offset 5: number out of range"},
        {"negative overflow", "-1e999", false,
         "offset 6: number out of range"},
        {"raw control character", "\"a\x01" "b\"", false,
         "offset 2: control character in string"},
        {"raw newline", "\"a\nb\"", false,
         "offset 2: control character in string"},
        {"lone high surrogate", "\"\\ud800\"", false,
         "offset 7: lone surrogate"},
        {"lone low surrogate", "\"\\udc00\"", false,
         "offset 7: lone surrogate"},
        {"high then bmp", "\"\\ud800\\u0041\"", false,
         "offset 13: lone surrogate"},
        {"high then text", "\"\\ud800x\"", false, "offset 7: lone surrogate"},
        {"vertical tab space", "\v1", false, "offset 0: expected a value"},
        {"form feed space", "\f1", false, "offset 0: expected a value"},
        {"nul space", "1\0"s, false,
         "offset 1: trailing characters after document"},
        {"unknown escape", "\"\\x\"", false, "offset 1: unknown escape"},
        {"short u escape", "\"\\u12\"", false,
         "offset 1: truncated \\u escape"},
        {"bad hex", "\"\\u12g4\"", false, "offset 1: bad \\u escape"},
        {"trailing comma array", "[1,]", false, "offset 3: expected a value"},
        {"trailing comma object", "{\"a\":1,}", false,
         "offset 7: expected object key"},
        {"missing colon", "{\"a\" 1}", false, "offset 5: expected ':'"},
        {"number key", "{1:2}", false, "offset 1: expected object key"},
        {"missing comma", "[1 2]", false, "offset 3: expected ',' or ']'"},
        {"bad literal", "tru", false, "offset 0: bad literal"},
        {"unterminated string", "\"abc", false,
         "offset 4: unterminated string"},
        {"unterminated array", "[", false,
         "offset 1: unexpected end of input"},
        {"unterminated object", "{", false, "offset 1: expected object key"},
        {"empty", "", false, "offset 0: unexpected end of input"},
        {"only space", "   ", false, "offset 3: unexpected end of input"},
        {"two documents", "1 2", false,
         "offset 2: trailing characters after document"},
        {"nan", "NaN", false, "offset 0: expected a value"},
        {"infinity", "Infinity", false, "offset 0: expected a value"},
        {"single quotes", "'a'", false, "offset 0: expected a value"},
        // Number arrays take a fast path after each comma.
        {"number array", "[1,2,3]", true},
        {"negative element", "[1,-2]", true},
        {"space after comma", "[1, 2]", true},
        {"mixed number array", "[0,-0,1e5,1.5]", true},
        {"bare minus element", "[1,-]", false, "offset 4: malformed number"},
        {"leading zero element", "[1,01]", false,
         "offset 4: malformed number"},
        {"trailing comma number array", "[1,2,]", false,
         "offset 5: expected a value"},
        {"unterminated number array", "[1,2", false,
         "offset 4: unterminated array"},
        {"missing member value", "{\"a\":[1,2],\"b\":}", false,
         "offset 15: expected a value"},
    };
}

TEST(JsonTape, StrictGrammarAcceptRejectTable)
{
    for (const GrammarCase &c : grammarCases()) {
        JsonTape tape;
        std::string error;
        bool ok = tape.parse(c.text, &error);
        EXPECT_EQ(ok, c.accept) << c.name << ": " << error;
        if (ok) {
            EXPECT_TRUE(error.empty()) << c.name;
            EXPECT_TRUE(tape.root()) << c.name;
        } else {
            EXPECT_EQ(error, c.error) << c.name;
            EXPECT_FALSE(tape.root()) << c.name;
        }
        // The DOM entry point shares the grammar and the errors.
        JsonValue dom;
        std::string dom_error;
        EXPECT_EQ(parseJson(c.text, dom, &dom_error), c.accept)
            << c.name;
        EXPECT_EQ(dom_error, error) << c.name;
    }
}

TEST(JsonTape, EscapesDecodeAsUtf8)
{
    JsonTape tape;
    ASSERT_TRUE(tape.parse("[\"\\u00e9\\u20ac\\ud83d\\ude00\","
                           "\"a\\n\\\"b\\\\\",\"plain\"]"));
    std::vector<JsonRef> items;
    for (JsonRef item : tape.root().items())
        items.push_back(item);
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].string(),
              "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
    EXPECT_EQ(items[1].string(), "a\n\"b\\");
    EXPECT_EQ(items[2].string(), "plain");
    std::string scratch;
    JsonRef plain = items[2];
    // An unescaped string is a view of the text, not a copy.
    EXPECT_EQ(plain.string(scratch).data(),
              tape.text().data() + plain.begin() + 1);
    EXPECT_TRUE(plain.equals("plain"));
    EXPECT_FALSE(plain.equals("plai"));
}

TEST(JsonTape, WriterOutputReadsBack)
{
    const double doubles[] = {0.0,    0.1,     -2.5,   1.5e-7,
                              1e300,  -1e-300, 1e-310, 123456.789012345,
                              NAN,    INFINITY};
    const std::string strings[] = {"plain", "q\"uote\\", "tab\tnl\n",
                                   std::string("ctl\x01\x1f", 5),
                                   "utf8 \xc3\xa9"};
    JsonWriter json;
    json.beginObject();
    json.key("doubles");
    json.beginArray();
    for (double d : doubles)
        json.value(d);
    json.endArray();
    json.key("max");
    json.value(std::numeric_limits<uint64_t>::max());
    json.key("min");
    json.value(std::numeric_limits<int64_t>::min());
    json.key("strings");
    json.beginArray();
    for (const std::string &s : strings)
        json.value(s);
    json.endArray();
    json.key("flag");
    json.value(true);
    json.endObject();

    JsonTape tape;
    std::string error;
    ASSERT_TRUE(tape.parse(json.str(), &error)) << error;
    JsonRef root = tape.root();
    size_t i = 0;
    for (JsonRef item : root.find("doubles").items()) {
        double want = doubles[i++];
        if (!std::isfinite(want)) {
            EXPECT_TRUE(item.isNull());
            EXPECT_TRUE(std::isnan(item.number()));
            continue;
        }
        char token[32];
        std::snprintf(token, sizeof(token), "%.12g", want);
        EXPECT_EQ(item.raw(), token);
        EXPECT_EQ(item.number(), std::strtod(token, nullptr)) << token;
    }
    EXPECT_EQ(i, std::size(doubles));
    EXPECT_EQ(root.find("max").counter(),
              std::numeric_limits<uint64_t>::max());
    EXPECT_EQ(root.find("min").number(),
              static_cast<double>(std::numeric_limits<int64_t>::min()));
    EXPECT_EQ(root.find("min").counter(7), 7u); // negative: no counter
    // Only a plain integer that fits uint64 reads as a counter.
    const std::pair<const char *, bool> counters[] = {
        {"0", true}, {"18446744073709551615", true},
        {"18446744073709551616", false}, {"-0", false}, {"-1", false},
        {"1.5", false}, {"1.0", false}, {"1e3", false},
        {"\"7\"", false}, {"null", false}};
    for (auto [token, valid] : counters) {
        JsonTape tape;
        ASSERT_TRUE(tape.parse(token)) << token;
        uint64_t got = 5;
        EXPECT_EQ(tape.root().readCounter(got), valid) << token;
        if (!valid) {
            EXPECT_EQ(got, 5u) << token;
        }
        JsonValue dom;
        ASSERT_TRUE(parseJson(token, dom));
        EXPECT_EQ(dom.counter(5) != 5, valid) << token;
    }
    i = 0;
    for (JsonRef item : root.find("strings").items())
        EXPECT_EQ(item.string(), strings[i++]);
    EXPECT_TRUE(root.find("flag").boolean());
    EXPECT_FALSE(root.find("absent"));
    EXPECT_FALSE(root.find("absent").isNull());
    EXPECT_EQ(root.find("absent").number(3.0), 3.0);
}

TEST(JsonTape, NodesIndexTheTextAndSkipSubtrees)
{
    std::string text = " {\"a\": [1, {\"b\": 2}], \"c\": \"x\"} ";
    JsonTape tape;
    ASSERT_TRUE(tape.parse(text));
    JsonRef root = tape.root();
    EXPECT_EQ(root.raw(), "{\"a\": [1, {\"b\": 2}], \"c\": \"x\"}");
    EXPECT_EQ(root.size(), 2u);
    JsonRef a = root.find("a");
    EXPECT_EQ(a.raw(), "[1, {\"b\": 2}]");
    EXPECT_EQ(a.size(), 2u);
    // "c" is reached by skipping a's whole subtree.
    EXPECT_EQ(root.find("c").raw(), "\"x\"");
    EXPECT_EQ(text.substr(root.find("c").begin(),
                          root.find("c").end() - root.find("c").begin()),
              "\"x\"");

    // The DOM materialized from the tape keeps the same ranges.
    JsonValue dom;
    ASSERT_TRUE(parseJson(text, dom));
    const JsonValue *b = dom.find("a")->items[1].find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->token, "2");
    EXPECT_EQ(text.substr(b->begin, b->end - b->begin), "2");
    EXPECT_EQ(dom.str("c"), "x");
}

TEST(JsonTape, NestingDeeperThanTheLimitFailsClosed)
{
    std::string ok = std::string(kMaxJsonDepth, '[') +
                     std::string(kMaxJsonDepth, ']');
    JsonTape tape;
    EXPECT_TRUE(tape.parse(ok));
    std::string deep = "[" + ok + "]";
    std::string error;
    EXPECT_FALSE(tape.parse(deep, &error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos);
}

TEST(JsonTape, TextBeyond32BitOffsetsFailsClosed)
{
    // A 4 GiB + 1 byte read-only mapping: address space only, never
    // touched, since the size check comes before any read.
    size_t size = (size_t{1} << 32) + 1;
    void *map = ::mmap(nullptr, size, PROT_READ,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                       0);
    if (map == MAP_FAILED)
        GTEST_SKIP() << "cannot reserve 4 GiB of address space";
    JsonTape tape;
    std::string error;
    EXPECT_FALSE(tape.parse(
        std::string_view(static_cast<const char *>(map), size), &error));
    EXPECT_NE(error.find("32-bit"), std::string::npos) << error;
    EXPECT_FALSE(tape.root());
    ::munmap(map, size);
}

// ------------------------------------------------------------- //
// Mutation test of the report read side.
// ------------------------------------------------------------- //

/** Unique fresh temp directory under the system temp root. */
std::string
freshDir(const char *tag)
{
    static std::atomic<int> counter{0};
    std::string path =
        (std::filesystem::temp_directory_path() /
         (std::string("lumi_json_") + tag + "_" +
          std::to_string(::getpid()) + "_" +
          std::to_string(counter.fetch_add(1))))
            .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

/**
 * A small but complete cached result: a few real stat names, every
 * metric (some null), a timeline window, a phase and an interval
 * series with a varying and a constant counter.
 */
WorkloadResult
smallResult(const campaign::Job &job)
{
    WorkloadResult result;
    result.id = job.id();

    uint64_t cycles = 1234;
    uint64_t rays = 56;
    uint64_t issued = 789;
    uint64_t stalled = 0;
    StatRegistry registry;
    registry.addCounter("gpu.cycles", &cycles);
    registry.addCounter("rt.rays_traced", &rays);
    registry.addCounter("profile.sm.issued", &issued);
    registry.addCounter("profile.rt.idle", &stalled);
    registry.addFormula("gpu.ipc", [] { return 1.25; });
    result.statsJson = registry.toJson();

    IntervalSampler sampler(100);
    uint64_t work = 0;
    uint64_t idle = 7;
    sampler.registry().addCounter("rt.rays_traced", &work);
    sampler.registry().addCounter("check.violations", &idle);
    for (uint64_t cycle = 0; cycle <= 300; cycle += 100) {
        work = cycle / 10;
        sampler.maybeSample(cycle);
    }
    sampler.sampleFinal(340);
    result.intervalSeries = sampler.series();

    const std::vector<MetricDef> &schema = metricSchema();
    for (size_t i = 0; i < schema.size(); i++)
        result.metrics.values.push_back(
            i % 7 == 3 ? NAN : 0.25 * static_cast<double>(i));
    result.metrics.workload = result.id;
    result.timeline.push_back({0, 100, 1.5, 0.25, 2.0});
    result.phases.push_back({"simulate", 0.125, 1});
    return result;
}

TEST(ReportMutation, EveryCaseFailsClosedOrParses)
{
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;
    options.intervalStats = 100;
    campaign::Job job = campaign::Job::rayTracing(
        {SceneId::BUNNY, ShaderKind::AmbientOcclusion}, options);

    std::string dir = freshDir("mutation");
    std::string name = campaign::cacheKey(job);
    std::string path = dir + "/" + name;
    ASSERT_TRUE(campaign::writeCachedResult(path, job, smallResult(job)));
    std::string original;
    ASSERT_TRUE(readWholeFile(path, original));
    {
        WorkloadResult warm;
        ASSERT_TRUE(campaign::readCachedResult(path, job, warm));
        ASSERT_FALSE(warm.intervalSeries.empty());
    }

    // Every truncation prefix, then seeded flips and inserts.
    std::vector<std::string> cases;
    for (size_t n = 0; n < original.size(); n++)
        cases.push_back(original.substr(0, n));
    const char structural[] = "{}[]\",:\\-.e0 n\x01\x7f";
    Rng rng(23);
    for (int i = 0; i < 1500; i++) {
        std::string text = original;
        size_t at = rng.nextBelow(static_cast<uint32_t>(text.size()));
        char byte = rng.nextBelow(2) == 0
                        ? structural[rng.nextBelow(sizeof(structural) - 1)]
                        : static_cast<char>(rng.nextBelow(256));
        if (i % 2 == 0)
            text[at] = byte;
        else
            text.insert(at, 1, byte);
        cases.push_back(std::move(text));
    }

    const std::string routes[] = {
        "/index",
        "/stats",
        "/stat?name=gpu.cycles",
        "/stat?name=ipc_thread",
        "/series?name=rt.rays_traced",
        "/breakdown",
        "/report?file=" + name,
    };
    size_t hits = 0;
    for (size_t c = 0; c < cases.size(); c++) {
        const std::string &text = cases[c];
        ASSERT_TRUE(writeWholeFile(path, text));
        WorkloadResult warm;
        if (campaign::readCachedResult(path, job, warm)) {
            hits++;
            EXPECT_NE(text.find(warm.statsJson), std::string::npos)
                << "case " << c << ": statsJson is not a byte range";
            JsonTape stats;
            EXPECT_TRUE(stats.parse(warm.statsJson) &&
                        stats.root().isObject())
                << "case " << c << ": statsJson is not one object";
        }
        query::ReportServer server(dir);
        for (const std::string &route : routes) {
            query::ReportServer::Response response = server.handle(route);
            EXPECT_TRUE(response.status == 200 || response.status == 404)
                << "case " << c << " " << route << ": "
                << response.status;
            if (route.rfind("/report", 0) == 0 &&
                response.status == 200) {
                EXPECT_EQ(response.body, text) << "case " << c;
            }
        }
    }
    // Some mutations (a flipped digit) still decode; most must not.
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, cases.size());
    std::filesystem::remove_all(dir);
}

TEST(ReportMutation, MalformedCounterReadsAsMiss)
{
    RunOptions options;
    options.params.width = 16;
    options.params.height = 16;
    campaign::Job job = campaign::Job::rayTracing(
        {SceneId::BUNNY, ShaderKind::AmbientOcclusion}, options);
    std::string dir = freshDir("counter");
    std::string path = dir + "/" + campaign::cacheKey(job);
    ASSERT_TRUE(campaign::writeCachedResult(path, job, smallResult(job)));
    std::string original;
    ASSERT_TRUE(readWholeFile(path, original));
    const std::string cycles = "\"gpu.cycles\":1234";
    size_t at = original.find(cycles);
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(original.find(cycles, at + 1), std::string::npos);

    // Read the entry with gpu.cycles's member replaced by @p members.
    auto readWith = [&](const std::string &members, WorkloadResult &warm) {
        std::string text = original;
        text.replace(at, cycles.size(), members);
        EXPECT_TRUE(writeWholeFile(path, text));
        return campaign::readCachedResult(path, job, warm);
    };
    WorkloadResult warm;
    ASSERT_TRUE(readWith("\"gpu.cycles\":1235", warm));
    EXPECT_EQ(warm.stats.cycles, 1235u);
    ASSERT_TRUE(readWith("\"gpu.cycles\":18446744073709551615", warm));
    EXPECT_EQ(warm.stats.cycles, 18446744073709551615ull);

    // Any other token of a bound counter is a miss, never a hit that
    // restores the counter as 0 while statsJson says otherwise.
    for (const char *token :
         {"1.5", "-1", "\"7\"", "18446744073709551616", "1e3", "null",
          "true", "[1]", "{}"}) {
        WorkloadResult bad;
        EXPECT_FALSE(
            readWith(std::string("\"gpu.cycles\":") + token, bad))
            << token;
    }
    // So is a repeated or out-of-order name: the dump writes them
    // sorted and unique.
    for (const char *members :
         {"\"gpu.cycles\":1234,\"gpu.cycles\":1234",
          "\"gpu.cycles\":1234,\"a\":1",
          "\"zz\":1,\"gpu.cycles\":1234"}) {
        WorkloadResult bad;
        EXPECT_FALSE(readWith(members, bad)) << members;
    }
    std::filesystem::remove_all(dir);
}

} // namespace
