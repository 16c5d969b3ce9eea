/**
 * @file
 * Shared pieces of the layered perf ledger (README.md): the workload
 * table, the span log of the traced pass, and the child pass that
 * perf_ledger re-executes itself to run in a fresh process.
 */

#ifndef LUMI_BENCH_LEDGER_LEDGER_HH
#define LUMI_BENCH_LEDGER_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"

namespace lumi
{
namespace ledger
{

/** One ledger workload: the campaign rows a pass runs. */
struct WorkloadSpec
{
    /** Rows in campaign order. */
    std::vector<campaign::Job> rows;
    /**
     * True when set-up writes the rows as a report corpus and every
     * timed sweep is warm (all cache hits); false when every pass
     * sweeps the rows cold into a fresh cache directory.
     */
    bool warm = false;
};

/** Workload names, in the order the full ledger runs them. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name with RenderParams::seed = @p seed (compute
 * rows ignore it). @p smoke shrinks every row to 16x16, detail 1.
 * False for an unknown name.
 */
bool makeWorkload(const std::string &name, uint32_t seed, bool smoke,
                  WorkloadSpec &out);

/** "<job id>@<config name>": one row's key in pins and results. */
std::string rowKey(const campaign::Job &job);

/** Monotonic nanoseconds, comparable across processes. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * One timed interval of the traced pass. Spans nest through
 * @p parent (an index into the log, -1 for a root); spans of one
 * job or request share @p op. Counts ride on the span that did the
 * work, so ratios are taken where the work happens.
 */
struct Span
{
    std::string name;
    uint64_t beginNs = 0;
    uint64_t endNs = 0;
    int parent = -1;
    int op = -1;
    std::vector<std::pair<std::string, double>> counts;
};

/** In-memory span log; written out once the benchmark ends. */
class SpanLog
{
  public:
    /** Open a span; returns its index. */
    int
    begin(const std::string &name, int parent, int op)
    {
        spans_.push_back({name, nowNs(), 0, parent, op, {}});
        return static_cast<int>(spans_.size()) - 1;
    }

    void end(int span) { spans_[span].endNs = nowNs(); }

    void
    count(int span, const std::string &key, double value)
    {
        spans_[span].counts.emplace_back(key, value);
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

/** RAII span: begins on construction, ends on destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, const std::string &name, int parent, int op)
        : log_(log), span_(log.begin(name, parent, op))
    {
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    ~Scope() { log_.end(span_); }

    int id() const { return span_; }

    void
    count(const std::string &key, double value)
    {
        log_.count(span_, key, value);
    }

  private:
    SpanLog &log_;
    int span_;
};

/** What one child process is asked to do. */
struct ChildArgs
{
    std::string workload;
    uint32_t seed = 7;
    bool smoke = false;
    /** Run the traced pass instead of untraced passes. */
    bool traced = false;
    /** Keep running passes until this long after set-up ended. */
    double sliceSeconds = 0.0;
    /** ... and at least this many. */
    int minPasses = 1;
    /** Working directory the child owns; the parent removes it. */
    std::string workDir;
    /** Where the child writes its result document. */
    std::string outPath;
};

/**
 * Child entry point: set up, run the passes, check every output and
 * write the result document (see child.cc). Returns the exit code.
 */
int runChild(const ChildArgs &args);

} // namespace ledger
} // namespace lumi

#endif // LUMI_BENCH_LEDGER_LEDGER_HH
