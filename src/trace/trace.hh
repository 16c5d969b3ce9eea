/**
 * @file
 * Low-overhead structured event tracer for the simulator.
 *
 * Components emit duration spans and instant events tagged with a
 * category (SM scheduling, RT traversal, cache, DRAM, host phases).
 * Events land in per-category ring buffers, so a chatty category can
 * never evict another category's history, and a bounded amount of
 * memory holds the tail of arbitrarily long runs. The retained events
 * serialize as Chrome trace-event JSON, loadable in Perfetto or
 * chrome://tracing.
 *
 * Every emission is gated at runtime by a category bitmask; with the
 * mask clear the hot path costs a single predictable branch.
 *
 * The tracer only observes: it never changes simulated timing, so
 * enabling it cannot perturb cycle counts.
 */

#ifndef LUMI_TRACE_TRACE_HH
#define LUMI_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace lumi
{

class StatRegistry;

/** Event categories; one ring buffer and one mask bit each. */
enum class TraceCategory : uint32_t
{
    Sm,    ///< warp launch/residency/retire on the SIMT cores
    Rt,    ///< RT-unit warp residency and ray traversal
    Cache, ///< L1/L2 misses and MSHR-style merges
    Dram,  ///< row activate/precharge and data bursts
    Phase, ///< host-side phases (scene build, simulate, ...)
    Mem,   ///< in-flight request lifetimes (MSHR alloc -> fill)
    NumCategories,
};

constexpr int numTraceCategories =
    static_cast<int>(TraceCategory::NumCategories);

constexpr uint32_t
traceBit(TraceCategory category)
{
    return 1u << static_cast<uint32_t>(category);
}

constexpr uint32_t traceAllCategories =
    (1u << numTraceCategories) - 1;

/** Short name used in the mask spec and the "cat" JSON field. */
const char *traceCategoryName(TraceCategory category);

/**
 * Parse a comma-separated category list ("sm,rt,cache") into a mask.
 * "all", "1" and the empty string select every category; unknown
 * names are ignored (a warning is printed to stderr).
 */
uint32_t parseTraceCategories(const std::string &spec);

/**
 * One recorded event. Names and argument names must be string
 * literals (or otherwise outlive the tracer): events store the
 * pointers, keeping emission allocation-free. Tracer::instant and
 * Tracer::span initialize every field in declaration order.
 */
struct TraceEvent
{
    const char *name = nullptr;
    uint64_t start = 0;    ///< cycle (trace "ts")
    uint64_t duration = 0; ///< 0 for instant events
    uint32_t track = 0;    ///< lane within the category (SM, channel)
    TraceCategory category = TraceCategory::Sm;
    bool instant = true;
    const char *argName0 = nullptr;
    const char *argName1 = nullptr;
    uint64_t arg0 = 0;
    uint64_t arg1 = 0;
};

/** Ring-buffered per-category event recorder. */
class Tracer
{
  public:
    /** @param capacity events retained per category */
    explicit Tracer(size_t capacity = 1 << 14);

    /** Enable categories in @p mask (0 disables everything). */
    void setMask(uint32_t mask) { mask_ = mask; }
    uint32_t mask() const { return mask_; }

    /**
     * The hot-path gate: callers wrap emission in
     * `if (tracer && tracer->wants(cat))`.
     */
    bool
    wants(TraceCategory category) const
    {
        return (mask_ & traceBit(category)) != 0;
    }

    /** Record an instant event at @p cycle. */
    void
    instant(TraceCategory category, const char *name, uint32_t track,
            uint64_t cycle, const char *arg_name0 = nullptr,
            uint64_t arg0 = 0, const char *arg_name1 = nullptr,
            uint64_t arg1 = 0)
    {
        push({name, cycle, 0, track, category, true, arg_name0,
              arg_name1, arg0, arg1});
    }

    /** Record a completed duration span [@p begin, @p end]. */
    void
    span(TraceCategory category, const char *name, uint32_t track,
         uint64_t begin, uint64_t end,
         const char *arg_name0 = nullptr, uint64_t arg0 = 0,
         const char *arg_name1 = nullptr, uint64_t arg1 = 0)
    {
        push({name, begin, end > begin ? end - begin : 0, track,
              category, false, arg_name0, arg_name1, arg0, arg1});
    }

    size_t capacity() const { return capacity_; }

    /** Events currently retained across all categories. */
    size_t size() const;

    /** Events ever emitted into @p category (drops included). */
    uint64_t emitted(TraceCategory category) const;

    /** Events overwritten by ring wraparound in @p category. */
    uint64_t dropped(TraceCategory category) const;

    /** Retained events of one category, oldest first. */
    std::vector<TraceEvent> events(TraceCategory category) const;

    /** All retained events merged and sorted by start cycle. */
    std::vector<TraceEvent> sortedEvents() const;

    /** Serialize as a Chrome trace-event JSON document. */
    std::string toJson() const;

    /** Write toJson() to @p path; false on any I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

    /** Drop all retained events (counters reset too). */
    void clear();

  private:
    struct Ring
    {
        std::vector<TraceEvent> events; ///< capacity_ slots, reused
        size_t next = 0;                ///< write index
        uint64_t emitted = 0;
    };

    void push(const TraceEvent &event);

    size_t capacity_;
    uint32_t mask_ = 0;
    Ring rings_[numTraceCategories];
};

/**
 * Register trace.emitted.<cat> / trace.dropped.<cat> for every
 * category, so silently ring-wrapped (truncated) traces are
 * detectable from any stats dump or run report. A null @p tracer
 * registers all-zero entries: the stats schema stays identical
 * whether or not a run was traced. @p tracer must outlive
 * @p registry (the entries are formulas reading the live rings).
 */
void registerTraceStats(StatRegistry &registry,
                        const Tracer *tracer);

} // namespace lumi

#endif // LUMI_TRACE_TRACE_HH
