/**
 * @file
 * Wall-clock phase profiling for the host side of a run.
 *
 * The simulator's cycle-domain events live in the Tracer; this file
 * measures the *real* time a run spends in each host phase (scene
 * build, BVH build, simulate, analysis) so run reports can answer
 * "where did the wall-clock go". Phases nest by name accumulation:
 * entering the same name twice sums the durations and counts the
 * entries.
 */

#ifndef LUMI_TRACE_PHASE_HH
#define LUMI_TRACE_PHASE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lumi
{

/** Accumulated wall-clock time of one named phase. */
struct PhaseTiming
{
    std::string name;
    double seconds = 0.0;
    uint64_t count = 0;

    /** Run-report field list: @p visit(key, field). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&visit)
    {
        visit("name", self.name);
        visit("seconds", self.seconds);
        visit("count", self.count);
    }
};

/** Accumulates named wall-clock phases (first-entry order kept). */
class PhaseProfiler
{
  public:
    /** Add @p seconds to phase @p name (creates it on first use). */
    void add(const std::string &name, double seconds);

    /** Timings in first-entry order. */
    const std::vector<PhaseTiming> &timings() const
    {
        return timings_;
    }

    /** Seconds accumulated by @p name (0 if never entered). */
    double seconds(const std::string &name) const;

    /** Total across all phases. */
    double totalSeconds() const;

    void clear() { timings_.clear(); }

    /** RAII timer: measures construction-to-destruction. */
    class Scoped
    {
      public:
        Scoped(PhaseProfiler &profiler, const char *name)
            : profiler_(profiler), name_(name),
              start_(std::chrono::steady_clock::now())
        {
        }

        Scoped(const Scoped &) = delete;
        Scoped &operator=(const Scoped &) = delete;

        ~Scoped()
        {
            std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start_;
            profiler_.add(name_, elapsed.count());
        }

      private:
        PhaseProfiler &profiler_;
        const char *name_;
        std::chrono::steady_clock::time_point start_;
    };

  private:
    std::vector<PhaseTiming> timings_;
};

} // namespace lumi

#endif // LUMI_TRACE_PHASE_HH
