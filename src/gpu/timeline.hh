/**
 * @file
 * Time-series sampling of simulator state (the AerialVision-style
 * view of Fig. 6): IPC, L1D miss rate and RT-unit residency over
 * execution time.
 */

#ifndef LUMI_GPU_TIMELINE_HH
#define LUMI_GPU_TIMELINE_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

namespace lumi
{

/** Cumulative counters captured at one sample point. */
struct TimelineSample
{
    uint64_t cycle = 0;
    uint64_t instructions = 0;
    uint64_t l1Reads = 0;
    uint64_t l1Misses = 0;
    uint64_t rtWarpCycles = 0;
};

/** Windowed (delta) view of one sample interval. */
struct TimelineWindow
{
    uint64_t cycleStart = 0;
    uint64_t cycleEnd = 0;
    double ipc = 0.0;
    double l1MissRate = 0.0;
    double rtWarpsPerUnit = 0.0;

    /** Run-report and CSV field list: @p visit(key, field). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&visit)
    {
        visit("cycle_start", self.cycleStart);
        visit("cycle_end", self.cycleEnd);
        visit("ipc", self.ipc);
        visit("l1d_miss_rate", self.l1MissRate);
        visit("rt_warps_per_unit", self.rtWarpsPerUnit);
    }
};

/** Records cumulative samples on a fixed cycle grid. */
class Timeline
{
  public:
    explicit Timeline(uint64_t sample_interval = 10000)
        : interval_(sample_interval)
    {
    }

    uint64_t interval() const { return interval_; }

    /**
     * Record @p sample if @p cycle has crossed the next grid point.
     * Call with monotonically increasing cycles.
     */
    void
    record(uint64_t cycle, const TimelineSample &sample)
    {
        if (samples_.empty() || cycle >= nextSample_) {
            TimelineSample s = sample;
            s.cycle = cycle;
            samples_.push_back(s);
            nextSample_ = cycle + interval_;
        }
    }

    const std::vector<TimelineSample> &samples() const
    {
        return samples_;
    }

    /** Per-window deltas over @p rt_units RT units. */
    std::vector<TimelineWindow>
    windows(int rt_units) const
    {
        std::vector<TimelineWindow> out;
        for (size_t i = 1; i < samples_.size(); i++) {
            const TimelineSample &a = samples_[i - 1];
            const TimelineSample &b = samples_[i];
            uint64_t dc = b.cycle - a.cycle;
            if (dc == 0)
                continue;
            TimelineWindow w;
            w.cycleStart = a.cycle;
            w.cycleEnd = b.cycle;
            w.ipc = static_cast<double>(b.instructions -
                                        a.instructions) /
                    dc;
            uint64_t reads = b.l1Reads - a.l1Reads;
            w.l1MissRate = reads > 0
                               ? static_cast<double>(b.l1Misses -
                                                     a.l1Misses) /
                                     reads
                               : 0.0;
            w.rtWarpsPerUnit = rt_units > 0
                                   ? static_cast<double>(
                                         b.rtWarpCycles -
                                         a.rtWarpCycles) /
                                         (static_cast<double>(dc) *
                                          rt_units)
                                   : 0.0;
            out.push_back(w);
        }
        return out;
    }

  private:
    uint64_t interval_;
    uint64_t nextSample_ = 0;
    std::vector<TimelineSample> samples_;
};

/**
 * AerialVision-style CSV dump of @p windows: one row per window with
 * IPC, L1D miss rate and RT-unit residency (the Fig. 6 series).
 * @return true on success
 */
inline bool
writeTimelineCsv(const std::string &path,
                 const std::vector<TimelineWindow> &windows)
{
    FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    // The header line names the fields; each row prints them.
    auto line = [&](const TimelineWindow &window, bool header) {
        const char *sep = "";
        TimelineWindow::fields(window, [&](const char *key, auto field) {
            if (header)
                std::fprintf(file, "%s%s", sep, key);
            else if constexpr (std::is_floating_point_v<decltype(field)>)
                std::fprintf(file, "%s%.6f", sep, field);
            else
                std::fprintf(file, "%s%" PRIu64, sep, field);
            sep = ",";
        });
        std::fputc('\n', file);
    };
    line(TimelineWindow{}, true);
    for (const TimelineWindow &window : windows)
        line(window, false);
    bool ok = !std::ferror(file);
    return std::fclose(file) == 0 && ok;
}

} // namespace lumi

#endif // LUMI_GPU_TIMELINE_HH
