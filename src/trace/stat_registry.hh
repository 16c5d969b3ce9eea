/**
 * @file
 * gem5-style named statistics registry.
 *
 * Simulator components keep their counters in plain structs (cheap
 * increments, no indirection on the hot path) and *register* those
 * fields here under hierarchical dotted names — "sm03.l1d.misses",
 * "dram.row_hits" — so every consumer (bench binaries, the CLI's
 * --stats-json dump, external analysis scripts) reads one uniform
 * namespace instead of re-deriving values from struct layouts.
 *
 * Three node kinds:
 *  - Counter: a live pointer to a uint64_t field;
 *  - Distribution: count/sum/min/max summary owned by a component;
 *  - Formula: a derived value evaluated lazily at dump time.
 *
 * Entries hold pointers into the registered components, so the
 * registry must not outlive them; build it, dump it, drop it.
 */

#ifndef LUMI_TRACE_STAT_REGISTRY_HH
#define LUMI_TRACE_STAT_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace lumi
{

/** Streaming summary of sampled values (no per-sample storage). */
class StatDistribution
{
  public:
    void
    record(double value)
    {
        if (count_ == 0 || value < min_)
            min_ = value;
        if (count_ == 0 || value > max_)
            max_ = value;
        sum_ += value;
        count_++;
    }

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ > 0 ? min_ : 0.0; }
    double max() const { return count_ > 0 ? max_ : 0.0; }

    double
    mean() const
    {
        return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
    }

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Hierarchically named counters, distributions and formulas. */
class StatRegistry
{
  public:
    enum class Kind { Counter, Distribution, Formula };

    /**
     * Register a live counter. @return false (and ignore the entry)
     * if @p name is already taken — names must be unique.
     */
    bool addCounter(const std::string &name, const uint64_t *value,
                    const std::string &desc = "");

    /** Register a distribution summary. */
    bool addDistribution(const std::string &name,
                         const StatDistribution *dist,
                         const std::string &desc = "");

    /** Register a derived value, evaluated at read time. */
    bool addFormula(const std::string &name,
                    std::function<double()> formula,
                    const std::string &desc = "");

    bool has(const std::string &name) const;
    size_t size() const { return entries_.size(); }

    /**
     * Current value of @p name: the counter reading, the
     * distribution mean, or the evaluated formula. NaN if unknown.
     */
    double value(const std::string &name) const;

    /**
     * Write @p value back through a registered counter binding.
     * This is the rehydration path: the campaign result cache
     * registers a result's counter structs under the same names the
     * dump used, then restores saved values through those bindings,
     * so the name->field mapping can never drift from the forward
     * registration. False if @p name is not a registered counter.
     */
    bool setCounter(const std::string &name, uint64_t value);

    /** All registered names, lexicographically sorted. */
    std::vector<std::string> names() const;

    /**
     * Names of Counter-kind entries only, lexicographically sorted.
     * This is the time-series surface: counters are exact integers
     * that difference cleanly between snapshots, while formulas are
     * derived (recomputable from the counters) and distributions are
     * not time-decomposable.
     */
    std::vector<std::string> counterNames() const;

    /**
     * Raw reading of a registered counter, without the double detour
     * of value(). @p fallback when @p name is not a counter.
     */
    uint64_t counterValue(const std::string &name,
                          uint64_t fallback = 0) const;

    /**
     * Serialize as one flat JSON object: counters as integers,
     * formulas as numbers, distributions as
     * {"count","sum","min","max","mean"} sub-objects. Keys sorted.
     */
    std::string toJson() const;

  private:
    struct Entry
    {
        std::string name;
        std::string desc;
        Kind kind = Kind::Counter;
        const uint64_t *counter = nullptr;
        const StatDistribution *dist = nullptr;
        std::function<double()> formula;
    };

    bool insert(Entry &&entry);

    std::vector<Entry> entries_;
    std::unordered_map<std::string, size_t> index_;
};

} // namespace lumi

#endif // LUMI_TRACE_STAT_REGISTRY_HH
