#include "trace/stat_registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "trace/json.hh"

namespace lumi
{

bool
StatRegistry::insert(Entry &&entry)
{
    if (index_.count(entry.name)) {
        std::fprintf(stderr,
                     "lumi: duplicate stat name '%s' ignored\n",
                     entry.name.c_str());
        return false;
    }
    index_[entry.name] = entries_.size();
    entries_.push_back(std::move(entry));
    return true;
}

bool
StatRegistry::addCounter(const std::string &name,
                         const uint64_t *value,
                         const std::string &desc)
{
    Entry entry;
    entry.name = name;
    entry.desc = desc;
    entry.kind = Kind::Counter;
    entry.counter = value;
    return insert(std::move(entry));
}

bool
StatRegistry::addDistribution(const std::string &name,
                              const StatDistribution *dist,
                              const std::string &desc)
{
    Entry entry;
    entry.name = name;
    entry.desc = desc;
    entry.kind = Kind::Distribution;
    entry.dist = dist;
    return insert(std::move(entry));
}

bool
StatRegistry::addFormula(const std::string &name,
                         std::function<double()> formula,
                         const std::string &desc)
{
    Entry entry;
    entry.name = name;
    entry.desc = desc;
    entry.kind = Kind::Formula;
    entry.formula = std::move(formula);
    return insert(std::move(entry));
}

bool
StatRegistry::has(const std::string &name) const
{
    return index_.count(name) != 0;
}

double
StatRegistry::value(const std::string &name) const
{
    auto it = index_.find(name);
    if (it == index_.end())
        return std::nan("");
    const Entry &entry = entries_[it->second];
    switch (entry.kind) {
      case Kind::Counter:
        return static_cast<double>(*entry.counter);
      case Kind::Distribution:
        return entry.dist->mean();
      case Kind::Formula:
        return entry.formula ? entry.formula() : std::nan("");
    }
    return std::nan("");
}

bool
StatRegistry::setCounter(const std::string &name, uint64_t value)
{
    auto it = index_.find(name);
    if (it == index_.end())
        return false;
    const Entry &entry = entries_[it->second];
    if (entry.kind != Kind::Counter || !entry.counter)
        return false;
    // Counters are registered by address from mutable structs; the
    // const in the binding only promises the *registry* won't write
    // during a dump. Rehydration is the sanctioned writer.
    *const_cast<uint64_t *>(entry.counter) = value;
    return true;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &entry : entries_)
        out.push_back(entry.name);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::string>
StatRegistry::counterNames() const
{
    std::vector<std::string> out;
    for (const Entry &entry : entries_) {
        if (entry.kind == Kind::Counter && entry.counter)
            out.push_back(entry.name);
    }
    std::sort(out.begin(), out.end());
    return out;
}

uint64_t
StatRegistry::counterValue(const std::string &name,
                           uint64_t fallback) const
{
    auto it = index_.find(name);
    if (it == index_.end())
        return fallback;
    const Entry &entry = entries_[it->second];
    if (entry.kind != Kind::Counter || !entry.counter)
        return fallback;
    return *entry.counter;
}

std::string
StatRegistry::toJson() const
{
    // Sort by name so dumps diff cleanly across runs.
    std::vector<const Entry *> sorted;
    sorted.reserve(entries_.size());
    for (const Entry &entry : entries_)
        sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry *a, const Entry *b) {
                  return a->name < b->name;
              });

    JsonWriter json;
    json.beginObject();
    for (const Entry *entry : sorted) {
        json.key(entry->name);
        switch (entry->kind) {
          case Kind::Counter:
            json.value(*entry->counter);
            break;
          case Kind::Distribution:
            json.beginObject();
            json.key("count");
            json.value(entry->dist->count());
            json.key("sum");
            json.value(entry->dist->sum());
            json.key("min");
            json.value(entry->dist->min());
            json.key("max");
            json.value(entry->dist->max());
            json.key("mean");
            json.value(entry->dist->mean());
            json.endObject();
            break;
          case Kind::Formula:
            json.value(entry->formula ? entry->formula()
                                      : std::nan(""));
            break;
        }
    }
    json.endObject();
    return json.str();
}

} // namespace lumi
