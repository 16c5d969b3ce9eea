#include "trace/interval.hh"

#include <algorithm>

#include "trace/json.hh"

namespace lumi
{

int
IntervalSeries::seriesIndex(const std::string &name) const
{
    auto it = std::lower_bound(names.begin(), names.end(), name);
    if (it == names.end() || *it != name)
        return -1;
    return static_cast<int>(it - names.begin());
}

std::string
IntervalSeries::toJson() const
{
    JsonWriter json;
    json.beginObject();
    json.key("interval");
    json.value(interval);
    json.key("cycles");
    json.beginArray();
    for (uint64_t cycle : cycles)
        json.value(cycle);
    json.endArray();

    auto constant = [&](size_t s) {
        for (uint64_t v : values[s]) {
            if (v != values[s][0])
                return false;
        }
        return true;
    };

    json.key("series");
    json.beginObject();
    for (size_t s = 0; s < names.size(); s++) {
        if (constant(s))
            continue;
        json.key(names[s]);
        json.beginArray();
        for (uint64_t v : values[s])
            json.value(v);
        json.endArray();
    }
    json.endObject();

    json.key("constant");
    json.beginObject();
    for (size_t s = 0; s < names.size(); s++) {
        if (!constant(s))
            continue;
        json.key(names[s]);
        json.value(values[s].empty() ? 0 : values[s][0]);
    }
    json.endObject();
    json.endObject();
    return json.str();
}

bool
IntervalSeries::fromJson(JsonRef doc, IntervalSeries &out)
{
    if (!doc.isObject())
        return false;
    IntervalSeries series;
    JsonRef varying = doc.find("series");
    JsonRef constant = doc.find("constant");
    if (!doc.find("interval").readCounter(series.interval) ||
        !doc.find("cycles").readCounters(series.cycles) ||
        !varying.isObject() || !constant.isObject())
        return false;
    size_t samples = series.cycles.size();
    size_t count = varying.size() + constant.size();
    series.names.reserve(count);
    series.values.reserve(count);

    // Merge the varying matrix and the compacted constants back into
    // one name list. Both sections are written sorted and disjoint,
    // so the merge must come out strictly increasing; a duplicated
    // or unsorted name fails.
    JsonMembers vs = varying.members();
    JsonMembers cs = constant.members();
    auto v = vs.begin();
    auto c = cs.begin();
    std::string vname;
    std::string cname;
    std::string_view vkey;
    std::string_view ckey;
    if (v != vs.end())
        vkey = (*v).key.string(vname);
    if (c != cs.end())
        ckey = (*c).key.string(cname);
    while (v != vs.end() || c != cs.end()) {
        bool take_varying =
            v != vs.end() && (c == cs.end() || vkey < ckey);
        std::string_view key = take_varying ? vkey : ckey;
        if (!series.names.empty() && key <= series.names.back())
            return false;
        series.names.emplace_back(key);
        std::vector<uint64_t> &column = series.values.emplace_back();
        if (take_varying) {
            if (!(*v).value.readCounters(column) ||
                column.size() != samples)
                return false;
            if (++v != vs.end())
                vkey = (*v).key.string(vname);
        } else {
            uint64_t value = 0;
            if (!(*c).value.readCounter(value))
                return false;
            column.assign(samples, value);
            if (++c != cs.end())
                ckey = (*c).key.string(cname);
        }
    }
    out = std::move(series);
    return true;
}

IntervalSampler::IntervalSampler(uint64_t interval)
    : interval_(interval > 0 ? interval : 1)
{
    series_.interval = interval_;
}

void
IntervalSampler::sampleFinal(uint64_t cycle)
{
    capture(cycle);
}

void
IntervalSampler::capture(uint64_t cycle)
{
    // Idempotent per cycle: a final sample at a grid point (or two
    // back-to-back launches ending on the same cycle) records once.
    if (!series_.cycles.empty() && series_.cycles.back() == cycle) {
        next_ = (cycle / interval_ + 1) * interval_;
        return;
    }
    if (series_.names.empty()) {
        series_.names = registry_.counterNames();
        series_.values.resize(series_.names.size());
    }
    series_.cycles.push_back(cycle);
    for (size_t s = 0; s < series_.names.size(); s++)
        series_.values[s].push_back(
            registry_.counterValue(series_.names[s]));
    next_ = (cycle / interval_ + 1) * interval_;
}

} // namespace lumi
