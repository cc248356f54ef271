#include "base/stat_registry.hh"

#include <cctype>
#include <cinttypes>
#include <cstdio>

namespace ctg
{

namespace
{

bool
validStatName(const std::string &name)
{
    if (name.empty())
        return false;
    for (const char c : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '.' || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

const char *
kindName(Stat::Kind kind)
{
    switch (kind) {
      case Stat::Kind::Counter:
        return "counter";
      case Stat::Kind::Gauge:
        return "gauge";
      case Stat::Kind::Distribution:
        return "distribution";
    }
    return "?";
}

/** Shortest round-trippable rendering of a double. */
std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

template <typename T, typename... Args>
T &
StatRegistry::add(const std::string &name, Args &&...args)
{
    if (!validStatName(name))
        panic("invalid stat name '%s'", name.c_str());
    if (byName_.count(name) != 0)
        panic("duplicate stat name '%s'", name.c_str());
    auto stat = std::make_unique<T>(name, std::forward<Args>(args)...);
    T &ref = *stat;
    byName_.emplace(name, stat.get());
    stats_.push_back(std::move(stat));
    return ref;
}

Counter &
StatRegistry::addCounter(const std::string &name, std::string desc)
{
    return add<Counter>(name, std::move(desc));
}

Gauge &
StatRegistry::addGauge(const std::string &name, Gauge::Source source,
                       std::string desc)
{
    ctg_assert(source);
    return add<Gauge>(name, std::move(desc), std::move(source));
}

Gauge &
StatRegistry::addSettableGauge(const std::string &name,
                               std::string desc)
{
    return add<Gauge>(name, std::move(desc));
}

Distribution &
StatRegistry::addDistribution(const std::string &name,
                              std::string desc)
{
    return add<Distribution>(name, std::move(desc));
}

const Stat *
StatRegistry::find(const std::string &name) const
{
    const auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : it->second;
}

Stat *
StatRegistry::find(const std::string &name)
{
    const auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : it->second;
}

void
StatRegistry::resetAll()
{
    for (const auto &stat : stats_)
        stat->reset();
}

std::string
StatRegistry::jsonLines() const
{
    std::string out;
    for (const auto &stat : stats_) {
        out += "{\"name\":\"" + stat->name() + "\",\"kind\":\"";
        out += kindName(stat->kind());
        out += "\"";
        if (stat->kind() == Stat::Kind::Distribution) {
            const auto &d = static_cast<const Distribution &>(*stat);
            char head[64];
            std::snprintf(head, sizeof(head),
                          ",\"count\":%" PRIu64, d.count());
            out += head;
            out += ",\"mean\":" + formatDouble(d.mean());
            out += ",\"min\":" + formatDouble(d.min());
            out += ",\"max\":" + formatDouble(d.max());
            out += ",\"stddev\":" + formatDouble(d.stddev());
        } else {
            out += ",\"value\":" + formatDouble(stat->value());
        }
        if (!stat->desc().empty())
            out += ",\"desc\":\"" + stat->desc() + "\"";
        out += "}\n";
    }
    return out;
}

} // namespace ctg
