#include "sim/stat_sampler.hh"

#include <cinttypes>
#include <cstdio>

namespace ctg
{

namespace
{

std::string
formatSample(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
StatSampler::sample(Tick now)
{
    ctg_assert(ticks_.empty() || now >= ticks_.back());
    if (registry_->size() == 0) {
        warn_once("StatSampler::sample on an empty registry; "
                  "snapshots will carry no values");
    }

    const std::size_t prior = ticks_.size();
    ticks_.push_back(now);
    for (std::size_t i = 0; i < registry_->size(); ++i) {
        const Stat &stat = registry_->at(i);
        auto it = columnByName_.find(stat.name());
        if (it == columnByName_.end()) {
            // Late registration: back-fill earlier snapshots.
            columnByName_.emplace(stat.name(), columns_.size());
            names_.push_back(stat.name());
            columns_.emplace_back(prior, 0.0);
            it = columnByName_.find(stat.name());
        }
        columns_[it->second].push_back(stat.value());
    }
    // Stats removed from the registry cannot happen (registration is
    // permanent), so every column is now ticks_.size() long.
}

const std::vector<double> *
StatSampler::series(const std::string &name) const
{
    const auto it = columnByName_.find(name);
    return it == columnByName_.end() ? nullptr
                                     : &columns_[it->second];
}

std::string
StatSampler::jsonLines() const
{
    std::string out;
    for (std::size_t row = 0; row < ticks_.size(); ++row) {
        char head[48];
        std::snprintf(head, sizeof(head), "{\"tick\":%" PRIu64
                      ",\"values\":{", ticks_[row]);
        out += head;
        for (std::size_t col = 0; col < columns_.size(); ++col) {
            if (col != 0)
                out += ",";
            out += "\"" + names_[col] +
                   "\":" + formatSample(columns_[col][row]);
        }
        out += "}}\n";
    }
    return out;
}

} // namespace ctg
