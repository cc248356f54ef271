#include "base/mergeable_stats.hh"

#include <cmath>

namespace ctg
{

void
OnlineHistogram::add(double value, std::uint64_t weight)
{
    ctg_assert(!std::isnan(value));
    if (weight == 0)
        return;
    counts_[value] += weight;
    total_ += weight;
}

double
OnlineHistogram::min() const
{
    return total_ != 0 ? counts_.begin()->first : 0.0;
}

double
OnlineHistogram::max() const
{
    return total_ != 0 ? counts_.rbegin()->first : 0.0;
}

double
OnlineHistogram::sum() const
{
    // Sorted-order walk: the result depends only on the multiset,
    // not on insertion order.
    double sum = 0.0;
    for (const auto &entry : counts_)
        sum += entry.first * static_cast<double>(entry.second);
    return sum;
}

double
OnlineHistogram::mean() const
{
    return total_ != 0 ? sum() / static_cast<double>(total_) : 0.0;
}

double
OnlineHistogram::quantile(double frac) const
{
    ctg_assert(total_ != 0);
    ctg_assert(frac >= 0.0 && frac <= 1.0);
    // The sorted-multiset index EmpiricalCdf::quantile reads.
    const auto idx = static_cast<std::uint64_t>(
        frac * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (const auto &entry : counts_) {
        seen += entry.second;
        if (seen > idx)
            return entry.first;
    }
    return counts_.rbegin()->first;
}

double
OnlineHistogram::fractionAtOrBelow(double x) const
{
    if (total_ == 0)
        return 0.0;
    std::uint64_t seen = 0;
    for (auto it = counts_.begin();
         it != counts_.end() && !(x < it->first); ++it)
        seen += it->second;
    return static_cast<double>(seen) / static_cast<double>(total_);
}

} // namespace ctg
