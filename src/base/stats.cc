#include "base/stats.hh"

#include <cmath>

namespace ctg
{

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

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
    // Index floor(frac · (n − 1)) of the sorted sample multiset.
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

double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    ctg_assert(xs.size() == ys.size());
    ctg_assert(xs.size() >= 2);
    const auto n = static_cast<double>(xs.size());
    double sx = 0, sy = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sx += xs[i];
        sy += ys[i];
    }
    const double mx = sx / n;
    const double my = sy / n;
    double cov = 0, vx = 0, vy = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if (vx == 0.0 || vy == 0.0)
        return 0.0;
    return cov / std::sqrt(vx * vy);
}

} // namespace ctg
