/**
 * @file
 * Statistics primitives used across the simulator and the experiment
 * harnesses: streaming mean/variance, the exact streaming CDF the
 * fleet figures render, and the Pearson correlation used by the
 * Section 2.4 uptime study.
 */

#ifndef CTG_BASE_STATS_HH
#define CTG_BASE_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "base/logging.hh"

namespace ctg
{

/** Streaming mean / variance accumulator (Welford's algorithm). */
class RunningStat
{
  public:
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 1e300;
    double max_ = -1e300;
};

/**
 * Exact CDF of a per-server metric, fed one sample at a time: a
 * sorted value -> count map. The fleet figures (4 and 5) render it
 * as "fraction of servers with value <= x", and fleet_scale folds
 * Fleet::run's per-server callback into it without keeping the
 * scans. Memory is O(distinct values), which for scan metrics
 * (ratios snapped by discrete block counts) is far below O(servers).
 *
 * Every read depends only on the multiset of samples, never on
 * insertion order: quantile and fractionAtOrBelow are exact (the
 * answers a sorted sample vector gives, bit for bit — the tests hold
 * one as the oracle), and sum/mean walk the map in sorted-value
 * order. So a histogram fed from a parallel fleet is identical at
 * every thread count.
 */
class OnlineHistogram
{
  public:
    /** Fold one sample (NaN is not a valid sample value). */
    void add(double value, std::uint64_t weight = 1);

    /** Total samples (sum of weights). */
    std::uint64_t count() const { return total_; }

    /** Distinct sample values retained (the memory footprint). */
    std::size_t distinct() const { return counts_.size(); }

    double min() const;
    double max() const;
    double sum() const;
    double mean() const;

    /** Exact inverse CDF over the sample multiset: the value at
     * sorted index floor(frac · (count − 1)). Asserts on an empty
     * histogram. */
    double quantile(double frac) const;

    /** Fraction of samples <= x (0 on an empty histogram). */
    double fractionAtOrBelow(double x) const;

  private:
    std::map<double, std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/** Pearson correlation coefficient of two equal-length series. */
double pearson(const std::vector<double> &xs,
               const std::vector<double> &ys);

} // namespace ctg

#endif // CTG_BASE_STATS_HH
