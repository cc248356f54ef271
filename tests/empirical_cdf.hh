/**
 * @file
 * Test oracle for OnlineHistogram: the empirical CDF of a plain
 * sample vector, sorted on read. OnlineHistogram must give the same
 * answers bit for bit (quantile = sorted sample at index
 * floor(frac · (n − 1)), fractionAtOrBelow = share of samples <= x),
 * so the fig04/fig05 tables it renders are the textbook CDF.
 */

#ifndef CTG_TESTS_EMPIRICAL_CDF_HH
#define CTG_TESTS_EMPIRICAL_CDF_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "base/logging.hh"

namespace ctg
{

class EmpiricalCdf
{
  public:
    void add(double x) { samples_.push_back(x); }

    std::size_t count() const { return samples_.size(); }

    /** Fraction of samples <= x. */
    double
    fractionAtOrBelow(double x) const
    {
        if (samples_.empty())
            return 0.0;
        const std::vector<double> sorted = sortedSamples();
        const auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
        return static_cast<double>(it - sorted.begin()) /
               static_cast<double>(sorted.size());
    }

    /** Inverse CDF: the sorted sample at index floor(frac · (n − 1)). */
    double
    quantile(double frac) const
    {
        ctg_assert(!samples_.empty());
        ctg_assert(frac >= 0.0 && frac <= 1.0);
        const auto idx = static_cast<std::size_t>(
            frac * static_cast<double>(samples_.size() - 1));
        return sortedSamples()[idx];
    }

  private:
    std::vector<double>
    sortedSamples() const
    {
        std::vector<double> sorted = samples_;
        std::sort(sorted.begin(), sorted.end());
        return sorted;
    }

    std::vector<double> samples_;
};

} // namespace ctg

#endif // CTG_TESTS_EMPIRICAL_CDF_HH
