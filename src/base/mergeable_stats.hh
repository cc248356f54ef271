/**
 * @file
 * Order-insensitive online statistics.
 *
 * The fleet studies build their CDFs by materializing one sample per
 * server (EmpiricalCdf keeps the raw vector and sorts on read). That
 * is O(servers × metrics) memory — fine at 60 servers, fatal at the
 * 10⁵–10⁶ fleets ROADMAP item 1 targets. OnlineHistogram is the
 * streaming replacement: a sorted value → count map that can be fed
 * incrementally (Fleet::run's per-server callback feeds
 * Fleet::ScanSinks) and asked the *same* questions with
 * bit-identical answers:
 *
 *  - quantile(f) returns the exact sample EmpiricalCdf::quantile
 *    would return for the same multiset (index floor(f·(n−1)) of the
 *    sorted samples) — not an approximation;
 *  - fractionAtOrBelow(x) matches EmpiricalCdf bit-for-bit;
 *  - count/min/max/mean/sum are computed on read by walking the map
 *    in sorted-value order, so they depend only on the *multiset* of
 *    samples — never on insertion order.
 *
 * That last property is the determinism contract: sinks fed from
 * the fleet callback match materialized CDFs at 1/4/8 threads
 * (test_parallel_fleet). Memory is
 * O(distinct values), which for scan metrics (ratios snapped by
 * discrete block counts) is far below O(servers).
 */

#ifndef CTG_BASE_MERGEABLE_STATS_HH
#define CTG_BASE_MERGEABLE_STATS_HH

#include <cstdint>
#include <map>

#include "base/logging.hh"

namespace ctg
{

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
     * sorted index floor(frac · (count − 1)) — the same sample
     * EmpiricalCdf::quantile returns. Asserts on an empty sink. */
    double quantile(double frac) const;

    /** Fraction of samples <= x (0 on an empty sink), matching
     * EmpiricalCdf::fractionAtOrBelow bit-for-bit. */
    double fractionAtOrBelow(double x) const;

    /** Sorted value → count map (tests and exporters). */
    const std::map<double, std::uint64_t> &buckets() const
    {
        return counts_;
    }

  private:
    std::map<double, std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace ctg

#endif // CTG_BASE_MERGEABLE_STATS_HH
