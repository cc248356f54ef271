/**
 * @file
 * Unified contiguity-metrics facade over one PhysMem.
 *
 * MemStats is the single read API for every paper metric (Figures 4,
 * 5, 6, 11, 12 and the Section 2.5 / 5.2 scalars). It answers from
 * the incremental ContigIndex — O(1) for whole-machine queries
 * instead of a full frame-array scan — and never walks the frames.
 *
 * The linear scanner loops (scan::reference) survive only as an audit
 * oracle: each double here is computed through the *same* arithmetic
 * over the same integer counts, so MemAuditor and the tests compare
 * the two bit for bit, not merely close.
 */

#ifndef CTG_MEM_MEM_STATS_HH
#define CTG_MEM_MEM_STATS_HH

#include <array>
#include <cstdint>

#include "base/types.hh"
#include "mem/physmem.hh"

namespace ctg
{

/** Value-type view over one PhysMem; cheap to construct per query
 * batch (e.g. one sampler tick). Obtain via PhysMem::stats(). */
class MemStats
{
  public:
    explicit MemStats(const PhysMem &mem) : mem_(&mem) {}

    /** Number of free 4 KB frames. */
    std::uint64_t freePages() const;
    std::uint64_t freePages(Pfn lo, Pfn hi) const;

    /** Count of fully-free aligned blocks of the given order. */
    std::uint64_t freeAlignedBlocks(unsigned order) const;
    std::uint64_t freeAlignedBlocks(Pfn lo, Pfn hi,
                                    unsigned order) const;

    /** Figure 4 metric: fraction of *free memory* sitting inside
     * fully-free aligned blocks of the given order. */
    double freeContiguityFraction(unsigned order) const;
    double freeContiguityFraction(Pfn lo, Pfn hi,
                                  unsigned order) const;

    /** Figure 5 / 11 metric: fraction of aligned blocks containing
     * at least one unmovable page. */
    double unmovableBlockFraction(unsigned order) const;
    double unmovableBlockFraction(Pfn lo, Pfn hi,
                                  unsigned order) const;

    /** Figure 12 metric: fraction of total memory in aligned blocks
     * with *no* unmovable page. */
    double potentialContiguityFraction(unsigned order) const;
    double potentialContiguityFraction(Pfn lo, Pfn hi,
                                       unsigned order) const;

    /** Section 2.5 scalar: unmovable pages / all pages. */
    double unmovablePageRatio() const;
    double unmovablePageRatio(Pfn lo, Pfn hi) const;

    /** Machine-wide unmovable page counts keyed by AllocSource
     * (Figure 6); the index keeps no per-range breakdown. */
    std::array<std::uint64_t, numAllocSources>
    unmovableBySource() const;

    /** Section 5.2 metric: mean free-page share of 2 MB blocks that
     * contain at least one unmovable page. */
    double meanFreeShareOfUnmovableBlocks() const;
    double meanFreeShareOfUnmovableBlocks(Pfn lo, Pfn hi) const;

  private:
    const ContigIndex &index() const { return mem_->contigIndex(); }

    const PhysMem *mem_;
};

} // namespace ctg

#endif // CTG_MEM_MEM_STATS_HH
