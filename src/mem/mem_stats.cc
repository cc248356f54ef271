#include "mem/mem_stats.hh"

#include "base/logging.hh"
#include "mem/scanner.hh"

namespace ctg
{

namespace
{

/** Align lo up and hi down to the block size; returns false if the
 * range contains no aligned block. Mirrors scan::reference exactly so
 * the audit oracle trims identically. */
bool
alignRange(Pfn &lo, Pfn &hi, unsigned order)
{
    const Pfn span = Pfn{1} << order;
    lo = (lo + span - 1) & ~(span - 1);
    hi = hi & ~(span - 1);
    return lo < hi;
}

} // namespace

std::uint64_t
MemStats::freePages() const
{
    return freePages(0, mem_->numFrames());
}

std::uint64_t
MemStats::freePages(Pfn lo, Pfn hi) const
{
    return index().freePagesIn(lo, hi);
}

std::uint64_t
MemStats::freeAlignedBlocks(unsigned order) const
{
    return freeAlignedBlocks(0, mem_->numFrames(), order);
}

std::uint64_t
MemStats::freeAlignedBlocks(Pfn lo, Pfn hi, unsigned order) const
{
    if (!alignRange(lo, hi, order))
        return 0;
    return index().fullyFreeBlocksIn(lo, hi, order);
}

double
MemStats::freeContiguityFraction(unsigned order) const
{
    return freeContiguityFraction(0, mem_->numFrames(), order);
}

double
MemStats::freeContiguityFraction(Pfn lo, Pfn hi,
                                 unsigned order) const
{
    const std::uint64_t free_total = freePages(lo, hi);
    if (free_total == 0)
        return 0.0;
    const std::uint64_t blocks = freeAlignedBlocks(lo, hi, order);
    const std::uint64_t pages_in_blocks = blocks << order;
    return static_cast<double>(pages_in_blocks) /
           static_cast<double>(free_total);
}

double
MemStats::unmovableBlockFraction(unsigned order) const
{
    return unmovableBlockFraction(0, mem_->numFrames(), order);
}

double
MemStats::unmovableBlockFraction(Pfn lo, Pfn hi,
                                 unsigned order) const
{
    if (!alignRange(lo, hi, order))
        return 0.0;
    const std::uint64_t total = (hi - lo) >> order;
    const std::uint64_t tainted =
        index().taintedBlocksIn(lo, hi, order);
    return static_cast<double>(tainted) / static_cast<double>(total);
}

double
MemStats::potentialContiguityFraction(unsigned order) const
{
    return potentialContiguityFraction(0, mem_->numFrames(), order);
}

double
MemStats::potentialContiguityFraction(Pfn lo, Pfn hi,
                                      unsigned order) const
{
    const Pfn range_pages = hi - lo;
    if (range_pages == 0)
        return 0.0;
    Pfn alo = lo, ahi = hi;
    if (!alignRange(alo, ahi, order))
        return 0.0;
    const std::uint64_t total = (ahi - alo) >> order;
    const std::uint64_t tainted =
        index().taintedBlocksIn(alo, ahi, order);
    const std::uint64_t clean_pages = (total - tainted) << order;
    return static_cast<double>(clean_pages) /
           static_cast<double>(range_pages);
}

double
MemStats::unmovablePageRatio() const
{
    return unmovablePageRatio(0, mem_->numFrames());
}

double
MemStats::unmovablePageRatio(Pfn lo, Pfn hi) const
{
    ctg_assert(hi > lo);
    const std::uint64_t unmovable = index().unmovablePagesIn(lo, hi);
    return static_cast<double>(unmovable) /
           static_cast<double>(hi - lo);
}

std::array<std::uint64_t, numAllocSources>
MemStats::unmovableBySource() const
{
    return index().unmovableBySource();
}

double
MemStats::meanFreeShareOfUnmovableBlocks() const
{
    return meanFreeShareOfUnmovableBlocks(0, mem_->numFrames());
}

double
MemStats::meanFreeShareOfUnmovableBlocks(Pfn lo, Pfn hi) const
{
    Pfn alo = lo, ahi = hi;
    if (!alignRange(alo, ahi, scan::order2M))
        return 0.0;
    const Pfn span = Pfn{1} << scan::order2M;
    const ContigIndex &idx = index();
    std::uint64_t blocks = 0;
    double free_share_sum = 0.0;
    // Same ascending block order as the reference loop, so the double
    // accumulation rounds identically.
    for (std::uint64_t i = alo >> scan::order2M;
         i < (ahi >> scan::order2M); ++i) {
        if (idx.nodeUnmovablePages(scan::order2M, i) == 0)
            continue;
        ++blocks;
        free_share_sum +=
            static_cast<double>(idx.nodeFreePages(scan::order2M, i)) /
            static_cast<double>(span);
    }
    return blocks ? free_share_sum / static_cast<double>(blocks) : 0.0;
}

} // namespace ctg
