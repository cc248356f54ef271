/**
 * @file
 * Physical-memory scans reproducing the paper's measurement
 * methodology (Sections 2.4, 2.5, 5.2).
 *
 * The loop implementations live in scan::reference: full O(n) passes
 * over the frame array that serve as the ground truth the incremental
 * ContigIndex is audited against. Metric consumers use the MemStats
 * facade (PhysMem::stats()) directly; the deprecated top-level scan::*
 * wrappers have been removed.
 */

#ifndef CTG_MEM_SCANNER_HH
#define CTG_MEM_SCANNER_HH

#include <array>
#include <cstdint>

#include "base/types.hh"
#include "mem/physmem.hh"

namespace ctg
{
namespace scan
{

/** Orders of the block sizes the paper reports on. */
constexpr unsigned order2M = hugeOrder;       // 9
constexpr unsigned order4M = hugeOrder + 1;   // 10
constexpr unsigned order32M = hugeOrder + 4;  // 13
constexpr unsigned order1G = gigaOrder;       // 18

/**
 * Slow reference path: full frame-array scans, independent of the
 * ContigIndex. The audit oracle of the auditor cross-check and the
 * bit-identity tests; MemStats never calls it.
 */
namespace reference
{

std::uint64_t freePages(const PhysMem &mem, Pfn lo, Pfn hi);
double freeContiguityFraction(const PhysMem &mem, Pfn lo, Pfn hi,
                              unsigned order);
std::uint64_t freeAlignedBlocks(const PhysMem &mem, Pfn lo, Pfn hi,
                                unsigned order);
/** Count of aligned blocks containing >= 1 unmovable page. */
std::uint64_t unmovableAlignedBlocks(const PhysMem &mem, Pfn lo,
                                     Pfn hi, unsigned order);
double unmovableBlockFraction(const PhysMem &mem, Pfn lo, Pfn hi,
                              unsigned order);
double potentialContiguityFraction(const PhysMem &mem, Pfn lo, Pfn hi,
                                   unsigned order);
double unmovablePageRatio(const PhysMem &mem, Pfn lo, Pfn hi);
std::array<std::uint64_t, numAllocSources>
unmovableBySource(const PhysMem &mem, Pfn lo, Pfn hi);
double meanFreeShareOfUnmovableBlocks(const PhysMem &mem, Pfn lo,
                                      Pfn hi);

} // namespace reference

} // namespace scan
} // namespace ctg

#endif // CTG_MEM_SCANNER_HH
