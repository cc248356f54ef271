/**
 * @file
 * Machine-wide physical memory state shared by all allocators.
 *
 * PhysMem owns the frame metadata array and the per-pageblock
 * migratetype tags (2 MB pageblocks, like Linux). Buddy allocator
 * instances cover disjoint PFN ranges of a single PhysMem; the
 * Contiguitas region manager splits one PhysMem between a movable and
 * an unmovable allocator and moves the boundary between them.
 *
 * PhysMem also owns the ContigIndex, the incremental contiguity
 * accounting structure (DESIGN.md §11). Any code that mutates the
 * free/unmovable/pinned/source state of frames must publish the
 * touched range via noteFramesChanged() — the buddy allocator does so
 * for all alloc/free/attach paths, and pin changes go through
 * setRangePinned()/setBlockPinned(). Metric reads go through the
 * MemStats facade returned by stats().
 */

#ifndef CTG_MEM_PHYSMEM_HH
#define CTG_MEM_PHYSMEM_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "mem/contig_index.hh"
#include "mem/frame.hh"
#include "mem/migratetype.hh"

namespace ctg
{

class MemStats;

/** Shared physical memory state of one simulated server. */
class PhysMem
{
  public:
    /** Construct a machine with the given memory capacity. Capacity
     * must be a whole number of pageblocks (2 MB). */
    explicit PhysMem(std::uint64_t bytes);

    // The ContigIndex holds a reference to the frame array.
    PhysMem(const PhysMem &) = delete;
    PhysMem &operator=(const PhysMem &) = delete;

    std::uint64_t totalBytes() const { return numFrames_ * pageBytes; }
    std::uint64_t numFrames() const { return numFrames_; }
    std::uint64_t numPageblocks() const { return blockMt_.size(); }

    FrameArray &frames() { return frames_; }
    const FrameArray &frames() const { return frames_; }

    FrameArray::FrameRef frame(Pfn pfn) { return frames_.frame(pfn); }

    FrameArray::ConstFrameRef
    frame(Pfn pfn) const
    {
        return frames_.frame(pfn);
    }

    /** Pageblock index containing a PFN. */
    static std::uint64_t
    blockIndex(Pfn pfn)
    {
        return pfn >> hugeOrder;
    }

    /** Migratetype tag of the pageblock containing pfn. */
    MigrateType
    blockMt(Pfn pfn) const
    {
        return blockMt_[blockIndex(pfn)];
    }

    void
    setBlockMt(Pfn pfn, MigrateType mt)
    {
        blockMt_[blockIndex(pfn)] = mt;
    }

    /** @{ Incremental contiguity accounting. */

    /** Metric read facade (defined in mem/mem_stats.hh). */
    MemStats stats() const;

    const ContigIndex &contigIndex() const { return index_; }

    /** Publish frame-state changes in [lo, hi) to the index. */
    void noteFramesChanged(Pfn lo, Pfn hi) { index_.resync(lo, hi); }

    /** Pin or unpin every frame in [lo, hi), keeping the index
     * exact. Use instead of raw frame(pfn).setPinned(). */
    void setRangePinned(Pfn lo, Pfn hi, bool pinned);

    /** Pin or unpin an allocated block given its head frame. */
    void setBlockPinned(Pfn head, bool pinned);

    /** When true (default off; Server::Config::exactPref), AddrPref
     * allocations pick the exact lowest/highest-address free block
     * via an index descent instead of the capped free-list scan. This
     * deliberately changes placement — it strengthens the
     * away-from-border bias — so it has its own flag and its own
     * figure-regression check. */
    bool exactAddrPref() const { return exactPref_; }
    void setExactAddrPref(bool on) { exactPref_ = on; }

    /** @} */

    /** Serialize frames, links and pageblock tags. The
     * ContigIndex is deliberately NOT serialized: it is derived
     * state, marked for a full rebuild from the restored frames in
     * loadFrom() (and cross-checked against a reference scan by the
     * MemAuditor before a restored server may run). */
    void saveTo(serde::Writer &out) const;

    /** Overwrite from a snapshot taken of an identically-sized
     * machine; throws serde::Error on any mismatch. */
    void loadFrom(serde::Reader &in);

  private:
    std::uint64_t numFrames_;
    FrameArray frames_;
    std::vector<MigrateType> blockMt_;
    ContigIndex index_;
    bool exactPref_ = false;
};

} // namespace ctg

#endif // CTG_MEM_PHYSMEM_HH
