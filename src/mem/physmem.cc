#include "mem/physmem.hh"

#include "base/logging.hh"
#include "base/serde.hh"
#include "mem/mem_stats.hh"

namespace ctg
{

// Column-wise serialization of the struct-of-arrays frame table.
// Any change here is a snapshot format change (bump
// snapshot::formatVersion).
static_assert(sizeof(MigrateType) == 1);

void
FrameArray::saveTo(serde::Writer &out) const
{
    out.putPodVector(meta_);
    // The link columns carry the free lists *and* the overlaid owner
    // handles of allocated heads — one dump restores both.
    out.putPodVector(next_);
    out.putPodVector(prev_);
}

void
FrameArray::loadFrom(serde::Reader &in)
{
    std::vector<std::uint16_t> meta =
        in.getPodVector<std::uint16_t>();
    std::vector<std::uint32_t> next =
        in.getPodVector<std::uint32_t>();
    std::vector<std::uint32_t> prev =
        in.getPodVector<std::uint32_t>();
    if (meta.size() != meta_.size() || next.size() != meta.size() ||
        prev.size() != meta.size())
        throw serde::Error("frame table size mismatch");
    for (std::size_t i = 0; i < meta.size(); ++i) {
        const std::uint16_t m = meta[i];
        // Valid block orders: 0..maxOrder (buddy) plus gigaOrder
        // (contiguous-range gigantic allocations).
        const unsigned order =
            (m >> metaOrderShift) & metaOrderMask;
        if (order > maxOrder && order != gigaOrder)
            throw serde::Error("frame order out of range");
        if (m & metaSpareMask)
            throw serde::Error("unknown frame flag bits");
        const unsigned src = (m >> metaSrcShift) & metaSrcMask;
        if (src >= numAllocSources)
            throw serde::Error("frame alloc source out of range");
        // Every deserialized link index the restored free lists can
        // traverse must be in-table (or nil) *before* the buddy
        // walks them — a CRC-passed payload is not a trusted
        // payload. Only free block heads are ever list members; the
        // link slots of other frames hold overlaid owner bits
        // (allocated heads) or stale history, neither of which is
        // ever dereferenced as a link.
        const bool traversable =
            (m & PageFrame::FlagFree) && (m & PageFrame::FlagHead);
        if (traversable &&
            ((next[i] != nil && next[i] >= meta.size()) ||
             (prev[i] != nil && prev[i] >= meta.size())))
            throw serde::Error("frame link out of range");
    }
    meta_ = std::move(meta);
    next_ = std::move(next);
    prev_ = std::move(prev);
}

void
PhysMem::saveTo(serde::Writer &out) const
{
    out.putU64(numFrames_);
    frames_.saveTo(out);
    out.putPodVector(blockMt_);
}

void
PhysMem::loadFrom(serde::Reader &in)
{
    if (in.getU64() != numFrames_)
        throw serde::Error("physmem frame count mismatch");
    frames_.loadFrom(in);
    std::vector<MigrateType> blockMt =
        in.getPodVector<MigrateType>();
    if (blockMt.size() != blockMt_.size())
        throw serde::Error("pageblock tag count mismatch");
    for (const MigrateType mt : blockMt)
        if (static_cast<unsigned>(mt) >= numMigrateTypes)
            throw serde::Error("pageblock migratetype out of range");
    blockMt_ = std::move(blockMt);
    // The index is derived state: rebuild it from the restored
    // frames so it is exact by construction.
    noteFramesChanged(0, numFrames_);
}

PhysMem::PhysMem(std::uint64_t bytes)
    : numFrames_(bytes / pageBytes),
      frames_(bytes / pageBytes),
      blockMt_((bytes / pageBytes) >> hugeOrder, MigrateType::Movable),
      index_(frames_)
{
    if (bytes == 0 || bytes % hugeBytes != 0)
        fatal("memory capacity must be a multiple of 2 MiB, got %llu",
              static_cast<unsigned long long>(bytes));
}

MemStats
PhysMem::stats() const
{
    return MemStats(*this);
}

void
PhysMem::setRangePinned(Pfn lo, Pfn hi, bool pinned)
{
    for (Pfn pfn = lo; pfn < hi; ++pfn)
        frames_.frame(pfn).setPinned(pinned);
    noteFramesChanged(lo, hi);
}

void
PhysMem::setBlockPinned(Pfn head, bool pinned)
{
    const auto hf = frames_.frame(head);
    ctg_assert(!hf.isFree() && hf.isHead());
    const Pfn count = Pfn{1} << hf.order();
    setRangePinned(head, head + count, pinned);
}

} // namespace ctg
