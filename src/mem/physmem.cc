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
    // Side table in canonical (key-sorted) order so images of equal
    // state are byte-identical regardless of insertion history.
    const auto entries = side_.sortedEntries();
    out.putU64(entries.size());
    for (const AllocSideTable::Entry &e : entries) {
        out.putU32(e.key);
        out.putU32(e.second);
    }
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
    const std::uint64_t entries = in.getU64();
    if (entries > meta.size())
        throw serde::Error("side table larger than frame table");
    AllocSideTable side(sideTableFloor(meta.size()));
    std::uint64_t prev_key = 0;
    for (std::uint64_t i = 0; i < entries; ++i) {
        const std::uint32_t key = in.getU32();
        const std::uint32_t second = in.getU32();
        if (key >= meta.size())
            throw serde::Error("side table key out of range");
        if (i > 0 && key <= prev_key)
            throw serde::Error("side table keys not sorted");
        prev_key = key;
        const std::uint16_t m = meta[key];
        if ((m & PageFrame::FlagFree) ||
            !(m & PageFrame::FlagHead))
            throw serde::Error(
                "side table key is not an allocated head");
        if (second == 0)
            throw serde::Error("side table entry is zero");
        side.set(key, second);
    }
    meta_ = std::move(meta);
    next_ = std::move(next);
    prev_ = std::move(prev);
    side_ = std::move(side);
}

void
PhysMem::saveTo(serde::Writer &out) const
{
    out.putU64(numFrames_);
    frames_.saveTo(out);
    out.putPodVector(blockMt_);
    out.putU32(nowSeconds);
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
    nowSeconds = in.getU32();
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
