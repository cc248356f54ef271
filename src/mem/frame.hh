/**
 * @file
 * Per-page-frame metadata (struct page analogue) and the frame array.
 *
 * The FrameArray owns the metadata for every physical frame of a
 * simulated server plus the intrusive free-list links used by the
 * buddy allocator. It is stored struct-of-arrays: the hot per-frame
 * state (flags, block order, migratetype, allocation source) is
 * packed into one 16-bit word per frame and the 32-bit free-list
 * links stay in two parallel columns. The one cold allocation-era
 * field rides along at no cost: the link slots of an *allocated*
 * frame are dead (only free-list members are ever linked), so the
 * owner handle is overlaid onto the head frame's next/prev pair.
 * That makes the whole table a flat 10 bytes/frame — versus 24 for
 * the old array-of-structs layout — so 10^5-server
 * fleet populations fit on one box even when fragmented servers are
 * dense with order-0 allocations.
 *
 * Accessors hand out FrameRef/ConstFrameRef proxies instead of
 * references to a PageFrame struct; the method surface is the same,
 * so allocator/scanner/auditor code reads naturally and the packed
 * layout stays an implementation detail. PageFrame survives as the
 * materialized value type (FrameArray::get) for tests and reference
 * models.
 */

#ifndef CTG_MEM_FRAME_HH
#define CTG_MEM_FRAME_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "mem/migratetype.hh"

namespace ctg
{

namespace serde
{
class Writer;
class Reader;
} // namespace serde

/** Materialized per-frame metadata: the value type FrameArray::get
 * returns, and the reference model differential tests compare
 * against. Field meanings depend on the state bits: a frame is
 * either free (possibly the head of a buddy block) or allocated
 * (possibly the head of a multi-page allocation). */
struct PageFrame
{
    /** Opaque handle identifying the owner of an allocated page
     * (process/vpn for user pages, subsystem object for kernel). */
    std::uint64_t owner = 0;

    std::uint8_t flags = 0;
    std::uint8_t order = 0; //!< block order if head (free or allocated)
    MigrateType migrateType = MigrateType::Movable;
    AllocSource source = AllocSource::User;

    static constexpr std::uint8_t FlagFree = 1 << 0;
    static constexpr std::uint8_t FlagHead = 1 << 1;
    static constexpr std::uint8_t FlagPinned = 1 << 2;
    static constexpr std::uint8_t FlagMigrating = 1 << 3;

    bool isFree() const { return flags & FlagFree; }
    bool isHead() const { return flags & FlagHead; }
    bool isPinned() const { return flags & FlagPinned; }
    bool isMigrating() const { return flags & FlagMigrating; }

    void setFree(bool v) { setFlag(FlagFree, v); }
    void setHead(bool v) { setFlag(FlagHead, v); }
    void setPinned(bool v) { setFlag(FlagPinned, v); }
    void setMigrating(bool v) { setFlag(FlagMigrating, v); }

    /** An allocated frame counts as unmovable if its migratetype is
     * Unmovable/Reclaimable (kernel memory) or it is pinned. */
    bool
    isUnmovableAllocation() const
    {
        if (isFree())
            return false;
        return migrateType != MigrateType::Movable || isPinned();
    }

  private:
    void
    setFlag(std::uint8_t bit, bool v)
    {
        if (v)
            flags |= bit;
        else
            flags &= static_cast<std::uint8_t>(~bit);
    }
};

/**
 * Struct-of-arrays metadata for all frames of a simulated machine
 * plus intrusive doubly-linked free-list link storage.
 */
class FrameArray
{
  public:
    /** Link index sentinel meaning "end of list". */
    static constexpr std::uint32_t nil = 0xffffffffu;

    /** Packed meta word layout. Bits 0-3 mirror PageFrame's flag
     * byte, so flags() round-trips through get() unchanged. Valid
     * orders (0..maxOrder and gigaOrder) fit the 5-bit field; the two
     * spare bits must stay zero (loadFrom enforces it). */
    static constexpr std::uint16_t metaFlagsMask = 0x000f;
    static constexpr unsigned metaMtShift = 4;
    static constexpr std::uint16_t metaMtMask = 0x3;
    static constexpr unsigned metaSrcShift = 6;
    static constexpr std::uint16_t metaSrcMask = 0x7;
    static constexpr unsigned metaOrderShift = 9;
    static constexpr std::uint16_t metaOrderMask = 0x1f;
    static constexpr std::uint16_t metaSpareMask = 0xc000;

    /** Read-only proxy for one frame. Copy it freely — it is two
     * words. The owner read resolves lazily through the containing
     * block's head (every block is 2^order aligned, so the head is
     * the masked-down PFN) and its overlaid link slots. */
    class ConstFrameRef
    {
      public:
        bool isFree() const { return word() & PageFrame::FlagFree; }
        bool isHead() const { return word() & PageFrame::FlagHead; }
        bool
        isPinned() const
        {
            return word() & PageFrame::FlagPinned;
        }
        bool
        isMigrating() const
        {
            return word() & PageFrame::FlagMigrating;
        }

        std::uint8_t
        flags() const
        {
            return static_cast<std::uint8_t>(word() & metaFlagsMask);
        }

        unsigned
        order() const
        {
            return (word() >> metaOrderShift) & metaOrderMask;
        }

        MigrateType
        migrateType() const
        {
            return static_cast<MigrateType>((word() >> metaMtShift) &
                                            metaMtMask);
        }

        AllocSource
        source() const
        {
            return static_cast<AllocSource>((word() >> metaSrcShift) &
                                            metaSrcMask);
        }

        bool
        isUnmovableAllocation() const
        {
            const std::uint16_t m = word();
            if (m & PageFrame::FlagFree)
                return false;
            return ((m >> metaMtShift) & metaMtMask) !=
                       static_cast<std::uint16_t>(
                           MigrateType::Movable) ||
                   (m & PageFrame::FlagPinned);
        }

        /** Owner handle of the containing allocation; 0 when free
         * (the old layout reset it on free). Allocated frames are on
         * no free list, so the head's link slots hold the handle:
         * low half in next, high half in prev. */
        std::uint64_t
        owner() const
        {
            if (isFree())
                return 0;
            const Pfn h = headPfn();
            return (static_cast<std::uint64_t>(fa_->prev_[h]) << 32) |
                   fa_->next_[h];
        }

        Pfn pfn() const { return pfn_; }

      protected:
        friend class FrameArray;
        ConstFrameRef(const FrameArray *fa, Pfn pfn)
            : fa_(fa), pfn_(pfn)
        {
        }

        std::uint16_t word() const { return fa_->meta_[pfn_]; }

        /** Head PFN of the block containing this frame: itself when
         * it is the head, else the 2^order aligned base (allocations
         * stamp their order on every member frame). */
        Pfn
        headPfn() const
        {
            if (isHead())
                return pfn_;
            return pfn_ & ~((Pfn{1} << order()) - 1);
        }

        const FrameArray *fa_;
        Pfn pfn_;
    };

    /** Mutable proxy. The setters keep the mirror-image semantics of
     * the old struct fields: they read-modify-write only their own
     * bits, so state other code left behind (e.g. a stale order on a
     * free non-head frame) is preserved exactly as the AoS layout
     * preserved it. */
    class FrameRef : public ConstFrameRef
    {
      public:
        void setFree(bool v) { setFlag(PageFrame::FlagFree, v); }
        void setHead(bool v) { setFlag(PageFrame::FlagHead, v); }
        void setPinned(bool v) { setFlag(PageFrame::FlagPinned, v); }
        void
        setMigrating(bool v)
        {
            setFlag(PageFrame::FlagMigrating, v);
        }

        void
        setOrder(unsigned order)
        {
            ctg_assert(order <= metaOrderMask);
            mut() = static_cast<std::uint16_t>(
                (word() & ~(metaOrderMask << metaOrderShift)) |
                (order << metaOrderShift));
        }

        void
        setMigrateType(MigrateType mt)
        {
            mut() = static_cast<std::uint16_t>(
                (word() & ~(metaMtMask << metaMtShift)) |
                (static_cast<std::uint16_t>(mt) << metaMtShift));
        }

        void
        setSource(AllocSource src)
        {
            mut() = static_cast<std::uint16_t>(
                (word() & ~(metaSrcMask << metaSrcShift)) |
                (static_cast<std::uint16_t>(src) << metaSrcShift));
        }

        /** One-store transition to "allocated member of a block":
         * clears free/pinned/migrating, sets head as given, stamps
         * order/migratetype/source — the per-frame half of the old
         * markAllocated loop body. */
        void
        stampAllocated(unsigned order, MigrateType mt,
                       AllocSource src, bool head)
        {
            ctg_assert(order <= metaOrderMask);
            mut() = static_cast<std::uint16_t>(
                (head ? PageFrame::FlagHead : 0) |
                (static_cast<std::uint16_t>(mt) << metaMtShift) |
                (static_cast<std::uint16_t>(src) << metaSrcShift) |
                (order << metaOrderShift));
        }

        /** Record the owner handle of the block this frame heads in
         * its (dead) link slots. Only allocated heads may carry one. */
        void
        setOwner(std::uint64_t owner)
        {
            ctg_assert(!isFree() && isHead());
            arr()->next_[pfn_] =
                static_cast<std::uint32_t>(owner);
            arr()->prev_[pfn_] =
                static_cast<std::uint32_t>(owner >> 32);
        }

        /** Equivalent of the old `frame = PageFrame{}`: every field
         * back to defaults. The link slots keep their stale bits —
         * exactly as the old layout kept stale links — until the
         * buddy relinks the frame into a free list. */
        void reset() { mut() = 0; }

      private:
        friend class FrameArray;
        FrameRef(FrameArray *fa, Pfn pfn) : ConstFrameRef(fa, pfn) {}

        FrameArray *arr() const { return const_cast<FrameArray *>(fa_); }
        std::uint16_t &mut() { return arr()->meta_[pfn_]; }

        void
        setFlag(std::uint8_t bit, bool v)
        {
            if (v)
                mut() |= bit;
            else
                mut() &= static_cast<std::uint16_t>(~bit);
        }
    };

    explicit FrameArray(std::uint64_t num_frames)
        : meta_(num_frames, 0), next_(num_frames, nil),
          prev_(num_frames, nil)
    {
        ctg_assert(num_frames < nil);
    }

    std::uint64_t size() const { return meta_.size(); }

    FrameRef
    frame(Pfn pfn)
    {
        ctg_assert(pfn < meta_.size());
        return FrameRef(this, pfn);
    }

    ConstFrameRef
    frame(Pfn pfn) const
    {
        ctg_assert(pfn < meta_.size());
        return ConstFrameRef(this, pfn);
    }

    /** Raw packed meta word — the ContigIndex resync hot path reads
     * this instead of going through a proxy per predicate. */
    std::uint16_t
    meta(Pfn pfn) const
    {
        ctg_assert(pfn < meta_.size());
        return meta_[pfn];
    }

    /** Materialize one frame as the old value type (tests, reference
     * models, and cold paths that want a stable copy). */
    PageFrame
    get(Pfn pfn) const
    {
        const ConstFrameRef f = frame(pfn);
        PageFrame out;
        out.flags = f.flags();
        out.order = static_cast<std::uint8_t>(f.order());
        out.migrateType = f.migrateType();
        out.source = f.source();
        out.owner = f.owner();
        return out;
    }

    std::uint32_t &next(Pfn pfn) { return next_[pfn]; }
    std::uint32_t &prev(Pfn pfn) { return prev_[pfn]; }

    /** Heap bytes of the whole frame table: the three columns (the
     * footprint BENCH_fleet.json reports as bytes/frame). */
    std::uint64_t
    bytesUsed() const
    {
        return meta_.capacity() * sizeof(std::uint16_t) +
               next_.capacity() * sizeof(std::uint32_t) +
               prev_.capacity() * sizeof(std::uint32_t);
    }

    /** Serialize the meta column and the intrusive links. The
     * columns *are* the frame table and the buddy free lists'
     * membership — restoring them wholesale restores both. Defined
     * in mem/physmem.cc (needs base/serde.hh). */
    void saveTo(serde::Writer &out) const;

    /** Overwrite from a snapshot; the serialized frame count must
     * equal size() (it is part of the snapshot's config fingerprint,
     * so a mismatch is corruption). Every field is validated — order
     * range, spare bits, source range, link indices (< size() or
     * nil) — before any state is replaced. Throws serde::Error. */
    void loadFrom(serde::Reader &in);

  private:
    std::vector<std::uint16_t> meta_;
    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> prev_;
};

} // namespace ctg

#endif // CTG_MEM_FRAME_HH
