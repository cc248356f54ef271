#include "mem/buddy.hh"

#include <algorithm>
#include <bit>

#include "base/serde.hh"
#include "base/trace.hh"
#include "sim/fault_injector.hh"

namespace ctg
{

namespace
{

/** Linux-like fallback order: which lists to steal from when the
 * native migratetype lists are empty. Isolate lists are never donors
 * and never requesters. */
const MigrateType fallbackOrder[3][2] = {
    /* Movable     */ {MigrateType::Reclaimable, MigrateType::Unmovable},
    /* Unmovable   */ {MigrateType::Reclaimable, MigrateType::Movable},
    /* Reclaimable */ {MigrateType::Unmovable, MigrateType::Movable},
};

unsigned
mtIndex(MigrateType mt)
{
    return static_cast<unsigned>(mt);
}

} // namespace

BuddyAllocator::BuddyAllocator(PhysMem &mem, Pfn start, Pfn end,
                               std::string name,
                               MigrateType initial_block_mt)
    : mem_(mem), frames_(mem.frames()), start_(start), end_(end),
      name_(std::move(name))
{
    if (start % pagesPerHuge != 0 || end % pagesPerHuge != 0)
        fatal("buddy range [%llu, %llu) not pageblock aligned",
              static_cast<unsigned long long>(start),
              static_cast<unsigned long long>(end));
    if (end > mem.numFrames() || start > end)
        fatal("buddy range exceeds physical memory");

    for (auto &per_mt : heads_)
        for (auto &head : per_mt)
            head = FrameArray::nil;

    for (Pfn pfn = start_; pfn < end_; pfn += pagesPerHuge)
        mem_.setBlockMt(pfn, initial_block_mt);
    for (Pfn pfn = start_; pfn < end_; ++pfn) {
        auto f = frames_.frame(pfn);
        f.reset();
        f.setFree(true);
    }
    freeRangeAsBlocks(start_, end_, initial_block_mt);
    mem_.noteFramesChanged(start_, end_);
}

BuddyAllocator::BuddyAllocator(PhysMem &mem, serde::Reader &in)
    : mem_(mem), frames_(mem.frames())
{
    start_ = in.getU64();
    end_ = in.getU64();
    if (start_ > end_ || end_ > mem.numFrames() ||
        start_ % pagesPerHuge != 0 || end_ % pagesPerHuge != 0)
        throw serde::Error("buddy: serialized coverage invalid");
    name_ = in.getString();
    if (name_.size() > 256)
        throw serde::Error("buddy: allocator name too long");
    claimSmallSteals_ = in.getBool();
    prefScanCap_ = in.getU32();
    if (prefScanCap_ < 1)
        throw serde::Error("buddy: prefScanCap out of range");
    for (unsigned mi = 0; mi < numMigrateTypes; ++mi)
        for (unsigned o = 0; o <= maxOrder; ++o) {
            const std::uint32_t head = heads_[mi][o] = in.getU32();
            if (head == FrameArray::nil)
                continue;
            if (head < start_ || head >= end_)
                throw serde::Error("buddy: list head out of range");
            nonEmpty_[mi] |= std::uint32_t{1} << o;
        }
    for (auto &count : freeCount_) {
        count = in.getU64();
        if (count > end_ - start_)
            throw serde::Error("buddy: free count exceeds coverage");
    }
    for (auto &per_mt : blockCount_)
        for (auto &count : per_mt) {
            count = in.getU64();
            if (count > end_ - start_)
                throw serde::Error(
                    "buddy: block count exceeds coverage");
        }
    Stats &s = stats_;
    for (std::uint64_t *field :
         {&s.allocCalls, &s.freeCalls, &s.splits, &s.merges,
          &s.fallbackAllocs, &s.pageblockSteals, &s.failedAllocs,
          &s.giganticAllocs, &s.giganticFailures,
          &s.injectedFailures})
        *field = in.getU64();
}

void
BuddyAllocator::saveTo(serde::Writer &out) const
{
    out.putU64(start_);
    out.putU64(end_);
    out.putString(name_);
    out.putBool(claimSmallSteals_);
    out.putU32(prefScanCap_);
    for (const auto &per_mt : heads_)
        for (const std::uint32_t head : per_mt)
            out.putU32(head);
    for (const std::uint64_t count : freeCount_)
        out.putU64(count);
    for (const auto &per_mt : blockCount_)
        for (const std::uint64_t count : per_mt)
            out.putU64(count);
    const Stats &s = stats_;
    for (const std::uint64_t field :
         {s.allocCalls, s.freeCalls, s.splits, s.merges,
          s.fallbackAllocs, s.pageblockSteals, s.failedAllocs,
          s.giganticAllocs, s.giganticFailures, s.injectedFailures})
        out.putU64(field);
}

void
BuddyAllocator::pushFree(Pfn head, unsigned order, MigrateType list_mt)
{
    auto f = frames_.frame(head);
    ctg_assert(f.isFree());
    f.setHead(true);
    f.setOrder(order);
    f.setMigrateType(list_mt);

    const unsigned mi = mtIndex(list_mt);
    std::uint32_t &list_head = heads_[mi][order];
    frames_.next(head) = list_head;
    frames_.prev(head) = FrameArray::nil;
    if (list_head != FrameArray::nil)
        frames_.prev(list_head) = static_cast<std::uint32_t>(head);
    list_head = static_cast<std::uint32_t>(head);
    nonEmpty_[mi] |= std::uint32_t{1} << order;

    freeCount_[mi] += std::uint64_t{1} << order;
    ++blockCount_[mi][order];
}

void
BuddyAllocator::removeFree(Pfn head)
{
    auto f = frames_.frame(head);
    ctg_assert(f.isFree() && f.isHead());
    const unsigned mi = mtIndex(f.migrateType());
    const unsigned order = f.order();

    const std::uint32_t nxt = frames_.next(head);
    const std::uint32_t prv = frames_.prev(head);
    if (prv != FrameArray::nil)
        frames_.next(prv) = nxt;
    else if ((heads_[mi][order] = nxt) == FrameArray::nil)
        nonEmpty_[mi] &= ~(std::uint32_t{1} << order);
    if (nxt != FrameArray::nil)
        frames_.prev(nxt) = prv;
    frames_.next(head) = FrameArray::nil;
    frames_.prev(head) = FrameArray::nil;
    f.setHead(false);

    ctg_assert(freeCount_[mi] >= (std::uint64_t{1} << order));
    ctg_assert(blockCount_[mi][order] > 0);
    freeCount_[mi] -= std::uint64_t{1} << order;
    --blockCount_[mi][order];
}

Pfn
BuddyAllocator::popFree(MigrateType mt, unsigned order, AddrPref pref)
{
    const unsigned mi = mtIndex(mt);
    const std::uint32_t cursor = heads_[mi][order];
    ctg_assert(cursor != FrameArray::nil);

    Pfn best = cursor;
    if (pref != AddrPref::None) {
        if (mem_.exactAddrPref()) {
            const Pfn exact = exactPrefBest(mt, order, pref);
            if (exact != invalidPfn) {
                removeFree(exact);
                return exact;
            }
            // Defensive: the enumeration cannot miss a non-empty
            // list, but fall through to the capped scan if it does.
        }
        unsigned scanned = 0;
        for (std::uint32_t it = cursor;
             it != FrameArray::nil && scanned < prefScanCap_;
             it = frames_.next(it), ++scanned) {
            if ((pref == AddrPref::Low && it < best) ||
                (pref == AddrPref::High && it > best)) {
                best = it;
            }
        }
    }
    removeFree(best);
    return best;
}

Pfn
BuddyAllocator::exactPrefBest(MigrateType mt, unsigned order,
                              AddrPref pref) const
{
    // Candidates are the fully-free aligned order-blocks inside the
    // coverage, enumerated from the preferred end. A candidate is a
    // list entry exactly when its base is a free head of this order
    // on this migratetype's list; other candidates are the interior
    // or halves of differently-shaped free blocks and are skipped —
    // by their containing block where it is known, else by one span.
    const ContigIndex &idx = mem_.contigIndex();
    const Pfn span = Pfn{1} << order;
    Pfn lo = (start_ + span - 1) & ~(span - 1);
    Pfn hi = end_ & ~(span - 1);
    while (lo < hi) {
        const Pfn base = idx.firstFullyFreeSpan(order, lo, hi, pref);
        if (base == invalidPfn)
            return invalidPfn;
        const auto f = frames_.frame(base);
        ctg_assert(f.isFree());
        if (f.isHead() && f.order() == order &&
            f.migrateType() == mt)
            return base;
        // Skip past the free block containing the candidate (the
        // interior of a block holds no list heads). Free non-head
        // frames do not record their block, but the head must sit at
        // one of the coarser alignments of `base`.
        Pfn skip_hi = base + span; // containing block unknown: 1 span
        Pfn skip_lo = base;
        if (f.isHead() && f.order() > order) {
            skip_lo = base;
            skip_hi = base + (Pfn{1} << f.order());
        } else if (!f.isHead()) {
            for (unsigned o = order + 1; o <= maxOrder; ++o) {
                const Pfn h = base & ~((Pfn{1} << o) - 1);
                const auto g = frames_.frame(h);
                if (g.isFree() && g.isHead() && g.order() == o &&
                    base < h + (Pfn{1} << o)) {
                    skip_lo = h;
                    skip_hi = h + (Pfn{1} << o);
                    break;
                }
            }
        }
        if (pref == AddrPref::High)
            hi = std::max(lo, skip_lo & ~(span - 1));
        else
            lo = (skip_hi + span - 1) & ~(span - 1);
    }
    return invalidPfn;
}

Pfn
BuddyAllocator::splitTo(Pfn head, unsigned have, unsigned want,
                        MigrateType list_mt)
{
    while (have > want) {
        --have;
        const Pfn upper = head + (Pfn{1} << have);
        pushFree(upper, have, list_mt);
        ++stats_.splits;
    }
    return head;
}

void
BuddyAllocator::markAllocated(Pfn head, unsigned order, MigrateType mt,
                              AllocSource src, std::uint64_t owner)
{
    const Pfn count = Pfn{1} << order;
    for (Pfn pfn = head; pfn < head + count; ++pfn)
        frames_.frame(pfn).stampAllocated(order, mt, src,
                                          pfn == head);
    // The cold fields live once per block in the side table, keyed
    // by the head; member frames derive them through their order.
    frames_.frame(head).setAllocInfo(owner, mem_.nowSeconds);
    mem_.noteFramesChanged(head, head + count);
}

Pfn
BuddyAllocator::allocPages(unsigned order, MigrateType mt,
                           AllocSource src, std::uint64_t owner,
                           AddrPref pref, bool allow_fallback)
{
    ctg_assert(order <= maxOrder);
    ctg_assert(mt != MigrateType::Isolate);
    ++stats_.allocCalls;

    if (faultInjector().shouldFail(FaultSite::BuddyAllocFail)) {
        ++stats_.failedAllocs;
        ++stats_.injectedFailures;
        CTG_DPRINTF(Buddy, "%s: injected order-%u %s alloc failure",
                    name_.c_str(), order, migrateTypeName(mt));
        return invalidPfn;
    }

    // Native path: smallest sufficient block of the requested type.
    const std::uint32_t orders_from = ~std::uint32_t{0} << order;
    if (const std::uint32_t native = nonEmpty_[mtIndex(mt)] & orders_from) {
        const unsigned o = static_cast<unsigned>(std::countr_zero(native));
        const Pfn head = popFree(mt, o, pref);
        splitTo(head, o, order, mt);
        markAllocated(head, order, mt, src, owner);
        return head;
    }

    if (!allow_fallback) {
        ++stats_.failedAllocs;
        return invalidPfn;
    }

    // Fallback path: steal the *largest* block from a victim type to
    // minimize the number of future fallbacks (Linux policy). If the
    // stolen block covers whole pageblocks, retag them to the new
    // type; otherwise the allocation pollutes a foreign pageblock —
    // the scattering mechanism of Section 2.5.
    for (const MigrateType victim : fallbackOrder[mtIndex(mt)]) {
        if (const std::uint32_t stealable =
                nonEmpty_[mtIndex(victim)] & orders_from) {
            const unsigned o =
                static_cast<unsigned>(std::bit_width(stealable)) - 1;
            const Pfn head = popFree(victim, o, pref);
            ++stats_.fallbackAllocs;
            CTG_DPRINTF(Buddy,
                        "%s: fallback steal order %u from %s list "
                        "for order-%u %s alloc at pfn %llu",
                        name_.c_str(), o, migrateTypeName(victim),
                        order, migrateTypeName(mt),
                        static_cast<unsigned long long>(head));
            const bool claim = claimSmallSteals_ || o >= hugeOrder;
            if (claim) {
                // Stealing at pageblock granularity claims the
                // block: retag it and keep the remainder on the new
                // type's lists.
                const Pfn span = Pfn{1} << o;
                for (Pfn p = head; p < head + span; p += pagesPerHuge)
                    mem_.setBlockMt(p, mt);
                ++stats_.pageblockSteals;
            }
            // A small dirty steal leaves the remainder with its
            // owner, so the next foreign request falls back again
            // somewhere else — the scattering mechanism.
            splitTo(head, o, order, claim ? mt : victim);
            markAllocated(head, order, mt, src, owner);
            return head;
        }
    }

    ++stats_.failedAllocs;
    CTG_DPRINTF(Buddy, "%s: order-%u %s alloc failed (free %llu)",
                name_.c_str(), order, migrateTypeName(mt),
                static_cast<unsigned long long>(freePageCount()));
    return invalidPfn;
}

void
BuddyAllocator::freePages(Pfn head)
{
    auto hf = frames_.frame(head);
    ctg_assert(!hf.isFree());
    ctg_assert(hf.isHead());
    ++stats_.freeCalls;

    unsigned order = hf.order();
    const Pfn count = Pfn{1} << order;
    ctg_assert(inRange(head) && head + count <= end_);
    for (Pfn pfn = head; pfn < head + count; ++pfn) {
        auto f = frames_.frame(pfn);
        ctg_assert(!f.isFree());
        f.reset();
        f.setFree(true);
    }
    mem_.noteFramesChanged(head, head + count);

    if (order > maxOrder) {
        // Gigantic block: return it as maxOrder chunks.
        for (Pfn pfn = head; pfn < head + count;
             pfn += (Pfn{1} << maxOrder)) {
            pushFree(pfn, maxOrder, mem_.blockMt(pfn));
        }
        return;
    }

    // Like Linux, the block joins the free list of its *pageblock's*
    // migratetype, not the type it was allocated with.
    MigrateType list_mt = mem_.blockMt(head);

    // Coalesce with free buddies up to maxOrder.
    Pfn curr = head;
    while (order < maxOrder) {
        const Pfn buddy = curr ^ (Pfn{1} << order);
        if (!inRange(buddy) || buddy + (Pfn{1} << order) > end_)
            break;
        const auto bf = frames_.frame(buddy);
        if (!(bf.isFree() && bf.isHead() && bf.order() == order))
            break;
        removeFree(buddy);
        ++stats_.merges;
        curr = std::min(curr, buddy);
        ++order;
    }
    pushFree(curr, order, list_mt);
}

Pfn
BuddyAllocator::allocGigantic(MigrateType mt, AllocSource src,
                              std::uint64_t owner)
{
    if (faultInjector().shouldFail(FaultSite::BuddyGiganticFail)) {
        ++stats_.giganticFailures;
        ++stats_.injectedFailures;
        CTG_DPRINTF(Buddy, "%s: injected gigantic %s alloc failure",
                    name_.c_str(), migrateTypeName(mt));
        return invalidPfn;
    }

    // One descent finds the lowest fully-free aligned 1 GB range.
    const Pfn span = pagesPerGiga;
    const Pfn base = mem_.contigIndex().firstFullyFreeSpan(
        gigaOrder, start_, end_, AddrPref::None);
    if (base == invalidPfn) {
        ++stats_.giganticFailures;
        CTG_DPRINTF(Buddy,
                    "%s: gigantic %s alloc found no free 1GB range",
                    name_.c_str(), migrateTypeName(mt));
        return invalidPfn;
    }
    // Remove every free head in the range from the lists.
    for (Pfn pfn = base; pfn < base + span;) {
        const auto f = frames_.frame(pfn);
        ctg_assert(f.isFree() && f.isHead());
        const Pfn blk = Pfn{1} << f.order();
        removeFree(pfn);
        pfn += blk;
    }
    for (Pfn pfn = base; pfn < base + span; pfn += pagesPerHuge)
        mem_.setBlockMt(pfn, mt);
    markAllocated(base, gigaOrder, mt, src, owner);
    ++stats_.giganticAllocs;
    return base;
}

void
BuddyAllocator::regStats(StatGroup group) const
{
    group.gauge("alloc_calls",
                [this] { return double(stats_.allocCalls); },
                "allocPages invocations");
    group.gauge("free_calls",
                [this] { return double(stats_.freeCalls); },
                "freePages invocations");
    group.gauge("split_events",
                [this] { return double(stats_.splits); },
                "free blocks split to serve a smaller order");
    group.gauge("merge_events",
                [this] { return double(stats_.merges); },
                "buddy coalesces on free");
    group.gauge("fallback_allocs",
                [this] { return double(stats_.fallbackAllocs); },
                "cross-migratetype steals");
    group.gauge("pageblock_steals",
                [this] { return double(stats_.pageblockSteals); },
                "pageblocks retagged by large steals");
    group.gauge("failed_allocs",
                [this] { return double(stats_.failedAllocs); });
    group.gauge("gigantic_allocs",
                [this] { return double(stats_.giganticAllocs); });
    group.gauge("gigantic_failures",
                [this] { return double(stats_.giganticFailures); });
    group.gauge("injected_failures",
                [this] { return double(stats_.injectedFailures); },
                "allocation failures forced by the fault injector");
    group.gauge("free_pages",
                [this] { return double(freePageCount()); },
                "pages currently on the free lists");
    group.gauge("largest_free_order",
                [this] { return double(largestFreeOrder()); },
                "-1 when no free block exists");
}

bool
BuddyAllocator::rangeFullyFree(Pfn lo, Pfn hi) const
{
    ctg_assert(lo >= start_ && hi <= end_ && lo <= hi);
    return mem_.contigIndex().freePagesIn(lo, hi) == hi - lo;
}

void
BuddyAllocator::splitFreeBlockAt(Pfn cut)
{
    if (cut <= start_ || cut >= end_)
        return;
    // Find the free head covering `cut`, if it straddles.
    Pfn pfn = cut;
    while (pfn > start_ && !frames_.frame(pfn).isHead())
        --pfn;
    const auto f = frames_.frame(pfn);
    if (!f.isFree() || !f.isHead())
        return;
    const Pfn blk_end = pfn + (Pfn{1} << f.order());
    if (blk_end <= cut)
        return;
    const MigrateType list_mt = f.migrateType();
    removeFree(pfn);
    freeRangeAsBlocks(pfn, cut, list_mt);
    freeRangeAsBlocks(cut, blk_end, list_mt);
}

void
BuddyAllocator::relistFreeRange(Pfn lo, Pfn hi,
                                MigrateType new_list_mt)
{
    for (Pfn pfn = lo; pfn < hi;) {
        const auto f = frames_.frame(pfn);
        if (f.isFree() && f.isHead()) {
            const unsigned order = f.order();
            ctg_assert(pfn + (Pfn{1} << order) <= hi);
            if (f.migrateType() != new_list_mt) {
                removeFree(pfn);
                pushFree(pfn, order, new_list_mt);
            }
            pfn += Pfn{1} << order;
        } else {
            ++pfn;
        }
    }
}

void
BuddyAllocator::isolateRange(Pfn lo, Pfn hi)
{
    // Max-order alignment guarantees buddy coalescing can never
    // produce a free block straddling the isolation boundary.
    constexpr Pfn align = Pfn{1} << maxOrder;
    ctg_assert(lo % align == 0 && hi % align == 0);
    ctg_assert(lo >= start_ && hi <= end_);
    splitFreeBlockAt(lo);
    splitFreeBlockAt(hi);
    for (Pfn pfn = lo; pfn < hi; pfn += pagesPerHuge)
        mem_.setBlockMt(pfn, MigrateType::Isolate);
    relistFreeRange(lo, hi, MigrateType::Isolate);
}

void
BuddyAllocator::unisolateRange(Pfn lo, Pfn hi, MigrateType restore_mt)
{
    ctg_assert(lo % pagesPerHuge == 0 && hi % pagesPerHuge == 0);
    ctg_assert(restore_mt != MigrateType::Isolate);
    for (Pfn pfn = lo; pfn < hi; pfn += pagesPerHuge)
        mem_.setBlockMt(pfn, restore_mt);
    relistFreeRange(lo, hi, restore_mt);
}

void
BuddyAllocator::detachRange(Pfn lo, Pfn hi)
{
    ctg_assert(lo % pagesPerHuge == 0 && hi % pagesPerHuge == 0);
    ctg_assert(lo == start_ || hi == end_);
    ctg_assert(rangeFullyFree(lo, hi));

    // Free blocks may straddle the detach boundary; split such heads
    // first so every free block lies entirely inside or outside.
    splitFreeBlockAt(lo);
    splitFreeBlockAt(hi);

    for (Pfn pfn = lo; pfn < hi;) {
        const auto f = frames_.frame(pfn);
        ctg_assert(f.isFree() && f.isHead());
        const Pfn blk = Pfn{1} << f.order();
        ctg_assert(pfn + blk <= hi);
        removeFree(pfn);
        pfn += blk;
    }

    if (lo == start_)
        start_ = hi;
    else
        end_ = lo;
    ctg_assert(start_ <= end_);
}

void
BuddyAllocator::attachRange(Pfn lo, Pfn hi, MigrateType block_mt)
{
    ctg_assert(lo % pagesPerHuge == 0 && hi % pagesPerHuge == 0);
    ctg_assert(hi == start_ || lo == end_ || start_ == end_);
    // detachRange's postcondition: every frame in the range is a
    // plain free frame (fully free, list heads removed). The index
    // is maintained unconditionally, so this holds in O(log n)
    // instead of an O(range) walk.
    ctg_assert(mem_.contigIndex().freePagesIn(lo, hi) == hi - lo);
    // Stale allocation-era fields on those free frames are dead:
    // every reader of a free frame's order/migrateType/owner is
    // guarded by isHead(), and pushFree/markAllocated rewrite all
    // fields before the next read. The leaf bits of a free frame are
    // LeafFree regardless, so no resync is needed either — the
    // handoff costs O(range / 2^maxOrder), not O(range).
    for (Pfn pfn = lo; pfn < hi; pfn += pagesPerHuge)
        mem_.setBlockMt(pfn, block_mt);
    freeRangeAsBlocks(lo, hi, block_mt);
    if (start_ == end_) {
        start_ = lo;
        end_ = hi;
    } else if (hi == start_) {
        start_ = lo;
    } else {
        end_ = hi;
    }
}

void
BuddyAllocator::freeRangeAsBlocks(Pfn lo, Pfn hi, MigrateType list_mt)
{
    Pfn pfn = lo;
    while (pfn < hi) {
        unsigned order = maxOrder;
        while (order > 0 &&
               ((pfn & ((Pfn{1} << order) - 1)) != 0 ||
                pfn + (Pfn{1} << order) > hi)) {
            --order;
        }
        pushFree(pfn, order, list_mt);
        pfn += Pfn{1} << order;
    }
}

std::uint64_t
BuddyAllocator::freePageCount() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t c : freeCount_)
        total += c;
    return total;
}

std::uint64_t
BuddyAllocator::freePageCount(MigrateType list_mt) const
{
    return freeCount_[mtIndex(list_mt)];
}

std::uint64_t
BuddyAllocator::freeBlocks(MigrateType list_mt, unsigned order) const
{
    ctg_assert(order <= maxOrder);
    return blockCount_[mtIndex(list_mt)][order];
}

int
BuddyAllocator::largestFreeOrder() const
{
    for (int o = static_cast<int>(maxOrder); o >= 0; --o) {
        for (unsigned mi = 0; mi < numMigrateTypes; ++mi) {
            if (blockCount_[mi][o] > 0)
                return o;
        }
    }
    return -1;
}

unsigned
BuddyAllocator::auditFreeLists(std::vector<std::string> &out) const
{
    const std::size_t before = out.size();
    const auto report = [&](std::string msg) {
        out.push_back(name_ + ": " + std::move(msg));
    };

    std::uint64_t free_from_lists[numMigrateTypes] = {};
    for (unsigned mi = 0; mi < numMigrateTypes; ++mi) {
        for (unsigned o = 0; o <= maxOrder; ++o) {
            std::uint64_t blocks = 0;
            std::uint32_t prev = FrameArray::nil;
            // Cap the walk so a cyclic next link cannot hang us.
            std::uint64_t steps = 0;
            const std::uint64_t max_steps = totalPages() + 1;
            for (std::uint32_t it = heads_[mi][o];
                 it != FrameArray::nil; it = frames_.next(it)) {
                if (++steps > max_steps) {
                    report(detail::formatMessage(
                        "free list mt=%u order=%u does not terminate "
                        "(cyclic links?)", mi, o));
                    break;
                }
                const auto f = frames_.frame(it);
                if (!f.isFree() || !f.isHead())
                    report(detail::formatMessage(
                        "list entry %u not a free head", it));
                if (f.order() != o)
                    report(detail::formatMessage(
                        "list entry %u order %u on list %u", it,
                        f.order(), o));
                if (mtIndex(f.migrateType()) != mi)
                    report(detail::formatMessage(
                        "list entry %u mt mismatch", it));
                if ((it & ((std::uint32_t{1} << o) - 1)) != 0)
                    report(detail::formatMessage(
                        "free head %u misaligned for order %u", it, o));
                if (it < start_ || it + (Pfn{1} << o) > end_)
                    report(detail::formatMessage(
                        "free head %u outside coverage", it));
                if (frames_.prev(it) != prev)
                    report(detail::formatMessage(
                        "broken prev link at %u", it));
                prev = it;
                ++blocks;
                free_from_lists[mi] += std::uint64_t{1} << o;
            }
            const bool listed = (nonEmpty_[mi] >> o) & 1u;
            if (listed != (heads_[mi][o] != FrameArray::nil))
                report(detail::formatMessage(
                    "non-empty mask mt=%u order=%u says %d, head %u",
                    mi, o, int(listed), heads_[mi][o]));
            if (blocks != blockCount_[mi][o])
                report(detail::formatMessage(
                    "block count mismatch mt=%u order=%u "
                    "(walked %llu, counter %llu)", mi, o,
                    static_cast<unsigned long long>(blocks),
                    static_cast<unsigned long long>(
                        blockCount_[mi][o])));
        }
    }
    for (unsigned mi = 0; mi < numMigrateTypes; ++mi) {
        if (free_from_lists[mi] != freeCount_[mi])
            report(detail::formatMessage(
                "free count mismatch for mt=%u (lists %llu, "
                "counter %llu)", mi,
                static_cast<unsigned long long>(free_from_lists[mi]),
                static_cast<unsigned long long>(freeCount_[mi])));
    }
    return static_cast<unsigned>(out.size() - before);
}

void
BuddyAllocator::checkInvariants() const
{
    std::vector<std::string> violations;
    if (auditFreeLists(violations) != 0)
        panic("%s", violations.front().c_str());
}

} // namespace ctg
