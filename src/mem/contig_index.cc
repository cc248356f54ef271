#include "mem/contig_index.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "base/logging.hh"

namespace ctg
{

namespace
{

constexpr std::uint64_t allOnes = ~std::uint64_t{0};

/** Bits at the aligned block heads of order o <= 6 within a word. */
constexpr std::uint64_t blockHeads[7] = {
    allOnes,
    0x5555555555555555ull,
    0x1111111111111111ull,
    0x0101010101010101ull,
    0x0001000100010001ull,
    0x0000000100000001ull,
    0x0000000000000001ull,
};

/** Mask of bits [a, b) of a word, 0 <= a <= b <= 64. */
std::uint64_t
bitRange(unsigned a, unsigned b)
{
    if (a >= b)
        return 0;
    const std::uint64_t upper =
        b == 64 ? allOnes : (std::uint64_t{1} << b) - 1;
    return upper & (allOnes << a);
}

/** Mask of the bits of plane word w that fall in frames [lo, hi). */
std::uint64_t
wordMask(std::uint64_t w, Pfn lo, Pfn hi)
{
    const Pfn base = w << 6;
    return bitRange(static_cast<unsigned>(std::max(lo, base) - base),
                    static_cast<unsigned>(std::min(hi, base + 64) - base));
}

/** Block-head bits of the aligned order-o blocks (o <= 6) of x whose
 * bits are all set. */
std::uint64_t
foldAll(std::uint64_t x, unsigned order)
{
    for (unsigned s = 1; s < (1u << order); s <<= 1)
        x &= x >> s;
    return x & blockHeads[order];
}

/** Block-head bits of the aligned order-o blocks (o <= 6) of x with
 * at least one bit set. */
std::uint64_t
foldAny(std::uint64_t x, unsigned order)
{
    for (unsigned s = 1; s < (1u << order); s <<= 1)
        x |= x >> s;
    return x & blockHeads[order];
}

/** Largest order o <= 6 such that x holds an aligned all-ones
 * order-o block; -1 when x is 0. An aligned order-(o+1) block
 * contains aligned order-o ones, so the search stops at its first
 * miss. */
std::int8_t
wordMaxFF(std::uint64_t x)
{
    if (x == allOnes)
        return 6;
    if (x == 0)
        return -1;
    std::int8_t order = 0;
    while (order < 5) {
        x &= x >> (1u << order);
        if ((x & blockHeads[order + 1]) == 0)
            break;
        ++order;
    }
    return order;
}

/** Greedy aligned-block decomposition of the pageblock-aligned
 * [lo, hi): invoke fn(order, index) for maximal aligned blocks of
 * order hugeOrder..top covering the range. */
template <typename Fn>
void
decompose(Pfn lo, Pfn hi, unsigned top, Fn fn)
{
    Pfn pfn = lo;
    while (pfn < hi) {
        unsigned order = top;
        while (order > hugeOrder &&
               ((pfn & ((Pfn{1} << order) - 1)) != 0 ||
                pfn + (Pfn{1} << order) > hi)) {
            --order;
        }
        fn(order, pfn >> order);
        pfn += Pfn{1} << order;
    }
}

} // namespace

/** Summed plane deltas of the words of one pageblock. */
struct ContigIndex::BlockDelta
{
    std::int64_t free = 0;
    std::int64_t unmov = 0;
    std::int64_t pinned = 0;
    std::int64_t movableMt = 0;
    /** The free plane changed, so maxFF may have moved even with an
     * unchanged free count. */
    bool freeMoved = false;
};

ContigIndex::ContigIndex(const FrameArray &frames)
    : frames_(frames), n_(frames.size()), top_(hugeOrder),
      leafSrc_(n_, 0)
{
    while (top_ < maxQueryOrder && (Pfn{1} << top_) < n_)
        ++top_;
    const std::uint64_t blocks = (n_ + pagesPerHuge - 1) >> hugeOrder;
    words_.assign(blocks * wordsPerBlock, PlaneWord{});
    wordMaxFF_.assign(blocks * wordsPerBlock, -1);
    dirty_.assign((words_.size() + 63) / 64, 0);
    for (unsigned order = hugeOrder; order <= top_; ++order) {
        foldLevel(order).assign(
            (n_ + (Pfn{1} << order) - 1) >> order, Node{});
    }
    // All-zero planes and nodes describe frames with no predicate
    // bit set (consistent with each other); the first read publishes
    // the real state.
    resync(0, n_);
}

int
ContigIndex::blockMaxFF(std::uint64_t block) const
{
    const std::int8_t *word_max = &wordMaxFF_[block * wordsPerBlock];
    // Orders 6..hugeOrder are runs of whole all-free words; below
    // that, the best single word decides.
    std::uint64_t full = 0;
    int best = -1;
    for (unsigned i = 0; i < wordsPerBlock; ++i) {
        full |= std::uint64_t{word_max[i] == 6} << i;
        best = std::max<int>(best, word_max[i]);
    }
    if (full == (std::uint64_t{1} << wordsPerBlock) - 1)
        return hugeOrder;
    if (foldAll(full, 2) != 0)
        return 8;
    if (foldAll(full, 1) != 0)
        return 7;
    return best;
}

void
ContigIndex::countTransition(unsigned order, std::uint64_t index,
                             bool was_full, bool was_tainted,
                             const Node &now) const
{
    const bool full = now.free == (std::uint64_t{1} << order);
    const bool tainted = now.unmov > 0;
    if ((full == was_full && tainted == was_tainted) ||
        !nodeInMachine(order, index))
        return;
    fullFree_[order] +=
        static_cast<std::uint64_t>(int(full) - int(was_full));
    tainted_[order] +=
        static_cast<std::uint64_t>(int(tainted) - int(was_tainted));
}

void
ContigIndex::applyBlockDelta(std::uint64_t block,
                             const BlockDelta &d) const
{
    freePages_ += static_cast<std::uint64_t>(d.free);
    unmovablePages_ += static_cast<std::uint64_t>(d.unmov);
    pinnedPages_ += static_cast<std::uint64_t>(d.pinned);

    Node &node = foldLevel(hugeOrder)[block];
    const bool was_full = node.free == pagesPerHuge;
    const bool was_tainted = node.unmov > 0;
    const std::uint32_t was_mixed = node.mixed;
    const std::int8_t was_max = node.maxFF;
    node.free += static_cast<std::uint32_t>(d.free);
    node.unmov += static_cast<std::uint32_t>(d.unmov);
    node.movableMt += static_cast<std::uint32_t>(d.movableMt);
    // The pageblock level defines "mixed" from its own counts: some
    // free space and some movable-allocated frames — the compactRange
    // evacuation predicate, taint notwithstanding.
    const std::uint64_t coverage = std::min<std::uint64_t>(
        pagesPerHuge, n_ - (block << hugeOrder));
    const std::uint64_t movable_alloc = coverage - node.free - node.unmov;
    node.mixed = (node.free > 0 && movable_alloc > 0) ? 1 : 0;
    if (d.freeMoved)
        node.maxFF = static_cast<std::int8_t>(blockMaxFF(block));
    countTransition(hugeOrder, block, was_full, was_tainted, node);

    // Every ancestor's counts move by the same deltas; only maxFF
    // needs the sibling. With no count moving, the walk lasts only
    // as long as maxFF keeps changing.
    const std::uint32_t d_mixed = node.mixed - was_mixed;
    const bool counts_moved = d.free != 0 || d.unmov != 0 ||
                              d.movableMt != 0 || d_mixed != 0;
    if (!counts_moved && node.maxFF == was_max)
        return;
    std::uint64_t index = block;
    for (unsigned order = hugeOrder + 1; order <= top_; ++order) {
        const std::vector<Node> &children = level(order - 1);
        index >>= 1;
        Node &parent = foldLevel(order)[index];
        const std::uint64_t span = std::uint64_t{1} << order;
        const bool parent_was_full = parent.free == span;
        const bool parent_was_tainted = parent.unmov > 0;
        parent.free += static_cast<std::uint32_t>(d.free);
        parent.unmov += static_cast<std::uint32_t>(d.unmov);
        parent.movableMt += static_cast<std::uint32_t>(d.movableMt);
        parent.mixed += d_mixed;
        // free == span implies the node covers span whole frames, so
        // the in-machine check is implicit.
        const std::uint64_t c0 = index << 1;
        std::int8_t max_ff = children[c0].maxFF;
        if (c0 + 1 < children.size())
            max_ff = std::max(max_ff, children[c0 + 1].maxFF);
        if (parent.free == span)
            max_ff = static_cast<std::int8_t>(order);
        if (!counts_moved && max_ff == parent.maxFF)
            return;
        parent.maxFF = max_ff;
        countTransition(order, index, parent_was_full,
                        parent_was_tainted, parent);
    }
}

void
ContigIndex::resync(Pfn lo, Pfn hi)
{
    ctg_assert(lo <= hi && hi <= n_);
    if (lo == hi)
        return;
    ++resyncCalls_;
    framesRescanned_ += hi - lo;

    // Dirty bits [w0, w1): one per plane word covering [lo, hi).
    const std::uint64_t w0 = lo >> 6;
    const std::uint64_t w1 = ((hi - 1) >> 6) + 1;
    const std::uint64_t d0 = w0 >> 6;
    const std::uint64_t d1 = ((w1 - 1) >> 6) + 1;
    for (std::uint64_t d = d0; d < d1; ++d)
        dirty_[d] |= wordMask(d, w0, w1);
    dirtyLo_ = std::min(dirtyLo_, d0);
    dirtyHi_ = std::max(dirtyHi_, d1);
}

bool
ContigIndex::rebuildWord(std::uint64_t w, BlockDelta &d) const
{
    constexpr std::uint16_t movable =
        static_cast<std::uint16_t>(MigrateType::Movable);
    // Leaf pass: rebuild the word's bits from the frame truth and
    // keep the per-source attribution of unmovable frames current.
    // Padding bits past the machine stay zero on both sides.
    const Pfn base = w << 6;
    PlaneWord &word = words_[w];
    const std::uint64_t old_u = word.unmov;
    std::uint64_t nf = 0, nu = 0, np = 0, nm = 0;
    const Pfn end = std::min<Pfn>(n_, base + 64);
    for (Pfn pfn = base; pfn < end; ++pfn) {
        const std::uint16_t m = frames_.meta(pfn);
        const std::uint64_t bit = std::uint64_t{1} << (pfn & 63);
        if (m & PageFrame::FlagFree) {
            nf |= bit;
            continue;
        }
        const bool pinned = m & PageFrame::FlagPinned;
        const bool movable_mt =
            ((m >> FrameArray::metaMtShift) & FrameArray::metaMtMask) ==
            movable;
        if (pinned)
            np |= bit;
        if (movable_mt)
            nm |= bit;
        if (movable_mt && !pinned)
            continue;
        nu |= bit;
        const std::uint8_t src = static_cast<std::uint8_t>(
            (m >> FrameArray::metaSrcShift) & FrameArray::metaSrcMask);
        std::uint8_t &cached = leafSrc_[pfn];
        if (!(old_u & bit)) {
            ++bySource_[src];
            cached = src;
        } else if (cached != src) {
            --bySource_[cached];
            ++bySource_[src];
            cached = src;
        }
    }
    // Frames that left the unmovable plane release their source.
    for (std::uint64_t gone = old_u & ~nu; gone != 0; gone &= gone - 1)
        --bySource_[leafSrc_[base + std::countr_zero(gone)]];

    if (word.free == nf && word.unmov == nu && word.pinned == np &&
        word.movableMt == nm)
        return false;
    // Most rebuilds flip one or two planes; popcount is not a single
    // instruction on baseline x86-64, so skip the rest.
    if (word.free != nf) {
        d.free += std::popcount(nf) - std::popcount(word.free);
        d.freeMoved = true;
        word.free = nf;
        wordMaxFF_[w] = wordMaxFF(nf);
    }
    if (word.unmov != nu) {
        d.unmov += std::popcount(nu) - std::popcount(word.unmov);
        word.unmov = nu;
    }
    if (word.pinned != np) {
        d.pinned += std::popcount(np) - std::popcount(word.pinned);
        word.pinned = np;
    }
    if (word.movableMt != nm) {
        d.movableMt += std::popcount(nm) - std::popcount(word.movableMt);
        word.movableMt = nm;
    }
    return true;
}

void
ContigIndex::flush() const
{
    if (dirtyLo_ >= dirtyHi_)
        return;
    ++flushes_;
    // Dirty words come in ascending order, so the words of one
    // pageblock are adjacent: sum their deltas and fold each touched
    // pageblock up the tree once.
    std::uint64_t block = ~std::uint64_t{0};
    BlockDelta delta;
    bool pending = false;
    for (std::uint64_t di = dirtyLo_; di < dirtyHi_; ++di) {
        for (std::uint64_t bits = std::exchange(dirty_[di], 0);
             bits != 0; bits &= bits - 1) {
            const std::uint64_t w = (di << 6) + std::countr_zero(bits);
            if (w / wordsPerBlock != block) {
                if (pending)
                    applyBlockDelta(block, delta);
                block = w / wordsPerBlock;
                delta = BlockDelta{};
                pending = false;
            }
            pending |= rebuildWord(w, delta);
            ++wordsRebuilt_;
        }
    }
    if (pending)
        applyBlockDelta(block, delta);
    dirtyLo_ = noDirty;
    dirtyHi_ = 0;
}

std::uint64_t
ContigIndex::planeCount(Plane plane, Pfn lo, Pfn hi) const
{
    std::uint64_t total = 0;
    for (std::uint64_t w = lo >> 6; lo < hi && w <= (hi - 1) >> 6; ++w)
        total += std::popcount(words_[w].*plane & wordMask(w, lo, hi));
    return total;
}

std::uint64_t
ContigIndex::pagesIn(Plane plane, std::uint32_t Node::*field, Pfn lo,
                     Pfn hi) const
{
    ctg_assert(lo <= hi && hi <= n_);
    // Unaligned ends from the plane, the pageblock-aligned middle
    // from tree nodes.
    const Pfn a = std::min<Pfn>(
        hi, (lo + pagesPerHuge - 1) & ~Pfn{pagesPerHuge - 1});
    const Pfn b = std::max<Pfn>(a, hi & ~Pfn{pagesPerHuge - 1});
    std::uint64_t total =
        planeCount(plane, lo, a) + planeCount(plane, b, hi);
    decompose(a, b, top_, [&](unsigned order, std::uint64_t index) {
        total += level(order)[index].*field;
    });
    return total;
}

std::uint64_t
ContigIndex::planeBlocks(Plane plane, Pfn lo, Pfn hi, unsigned order,
                         bool all) const
{
    if (lo >= hi)
        return 0;
    std::uint64_t total = 0;
    if (order <= 6) {
        for (std::uint64_t w = lo >> 6; w <= (hi - 1) >> 6; ++w) {
            const std::uint64_t x = words_[w].*plane & wordMask(w, lo, hi);
            total += std::popcount(all ? foldAll(x, order)
                                       : foldAny(x, order));
        }
        return total;
    }
    // Orders 7 and 8 span 2 and 4 whole words.
    const std::uint64_t k = std::uint64_t{1} << (order - 6);
    for (std::uint64_t w = lo >> 6; w < (hi >> 6); w += k) {
        bool hit = all;
        for (std::uint64_t j = 0; j < k; ++j) {
            hit = all ? hit && words_[w + j].*plane == allOnes
                      : hit || words_[w + j].*plane != 0;
        }
        total += hit ? 1 : 0;
    }
    return total;
}

Pfn
ContigIndex::planeFind(Plane plane, Pfn lo, Pfn hi, unsigned order,
                       bool highest, bool invert) const
{
    if (lo >= hi)
        return invalidPfn;
    const std::uint64_t flip = invert ? allOnes : 0;
    if (order <= 6) {
        const std::uint64_t w0 = lo >> 6;
        const std::uint64_t w1 = (hi - 1) >> 6;
        const auto hits = [&](std::uint64_t w) {
            return foldAll((words_[w].*plane ^ flip) & wordMask(w, lo, hi),
                           order);
        };
        if (!highest) {
            for (std::uint64_t w = w0; w <= w1; ++w) {
                if (const std::uint64_t h = hits(w))
                    return (w << 6) + std::countr_zero(h);
            }
        } else {
            for (std::uint64_t w = w1 + 1; w > w0;) {
                if (const std::uint64_t h = hits(--w))
                    return (w << 6) + 63 - std::countl_zero(h);
            }
        }
        return invalidPfn;
    }
    const std::uint64_t k = std::uint64_t{1} << (order - 6);
    const auto whole = [&](std::uint64_t w) {
        for (std::uint64_t j = 0; j < k; ++j) {
            if (((words_[w + j].*plane) ^ flip) != allOnes)
                return false;
        }
        return true;
    };
    const std::uint64_t w0 = lo >> 6;
    const std::uint64_t w1 = hi >> 6;
    if (!highest) {
        for (std::uint64_t w = w0; w < w1; w += k) {
            if (whole(w))
                return w << 6;
        }
    } else {
        for (std::uint64_t w = w1; w > w0;) {
            w -= k;
            if (whole(w))
                return w << 6;
        }
    }
    return invalidPfn;
}

std::uint64_t
ContigIndex::fullyFreeBlocks(unsigned order) const
{
    flush();
    if (order == 0)
        return freePages_;
    ctg_assert(order <= maxQueryOrder);
    if (order < hugeOrder) {
        return planeBlocks(freeBits, 0, n_ & ~((Pfn{1} << order) - 1),
                           order, /*all=*/true);
    }
    return fullFree_[order];
}

std::uint64_t
ContigIndex::taintedBlocks(unsigned order) const
{
    flush();
    if (order == 0)
        return unmovablePages_;
    ctg_assert(order <= maxQueryOrder);
    if (order < hugeOrder) {
        return planeBlocks(unmovBits, 0, n_ & ~((Pfn{1} << order) - 1),
                           order, /*all=*/false);
    }
    return tainted_[order];
}

std::uint64_t
ContigIndex::freePagesIn(Pfn lo, Pfn hi) const
{
    flush();
    if (lo == 0 && hi == n_)
        return freePages_;
    return pagesIn(freeBits, &Node::free, lo, hi);
}

std::uint64_t
ContigIndex::unmovablePagesIn(Pfn lo, Pfn hi) const
{
    flush();
    if (lo == 0 && hi == n_)
        return unmovablePages_;
    return pagesIn(unmovBits, &Node::unmov, lo, hi);
}

std::uint64_t
ContigIndex::movableMtPagesIn(Pfn lo, Pfn hi) const
{
    flush();
    return pagesIn(movableMtBits, &Node::movableMt, lo, hi);
}

std::uint64_t
ContigIndex::fullyFreeBlocksIn(Pfn lo, Pfn hi, unsigned order) const
{
    flush();
    const Pfn span = Pfn{1} << order;
    ctg_assert(lo % span == 0 && hi % span == 0);
    ctg_assert(lo <= hi && hi <= n_);
    if (lo == 0 && hi == (n_ & ~(span - 1)))
        return fullyFreeBlocks(order);
    if (order == 0)
        return freePagesIn(lo, hi);
    if (order < hugeOrder)
        return planeBlocks(freeBits, lo, hi, order, /*all=*/true);
    std::uint64_t blocks = 0;
    const std::vector<Node> &nodes = level(order);
    for (std::uint64_t i = lo >> order; i < (hi >> order); ++i)
        blocks += nodes[i].free == span ? 1 : 0;
    return blocks;
}

std::uint64_t
ContigIndex::taintedBlocksIn(Pfn lo, Pfn hi, unsigned order) const
{
    flush();
    const Pfn span = Pfn{1} << order;
    ctg_assert(lo % span == 0 && hi % span == 0);
    ctg_assert(lo <= hi && hi <= n_);
    if (lo == 0 && hi == (n_ & ~(span - 1)))
        return taintedBlocks(order);
    if (order == 0)
        return unmovablePagesIn(lo, hi);
    if (order < hugeOrder)
        return planeBlocks(unmovBits, lo, hi, order, /*all=*/false);
    std::uint64_t blocks = 0;
    const std::vector<Node> &nodes = level(order);
    for (std::uint64_t i = lo >> order; i < (hi >> order); ++i)
        blocks += nodes[i].unmov > 0 ? 1 : 0;
    return blocks;
}

std::uint32_t
ContigIndex::nodeFreePages(unsigned order, std::uint64_t index) const
{
    flush();
    ctg_assert(order >= 1 && order <= top_);
    if (order < hugeOrder) {
        ctg_assert((index << order) < n_);
        return static_cast<std::uint32_t>(
            planeCount(freeBits, index << order, (index + 1) << order));
    }
    ctg_assert(index < level(order).size());
    return level(order)[index].free;
}

std::uint32_t
ContigIndex::nodeUnmovablePages(unsigned order,
                                std::uint64_t index) const
{
    flush();
    ctg_assert(order >= 1 && order <= top_);
    if (order < hugeOrder) {
        ctg_assert((index << order) < n_);
        return static_cast<std::uint32_t>(
            planeCount(unmovBits, index << order, (index + 1) << order));
    }
    ctg_assert(index < level(order).size());
    return level(order)[index].unmov;
}

ContigIndex::BlockClass
ContigIndex::blockClass(Pfn pfn) const
{
    flush();
    ctg_assert(pfn < n_);
    const std::uint64_t index = pfn >> hugeOrder;
    const Node &node = level(hugeOrder)[index];
    const std::uint64_t base = index << hugeOrder;
    const std::uint32_t coverage = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pagesPerHuge, n_ - base));
    BlockClass cls;
    cls.free = node.free;
    cls.unmovable = node.unmov;
    cls.pinned = static_cast<std::uint32_t>(
        planeCount(pinnedBits, base, base + coverage));
    cls.movableAlloc = coverage - node.free - node.unmov;
    return cls;
}

std::uint64_t
ContigIndex::mixedBlocksIn(Pfn lo, Pfn hi) const
{
    flush();
    ctg_assert(lo % pagesPerHuge == 0 && hi % pagesPerHuge == 0);
    ctg_assert(lo <= hi && hi <= n_);
    std::uint64_t total = 0;
    decompose(lo, hi, top_, [&](unsigned order, std::uint64_t index) {
        total += level(order)[index].mixed;
    });
    return total;
}

template <typename NodeHas, typename AtStop>
Pfn
ContigIndex::descendRec(unsigned order, std::uint64_t index, Pfn lo,
                        Pfn hi, unsigned stop, bool highest,
                        const NodeHas &nodeHas,
                        const AtStop &atStop) const
{
    const Pfn base = Pfn{index} << order;
    const Pfn cover_end = std::min<Pfn>(base + (Pfn{1} << order), n_);
    const Pfn a = std::max(base, lo);
    const Pfn b = std::min(cover_end, hi);
    if (a >= b)
        return invalidPfn;
    if (!nodeHas(level(order)[index], cover_end - base))
        return invalidPfn;
    if (order == stop)
        return atStop(index, a, b);
    const std::uint64_t c0 = index << 1;
    const std::uint64_t kids[2] = {highest ? c0 + 1 : c0,
                                   highest ? c0 : c0 + 1};
    for (const std::uint64_t ci : kids) {
        if (ci >= level(order - 1).size())
            continue;
        const Pfn r = descendRec(order - 1, ci, lo, hi, stop, highest,
                                 nodeHas, atStop);
        if (r != invalidPfn)
            return r;
    }
    return invalidPfn;
}

template <typename NodeHas, typename AtStop>
Pfn
ContigIndex::descend(Pfn lo, Pfn hi, unsigned stop, bool highest,
                     const NodeHas &nodeHas, const AtStop &atStop) const
{
    ctg_assert(lo <= hi && hi <= n_);
    if (lo >= hi)
        return invalidPfn;
    const std::uint64_t t0 = lo >> top_;
    const std::uint64_t t1 = (hi - 1) >> top_;
    if (!highest) {
        for (std::uint64_t ti = t0; ti <= t1; ++ti) {
            const Pfn r = descendRec(top_, ti, lo, hi, stop, false,
                                     nodeHas, atStop);
            if (r != invalidPfn)
                return r;
        }
    } else {
        for (std::uint64_t ti = t1 + 1; ti > t0;) {
            const Pfn r = descendRec(top_, --ti, lo, hi, stop, true,
                                     nodeHas, atStop);
            if (r != invalidPfn)
                return r;
        }
    }
    return invalidPfn;
}

Pfn
ContigIndex::firstMixedBlock(Pfn lo, Pfn hi) const
{
    flush();
    ctg_assert(lo % pagesPerHuge == 0 && hi % pagesPerHuge == 0);
    // With pageblock-aligned bounds, a pageblock node that intersects
    // the range lies fully inside it.
    return descend(
        lo, hi, hugeOrder, /*highest=*/false,
        [](const Node &node, Pfn) { return node.mixed > 0; },
        [](std::uint64_t index, Pfn, Pfn) {
            return Pfn{index} << hugeOrder;
        });
}

Pfn
ContigIndex::firstFullyFreeSpan(unsigned order, Pfn lo, Pfn hi,
                                AddrPref pref) const
{
    flush();
    ctg_assert(order <= maxQueryOrder);
    ctg_assert(lo <= hi && hi <= n_);
    const Pfn span = Pfn{1} << order;
    lo = (lo + span - 1) & ~(span - 1);
    hi &= ~(span - 1);
    // An order above top_ exceeds the machine, so hi rounds to 0.
    if (lo >= hi)
        return invalidPfn;
    const bool highest = pref == AddrPref::High;
    const auto hasSpan = [order](const Node &node, Pfn) {
        return node.maxFF >= static_cast<int>(order);
    };
    if (order >= hugeOrder) {
        // At the target level, maxFF >= order means this very node is
        // a fully-free aligned order-block; span-aligned bounds plus
        // intersection guarantee it lies fully inside [lo, hi).
        return descend(lo, hi, order, highest, hasSpan,
                       [order](std::uint64_t index, Pfn, Pfn) {
                           return Pfn{index} << order;
                       });
    }
    return descend(lo, hi, hugeOrder, highest, hasSpan,
                   [&](std::uint64_t, Pfn a, Pfn b) {
                       return planeFind(freeBits, a, b, order, highest,
                                        /*invert=*/false);
                   });
}

template <typename NodeHas>
Pfn
ContigIndex::findFrame(Plane plane, bool invert, Pfn lo, Pfn hi,
                       const NodeHas &nodeHas) const
{
    return descend(lo, hi, hugeOrder, /*highest=*/false, nodeHas,
                   [&](std::uint64_t, Pfn a, Pfn b) {
                       return planeFind(plane, a, b, 0, false, invert);
                   });
}

Pfn
ContigIndex::firstAllocatedFrame(Pfn lo, Pfn hi) const
{
    flush();
    return findFrame(freeBits, /*invert=*/true, lo, hi,
                     [](const Node &node, Pfn coverage) {
                         return node.free < coverage;
                     });
}

Pfn
ContigIndex::firstUnmovableFrame(Pfn lo, Pfn hi) const
{
    flush();
    return findFrame(
        unmovBits, /*invert=*/false, lo, hi,
        [](const Node &node, Pfn) { return node.unmov > 0; });
}

Pfn
ContigIndex::firstMovableMtFrame(Pfn lo, Pfn hi) const
{
    flush();
    return findFrame(
        movableMtBits, /*invert=*/false, lo, hi,
        [](const Node &node, Pfn) { return node.movableMt > 0; });
}

std::uint64_t
ContigIndex::bytesUsed() const
{
    std::uint64_t bytes =
        sizeof(*this) + leafSrc_.capacity() + wordMaxFF_.capacity();
    bytes += words_.capacity() * sizeof(PlaneWord);
    bytes += dirty_.capacity() * sizeof(std::uint64_t);
    for (const std::vector<Node> &nodes : levels_)
        bytes += nodes.capacity() * sizeof(Node);
    return bytes;
}

} // namespace ctg
