/**
 * @file
 * Incremental per-order contiguity accounting (DESIGN.md §11).
 *
 * The paper's fleet metrics (Figures 4, 5, 11, 12) were originally
 * computed by full scans over the frame array, re-run for four block
 * orders on every sampler tick of every server — the dominant
 * wall-clock cost of a population run. The ContigIndex replaces the
 * rescans with two layers of derived state:
 *
 *  - four 1-bit-per-frame planes (free, unmovable, pinned,
 *    movable-migratetype) answer everything below the pageblock by
 *    popcount and count-trailing-zeros over 64-frame words;
 *  - a buddy-style tree rooted at the pageblock: each node at level L
 *    (hugeOrder <= L <= the machine's own top order) covers an
 *    aligned 2^L-frame block and holds its free, unmovable and
 *    movable-migratetype counts; global per-order counters track
 *    how many aligned blocks of order >= hugeOrder are fully free or
 *    contain at least one unmovable page.
 *
 * The index is *derived state*: it never interprets allocator
 * semantics, and it is maintained lazily, mark-then-flush. Mutation
 * sites re-publish the frame range they touched via resync(), which
 * only sets one dirty bit per 64-frame plane word covering the range
 * — O(k / 64) bit sets for k frames. Every read first flushes: it
 * rebuilds each dirty word, in ascending order, from the per-frame
 * truth (PageFrame flags), diffs it against the planes and folds the
 * summed count deltas of each touched pageblock into its node and
 * the node's ancestors — one pass over the dirty words, with the
 * tree height log2(machine) - hugeOrder rather than log2(machine).
 * Most mutations are overwritten before anything reads them (on the
 * perfbench workloads 96-98 % of marks land on a word already marked
 * since the last read), so a word and its ancestors are folded once
 * per read, not once per mutation. Because every counter is recomputed from the same
 * predicate the reference scanners use (PageFrame::isFree /
 * isUnmovableAllocation), a read sees the index of the current
 * frames — bit-identical to a fresh full scan, including across
 * fault-injected rollbacks; the MemAuditor cross-checks this.
 *
 * Threading: reads are const but rewrite the derived state (it is
 * `mutable`). An index is only ever touched by the thread that owns
 * its server — the fleet runs each server on one worker and hands it
 * to another thread only after that worker is done with it — so no
 * read races a flush; TSan checks the threaded fleet tests.
 *
 * Reads: past the flush, whole-machine counts are O(1) for order 0
 * and orders >= hugeOrder (the orders the figures report) and one
 * popcount pass over a plane for orders 1..hugeOrder-1. Arbitrary
 * [lo, hi) ranges take their unaligned ends from the planes and the
 * pageblock-aligned middle from tree nodes.
 *
 * Descent queries (DESIGN.md §12): beyond counting, the tree supports
 * positional search — "first mixed pageblock at or after lo", "first
 * (lowest or highest) fully-free aligned order-o block", "first
 * allocated/unmovable/movable-migratetype frame" — by descending from
 * the top level, pruning subtrees whose aggregates rule out a hit,
 * and finishing inside a pageblock with a bit search over the planes.
 * Two extra per-node aggregates make the pruning exact: `mixed`
 * counts compaction-worthy pageblocks (>= 1 free and >= 1
 * movable-allocated frame) in the subtree, and `maxFF` is the largest
 * order j such that the subtree contains a fully-free aligned order-j
 * block. The mutation hot paths (compactRange, region resizing,
 * findContigRange, exact-AddrPref popFree) are built on these.
 */

#ifndef CTG_MEM_CONTIG_INDEX_HH
#define CTG_MEM_CONTIG_INDEX_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "mem/frame.hh"

namespace ctg
{

/** Hierarchical occupancy index over one FrameArray. */
class ContigIndex
{
  public:
    explicit ContigIndex(const FrameArray &frames);

    /** Highest block order the queries answer (1 GB blocks). The
     * tree itself stops at the machine's own top order; larger
     * orders have no aligned block inside the machine. */
    static constexpr unsigned maxQueryOrder = gigaOrder;

    /**
     * Mark frames [lo, hi) for re-reading: the next read rebuilds the
     * plane words covering them from the frame array. Every code path
     * that mutates a frame's free/unmovable/pinned/source state must
     * call this (via PhysMem::noteFramesChanged) before the next
     * metric read.
     */
    void resync(Pfn lo, Pfn hi);

    /** @{ Whole-machine counters: O(1) for order 0 and orders >=
     * hugeOrder, one plane pass for the orders in between. */
    std::uint64_t numFrames() const { return n_; }
    std::uint64_t
    freePages() const
    {
        flush();
        return freePages_;
    }
    std::uint64_t
    unmovablePages() const
    {
        flush();
        return unmovablePages_;
    }
    std::uint64_t
    pinnedPages() const
    {
        flush();
        return pinnedPages_;
    }
    /** Aligned order-blocks fully inside the machine. */
    std::uint64_t
    alignedBlocks(unsigned order) const
    {
        return n_ >> order;
    }
    /** Fully-free aligned blocks of the given order. */
    std::uint64_t fullyFreeBlocks(unsigned order) const;
    /** Aligned blocks containing at least one unmovable page. */
    std::uint64_t taintedBlocks(unsigned order) const;
    /** Unmovable page counts keyed by AllocSource (Figure 6). */
    const std::array<std::uint64_t, numAllocSources> &
    unmovableBySource() const
    {
        flush();
        return bySource_;
    }
    /** @} */

    /** @{ Range queries over [lo, hi), exact vs. a fresh scan. */
    std::uint64_t freePagesIn(Pfn lo, Pfn hi) const;
    std::uint64_t unmovablePagesIn(Pfn lo, Pfn hi) const;
    /** lo and hi must be order-aligned (callers trim like the
     * scanners do). */
    std::uint64_t fullyFreeBlocksIn(Pfn lo, Pfn hi,
                                    unsigned order) const;
    std::uint64_t taintedBlocksIn(Pfn lo, Pfn hi,
                                  unsigned order) const;
    /** @} */

    /** @{ Per-node occupancy of one aligned block (order >= 1);
     * index is the block number at that order. Used by the Section
     * 5.2 free-share metric and the auditor. */
    std::uint32_t nodeFreePages(unsigned order,
                                std::uint64_t index) const;
    std::uint32_t nodeUnmovablePages(unsigned order,
                                     std::uint64_t index) const;
    /** @} */

    /** @{ Descent queries (DESIGN.md §12). All are exact against a
     * fresh linear classification of the frame array; the mutation
     * hot paths rely on that to visit blocks and frames in the order
     * a linear walk would. */

    /** Per-frame classification counts of one pageblock, matching
     * the compactRange classifier: every frame is exactly one of
     * free, unmovable-allocation, or movable-allocation. pinned is a
     * sub-count of unmovable (a pinned allocated frame is an
     * unmovable allocation by definition). */
    struct BlockClass
    {
        std::uint32_t free = 0;
        std::uint32_t unmovable = 0;
        std::uint32_t pinned = 0;
        std::uint32_t movableAlloc = 0;
    };

    /** O(1): classify the pageblock containing pfn. */
    BlockClass blockClass(Pfn pfn) const;

    /** Lowest pageblock base in [lo, hi) with at least one free AND
     * one movable-allocated frame (the blocks compaction evacuates;
     * unmovable taint does not exclude a block, mirroring
     * compactRange). lo and hi must be pageblock-aligned. Returns
     * invalidPfn when none. O(log n). */
    Pfn firstMixedBlock(Pfn lo, Pfn hi) const;

    /** firstMixedBlock after the given block: searches
     * [block + pagesPerHuge, hi). */
    Pfn
    nextMixedBlock(Pfn block, Pfn hi) const
    {
        const Pfn next = block + pagesPerHuge;
        return next >= hi ? invalidPfn : firstMixedBlock(next, hi);
    }

    /** Count of mixed pageblocks in [lo, hi) (pageblock-aligned). */
    std::uint64_t mixedBlocksIn(Pfn lo, Pfn hi) const;

    /** Base of a fully-free aligned order-block within [lo, hi) —
     * the lowest such base, or the highest when pref is
     * AddrPref::High. lo is rounded up and hi down to order
     * alignment first (the reference scans consider exactly those
     * candidates). Returns invalidPfn when none. O(log n). */
    Pfn firstFullyFreeSpan(unsigned order, Pfn lo, Pfn hi,
                           AddrPref pref = AddrPref::None) const;

    /** Lowest allocated (non-free) frame in [lo, hi), or invalidPfn.
     * O(log n); lets range walks jump over free space. */
    Pfn firstAllocatedFrame(Pfn lo, Pfn hi) const;

    /** Lowest frame in [lo, hi) that is an unmovable allocation. */
    Pfn firstUnmovableFrame(Pfn lo, Pfn hi) const;

    /** Lowest allocated frame in [lo, hi) whose migratetype is
     * Movable (regardless of pin state — the region-confinement
     * audit predicate, not the compaction one). */
    Pfn firstMovableMtFrame(Pfn lo, Pfn hi) const;

    /** Count of allocated Movable-migratetype frames in [lo, hi). */
    std::uint64_t movableMtPagesIn(Pfn lo, Pfn hi) const;

    /** @} */

    /** @{ Maintenance counters (observability); reading them does
     * not flush. resync() calls and the frames they marked: */
    std::uint64_t resyncCalls() const { return resyncCalls_; }
    std::uint64_t framesRescanned() const { return framesRescanned_; }
    /** Reads that found dirty words, and the words they rebuilt. */
    std::uint64_t flushes() const { return flushes_; }
    std::uint64_t wordsRebuilt() const { return wordsRebuilt_; }
    /** Host bytes held by the index (planes, source cache, tree,
     * dirty bitmap). */
    std::uint64_t bytesUsed() const;
    /** @} */

  private:
    /** Bring the derived state up to date with the frames: rebuild
     * every dirty plane word in ascending order and fold each touched
     * pageblock's summed delta up the tree. Every public read calls
     * this first; it returns at once when nothing is dirty. */
    void flush() const;

    /** Per-block occupancy counts and search aggregates of one tree
     * node (level >= hugeOrder). The counts are additive, so a
     * change moves every ancestor by the same delta; the aggregates
     * (mixed, maxFF) are derived bottom-up. Pinned frames are only
     * ever counted per pageblock, so they come from the pinned
     * plane instead. */
    struct Node
    {
        std::uint32_t free = 0;
        std::uint32_t unmov = 0;
        /** Allocated frames with MigrateType::Movable (pin state
         * ignored — the region-confinement predicate). */
        std::uint32_t movableMt = 0;
        /** Mixed pageblocks (>= 1 free, >= 1 movable-allocated
         * frame) in the subtree; 0 or 1 at level hugeOrder. */
        std::uint32_t mixed = 0;
        /** Largest order j such that the subtree contains a
         * fully-free aligned order-j block; -1 when no frame is
         * free. */
        std::int8_t maxFF = -1;
    };

    /** The four 1-bit-per-frame predicate planes over one run of 64
     * frames, interleaved so a resync touches one cache line. */
    struct PlaneWord
    {
        std::uint64_t free = 0;
        /** Allocated and (not Movable-migratetype or pinned). */
        std::uint64_t unmov = 0;
        std::uint64_t pinned = 0;
        /** Allocated with MigrateType::Movable, pinned or not. */
        std::uint64_t movableMt = 0;
    };
    /** Selects one plane of a PlaneWord. */
    using Plane = std::uint64_t PlaneWord::*;
    static constexpr Plane freeBits = &PlaneWord::free;
    static constexpr Plane unmovBits = &PlaneWord::unmov;
    static constexpr Plane pinnedBits = &PlaneWord::pinned;
    static constexpr Plane movableMtBits = &PlaneWord::movableMt;
    static constexpr unsigned wordsPerBlock = pagesPerHuge / 64;

    /** Level `order` for flush() to update. */
    std::vector<Node> &
    foldLevel(unsigned order) const
    {
        return levels_[order - hugeOrder];
    }
    const std::vector<Node> &
    level(unsigned order) const
    {
        return levels_[order - hugeOrder];
    }

    /** Largest fully-free aligned order (<= hugeOrder) inside
     * pageblock `block`, from its words' wordMaxFF_; -1 if none. */
    int blockMaxFF(std::uint64_t block) const;
    /** Apply the summed plane deltas of one pageblock to its node,
     * then walk its ancestors: their counts move by the same deltas
     * and their maxFF is refolded from the two children. Keeps the
     * machine totals and per-order global counters current. */
    struct BlockDelta;
    void applyBlockDelta(std::uint64_t block, const BlockDelta &d) const;
    /** Rebuild plane word w from its in-machine frames and add its
     * count deltas to d; false when no bit changed. */
    bool rebuildWord(std::uint64_t w, BlockDelta &d) const;
    /** Per-order global counter update for one node that was fully
     * free / tainted before and is `now` (in-machine nodes only). */
    void countTransition(unsigned order, std::uint64_t index,
                         bool was_full, bool was_tainted,
                         const Node &now) const;

    /** Popcount of plane bits in [lo, hi). */
    std::uint64_t planeCount(Plane plane, Pfn lo, Pfn hi) const;
    /** Plane popcount of [lo, hi) plus tree counts for its
     * pageblock-aligned middle; field selects the node counter. */
    std::uint64_t pagesIn(Plane plane, std::uint32_t Node::*field,
                          Pfn lo, Pfn hi) const;
    /** Aligned order-blocks (order < hugeOrder) within the
     * order-aligned [lo, hi) whose plane bits are all set (all) or
     * include at least one set bit (!all). */
    std::uint64_t planeBlocks(Plane plane, Pfn lo, Pfn hi,
                              unsigned order, bool all) const;
    /** Lowest (or highest) base in the order-aligned [lo, hi), all
     * inside one pageblock, of an aligned order-block (order <
     * hugeOrder) whose plane bits are all set; bits are inverted
     * first when `invert`. invalidPfn when none. */
    Pfn planeFind(Plane plane, Pfn lo, Pfn hi, unsigned order,
                  bool highest, bool invert) const;

    /** Generic descent from the top level: nodeHas(node, coverage)
     * says whether a subtree can contain a hit; at level `stop`,
     * atStop(index, a, b) resolves the node clipped to [a, b).
     * Exact node predicates make the pruning lossless. Defined in
     * the .cc (only instantiated there). */
    template <typename NodeHas, typename AtStop>
    Pfn descend(Pfn lo, Pfn hi, unsigned stop, bool highest,
                const NodeHas &nodeHas, const AtStop &atStop) const;
    template <typename NodeHas, typename AtStop>
    Pfn descendRec(unsigned order, std::uint64_t index, Pfn lo,
                   Pfn hi, unsigned stop, bool highest,
                   const NodeHas &nodeHas,
                   const AtStop &atStop) const;
    /** First frame in [lo, hi) whose plane bit (inverted when
     * `invert`) is set, pruning on nodeHas. */
    template <typename NodeHas>
    Pfn findFrame(Plane plane, bool invert, Pfn lo, Pfn hi,
                  const NodeHas &nodeHas) const;

    /** True when the node covers only whole in-machine frames, i.e.
     * participates in the per-order global counters (mirrors the
     * scanners' trimming of a partial tail block). */
    bool
    nodeInMachine(unsigned order, std::uint64_t index) const
    {
        return ((index + 1) << order) <= n_;
    }

    const FrameArray &frames_;
    std::uint64_t n_;
    /** Top tree order: ceil(log2 n_) clamped to
     * [hugeOrder, maxQueryOrder]. */
    unsigned top_;

    /** One bit per plane word marked by resync() since the last
     * flush; dirtyLo_/dirtyHi_ bound the bitmap entries holding set
     * bits (none when dirtyLo_ >= dirtyHi_). flush() clears them. */
    mutable std::vector<std::uint64_t> dirty_;
    static constexpr std::uint64_t noDirty = ~std::uint64_t{0};
    mutable std::uint64_t dirtyLo_ = noDirty;
    mutable std::uint64_t dirtyHi_ = 0;

    // Everything below, up to the counters, is derived from the
    // frames and rewritten by flush().

    /** The planes, 64 frames per entry, padded to whole pageblocks
     * (padding bits stay zero). */
    mutable std::vector<PlaneWord> words_;
    /** Per free-plane word: the largest order o <= 6 of an aligned
     * fully-free block inside it, -1 when none (6 = whole word).
     * Lets a free-plane change refold its pageblock's maxFF without
     * re-searching the seven unchanged words. */
    mutable std::vector<std::int8_t> wordMaxFF_;
    /** Cached AllocSource of each unmovable frame. */
    mutable std::vector<std::uint8_t> leafSrc_;
    /** levels_[L - hugeOrder] holds level L, L in hugeOrder..top_
     * (empty above top_). */
    mutable std::array<std::vector<Node>, maxQueryOrder - hugeOrder + 1>
        levels_;

    mutable std::uint64_t freePages_ = 0;
    mutable std::uint64_t unmovablePages_ = 0;
    mutable std::uint64_t pinnedPages_ = 0;
    /** Indexed by order; only entries hugeOrder..top_ are maintained
     * (smaller orders answer from the planes, larger ones are 0). */
    mutable std::array<std::uint64_t, maxQueryOrder + 1> fullFree_{};
    mutable std::array<std::uint64_t, maxQueryOrder + 1> tainted_{};
    mutable std::array<std::uint64_t, numAllocSources> bySource_{};

    std::uint64_t resyncCalls_ = 0;
    std::uint64_t framesRescanned_ = 0;
    mutable std::uint64_t flushes_ = 0;
    mutable std::uint64_t wordsRebuilt_ = 0;
};

} // namespace ctg

#endif // CTG_MEM_CONTIG_INDEX_HH
