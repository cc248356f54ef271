/**
 * @file
 * Linux-style binary buddy allocator with per-migratetype free lists.
 *
 * The allocator reproduces the mechanisms the paper's Section 2
 * identifies as the root cause of unmovable scattering:
 *
 *  - separate free lists per migratetype (MOVABLE/UNMOVABLE/RECLAIMABLE)
 *    over 2 MB pageblocks tagged with an owning migratetype;
 *  - fallback allocation that steals the *largest* free block from
 *    another migratetype when the native lists are empty, retagging
 *    whole pageblocks when the stolen block is large enough — this is
 *    how a single unmovable allocation lands in (and poisons) a
 *    movable pageblock;
 *  - frees return blocks to the free list of the *pageblock's*
 *    migratetype, perpetuating the mixing.
 *
 * An allocator instance covers a contiguous PFN range of a PhysMem.
 * The Contiguitas region manager runs two instances side by side and
 * moves pageblock-aligned ranges between them (attachRange /
 * detachRange), which is how the movable/unmovable boundary moves.
 */

#ifndef CTG_MEM_BUDDY_HH
#define CTG_MEM_BUDDY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/stat_registry.hh"
#include "base/types.hh"
#include "mem/physmem.hh"

namespace ctg
{

namespace serde
{
class Writer;
class Reader;
} // namespace serde

/**
 * Buddy allocator over [start, end) page frames of a PhysMem.
 */
class BuddyAllocator
{
  public:
    /** Allocation/free event counters. */
    struct Stats
    {
        std::uint64_t allocCalls = 0;
        std::uint64_t freeCalls = 0;
        std::uint64_t splits = 0;
        std::uint64_t merges = 0;
        std::uint64_t fallbackAllocs = 0;
        std::uint64_t pageblockSteals = 0;
        std::uint64_t failedAllocs = 0;
        std::uint64_t giganticAllocs = 0;
        std::uint64_t giganticFailures = 0;
        /** Failures forced by the fault injector (also counted in
         * failedAllocs / giganticFailures). */
        std::uint64_t injectedFailures = 0;
    };

    /**
     * Create an allocator covering [start, end). The range must be
     * pageblock-aligned and initially unallocated; all of it is added
     * to the free lists with the given initial pageblock migratetype.
     */
    BuddyAllocator(PhysMem &mem, Pfn start, Pfn end, std::string name,
                   MigrateType initial_block_mt = MigrateType::Movable);

    /**
     * Checkpoint restore: adopt serialized coverage, free-list
     * heads, counts and stats without seeding any free lists. The
     * frame table (which holds the intrusive list links) must
     * already be restored; the MemAuditor's free-list audit is the
     * deep validation pass. Throws serde::Error on malformed input.
     */
    BuddyAllocator(PhysMem &mem, serde::Reader &in);

    /** Serialize coverage, free-list heads, counts, knobs and stats
     * (checkpoint). The lists' membership lives in the FrameArray
     * links, serialized with PhysMem. */
    void saveTo(serde::Writer &out) const;

    /**
     * Allocate a 2^order page block.
     *
     * @param order buddy order (0..maxOrder)
     * @param mt requested migratetype
     * @param src allocation source tag (Figure 6 accounting)
     * @param owner opaque owner handle stored in the frame
     * @param pref address preference within the free list
     * @param allow_fallback permit cross-migratetype stealing
     * @return head PFN or invalidPfn on failure
     */
    Pfn allocPages(unsigned order, MigrateType mt, AllocSource src,
                   std::uint64_t owner = 0,
                   AddrPref pref = AddrPref::None,
                   bool allow_fallback = true);

    /** Free an allocated block by its head PFN (order is recorded). */
    void freePages(Pfn head);

    /**
     * Allocate up to n order-0 pages into out[0..n), exactly as n
     * back-to-back allocPages(0, mt, src, owner + i) calls would:
     * the same free lists (contents and order), counters, Stats,
     * frame metadata, owners and flushed index, and one fault
     * injector evaluation per page. Pages are carved from the lowest
     * non-empty native list at once; a page the native lists cannot
     * serve takes the allocPages fallback path. The run stops at the
     * first page that fails, which is counted as allocPages counts a
     * failure.
     * @return k, the pages allocated; if k < n, page k failed.
     */
    std::uint64_t allocRun(std::uint64_t n, MigrateType mt,
                           AllocSource src, std::uint64_t owner,
                           Pfn *out);

    /**
     * Free the allocated order-0 pages [lo, lo + n), exactly as
     * freePages(lo), ..., freePages(lo + n - 1) would: the blocks the
     * run forms stay off the lists until the end and are then linked
     * in formation order, so every list ends in the loop's order.
     */
    void freeRun(Pfn lo, std::uint64_t n);

    /**
     * Allocate a 1 GB aligned gigantic block by scanning for a fully
     * free aligned range (the Linux alloc_contig_range analogue).
     * @return head PFN or invalidPfn if no such range exists.
     */
    Pfn allocGigantic(MigrateType mt, AllocSource src,
                      std::uint64_t owner = 0);

    /** True if every frame in [lo, hi) is free. */
    bool rangeFullyFree(Pfn lo, Pfn hi) const;

    /**
     * Remove a fully-free pageblock-aligned range at either edge of
     * the coverage from this allocator (for region resizing). Frames
     * are left marked free but belong to no free list afterwards.
     */
    void detachRange(Pfn lo, Pfn hi);

    /**
     * Extend coverage with a pageblock-aligned range adjacent to the
     * current coverage; its frames are inserted as free blocks and the
     * pageblocks retagged. The range must be fully free with no
     * free-list heads — detachRange's postcondition — which makes the
     * handoff O(range / 2^maxOrder) rather than O(range).
     */
    void attachRange(Pfn lo, Pfn hi, MigrateType block_mt);

    /**
     * Quarantine a pageblock-aligned range (MIGRATE_ISOLATE
     * analogue): its pageblocks are retagged Isolate, free blocks in
     * it move to the Isolate lists, and frees inside it land on the
     * Isolate lists too — so the range drains as it is evacuated and
     * nothing new is placed there.
     */
    void isolateRange(Pfn lo, Pfn hi);

    /** Undo isolation, retagging pageblocks to restore_mt and moving
     * the Isolate free blocks back to that list. */
    void unisolateRange(Pfn lo, Pfn hi, MigrateType restore_mt);

    /** @{ Coverage and occupancy queries. */
    Pfn startPfn() const { return start_; }
    Pfn endPfn() const { return end_; }
    std::uint64_t totalPages() const { return end_ - start_; }
    std::uint64_t freePageCount() const;
    std::uint64_t freePageCount(MigrateType list_mt) const;
    std::uint64_t freeBlocks(MigrateType list_mt, unsigned order) const;
    /** Largest order with a nonempty free list, or -1 if none. */
    int largestFreeOrder() const;
    /** @} */

    const Stats &stats() const { return stats_; }

    /** Register this allocator's counters (and occupancy gauges)
     * under the given group, e.g. `<server>.mem.buddy.*`. */
    void regStats(StatGroup group) const;

    const std::string &name() const { return name_; }
    PhysMem &mem() { return mem_; }

    /** Verify free-list integrity; panics on violation (tests). */
    void checkInvariants() const;

    /**
     * Non-panicking form of checkInvariants: append a description of
     * every free-list violation to `out` (the MemAuditor collects
     * these across allocators). Safe on corrupted state — list walks
     * are iteration-capped so a cyclic link cannot hang the audit.
     * @return the number of violations appended.
     */
    unsigned auditFreeLists(std::vector<std::string> &out) const;

    /** Ablation knob: when true, small fallback steals move the
     * block remainder to the requester's list (pre-4.x Linux
     * behaviour) instead of leaving it with the victim. The default
     * (false) matches modern Linux and produces the unmovable
     * scattering the paper measures. */
    void
    setClaimRemainderOnSmallSteal(bool claim)
    {
        claimSmallSteals_ = claim;
    }

    /** How many free-list entries an AddrPref allocation scans for
     * the best-placed block. Small regions (the Contiguitas
     * unmovable region) can afford deeper scans for a stronger
     * away-from-border bias. */
    void
    setPrefScanCap(unsigned cap)
    {
        ctg_assert(cap >= 1);
        prefScanCap_ = cap;
    }

  private:
    /** Insert a free block at the front of list (list_mt, order). */
    void pushFree(Pfn head, unsigned order, MigrateType list_mt);

    /** Unlink a free head from its list (fields identify the list). */
    void removeFree(Pfn head);

    /** Pop a block from the non-empty list (mt, order) honoring the
     * address preference; scans at most prefScanCap list entries —
     * or, when PhysMem::exactAddrPref() is on, finds the exact
     * extreme entry via an index descent. */
    Pfn popFree(MigrateType mt, unsigned order, AddrPref pref);

    /** Exact lowest/highest-address (mt, order) free-list entry,
     * found by enumerating fully-free aligned order-blocks from the
     * preferred end of the coverage through the ContigIndex and
     * checking each candidate's head frame. Returns invalidPfn only
     * if the enumeration misses (callers fall back to the capped
     * scan). */
    Pfn exactPrefBest(MigrateType mt, unsigned order,
                      AddrPref pref) const;

    /** Split a free block down to the target order, pushing tail
     * halves onto list_mt lists. */
    Pfn splitTo(Pfn head, unsigned have, unsigned want,
                MigrateType list_mt);

    /** Stamp the frames of an allocated block. */
    void markAllocated(Pfn head, unsigned order, MigrateType mt,
                       AllocSource src, std::uint64_t owner);

    /** Insert [lo, hi) into the free lists as maximal aligned blocks. */
    void freeRangeAsBlocks(Pfn lo, Pfn hi, MigrateType list_mt);

    /** Split the free block straddling `cut` (if any) so no free
     * block crosses that PFN. */
    void splitFreeBlockAt(Pfn cut);

    /** Move every free block fully inside [lo, hi) onto the new
     * list; callers must have split straddlers first. */
    void relistFreeRange(Pfn lo, Pfn hi, MigrateType new_list_mt);

    bool inRange(Pfn pfn) const { return pfn >= start_ && pfn < end_; }

    unsigned prefScanCap_ = 64;

    PhysMem &mem_;
    FrameArray &frames_;
    Pfn start_;
    Pfn end_;
    std::string name_;

    bool claimSmallSteals_ = false;
    std::uint32_t heads_[numMigrateTypes][maxOrder + 1];
    /** Derived from heads_ (not serialized): bit o of entry mt is set
     * when list (mt, o) is non-empty, so allocPages jumps straight to
     * the first usable order. */
    std::uint32_t nonEmpty_[numMigrateTypes] = {};
    std::uint64_t freeCount_[numMigrateTypes] = {};
    std::uint64_t blockCount_[numMigrateTypes][maxOrder + 1] = {};
    Stats stats_;

    /** A free block freeRun formed and has not linked yet. */
    struct RunBlock
    {
        Pfn head;
        unsigned order;
        MigrateType listMt;
    };
    /** freeRun's pending blocks, ascending (host scratch). */
    std::vector<RunBlock> runBlocks_;
};

} // namespace ctg

#endif // CTG_MEM_BUDDY_HH
