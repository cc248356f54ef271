/**
 * @file
 * Multicore cache hierarchy: per-core L1/L2, ring-connected shared
 * LLC slices with an inclusive directory, and DRAM. The model is
 * functional-plus-timing: each access executes atomically, returning
 * its latency and maintaining MESI-style single-writer coherence and
 * a per-line data token used by the migration correctness tests.
 *
 * The Contiguitas-HW extension hooks in at the LLC: requests to a
 * page with a live migration mapping are redirected to the canonical
 * line (Figure 8c) and, in noncacheable mode, bypass the private
 * caches entirely.
 */

#ifndef CTG_HW_MEM_HIERARCHY_HH
#define CTG_HW_MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/stat_registry.hh"
#include "hw/cache.hh"
#include "hw/chw/migration_table.hh"
#include "hw/config.hh"

namespace ctg
{

/**
 * The memory system shared by all simulated cores and devices.
 */
class MemHierarchy
{
  public:
    /** Panics unless 1 <= config.cores <= 32, the width of the
     * sharer bitmaps. */
    explicit MemHierarchy(const HwConfig &config);

    /** Result of one memory access. */
    struct Outcome
    {
        Cycles latency = 0;
        std::uint64_t value = 0;
        bool servedFromDram = false;
        bool redirected = false;   //!< canonicalized by Contiguitas-HW
        bool bypassedPrivate = false; //!< noncacheable handling
    };

    /**
     * Perform a coherent load or store of the line containing paddr.
     *
     * @param core issuing core
     * @param paddr physical byte address
     * @param write true for stores
     * @param write_value token stored on a write
     */
    Outcome access(CoreId core, Addr paddr, bool write,
                   std::uint64_t write_value = 0);

    /** DMA access from a cache-coherent device (NIC): goes straight
     * to the LLC like a noncacheable agent. */
    Outcome deviceAccess(Addr paddr, bool write,
                         std::uint64_t write_value = 0);

    /** @{ Copy-engine primitives (Contiguitas-HW, Figure 8c). */
    /** BusRdX on the source line: invalidate private copies and pull
     * the latest version into its home LLC slice. Returns the value
     * and the cycles the operation took. */
    std::uint64_t busRdX(Addr line_addr, Cycles *cost);

    /** Write a copied value into the destination line's home slice,
     * invalidating stale private copies of the destination name. */
    void copyWrite(Addr line_addr, std::uint64_t value, Cycles *cost);

    /** True if some core holds the line Modified (cacheable-mode
     * copy skips such destination lines). */
    bool lineModifiedInPrivate(Addr line_addr) const;
    /** @} */

    /** Authoritative value of a line (tests/verification). */
    std::uint64_t authoritativeValue(Addr line_addr) const;

    /** Preset main-memory contents for a line (test setup). */
    void pokeMemory(Addr line_addr, std::uint64_t value);

    /** Invalidate a line from every private cache. */
    void invalidatePrivate(Addr line_addr);

    MigrationTable &migrationTable() { return table_; }
    const HwConfig &config() const { return config_; }

    /** Home slice of a physical line (XOR hash, Section 3.3). */
    unsigned sliceOf(Addr line_addr) const;

    /** Ring hops between two slice positions. */
    Cycles ringLat(unsigned from, unsigned to) const;

    struct Stats
    {
        std::uint64_t accesses = 0;
        std::uint64_t l1Hits = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t llcHits = 0;
        std::uint64_t dramFills = 0;
        std::uint64_t redirects = 0;
        std::uint64_t crossSliceForwards = 0;
        std::uint64_t ncBypasses = 0;
        std::uint64_t nackRetries = 0;
        std::uint64_t writebacks = 0;
        std::uint64_t upgrades = 0;
    };

    const Stats &stats() const { return stats_; }

    /** Register hierarchy counters under the given group
     * (conventionally `<prefix>.mem_hierarchy`). */
    void regStats(StatGroup group) const;

    /**
     * Test hook: check the directory-superset invariant that
     * back-invalidation relies on. Every valid L1/L2 line is present
     * in its home LLC slice with its core's bit set in `sharers`,
     * every valid L2 line's `dirWay` names that LLC entry, and every
     * owner is a sharer.
     * @return empty if it holds, else the first violation found
     */
    std::string directoryViolation() const;

  private:
    struct PrivateCaches
    {
        std::unique_ptr<CacheArray> l1;
        std::unique_ptr<CacheArray> l2;
    };

    /** Resolve redirection; returns canonical line and whether the
     * access must bypass the private caches. */
    Addr resolveLine(CoreId core, Addr line_addr, bool *redirected,
                     bool *noncacheable, Cycles *extra);

    /** Read the freshest value of a canonical line without changing
     * cache contents. */
    std::uint64_t freshValue(Addr line_addr) const;

    /** Fill a line that missed its LLC slice from DRAM, evicting
     * (and back-invalidating) the set's LRU victim. */
    CacheEntry &llcInsert(CacheArray &slice, Addr line_addr);

    /** Get or create the LLC entry for a line; a DRAM fill adds its
     * latency to `extra`. */
    CacheEntry &llcFill(Addr line_addr, Cycles *extra);

    /** Remove a core from an LLC entry's sharer set. */
    static void dropSharer(CacheEntry &entry, CoreId core);

    /** Make `core` the only sharer and the owner of a line,
     * invalidating every other sharer's private copies. */
    void claimExclusive(CacheEntry &dir, Addr line_addr, CoreId core);

    /** Invalidate a line in the L1 and L2 of each core in a bitmap. */
    void invalidateCores(Addr line_addr, std::uint32_t cores);

    void backInvalidate(const CacheEntry &evicted);

    /** @{ Main memory: a linear-probing table of the lines ever
     * stored nonzero. A slot's key is its lineKey() (0 marks an
     * empty slot), held in memKeys_ beside its value in memValues_.
     * Nothing is erased: storing 0 keeps a present line, and an
     * absent line reads as 0. The capacity is a power of two and
     * doubles when the table passes 3/4 load. */
    std::uint64_t loadMemory(Addr line_addr) const;
    void storeMemory(Addr line_addr, std::uint64_t value);
    /** The slot holding key, or the empty slot where it belongs. */
    std::size_t memSlot(std::uint32_t key) const;
    void growMemory();
    /** @} */

    HwConfig config_;
    std::vector<PrivateCaches> cores_;
    std::vector<std::unique_ptr<CacheArray>> slices_;
    std::vector<std::uint32_t> memKeys_;
    std::vector<std::uint64_t> memValues_;
    std::size_t memLines_ = 0; //!< occupied slots
    MigrationTable table_;
    Stats stats_;
};

} // namespace ctg

#endif // CTG_HW_MEM_HIERARCHY_HH
