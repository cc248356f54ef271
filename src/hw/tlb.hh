/**
 * @file
 * Address-translation hardware: two-level TLBs, page-walk caches,
 * and the hardware page walker that charges real memory accesses for
 * each radix level (Figure 3's page-walk cycles come from here).
 */

#ifndef CTG_HW_TLB_HH
#define CTG_HW_TLB_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/stat_registry.hh"
#include "hw/config.hh"
#include "hw/mem_hierarchy.hh"
#include "kernel/pagetable.hh"

namespace ctg
{

/**
 * Set-associative TLB holding leaf translations of any page size.
 */
class Tlb
{
  public:
    struct Entry
    {
        Vpn vpnHead = 0;    //!< order-aligned VPN of the mapping
        Pfn pfnHead = 0;
        std::uint64_t lru = 0;
        unsigned order = 0; //!< 0, 9 or 18
        bool valid = false;
    };

    Tlb(unsigned entries, unsigned assoc);

    /** Look up the translation covering vpn; nullptr on miss. */
    const Entry *lookup(Vpn vpn);

    /** Install a leaf translation. */
    void insert(Vpn vpn_head, Pfn pfn_head, unsigned order);

    /** Invalidate any entry covering vpn (INVLPG). */
    bool invalidate(Vpn vpn);

    /** Full flush. */
    void flushAll();

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t invalidations = 0;
    };

    Stats stats;

  private:
    std::uint64_t setOf(Vpn vpn, unsigned order) const;

    std::vector<Entry> entries_;
    std::uint64_t sets_;
    unsigned assoc_;
    std::uint64_t lruClock_ = 0;
    /** Valid entries per page size (index order / hugeOrder): a size
     * the TLB holds none of costs no set probe. */
    std::array<std::uint64_t, 3> held_{};
};

/**
 * Fully-associative page-walk cache for one radix level: caches the
 * physical address of the next-level table, letting the walker skip
 * upper levels.
 */
class PageWalkCache
{
  public:
    explicit PageWalkCache(unsigned entries);

    /** Key is the VPN prefix above the cached level. */
    bool lookup(std::uint64_t key, Addr *table_addr);
    void insert(std::uint64_t key, Addr table_addr);
    void flushAll();

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t key = 0;
        Addr tableAddr = 0;
        std::uint64_t lru = 0;
    };

    std::vector<Entry> entries_;
    std::uint64_t lruClock_ = 0;
};

/**
 * Per-core MMU: L1/L2 TLBs, page-walk caches and the walker.
 */
class Mmu
{
  public:
    Mmu(const HwConfig &config, CoreId core, MemHierarchy &mem);

    /** Result of a translation. */
    struct Result
    {
        bool valid = false;
        Addr paddr = 0;
        Cycles latency = 0;
        bool walked = false;     //!< required a page walk
        unsigned walkDepth = 0;  //!< levels touched by the walk
    };

    /**
     * Translate vaddr through the given page tables, charging TLB
     * and walk latencies (walk levels are real memory accesses).
     */
    Result translate(Addr vaddr, const PageTables &tables);

    /** Local INVLPG: drop the translation and pay the pipeline-flush
     * cost (Section 4: ~250 cycles measured). */
    Cycles invlpg(Vpn vpn);

    /** Flush everything (context switch with full flush). */
    void flushAll();

    Tlb &l1Tlb() { return l1_; }
    Tlb &l2Tlb() { return l2_; }

    struct Stats
    {
        std::uint64_t translations = 0;
        std::uint64_t walks = 0;
        Cycles walkCycles = 0;
        std::uint64_t invlpgs = 0;
    };

    const Stats &stats() const { return stats_; }

    /** Register MMU counters plus `l1`/`l2` TLB subtrees under the
     * given group (conventionally `<prefix>.coreN.mmu`). */
    void regStats(StatGroup group) const;

  private:
    const HwConfig &config_;
    CoreId core_;
    MemHierarchy &mem_;
    Tlb l1_;
    Tlb l2_;
    /** One PWC per upper level (PGD/PUD/PMD). */
    std::vector<PageWalkCache> pwcs_;
    Stats stats_;
};

} // namespace ctg

#endif // CTG_HW_TLB_HH
