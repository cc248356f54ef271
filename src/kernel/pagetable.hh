/**
 * @file
 * Four-level x86-64 radix page tables.
 *
 * Table pages are real simulated allocations (unmovable, source
 * PageTables) so the Figure 6 breakdown and the fragmentation they
 * cause are captured. A walk also returns the physical addresses a
 * hardware page walk touches at each level, which the hw simulator
 * uses to charge page-walk memory accesses (Figure 3).
 *
 * Supported leaf sizes mirror x86-64: 4 KB (PTE), 2 MB (PMD leaf)
 * and 1 GB (PUD leaf).
 *
 * Each table entry is one 64-bit word, as in hardware: 0 is empty,
 * an odd word is a leaf and a nonzero even word owns the
 * next-level table. A leaf word is tag << 33 | pfn << 1 | 1: bit 0
 * marks it, bits 1-32 hold the head frame (FrameArray keeps frame
 * numbers below 2^32) and bits 33-63 a 31-bit software field, like
 * the bits x86 leaves give the OS. The leaf's order is implied by
 * its level. The owner of the tables picks the tag: map sets it,
 * translate returns it, repoint keeps it and setTag rewrites it;
 * snapshots do not carry it. PTE tables hold a dense 512-word
 * array; upper tables keep sorted (index, word) pairs until they
 * pass sparseMaxEntries, because a process keeps many one-entry PMD
 * tables alive (every heap segment maps its own gigabyte) and dense
 * arrays there cost host RSS.
 *
 * Faulting a range in maps 4 KB pages one after another, so the
 * tables remember the PTE table that the last order-0 map reached
 * and its 2 MB range. Order-0 map, nextHole, repoint and setTag
 * start there, not at the root, when their vpn falls in that range.
 * The cached table stays in the tree while it lives: an emptied
 * table only drops its storage, and freeTable, the one place a
 * Table object goes away, clears the cache.
 */

#ifndef CTG_KERNEL_PAGETABLE_HH
#define CTG_KERNEL_PAGETABLE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "kernel/kernel.hh"

namespace ctg
{

namespace serde
{
class Writer;
class Reader;
} // namespace serde

/** Result of a translation lookup. */
struct Translation
{
    bool valid = false;
    Pfn pfn = invalidPfn;   //!< head frame of the leaf mapping
    unsigned order = 0;     //!< 0 (4K), 9 (2M) or 18 (1G)
    unsigned level = 0;     //!< radix level of the leaf (1=PTE..3=PUD)
    std::uint32_t tag = 0;  //!< the leaf's software field
};

/**
 * One process's radix page tables.
 */
class PageTables
{
  public:
    static constexpr unsigned levels = 4;
    static constexpr unsigned bitsPerLevel = 9;
    /** Width of a leaf's software field (the tag). */
    static constexpr unsigned tagBits = 31;

    explicit PageTables(Kernel &kernel);

    /** Checkpoint restore: adopt a serialized radix tree. Table
     * backing frames are already live in the restored frame table,
     * so this constructor performs no allocations. */
    PageTables(Kernel &kernel, serde::Reader &in);

    ~PageTables();

    PageTables(const PageTables &) = delete;
    PageTables &operator=(const PageTables &) = delete;

    /**
     * Install a leaf mapping vpn -> pfn of the given order
     * (0, hugeOrder or gigaOrder) carrying the software field tag.
     * vpn must be order-aligned; pfn must fit in 32 bits and tag in
     * tagBits (panics otherwise).
     * @return false if a table page allocation failed.
     */
    bool map(Vpn vpn, Pfn pfn, unsigned order, std::uint32_t tag = 0);

    /** Remove the leaf covering vpn. Returns the translation of vpn
     * before the removal; invalid if no leaf covered it. The table
     * that held the leaf stays, even when it empties. */
    Translation unmap(Vpn vpn);

    /** Repoint the leaf covering vpn from head frame old_pfn to
     * new_pfn (migration), keeping its tag. False, and nothing
     * changes, if no leaf covers vpn or its head frame is not
     * old_pfn. new_pfn must fit in 32 bits (panics otherwise). */
    bool repoint(Vpn vpn, Pfn old_pfn, Pfn new_pfn);

    /** Rewrite the software field of the leaf covering vpn, which
     * must exist. */
    void setTag(Vpn vpn, std::uint32_t tag);

    /** Look up the leaf covering vpn. */
    Translation translate(Vpn vpn) const;

    /**
     * First vpn in [from, end) that no leaf covers; end if there is
     * none. One descent: mapped 4 KB runs are scanned in their PTE
     * table, 2 MB and 1 GB leaves are stepped over whole.
     */
    Vpn nextHole(Vpn from, Vpn end) const;

    /**
     * Number of 4 KB leaves in the 2 MB range holding vpn: the entry
     * count of the PTE table in its PMD slot, 0 if the slot holds no
     * table. This is the THP occupancy of the range.
     */
    unsigned ptesInRange(Vpn vpn) const;

    /** Head vpns of the 2 MB ranges whose PTE table holds all
     * 512 4 KB leaves, ascending, at most max of them. */
    std::vector<Vpn> fullPteRanges(std::size_t max) const;

    /** True if pred(pfn) holds for the frame of some 4 KB leaf in
     * the 2 MB range holding vpn. Leaves are tried in vpn order, and
     * the first hit ends the scan. */
    bool anyPteIn(Vpn vpn, const std::function<bool(Pfn)> &pred) const;

    /** Called with the head vpn and translation of a removed leaf. */
    using RemovedFn = std::function<void(Vpn, const Translation &)>;

    /**
     * Remove every leaf that starts in [from, end), in ascending vpn
     * order, in one walk of the tree; fn runs right after each
     * removal. Emptied tables stay, as with unmap. fn may retag
     * leaves (setTag) but must not add or remove any.
     */
    void unmapRange(Vpn from, Vpn end, const RemovedFn &fn);

    /** What a hardware walk of one vpn reads and finds. */
    struct Walk
    {
        /** Physical addresses of the table entries read, root
         * first; the first depth of them are set. */
        std::array<Addr, levels> addrs{};
        /** Entries read, one per level visited: 4 down to a 4 KB
         * leaf, 3 to 2 MB, 2 to 1 GB; fewer if an empty slot ends
         * the walk early. */
        unsigned depth = 0;
        /** The leaf covering vpn, as translate returns it. */
        Translation leaf;
    };

    /** Walk the tables for vpn in one descent from the root. */
    Walk walk(Vpn vpn) const;

    /** Number of live table pages (unmovable PageTables frames). */
    std::uint64_t tablePages() const { return tablePages_; }

    /** Number of live leaf mappings. */
    std::uint64_t mappings() const { return mappings_; }

    /** Serialize the radix tree (checkpoint). */
    void saveTo(serde::Writer &out) const;

  private:
    /** One table entry; see the file comment for the encoding. */
    using Word = std::uint64_t;
    struct Table;

    static constexpr unsigned entriesPerTable = 1u << bitsPerLevel;
    /** An upper table switches from sorted pairs to a dense array
     * when it passes this many entries. */
    static constexpr unsigned sparseMaxEntries = 32;

    static unsigned indexAt(Vpn vpn, unsigned level);
    /** Translation of vpn through the leaf word at the given
     * level. */
    static Translation leafTranslation(Word word, unsigned level, Vpn vpn);

    std::unique_ptr<Table> allocTable();
    /** Free the subtree's frames in index order, children first, so
     * the buddy merge pattern (and everything downstream of it) is
     * a function of the tree alone, as bit-identical checkpoint
     * resume requires. */
    void freeTable(std::unique_ptr<Table> table);

    static void saveTable(const Table &table, unsigned level,
                          serde::Writer &out);
    std::unique_ptr<Table> loadTable(serde::Reader &in, unsigned level);

    /** nextHole within one table whose first entry maps vpn base;
     * the table's span end (capped at end) if it has no hole. */
    static Vpn holeIn(const Table &table, unsigned level, Vpn base,
                      Vpn from, Vpn end);

    /** The PTE table of the 2 MB range holding vpn, or nullptr. */
    const Table *pteTable(Vpn vpn) const;

    /** The cached PTE table if vpn falls in its 2 MB range, else
     * nullptr. */
    Table *
    cachedPte(Vpn vpn) const
    {
        return (vpn >> bitsPerLevel) == pteCacheRange_ ? pteCache_
                                                       : nullptr;
    }

    /** The word of the leaf covering vpn, or nullptr. */
    Word *leafSlot(Vpn vpn);

    static void collectFull(const Table &table, unsigned level, Vpn base,
                            std::size_t max, std::vector<Vpn> &out);

    /** unmapRange within one table whose first entry maps vpn base. */
    void unmapIn(Table &table, unsigned level, Vpn base, Vpn from,
                 Vpn end, const RemovedFn &fn);

    Kernel &kernel_;
    std::unique_ptr<Table> root_;
    std::uint64_t tablePages_ = 0;
    std::uint64_t mappings_ = 0;
    /** The PTE table the last order-0 map reached, and vpn >> 9 of
     * its 2 MB range; see the file comment. */
    Table *pteCache_ = nullptr;
    Vpn pteCacheRange_ = 0;
};

} // namespace ctg

#endif // CTG_KERNEL_PAGETABLE_HH
