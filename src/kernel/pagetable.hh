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
 * Table object goes away, clears the cache. For the same reason a
 * leaf's table outlives the leaf, so map returns it as a handle
 * that setTag takes back to retag the leaf without a descent; the
 * table knows its level, so the handle also gives the leaf's order.
 */

#ifndef CTG_KERNEL_PAGETABLE_HH
#define CTG_KERNEL_PAGETABLE_HH

#include <algorithm>
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

    /** One radix table, defined below the class. Outside
     * PageTables it is a handle: map returns the table a leaf went
     * into, and it stays valid while that leaf is mapped. */
    struct Table;

    /** Order of the leaves held in table. */
    static unsigned leafOrder(const Table &table);

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
     * @return the table holding the new leaf, nullptr if a table
     *         page allocation failed.
     */
    Table *map(Vpn vpn, Pfn pfn, unsigned order, std::uint32_t tag = 0);

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
     * must exist. Returns the table holding the leaf. */
    Table &setTag(Vpn vpn, std::uint32_t tag);

    /** setTag of the leaf at vpn held in table (as map returned
     * it), without a descent from the root. */
    void setTag(Table &table, Vpn vpn, std::uint32_t tag);

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

    /**
     * Remove every leaf that starts in [from, end), in ascending vpn
     * order, in one walk of the tree; fn(Vpn head, const Translation
     * &) runs right after each removal. Emptied tables stay, as with
     * unmap. fn may retag leaves (setTag) but must not add or remove
     * any.
     */
    template <typename Fn>
    void
    unmapRange(Vpn from, Vpn end, Fn &&fn)
    {
        if (from < end)
            unmapIn(*root_, levels, 0, from, end, fn);
    }

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

    static constexpr unsigned entriesPerTable = 1u << bitsPerLevel;
    /** An upper table switches from sorted pairs to a dense array
     * when it passes this many entries. */
    static constexpr unsigned sparseMaxEntries = 32;
    /** A leaf word's tag starts above its leaf bit and 32-bit pfn;
     * untaggedMask keeps those two. */
    static constexpr unsigned tagShift = 33;
    static constexpr Word untaggedMask = (Word{1} << tagShift) - 1;
    static_assert(tagShift + tagBits == 64);

    /** Order of a leaf held at the given level (1..3). */
    static constexpr unsigned
    leafOrderAt(unsigned level)
    {
        return (level - 1) * bitsPerLevel;
    }

    static unsigned indexAt(Vpn vpn, unsigned level);
    /** Translation of vpn through the leaf word at the given
     * level. */
    static Translation leafTranslation(Word word, unsigned level, Vpn vpn);

    /** A table at the given level, backed by a fresh frame. */
    std::unique_ptr<Table> allocTable(unsigned level);
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

    /** The word of the leaf covering vpn, or nullptr; *holder, if
     * given, is set to the table holding it. */
    Word *leafSlot(Vpn vpn, Table **holder = nullptr);

    static void collectFull(const Table &table, unsigned level, Vpn base,
                            std::size_t max, std::vector<Vpn> &out);

    /** unmapRange within one table whose first entry maps vpn base. */
    template <typename Fn>
    void unmapIn(Table &table, unsigned level, Vpn base, Vpn from,
                 Vpn end, Fn &fn);

    Kernel &kernel_;
    std::unique_ptr<Table> root_;
    std::uint64_t tablePages_ = 0;
    std::uint64_t mappings_ = 0;
    /** The PTE table the last order-0 map reached, and vpn >> 9 of
     * its 2 MB range; see the file comment. */
    Table *pteCache_ = nullptr;
    Vpn pteCacheRange_ = 0;
};

/**
 * One radix table. Level-1 tables allocate their dense array with
 * the first entry; upper tables start with sorted pairs and turn
 * dense on the entry after sparseMaxEntries. A table that empties
 * drops its host storage (its simulated frame stays).
 */
struct PageTables::Table
{
    struct Slot
    {
        std::uint16_t index;
        Word word;
    };

    Table(Pfn backing_pfn, unsigned table_level)
        : backing(backing_pfn),
          level(static_cast<std::uint8_t>(table_level))
    {}

    /** Deletes the child tables it owns (host memory only; frames
     * are freed by PageTables::freeTable). */
    ~Table()
    {
        forEach([](unsigned, Word word) {
            if (!isLeaf(word))
                delete asTable(word);
        });
    }

    Table(const Table &) = delete;
    Table &operator=(const Table &) = delete;

    static bool isLeaf(Word word) { return (word & 1) != 0; }
    static Table *asTable(Word word)
    {
        return reinterpret_cast<Table *>(word);
    }
    static Word tableWord(Table *table)
    {
        static_assert(sizeof(Table *) <= sizeof(Word));
        static_assert(alignof(Table) >= 2,
                      "table pointers must be even to tell them from "
                      "leaves");
        return reinterpret_cast<Word>(table);
    }
    static Word
    leafWord(Pfn pfn, std::uint32_t tag)
    {
        return Word{tag} << tagShift | pfn << 1 | 1;
    }
    static Pfn leafPfn(Word word) { return (word & untaggedMask) >> 1; }
    static std::uint32_t
    leafTag(Word word)
    {
        return static_cast<std::uint32_t>(word >> tagShift);
    }

    /** Position of the first sparse slot whose index is >= idx. */
    std::size_t
    lowerBound(unsigned idx) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(
                sparse.begin(), sparse.end(), idx,
                [](const Slot &s, unsigned i) { return s.index < i; }) -
            sparse.begin());
    }

    /** The word at idx (0 if empty). */
    Word
    get(unsigned idx) const
    {
        if (dense)
            return dense[idx];
        const std::size_t i = lowerBound(idx);
        return i < sparse.size() && sparse[i].index == idx
                   ? sparse[i].word
                   : 0;
    }

    /** The live word at idx, or nullptr. */
    Word *
    find(unsigned idx)
    {
        if (dense)
            return dense[idx] != 0 ? &dense[idx] : nullptr;
        const std::size_t i = lowerBound(idx);
        return i < sparse.size() && sparse[i].index == idx
                   ? &sparse[i].word
                   : nullptr;
    }

    /** Fill the empty slot idx of a table at the given level. */
    void
    insert(unsigned idx, Word word, unsigned level)
    {
        if (!dense && (level == 1 || count == sparseMaxEntries)) {
            dense = std::make_unique<Word[]>(entriesPerTable);
            for (const Slot &s : sparse)
                dense[s.index] = s.word;
            std::vector<Slot>().swap(sparse);
        }
        ++count;
        if (dense) {
            dense[idx] = word;
            return;
        }
        sparse.insert(sparse.begin() + lowerBound(idx),
                      Slot{static_cast<std::uint16_t>(idx), word});
    }

    /** Empty the live slot idx. */
    void
    erase(unsigned idx)
    {
        if (dense)
            dense[idx] = 0;
        else
            sparse.erase(sparse.begin() + lowerBound(idx));
        if (--count == 0)
            dropStorage();
    }

    void
    dropStorage()
    {
        dense.reset();
        std::vector<Slot>().swap(sparse);
    }

    /** First live index >= idx, or entriesPerTable. */
    unsigned
    next(unsigned idx) const
    {
        if (dense) {
            while (idx < entriesPerTable && dense[idx] == 0)
                ++idx;
            return idx;
        }
        const std::size_t i = lowerBound(idx);
        return i < sparse.size() ? sparse[i].index : entriesPerTable;
    }

    /** Visit live (index, word) pairs in index order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (dense) {
            for (unsigned i = 0; i < entriesPerTable; ++i)
                if (dense[i] != 0)
                    fn(i, dense[i]);
        } else {
            for (const Slot &s : sparse)
                fn(s.index, s.word);
        }
    }

    Pfn backing;                  //!< frame holding this table
    unsigned count = 0;           //!< live entries
    std::uint8_t level;           //!< 1 (PTE) to levels (root)
    std::unique_ptr<Word[]> dense; //!< entriesPerTable words, or null
    std::vector<Slot> sparse;     //!< sorted by index while not dense
};

inline unsigned
PageTables::leafOrder(const Table &table)
{
    return leafOrderAt(table.level);
}

inline Translation
PageTables::leafTranslation(Word word, unsigned level, Vpn vpn)
{
    static_assert(leafOrderAt(2) == hugeOrder &&
                  leafOrderAt(3) == gigaOrder);
    Translation tr;
    tr.valid = true;
    tr.order = leafOrderAt(level);
    tr.level = level;
    tr.pfn = Table::leafPfn(word) + (vpn & ((Vpn{1} << tr.order) - 1));
    tr.tag = Table::leafTag(word);
    return tr;
}

template <typename Fn>
void
PageTables::unmapIn(Table &table, unsigned level, Vpn base, Vpn from,
                    Vpn end, Fn &fn)
{
    const unsigned shift = (level - 1) * bitsPerLevel;
    const Vpn first = from > base ? (from - base) >> shift : 0;
    for (unsigned i = table.next(static_cast<unsigned>(
             std::min<Vpn>(first, entriesPerTable)));
         i < entriesPerTable; i = table.next(i + 1)) {
        const Vpn head = base + (Vpn{i} << shift);
        if (head >= end)
            break;
        const Word word = table.get(i);
        if (!Table::isLeaf(word)) {
            unmapIn(*Table::asTable(word), level - 1, head,
                    std::max(from, head), end, fn);
            continue;
        }
        // A huge leaf that starts before from is not in the range.
        if (head < from)
            continue;
        table.erase(i);
        ctg_assert(mappings_ > 0);
        --mappings_;
        fn(head, leafTranslation(word, level, head));
        // An erase that empties the table drops its storage; next()
        // reads it afresh and then finds no entry.
    }
}

} // namespace ctg

#endif // CTG_KERNEL_PAGETABLE_HH
