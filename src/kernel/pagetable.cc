#include "kernel/pagetable.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/serde.hh"

namespace ctg
{

namespace
{

/** Node level holding a leaf of the given order: 1 = PT (4 KB),
 * 2 = PMD (2 MB), 3 = PUD (1 GB). */
unsigned
leafNodeLevel(unsigned order)
{
    switch (order) {
      case 0:
        return 1;
      case hugeOrder:
        return 2;
      case gigaOrder:
        return 3;
      default:
        panic("unsupported page-table leaf order %u", order);
    }
}

/** Order of a leaf held at the given level (1..3). */
constexpr unsigned
leafOrderAt(unsigned level)
{
    return (level - 1) * PageTables::bitsPerLevel;
}

/** Highest level that can hold a leaf (PUD, 1 GB). */
constexpr unsigned maxLeafLevel = 3;

static_assert(leafOrderAt(2) == hugeOrder && leafOrderAt(3) == gigaOrder);

/** A leaf word's tag starts above its leaf bit and 32-bit pfn;
 * untaggedMask keeps those two. */
constexpr unsigned tagShift = 33;
constexpr std::uint64_t untaggedMask = (std::uint64_t{1} << tagShift) - 1;
static_assert(tagShift + PageTables::tagBits == 64);

/** Panic unless pfn fits the 32 bits a leaf word holds. */
void
checkLeafPfn(Pfn pfn)
{
    if (pfn >> 32 != 0)
        panic("page-table leaf pfn %#llx does not fit in 32 bits",
              static_cast<unsigned long long>(pfn));
}

/** Panic unless tag fits a leaf's software field. */
void
checkTag(std::uint32_t tag)
{
    if (tag >> PageTables::tagBits != 0)
        panic("page-table tag %#x does not fit in %u bits", tag,
              PageTables::tagBits);
}

} // namespace

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

    explicit Table(Pfn backing_pfn) : backing(backing_pfn) {}

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
    std::unique_ptr<Word[]> dense; //!< entriesPerTable words, or null
    std::vector<Slot> sparse;     //!< sorted by index while not dense
};

/** Translation of vpn through the leaf word at the given level. */
Translation
PageTables::leafTranslation(Word word, unsigned level, Vpn vpn)
{
    Translation tr;
    tr.valid = true;
    tr.order = leafOrderAt(level);
    tr.level = level;
    tr.pfn = Table::leafPfn(word) + (vpn & ((Vpn{1} << tr.order) - 1));
    tr.tag = Table::leafTag(word);
    return tr;
}

unsigned
PageTables::indexAt(Vpn vpn, unsigned level)
{
    ctg_assert(level >= 1 && level <= levels);
    return static_cast<unsigned>(
        (vpn >> ((level - 1) * bitsPerLevel)) & (entriesPerTable - 1));
}

PageTables::PageTables(Kernel &kernel)
    : kernel_(kernel)
{
    root_ = allocTable();
    if (!root_)
        fatal("cannot allocate page-table root");
}

PageTables::PageTables(Kernel &kernel, serde::Reader &in)
    : kernel_(kernel)
{
    const std::uint64_t tablePages = in.getU64();
    const std::uint64_t mappings = in.getU64();
    root_ = loadTable(in, levels);
    if (tablePages_ != tablePages || mappings_ != mappings)
        throw serde::Error("pagetable: node/mapping counts disagree "
                           "with serialized tree");
}

PageTables::~PageTables()
{
    freeTable(std::move(root_));
}

void
PageTables::saveTable(const Table &table, unsigned level,
                      serde::Writer &out)
{
    out.putU64(table.backing);
    out.putU32(table.count);
    table.forEach([level, &out](unsigned idx, Word word) {
        const bool leaf = Table::isLeaf(word);
        out.putU16(static_cast<std::uint16_t>(idx));
        out.putBool(leaf);
        out.putU32(leaf ? leafOrderAt(level) : 0);
        out.putU64(leaf ? Table::leafPfn(word) : invalidPfn);
        out.putBool(!leaf);
        if (!leaf)
            saveTable(*Table::asTable(word), level - 1, out);
    });
}

std::unique_ptr<PageTables::Table>
PageTables::loadTable(serde::Reader &in, unsigned level)
{
    if (level == 0)
        throw serde::Error("pagetable: tree deeper than 4 levels");
    auto table = std::make_unique<Table>(in.getU64());
    ++tablePages_;
    const std::uint32_t count = in.getU32();
    if (count > entriesPerTable)
        throw serde::Error("pagetable: node entry count too large");
    unsigned prev = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        const unsigned idx = in.getU16();
        if (idx >= entriesPerTable || (i > 0 && idx <= prev))
            throw serde::Error("pagetable: entry index out of order");
        prev = idx;
        const bool leaf = in.getBool();
        const unsigned order = in.getU32();
        const Pfn pfn = in.getU64();
        const bool hasChild = in.getBool();
        if (leaf == hasChild)
            throw serde::Error("pagetable: leaf/child disagreement");
        if (hasChild) {
            if (order != 0 || pfn != invalidPfn)
                throw serde::Error("pagetable: table entry carries "
                                   "a leaf target");
            table->insert(idx,
                          Table::tableWord(
                              loadTable(in, level - 1).release()),
                          level);
            continue;
        }
        if (level > maxLeafLevel || order != leafOrderAt(level))
            throw serde::Error("pagetable: leaf order does not match "
                               "its level");
        if (pfn >> 32 != 0)
            throw serde::Error("pagetable: leaf pfn out of range");
        table->insert(idx, Table::leafWord(pfn, 0), level);
        ++mappings_;
    }
    return table;
}

void
PageTables::saveTo(serde::Writer &out) const
{
    out.putU64(tablePages_);
    out.putU64(mappings_);
    saveTable(*root_, levels, out);
}

std::unique_ptr<PageTables::Table>
PageTables::allocTable()
{
    AllocRequest req;
    req.order = 0;
    req.mt = MigrateType::Unmovable;
    req.source = AllocSource::PageTables;
    req.lifetime = Lifetime::Long;
    const Pfn backing = kernel_.allocPages(req);
    if (backing == invalidPfn)
        return nullptr;
    ++tablePages_;
    return std::make_unique<Table>(backing);
}

void
PageTables::freeTable(std::unique_ptr<Table> table)
{
    pteCache_ = nullptr;
    table->forEach([this](unsigned, Word word) {
        if (!Table::isLeaf(word))
            freeTable(std::unique_ptr<Table>(Table::asTable(word)));
    });
    kernel_.freePages(table->backing);
    ctg_assert(tablePages_ > 0);
    --tablePages_;
    // The children are gone; keep ~Table from deleting them again.
    table->dropStorage();
}

bool
PageTables::map(Vpn vpn, Pfn pfn, unsigned order, std::uint32_t tag)
{
    const unsigned leaf_level = leafNodeLevel(order);
    ctg_assert((vpn & ((Vpn{1} << order) - 1)) == 0);
    checkLeafPfn(pfn);
    checkTag(tag);
    const Word leaf = Table::leafWord(pfn, tag);

    Table *table = leaf_level == 1 ? cachedPte(vpn) : nullptr;
    if (table == nullptr) {
        table = root_.get();
        for (unsigned level = levels; level > leaf_level; --level) {
            const unsigned idx = indexAt(vpn, level);
            Word word = table->get(idx);
            if (Table::isLeaf(word))
                panic("mapping conflict: leaf already present at "
                      "level %u",
                      level);
            if (word == 0) {
                std::unique_ptr<Table> child = allocTable();
                if (!child)
                    return false;
                word = Table::tableWord(child.release());
                table->insert(idx, word, level);
            }
            table = Table::asTable(word);
        }
        if (leaf_level == 1) {
            pteCache_ = table;
            pteCacheRange_ = vpn >> bitsPerLevel;
        }
    }

    const unsigned idx = indexAt(vpn, leaf_level);
    if (Word *slot = table->find(idx)) {
        // A lower-level table that was fully unmapped (e.g. before a
        // khugepaged collapse) can be retired in place.
        ctg_assert(!Table::isLeaf(*slot) &&
                   Table::asTable(*slot)->count == 0);
        freeTable(std::unique_ptr<Table>(Table::asTable(*slot)));
        *slot = leaf;
    } else {
        table->insert(idx, leaf, leaf_level);
    }
    ++mappings_;
    return true;
}

Translation
PageTables::unmap(Vpn vpn)
{
    Table *table = root_.get();
    for (unsigned level = levels; level >= 1; --level) {
        const unsigned idx = indexAt(vpn, level);
        const Word word = table->get(idx);
        if (word == 0)
            break;
        if (Table::isLeaf(word)) {
            table->erase(idx);
            ctg_assert(mappings_ > 0);
            --mappings_;
            return leafTranslation(word, level, vpn);
        }
        table = Table::asTable(word);
    }
    return Translation{};
}

PageTables::Word *
PageTables::leafSlot(Vpn vpn)
{
    // A PMD slot holding the cached table holds no leaf, so the leaf
    // covering vpn, if any, is in that table.
    if (Table *pte = cachedPte(vpn))
        return pte->find(indexAt(vpn, 1));
    Table *table = root_.get();
    for (unsigned level = levels; level >= 1; --level) {
        Word *slot = table->find(indexAt(vpn, level));
        if (slot == nullptr || Table::isLeaf(*slot))
            return slot;
        table = Table::asTable(*slot);
    }
    return nullptr;
}

bool
PageTables::repoint(Vpn vpn, Pfn old_pfn, Pfn new_pfn)
{
    checkLeafPfn(new_pfn);
    Word *slot = leafSlot(vpn);
    if (slot == nullptr || Table::leafPfn(*slot) != old_pfn)
        return false;
    *slot = Table::leafWord(new_pfn, Table::leafTag(*slot));
    return true;
}

void
PageTables::setTag(Vpn vpn, std::uint32_t tag)
{
    checkTag(tag);
    Word *slot = leafSlot(vpn);
    ctg_assert(slot != nullptr);
    *slot = (*slot & untaggedMask) | Word{tag} << tagShift;
}

Translation
PageTables::translate(Vpn vpn) const
{
    const Table *table = root_.get();
    for (unsigned level = levels; level >= 1; --level) {
        const Word word = table->get(indexAt(vpn, level));
        if (word == 0)
            break;
        if (Table::isLeaf(word))
            return leafTranslation(word, level, vpn);
        table = Table::asTable(word);
    }
    return Translation{};
}

Vpn
PageTables::nextHole(Vpn from, Vpn end) const
{
    if (from >= end)
        return end;
    if (const Table *pte = cachedPte(from)) {
        const Vpn base = from >> bitsPerLevel << bitsPerLevel;
        const Vpn stop = std::min(end, base + entriesPerTable);
        const Vpn hole = holeIn(*pte, 1, base, from, stop);
        if (hole < stop || stop == end)
            return hole;
        from = stop;
    }
    return holeIn(*root_, levels, 0, from, end);
}

Vpn
PageTables::holeIn(const Table &table, unsigned level, Vpn base,
                   Vpn from, Vpn end)
{
    const unsigned shift = (level - 1) * bitsPerLevel;
    const Vpn stop =
        std::min(end, base + (Vpn{entriesPerTable} << shift));
    if (level == 1) {
        if (table.count == 0)
            return from;
        if (table.count == entriesPerTable)
            return stop;
        Vpn vpn = from;
        while (vpn < stop && table.dense[vpn - base] != 0)
            ++vpn;
        return vpn;
    }
    for (Vpn vpn = from; vpn < stop;) {
        const unsigned idx = static_cast<unsigned>((vpn - base) >> shift);
        const Vpn head = base + (Vpn{idx} << shift);
        const Vpn next = std::min(stop, head + (Vpn{1} << shift));
        const Word word = table.get(idx);
        if (word == 0)
            return vpn;
        if (!Table::isLeaf(word)) {
            const Vpn hole = holeIn(*Table::asTable(word), level - 1,
                                    head, vpn, next);
            if (hole < next)
                return hole;
        }
        vpn = next;
    }
    return stop;
}

const PageTables::Table *
PageTables::pteTable(Vpn vpn) const
{
    const Table *table = root_.get();
    for (unsigned level = levels; level > 1; --level) {
        const Word word = table->get(indexAt(vpn, level));
        if (word == 0 || Table::isLeaf(word))
            return nullptr;
        table = Table::asTable(word);
    }
    return table;
}

unsigned
PageTables::ptesInRange(Vpn vpn) const
{
    const Table *table = pteTable(vpn);
    return table != nullptr ? table->count : 0;
}

bool
PageTables::anyPteIn(Vpn vpn, const std::function<bool(Pfn)> &pred) const
{
    const Table *table = pteTable(vpn);
    if (table == nullptr || table->count == 0)
        return false;
    for (unsigned i = 0; i < entriesPerTable; ++i)
        if (table->dense[i] != 0 && pred(Table::leafPfn(table->dense[i])))
            return true;
    return false;
}

std::vector<Vpn>
PageTables::fullPteRanges(std::size_t max) const
{
    std::vector<Vpn> out;
    if (max > 0)
        collectFull(*root_, levels, 0, max, out);
    return out;
}

void
PageTables::collectFull(const Table &table, unsigned level, Vpn base,
                        std::size_t max, std::vector<Vpn> &out)
{
    const unsigned shift = (level - 1) * bitsPerLevel;
    for (unsigned i = table.next(0); i < entriesPerTable;
         i = table.next(i + 1)) {
        const Word word = table.get(i);
        if (Table::isLeaf(word))
            continue;
        const Table &child = *Table::asTable(word);
        const Vpn head = base + (Vpn{i} << shift);
        if (level > 2)
            collectFull(child, level - 1, head, max, out);
        else if (child.count == entriesPerTable)
            out.push_back(head);
        if (out.size() >= max)
            return;
    }
}

void
PageTables::unmapRange(Vpn from, Vpn end, const RemovedFn &fn)
{
    if (from < end)
        unmapIn(*root_, levels, 0, from, end, fn);
}

void
PageTables::unmapIn(Table &table, unsigned level, Vpn base, Vpn from,
                    Vpn end, const RemovedFn &fn)
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

PageTables::Walk
PageTables::walk(Vpn vpn) const
{
    Walk walk;
    const Table *table = root_.get();
    for (unsigned level = levels; level >= 1; --level) {
        const unsigned idx = indexAt(vpn, level);
        walk.addrs[walk.depth++] =
            pfnToAddr(table->backing) + static_cast<Addr>(idx) * 8;
        const Word word = table->get(idx);
        if (word == 0)
            break;
        if (Table::isLeaf(word)) {
            walk.leaf = leafTranslation(word, level, vpn);
            break;
        }
        table = Table::asTable(word);
    }
    return walk;
}

} // namespace ctg
