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

/** Highest level that can hold a leaf (PUD, 1 GB). */
constexpr unsigned maxLeafLevel = 3;

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
    root_ = allocTable(levels);
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
    // A kernel being torn down frees no frames; root_'s ~Table still
    // releases the host memory.
    if (!kernel_.tearingDown())
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
    auto table = std::make_unique<Table>(in.getU64(), level);
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
PageTables::allocTable(unsigned level)
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
    return std::make_unique<Table>(backing, level);
}

void
PageTables::freeTable(std::unique_ptr<Table> table)
{
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

PageTables::Table *
PageTables::map(Vpn vpn, Pfn pfn, unsigned order, std::uint32_t tag)
{
    const unsigned leaf_level = leafNodeLevel(order);
    ctg_assert((vpn & ((Vpn{1} << order) - 1)) == 0);
    checkLeafPfn(pfn);
    checkTag(tag);
    const Word leaf = Table::leafWord(pfn, tag);

    Table *table = root_.get();
    for (unsigned level = levels; level > leaf_level; --level) {
        const unsigned idx = indexAt(vpn, level);
        Word word = table->get(idx);
        if (Table::isLeaf(word))
            panic("mapping conflict: leaf already present at level %u",
                  level);
        if (word == 0) {
            std::unique_ptr<Table> child = allocTable(level - 1);
            if (!child)
                return nullptr;
            word = Table::tableWord(child.release());
            table->insert(idx, word, level);
        }
        table = Table::asTable(word);
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
    return table;
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
PageTables::leafSlot(Vpn vpn, Table **holder)
{
    Table *table = root_.get();
    for (unsigned level = levels;; --level) {
        Word *slot = table->find(indexAt(vpn, level));
        if (slot == nullptr || Table::isLeaf(*slot)) {
            if (holder != nullptr)
                *holder = table;
            return slot;
        }
        if (level == 1)
            return nullptr;
        table = Table::asTable(*slot);
    }
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

PageTables::Table &
PageTables::setTag(Vpn vpn, std::uint32_t tag)
{
    checkTag(tag);
    Table *table = nullptr;
    Word *slot = leafSlot(vpn, &table);
    ctg_assert(slot != nullptr);
    *slot = (*slot & untaggedMask) | Word{tag} << tagShift;
    return *table;
}

void
PageTables::setTag(Table &table, Vpn vpn, std::uint32_t tag)
{
    checkTag(tag);
    Word *slot = table.find(indexAt(vpn, table.level));
    ctg_assert(slot != nullptr && Table::isLeaf(*slot));
    *slot = (*slot & untaggedMask) | Word{tag} << tagShift;
}

std::uint64_t
PageTables::mapRun(Table &table, Vpn vpn, const Pfn *pfns,
                   std::uint64_t n, std::uint32_t tag)
{
    ctg_assert(table.level == 1 && table.dense != nullptr);
    const unsigned first = indexAt(vpn, 1);
    ctg_assert(first + n <= entriesPerTable);
    Word *slots = &table.dense[first];
    std::uint32_t mapped = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (pfns[i] == invalidPfn)
            continue;
        checkLeafPfn(pfns[i]);
        checkTag(tag + mapped);
        ctg_assert(slots[i] == 0);
        slots[i] = Table::leafWord(pfns[i], tag + mapped);
        ++mapped;
    }
    table.count += mapped;
    mappings_ += mapped;
    return mapped;
}

Vpn
PageTables::holeEnd(const Table &table, Vpn from, Vpn end)
{
    ctg_assert(table.level == 1);
    ctg_assert(from <= end);
    if (from == end || table.count == 0)
        return end;
    ctg_assert((end - 1) >> bitsPerLevel == from >> bitsPerLevel);
    const Word *slots = &table.dense[indexAt(from, 1)];
    Vpn vpn = from;
    while (vpn < end && *slots == 0) {
        ++vpn;
        ++slots;
    }
    return vpn;
}

Vpn
PageTables::holeStart(const Table &table, Vpn from, Vpn end)
{
    ctg_assert(table.level == 1);
    ctg_assert(from <= end);
    if (from == end)
        return end;
    ctg_assert((end - 1) >> bitsPerLevel == from >> bitsPerLevel);
    return holeIn(table, 1, from >> bitsPerLevel << bitsPerLevel, from,
                  end);
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
    return from < end ? holeIn(*root_, levels, 0, from, end) : end;
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
