/**
 * @file
 * Kernel substrate tests: PSI, slab, page tables, address spaces,
 * compaction, churn pools, netstack and reclaim.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "base/rng.hh"
#include "base/serde.hh"
#include "base/units.hh"
#include "kernel/addrspace.hh"
#include "kernel/churn.hh"
#include "kernel/compaction.hh"
#include "kernel/fsbuffers.hh"
#include "kernel/kernel.hh"
#include "kernel/netstack.hh"
#include "kernel/pagetable.hh"
#include "kernel/psi.hh"
#include "kernel/slab.hh"
#include "kernel/vanilla_policy.hh"
#include "mem/mem_stats.hh"
#include "mem/scanner.hh"

namespace ctg
{
namespace
{

KernelConfig
smallConfig()
{
    KernelConfig config;
    config.memBytes = 256_MiB;
    config.kernelTextBytes = 4_MiB;
    return config;
}

TEST(Psi, NoStallMeansZeroPressure)
{
    Psi psi;
    psi.advanceTo(1e6);
    EXPECT_DOUBLE_EQ(psi.pressure(), 0.0);
}

TEST(Psi, FullStallSaturatesNearHundred)
{
    Psi psi;
    for (int i = 1; i <= 20; ++i) {
        psi.recordStall(1e6);
        psi.advanceTo(i * 1e6);
    }
    EXPECT_GT(psi.pressure(), 95.0);
    EXPECT_LE(psi.pressure(), 100.0);
}

TEST(Psi, PressureDecaysAfterStallStops)
{
    Psi psi;
    psi.recordStall(5e5);
    psi.advanceTo(1e6);
    const double peak = psi.pressure();
    EXPECT_GT(peak, 0.0);
    psi.advanceTo(61e6); // a minute of calm
    EXPECT_LT(psi.pressure(), peak / 4.0);
}

TEST(Psi, StallClampedToInterval)
{
    Psi psi;
    psi.recordStall(10e6); // more stall than wall-clock
    psi.advanceTo(1e6);
    EXPECT_LE(psi.pressure(), 100.0);
}

TEST(KernelFacade, BootPlacesKernelText)
{
    Kernel kernel(smallConfig());
    const auto counts = kernel.mem().stats().unmovableBySource();
    const auto text_pages =
        counts[static_cast<unsigned>(AllocSource::KernelText)];
    EXPECT_EQ(text_pages, (4_MiB) / pageBytes);
}

TEST(KernelFacade, ReclaimInvokedOnFailure)
{
    class CountingShrinker : public Shrinker
    {
      public:
        std::uint64_t calls = 0;

        std::uint64_t
        shrink(std::uint64_t) override
        {
            ++calls;
            return 0;
        }
    };

    Kernel kernel(smallConfig());
    CountingShrinker shrinker;
    kernel.registerShrinker(&shrinker);

    // Exhaust memory.
    std::vector<Pfn> held;
    while (true) {
        AllocRequest req;
        req.order = maxOrder;
        req.mt = MigrateType::Movable;
        const Pfn p = kernel.allocPages(req);
        if (p == invalidPfn)
            break;
        held.push_back(p);
    }
    EXPECT_GT(shrinker.calls, 0u);
    EXPECT_GT(kernel.counters().allocFailures, 0u);
    for (const Pfn p : held)
        kernel.freePages(p);
}

TEST(Slab, ObjectRoundTrip)
{
    Kernel kernel(smallConfig());
    SlabAllocator slab(kernel);
    const auto handle = slab.allocObject(100);
    ASSERT_NE(handle, 0u);
    EXPECT_EQ(slab.liveObjects(), 1u);
    EXPECT_GE(slab.backingPages(), 1u);
    slab.freeObject(handle);
    EXPECT_EQ(slab.liveObjects(), 0u);
}

TEST(Slab, PacksObjectsOntoOnePage)
{
    Kernel kernel(smallConfig());
    SlabAllocator slab(kernel);
    std::vector<SlabAllocator::ObjHandle> handles;
    for (int i = 0; i < 32; ++i)
        handles.push_back(slab.allocObject(64));
    // 32 64-byte objects fit in one 4 KB page.
    EXPECT_EQ(slab.backingPages(), 1u);
    for (const auto h : handles)
        slab.freeObject(h);
}

TEST(Slab, OneLiveObjectPinsThePage)
{
    Kernel kernel(smallConfig());
    SlabAllocator slab(kernel);
    std::vector<SlabAllocator::ObjHandle> handles;
    for (int i = 0; i < 64; ++i)
        handles.push_back(slab.allocObject(64));
    const std::uint64_t pages_before = slab.backingPages();
    // Free all but one object: the backing page must stay.
    for (std::size_t i = 1; i < handles.size(); ++i)
        slab.freeObject(handles[i]);
    EXPECT_EQ(slab.backingPages(), pages_before);
    slab.freeObject(handles[0]);
}

TEST(Slab, ShrinkerReleasesCachedSlabs)
{
    Kernel kernel(smallConfig());
    SlabAllocator slab(kernel);
    std::vector<SlabAllocator::ObjHandle> handles;
    for (int i = 0; i < 4096; ++i)
        handles.push_back(slab.allocObject(512));
    for (const auto h : handles)
        slab.freeObject(h);
    // Empty slabs are cached until shrunk.
    EXPECT_GT(slab.backingPages(), 0u);
    slab.shrink(~std::uint64_t{0});
    EXPECT_EQ(slab.backingPages(), 0u);
}

TEST(Slab, DistinctHandlesWhileLive)
{
    Kernel kernel(smallConfig());
    SlabAllocator slab(kernel);
    std::set<SlabAllocator::ObjHandle> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto h = slab.allocObject(192);
        EXPECT_TRUE(seen.insert(h).second);
    }
}

TEST(PageTablesTest, MapTranslateUnmap)
{
    Kernel kernel(smallConfig());
    PageTables tables(kernel);
    ASSERT_TRUE(tables.map(0x1000, 777, 0));
    const Translation t = tables.translate(0x1000);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.pfn, 777u);
    EXPECT_EQ(t.order, 0u);
    EXPECT_TRUE(tables.unmap(0x1000));
    EXPECT_FALSE(tables.translate(0x1000).valid);
}

TEST(PageTablesTest, HugeLeafCoversRange)
{
    Kernel kernel(smallConfig());
    PageTables tables(kernel);
    ASSERT_TRUE(tables.map(0, 4096, hugeOrder));
    const Translation t = tables.translate(300);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.order, hugeOrder);
    EXPECT_EQ(t.pfn, 4096u + 300u);
}

TEST(PageTablesTest, GiganticLeaf)
{
    Kernel kernel(smallConfig());
    PageTables tables(kernel);
    ASSERT_TRUE(tables.map(0, 0, gigaOrder));
    const Translation t = tables.translate(pagesPerGiga - 1);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.order, gigaOrder);
    EXPECT_EQ(t.pfn, pagesPerGiga - 1);
}

TEST(PageTablesTest, TablePagesAreUnmovableAllocations)
{
    Kernel kernel(smallConfig());
    const auto before = kernel.mem().stats().unmovableBySource();
    PageTables tables(kernel);
    // Map sparse addresses to force distinct table paths.
    for (Vpn vpn = 0; vpn < 8; ++vpn)
        ASSERT_TRUE(tables.map(vpn << 27, 1, 0));
    const auto after = kernel.mem().stats().unmovableBySource();
    const auto idx = static_cast<unsigned>(AllocSource::PageTables);
    EXPECT_GT(after[idx], before[idx]);
    EXPECT_EQ(after[idx] - before[idx], tables.tablePages());
}

TEST(PageTablesTest, WalkDepthVariesWithPageSize)
{
    Kernel kernel(smallConfig());
    PageTables tables(kernel);
    ASSERT_TRUE(tables.map(0, 1, 0));
    ASSERT_TRUE(tables.map(pagesPerGiga, 4096, hugeOrder));
    unsigned depth4k = 0, depth2m = 0;
    tables.walkAddrs(0, &depth4k);
    tables.walkAddrs(pagesPerGiga, &depth2m);
    EXPECT_EQ(depth4k, 4u);
    EXPECT_EQ(depth2m, 3u);
}

/** FNV-1a (64-bit) over a byte buffer. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** A fixed op sequence over every table shape: 4 KB leaves across
 * three PTE tables, 40 huge leaves in one PMD table (past the
 * sparse limit, then back below it), a gigantic leaf, several PGD
 * entries, unmaps that leave an empty PTE table which a huge leaf
 * then retires in place, and repoints. */
void
buildFixedTables(PageTables &tables)
{
    for (Vpn vpn = 0; vpn < 3 * pagesPerHuge; vpn += 3)
        ASSERT_TRUE(tables.map(vpn, 1000 + vpn, 0));
    for (Vpn i = 0; i < 40; ++i)
        ASSERT_TRUE(tables.map(pagesPerGiga + i * pagesPerHuge,
                               0x10000 + i * pagesPerHuge, hugeOrder));
    ASSERT_TRUE(tables.map(5 * pagesPerGiga, 0x4000000, gigaOrder));
    for (Vpn i = 1; i < 6; ++i)
        ASSERT_TRUE(tables.map(i << 27 | i << 9 | i, 7 * i, 0));
    for (Vpn vpn = 0; vpn < 3 * pagesPerHuge; vpn += 3) {
        if (vpn >= pagesPerHuge && vpn < 2 * pagesPerHuge) {
            ASSERT_TRUE(tables.unmap(vpn));
        }
    }
    ASSERT_TRUE(tables.map(pagesPerHuge, 0x20000, hugeOrder));
    ASSERT_TRUE(tables.repoint(3, 4242));
    ASSERT_TRUE(tables.repoint(pagesPerGiga + 5 * pagesPerHuge, 0x30000));
    for (Vpn i = 10; i < 40; i += 2)
        ASSERT_TRUE(tables.unmap(pagesPerGiga + i * pagesPerHuge));
    ASSERT_TRUE(tables.unmap(Vpn{2} << 27 | 2 << 9 | 2));
}

TEST(PageTablesTest, SnapshotBytesMatchParentFormat)
{
    // The hash was captured on the std::map-based implementation:
    // checkpoint bytes must not move without a snapshot format
    // version bump.
    Kernel kernel(smallConfig());
    PageTables tables(kernel);
    buildFixedTables(tables);
    serde::Writer out;
    tables.saveTo(out);
    EXPECT_EQ(fnv1a(out.bytes()), 0x683363817f2d6b24ull);
}

TEST(PageTablesTest, LeafOrderMustMatchItsLevel)
{
    Kernel kernel(smallConfig());
    PageTables tables(kernel);
    ASSERT_TRUE(tables.map(0, 5, 0));
    serde::Writer out;
    tables.saveTo(out);
    std::vector<std::uint8_t> bytes = out.bytes();
    // Header (two u64), then per table a u64 backing and a u32
    // count, per entry u16 index, bool leaf, u32 order, u64 pfn and
    // bool child. The PTE leaf is the fourth table's only entry.
    constexpr std::size_t header = 16, table = 12, entry = 16;
    const std::size_t order_at = header + 3 * (table + entry) + table + 3;
    ASSERT_EQ(bytes.size(), header + 4 * (table + entry));
    ASSERT_EQ(bytes[order_at], 0u);
    bytes[order_at] = hugeOrder;
    serde::Reader in(bytes);
    try {
        PageTables restored(kernel, in);
        ADD_FAILURE() << "a 2 MB-order leaf in a PTE table was accepted";
    } catch (const serde::Error &e) {
        EXPECT_NE(std::string(e.what()).find("order"), std::string::npos)
            << e.what();
    }
}

/**
 * Reference model for the property test: leaves by head vpn, and
 * live tables by (level, vpn >> (9 * level)) with their entry counts
 * and the backing frame walks reported for them.
 */
class PageTableModel
{
  public:
    struct Leaf
    {
        Pfn pfn;
        unsigned order;
    };
    using TableKey = std::pair<unsigned, Vpn>;
    struct TableInfo
    {
        unsigned entries = 0;
        Pfn backing = invalidPfn;
    };

    static TableKey
    keyAt(Vpn vpn, unsigned level)
    {
        return {level, vpn >> (PageTables::bitsPerLevel * level)};
    }

    static unsigned
    levelOf(unsigned order)
    {
        return order / PageTables::bitsPerLevel + 1;
    }

    /** Head and leaf covering vpn, or nullptr. */
    const std::pair<const Vpn, Leaf> *
    covering(Vpn vpn) const
    {
        auto it = leaves_.upper_bound(vpn);
        if (it == leaves_.begin())
            return nullptr;
        --it;
        return vpn - it->first < (Vpn{1} << it->second.order) ? &*it
                                                              : nullptr;
    }

    /** Would PageTables::map accept this leaf without a panic? */
    bool
    canMap(Vpn vpn, unsigned order) const
    {
        if (covering(vpn) != nullptr)
            return false;
        const unsigned level = levelOf(order);
        if (level == 1)
            return true;
        auto it = tables_.find(keyAt(vpn, level - 1));
        return it == tables_.end() || it->second.entries == 0;
    }

    void
    map(Vpn vpn, Pfn pfn, unsigned order)
    {
        const unsigned leaf_level = levelOf(order);
        for (unsigned level = PageTables::levels; level > leaf_level;
             --level) {
            if (tables_.emplace(keyAt(vpn, level - 1), TableInfo{})
                    .second)
                bump(keyAt(vpn, level), +1);
        }
        leaves_[vpn] = Leaf{pfn, order};
        auto child = leaf_level > 1 ? tables_.find(keyAt(vpn, leaf_level - 1))
                                    : tables_.end();
        if (child != tables_.end()) {
            // Retired in place: the slot goes from table to leaf.
            backings_.erase(child->second.backing);
            tables_.erase(child);
            ++retires_;
        } else {
            bump(keyAt(vpn, leaf_level), +1);
        }
    }

    bool
    unmap(Vpn vpn)
    {
        const auto *hit = covering(vpn);
        if (hit == nullptr)
            return false;
        const Vpn head = hit->first;
        bump(keyAt(head, levelOf(hit->second.order)), -1);
        leaves_.erase(head);
        return true;
    }

    bool
    repoint(Vpn vpn, Pfn pfn)
    {
        const auto *hit = covering(vpn);
        if (hit == nullptr)
            return false;
        leaves_[hit->first].pfn = pfn;
        return true;
    }

    /** Check translate and walkAddrs of one vpn against the model. */
    void
    check(const PageTables &tables, Vpn vpn)
    {
        const Translation tr = tables.translate(vpn);
        const auto *hit = covering(vpn);
        ASSERT_EQ(tr.valid, hit != nullptr) << "vpn " << vpn;
        if (hit != nullptr) {
            EXPECT_EQ(tr.order, hit->second.order);
            EXPECT_EQ(tr.level, levelOf(hit->second.order));
            EXPECT_EQ(tr.pfn, hit->second.pfn + (vpn - hit->first));
        }

        unsigned depth = 0;
        const auto addrs = tables.walkAddrs(vpn, &depth);
        unsigned want = 0;
        for (unsigned level = PageTables::levels; level >= 1; --level) {
            TableInfo &info = tables_.at(keyAt(vpn, level));
            ASSERT_LT(want, depth) << "vpn " << vpn;
            const Addr addr = addrs[want++];
            const unsigned idx = static_cast<unsigned>(
                (vpn >> ((level - 1) * PageTables::bitsPerLevel)) &
                0x1ff);
            EXPECT_EQ(addr % pageBytes, idx * 8u);
            const Pfn backing = addr / pageBytes;
            if (info.backing == invalidPfn) {
                const bool fresh =
                    backings_.emplace(backing, keyAt(vpn, level)).second;
                EXPECT_TRUE(fresh) << "two live tables share frame "
                                   << backing;
                info.backing = backing;
            }
            EXPECT_EQ(info.backing, backing);
            if (level == 1 || !tables_.count(keyAt(vpn, level - 1)))
                break;
        }
        EXPECT_EQ(depth, want) << "vpn " << vpn;
    }

    void
    checkCounts(const PageTables &tables) const
    {
        EXPECT_EQ(tables.tablePages(), tables_.size());
        EXPECT_EQ(tables.mappings(), leaves_.size());
    }

    const std::map<Vpn, Leaf> &leaves() const { return leaves_; }
    unsigned retires() const { return retires_; }
    unsigned maxEntries() const { return maxEntries_; }
    unsigned emptied() const { return emptied_; }

  private:
    void
    bump(const TableKey &key, int delta)
    {
        TableInfo &info = tables_.at(key);
        info.entries = static_cast<unsigned>(
            static_cast<int>(info.entries) + delta);
        maxEntries_ = std::max(maxEntries_, info.entries);
        emptied_ += info.entries == 0;
    }

    std::map<Vpn, Leaf> leaves_;
    std::map<TableKey, TableInfo> tables_{
        {keyAt(0, PageTables::levels), TableInfo{}}};
    std::map<Pfn, TableKey> backings_;
    unsigned retires_ = 0;
    unsigned maxEntries_ = 0;
    unsigned emptied_ = 0;
};

TEST(PageTablesProperty, RandomOpsMatchOracle)
{
    KernelConfig config = smallConfig();
    Kernel kernel(config);
    std::vector<std::uint8_t> saved;
    {
        PageTables tables(kernel);
        PageTableModel model;
        Rng rng(15);
        // Two PGD entries. 1 GB leaves spread over 48 PUD slots and
        // 2 MB leaves over 48 PMD slots, so upper tables cross the
        // sparse limit; 4 KB leaves share a few PTE tables, which
        // fill and drain often.
        auto randomVpn = [&rng](unsigned order) {
            Vpn vpn = rng.below(2) << 27;
            if (order == gigaOrder)
                return vpn | rng.below(48) << 18;
            vpn |= rng.below(2) << 18;
            if (order == hugeOrder)
                return vpn | rng.below(48) << 9;
            return vpn | rng.below(4) << 9 | rng.below(16);
        };
        auto randomOrder = [&rng] {
            const std::uint64_t r = rng.below(10);
            return r < 5 ? 0u : r < 8 ? hugeOrder : gigaOrder;
        };
        // Alternate growing and shrinking phases so tables fill
        // past the limit and drain back to empty; end on a growing
        // phase so the snapshot below holds a full tree.
        for (int op = 0; op < 14000; ++op) {
            const bool grow = (op / 2000) % 2 == 0;
            Vpn vpn = 0;
            const std::uint64_t kind = rng.below(10);
            if (kind < (grow ? 7u : 2u)) {
                const unsigned order = randomOrder();
                vpn = randomVpn(order);
                if (!model.canMap(vpn, order))
                    continue;
                const Pfn pfn = rng.below(Pfn{1} << 40) >> order << order;
                ASSERT_TRUE(tables.map(vpn, pfn, order));
                model.map(vpn, pfn, order);
            } else if (kind < 9 && !model.leaves().empty()) {
                // Unmap a live leaf through any vpn it covers.
                auto it = model.leaves().begin();
                std::advance(it, rng.below(model.leaves().size()));
                vpn = it->first + rng.below(Vpn{1} << it->second.order);
                EXPECT_TRUE(tables.unmap(vpn));
                EXPECT_TRUE(model.unmap(vpn));
            } else {
                vpn = randomVpn(randomOrder());
                const Pfn pfn = rng.below(Pfn{1} << 40);
                const bool hit = model.repoint(vpn, pfn);
                EXPECT_EQ(tables.repoint(vpn, pfn), hit);
                if (rng.chance(0.3)) {
                    EXPECT_EQ(tables.unmap(vpn), model.unmap(vpn));
                }
            }
            model.check(tables, vpn);
            for (int probe = 0; probe < 3; ++probe)
                model.check(tables, randomVpn(randomOrder()));
            model.checkCounts(tables);
            if (HasFailure())
                FAIL() << "diverged at op " << op;
        }
        for (const auto &[head, leaf] : model.leaves())
            model.check(tables, head + (Vpn{1} << leaf.order) - 1);
        EXPECT_GT(model.retires(), 0u);
        EXPECT_GT(model.maxEntries(), 32u);
        EXPECT_GT(model.emptied(), 0u);
        EXPECT_GT(tables.mappings(), 200u);

        serde::Writer out;
        kernel.saveTo(out);
        tables.saveTo(out);
        saved = out.take();
    }

    // Restore into a fresh kernel (the frames belong to it) and
    // check that the tree serializes to the same bytes.
    serde::Reader in(saved);
    Kernel restored_kernel(
        config,
        [&in](Kernel &k) {
            return std::make_unique<VanillaPolicy>(k.mem(), in);
        },
        in);
    const std::size_t tables_at = saved.size() - in.remaining();
    PageTables restored(restored_kernel, in);
    EXPECT_EQ(in.remaining(), 0u);
    serde::Writer again;
    restored.saveTo(again);
    EXPECT_EQ(again.bytes(),
              std::vector<std::uint8_t>(saved.begin() + tables_at,
                                        saved.end()));
}

TEST(AddressSpaceTest, TouchBacksWithThp)
{
    Kernel kernel(smallConfig());
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(8_MiB);
    const std::uint64_t backed = space.touchRange(base, 8_MiB);
    EXPECT_EQ(backed, (8_MiB) / pageBytes);
    // Fresh memory: THP should back everything with 2 MB chunks.
    EXPECT_EQ(space.chunks2m(), 4u);
    EXPECT_EQ(space.pages4k(), 0u);
}

TEST(AddressSpaceTest, ThpDisabledUses4k)
{
    KernelConfig config = smallConfig();
    config.thpEnabled = false;
    Kernel kernel(config);
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(2_MiB);
    space.touchRange(base, 2_MiB);
    EXPECT_EQ(space.chunks2m(), 0u);
    EXPECT_EQ(space.pages4k(), pagesPerHuge);
}

TEST(AddressSpaceTest, MunmapReleasesEverything)
{
    Kernel kernel(smallConfig());
    const std::uint64_t free_before =
        kernel.policy().freeUserPages();
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(16_MiB);
    space.touchRange(base, 16_MiB);
    space.munmap(base);
    // Page-table pages may remain; user pages must all be back.
    EXPECT_EQ(space.backedPages(), 0u);
    const std::uint64_t free_after = kernel.policy().freeUserPages();
    EXPECT_GE(free_after + 64, free_before); // tables tolerance
}

TEST(AddressSpaceTest, RelocateUpdatesTranslation)
{
    Kernel kernel(smallConfig());
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(1_MiB);
    space.touchRange(base, 1_MiB);
    const Translation before = space.translate(base);
    ASSERT_TRUE(before.valid);

    // Simulate what compaction does.
    AllocRequest req;
    req.order = before.order;
    req.mt = MigrateType::Movable;
    const Pfn fresh = kernel.allocPages(req);
    ASSERT_NE(fresh, invalidPfn);
    const std::uint64_t owner =
        kernel.mem().frame(before.pfn).owner();
    ASSERT_TRUE(kernel.owners().relocate(owner, before.pfn, fresh));
    EXPECT_EQ(space.translate(base).pfn, fresh);
}

TEST(CompactionTest, FormsHugeBlockFromFragmentedMemory)
{
    Kernel kernel(smallConfig());
    AddressSpace space(kernel, 1);

    // Back a large range with 4 KB pages (thp off via odd sizes),
    // then punch holes: memory is fragmented but fully movable.
    const Addr base = space.mmap(128_MiB);
    space.touchRange(base, 128_MiB);
    space.releasePages((64_MiB) / pageBytes, kernel.rng());

    // Consume the naturally coalesced large blocks so compaction has
    // real work to do.
    std::vector<Pfn> hogs;
    while (true) {
        const Pfn p = kernel.policy().movableAllocator().allocPages(
            hugeOrder, MigrateType::Movable, AllocSource::User, 0,
            AddrPref::None, false);
        if (p == invalidPfn)
            break;
        hogs.push_back(p);
    }
    for (const Pfn p : hogs)
        kernel.freePages(p);

    const CompactionResult r = kernel.compact(hugeOrder);
    EXPECT_TRUE(r.targetReached);
}

TEST(CompactionTest, UnmovablePageBlocksPageblock)
{
    Kernel kernel(smallConfig());
    // A lone kernel page inside a pageblock makes it unmovable for
    // compaction purposes.
    AllocRequest req;
    req.order = 0;
    req.mt = MigrateType::Unmovable;
    req.source = AllocSource::Slab;
    const Pfn p = kernel.allocPages(req);
    ASSERT_NE(p, invalidPfn);
    const CompactionResult r = compactRange(
        kernel.policy().movableAllocator(), kernel.owners(),
        0, kernel.mem().numFrames(), 1u << 20);
    EXPECT_GT(r.blockedPageblocks, 0u);
    kernel.freePages(p);
}

TEST(CompactionTest, UnalignedRangeStartPanics)
{
    // The migrate scanner steps whole pageblocks from lo; callers
    // pass buddy zone edges, which are pageblock-aligned.
    Kernel kernel(smallConfig());
    EXPECT_THROW(compactRange(kernel.policy().movableAllocator(),
                              kernel.owners(), 1,
                              kernel.mem().numFrames(), 1u << 20),
                 PanicError);
}

TEST(CompactionTest, CompactUntilBlockedPageblocksIsSnapshot)
{
    // THP would back the range with whole pageblocks (never mixed),
    // leaving compaction nothing to migrate — use 4 KB pages.
    KernelConfig kconfig = smallConfig();
    kconfig.thpEnabled = false;
    Kernel kernel(kconfig);
    AddressSpace space(kernel, 1);

    // Scatter some unmovable pages so pageblocks are blocked, then
    // fragment movable memory so the first pass has real migrations
    // and a second pass runs.
    std::vector<Pfn> slabs;
    for (int i = 0; i < 6; ++i) {
        AllocRequest req;
        req.order = 0;
        req.mt = MigrateType::Unmovable;
        req.source = AllocSource::Slab;
        const Pfn p = kernel.allocPages(req);
        ASSERT_NE(p, invalidPfn);
        slabs.push_back(p);
    }
    const Addr base = space.mmap(48_MiB);
    space.touchRange(base, 48_MiB);
    space.releasePages((16_MiB) / pageBytes, kernel.rng());

    BuddyAllocator &alloc = kernel.policy().movableAllocator();
    // An order the buddy lists can never satisfy (> maxOrder), so
    // compaction always runs its full multi-pass loop.
    const CompactionResult total =
        compactUntil(alloc, kernel.owners(), gigaOrder, 1u << 20);
    EXPECT_GT(total.migrated, 0u);
    EXPECT_FALSE(total.targetReached);

    // blockedPageblocks is a final-pass *snapshot*: it must equal
    // the number of pageblocks currently containing an unmovable
    // page — not that count summed once per pass.
    const Pfn lo = alloc.startPfn();
    const Pfn hi =
        lo + ((alloc.endPfn() - lo) / pagesPerHuge) * pagesPerHuge;
    std::uint64_t tainted = 0;
    for (Pfn block = lo; block < hi; block += pagesPerHuge) {
        for (Pfn pfn = block; pfn < block + pagesPerHuge; ++pfn) {
            if (kernel.mem().frame(pfn).isUnmovableAllocation()) {
                ++tainted;
                break;
            }
        }
    }
    EXPECT_GT(tainted, 0u);
    EXPECT_EQ(total.blockedPageblocks, tainted);
}

TEST(ChurnPoolTest, SteadyStateMatchesLittlesLaw)
{
    Kernel kernel(smallConfig());
    ChurnPool::Config config;
    config.ratePerSec = 2000;
    config.meanLifeSec = 0.5;
    config.longLivedFrac = 0.0;
    config.burstSigma = 0.0; // steady Poisson for Little's law
    ChurnPool pool(kernel, config, 7);
    pool.advanceTo(30.0);
    // Little's law: live ~= rate * mean life = 1000 pages (order 0).
    EXPECT_GT(pool.livePages(), 700u);
    EXPECT_LT(pool.livePages(), 1300u);
    pool.drain();
    EXPECT_EQ(pool.livePages(), 0u);
}

TEST(NetStackTest, RingsAndSkbsAreNetworkingUnmovable)
{
    Kernel kernel(smallConfig());
    NetStack::Config config;
    config.queues = 4;
    config.skbRatePerSec = 5000;
    NetStack net(kernel, config, 3);
    net.start();
    net.advanceTo(5.0);
    const auto counts = kernel.mem().stats().unmovableBySource();
    const auto idx = static_cast<unsigned>(AllocSource::Networking);
    EXPECT_GT(counts[idx], 0u);
    EXPECT_GE(counts[idx], net.livePages() / 2);
}

TEST(NetStackTest, PinsUserPages)
{
    Kernel kernel(smallConfig());
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(4_MiB);
    space.touchRange(base, 4_MiB);
    // Release THP chunking by touching with 4K: instead, just pin.
    NetStack net(kernel, {}, 3);
    // Force 4K pages by disabling THP at touch time is not possible
    // here; mmap another region with sub-huge size.
    const Addr small = space.mmap(64_KiB);
    space.touchRange(small, 64_KiB);
    const std::uint64_t pinned = net.pinUserPages(space, 8);
    EXPECT_GT(pinned, 0u);
    EXPECT_EQ(net.pinnedPages(), pinned);
    net.unpinAll();
    EXPECT_EQ(net.pinnedPages(), 0u);
}

TEST(FsBuffersTest, CacheGrowsAndShrinks)
{
    Kernel kernel(smallConfig());
    FsBuffers::Config config;
    config.cacheGrowthPagesPerSec = 1000;
    FsBuffers fs(kernel, config, 11);
    fs.advanceTo(10.0);
    EXPECT_GT(fs.cachePages(), 5000u);
    const std::uint64_t freed = fs.shrink(1000);
    EXPECT_EQ(freed, 1000u);
}

} // namespace
} // namespace ctg
