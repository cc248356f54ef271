/**
 * @file
 * ContigIndex exactness properties: after ANY sequence of allocator
 * operations, every index counter must equal a fresh full scan of
 * the frame array (scan::reference), and every MemStats read must be
 * bit-identical to the reference loops — including every
 * double-valued metric (DESIGN.md §11).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/rng.hh"
#include "base/units.hh"
#include "fleet/fleet.hh"
#include "mem/buddy.hh"
#include "mem/contig_index.hh"
#include "mem/mem_stats.hh"
#include "mem/scanner.hh"

namespace ctg
{
namespace
{

/** Orders checked against the reference scanner: every order from 1
 * to 1 GB. Orders below the pageblock answer from the 1-bit planes
 * (orders 7 and 8 span several plane words); orders above a small
 * rig's own top order are trivially zero there and exercised on the
 * 1 GiB rigs. */
constexpr unsigned checkOrders[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,
                                    10, 11, 12, 13, 14, 15, 16, 17, 18};
static_assert(checkOrders[std::size(checkOrders) - 1] == scan::order1G);

/** Frame-walk ground truth independent of both the index and the
 * reference scanner's own arithmetic. */
struct WalkCounts
{
    std::uint64_t free = 0;
    std::uint64_t unmovable = 0;
    std::uint64_t pinned = 0;
};

WalkCounts
walkFrames(const PhysMem &mem)
{
    WalkCounts counts;
    for (Pfn p = 0; p < mem.numFrames(); ++p) {
        const auto f = mem.frame(p);
        counts.free += f.isFree();
        counts.unmovable += f.isUnmovableAllocation();
        counts.pinned += !f.isFree() && f.isPinned();
    }
    return counts;
}

/** Every index counter and every MemStats read must equal the
 * reference scan of the current frame array — exactly. `range_rng`
 * draws only the unaligned range, so `rng`'s stream, which callers
 * share with their operation sequence, is the same with or without
 * that check. */
void
expectIndexExact(const PhysMem &mem, Rng &rng, Rng &range_rng)
{
    const ContigIndex &idx = mem.contigIndex();
    const Pfn n = mem.numFrames();

    const WalkCounts truth = walkFrames(mem);
    EXPECT_EQ(idx.freePages(), truth.free);
    EXPECT_EQ(idx.unmovablePages(), truth.unmovable);
    EXPECT_EQ(idx.pinnedPages(), truth.pinned);
    EXPECT_EQ(idx.freePages(), scan::reference::freePages(mem, 0, n));
    EXPECT_EQ(idx.unmovableBySource(),
              scan::reference::unmovableBySource(mem, 0, n));

    for (const unsigned order : checkOrders) {
        EXPECT_EQ(idx.fullyFreeBlocks(order),
                  scan::reference::freeAlignedBlocks(mem, 0, n, order))
            << "order " << order;
        EXPECT_EQ(
            idx.taintedBlocks(order),
            scan::reference::unmovableAlignedBlocks(mem, 0, n, order))
            << "order " << order;
    }

    // The double-valued metrics must be bit-identical, not just
    // close: MemStats reproduces the reference arithmetic from
    // identical integer counts.
    const MemStats stats = mem.stats();
    EXPECT_EQ(stats.unmovablePageRatio(),
              scan::reference::unmovablePageRatio(mem, 0, n));
    EXPECT_EQ(stats.meanFreeShareOfUnmovableBlocks(),
              scan::reference::meanFreeShareOfUnmovableBlocks(mem, 0,
                                                              n));
    for (const unsigned order : checkOrders) {
        EXPECT_EQ(
            stats.freeContiguityFraction(order),
            scan::reference::freeContiguityFraction(mem, 0, n, order))
            << "order " << order;
        EXPECT_EQ(
            stats.unmovableBlockFraction(order),
            scan::reference::unmovableBlockFraction(mem, 0, n, order))
            << "order " << order;
        EXPECT_EQ(stats.potentialContiguityFraction(order),
                  scan::reference::potentialContiguityFraction(
                      mem, 0, n, order))
            << "order " << order;
    }

    // A random order-aligned subrange, through the range queries.
    const unsigned order =
        checkOrders[rng.below(std::size(checkOrders))];
    const Pfn span = Pfn{1} << order;
    if (n >= span) {
        const Pfn blocks = n >> order;
        const Pfn lo = rng.below(blocks) << order;
        const Pfn hi = (rng.range(lo >> order, blocks - 1) + 1)
                       << order;
        EXPECT_EQ(idx.freePagesIn(lo, hi),
                  scan::reference::freePages(mem, lo, hi));
        EXPECT_EQ(idx.fullyFreeBlocksIn(lo, hi, order),
                  scan::reference::freeAlignedBlocks(mem, lo, hi,
                                                     order));
        EXPECT_EQ(idx.taintedBlocksIn(lo, hi, order),
                  scan::reference::unmovableAlignedBlocks(mem, lo, hi,
                                                          order));
    }

    // A random unaligned subrange, through the ranged MemStats
    // reads: they must trim to whole blocks and divide by the range
    // exactly as the reference loops do.
    const Pfn ulo = range_rng.below(n);
    const Pfn uhi = range_rng.range(ulo + 1, n);
    EXPECT_EQ(stats.freePages(ulo, uhi),
              scan::reference::freePages(mem, ulo, uhi));
    EXPECT_EQ(stats.freeAlignedBlocks(ulo, uhi, order),
              scan::reference::freeAlignedBlocks(mem, ulo, uhi, order));
    EXPECT_EQ(stats.freeContiguityFraction(ulo, uhi, order),
              scan::reference::freeContiguityFraction(mem, ulo, uhi,
                                                      order))
        << "[" << ulo << ", " << uhi << ") order " << order;
    EXPECT_EQ(stats.unmovableBlockFraction(ulo, uhi, order),
              scan::reference::unmovableBlockFraction(mem, ulo, uhi,
                                                      order))
        << "[" << ulo << ", " << uhi << ") order " << order;
    EXPECT_EQ(stats.potentialContiguityFraction(ulo, uhi, order),
              scan::reference::potentialContiguityFraction(mem, ulo,
                                                           uhi, order))
        << "[" << ulo << ", " << uhi << ") order " << order;
    EXPECT_EQ(stats.unmovablePageRatio(ulo, uhi),
              scan::reference::unmovablePageRatio(mem, ulo, uhi))
        << "[" << ulo << ", " << uhi << ")";
    EXPECT_EQ(stats.meanFreeShareOfUnmovableBlocks(ulo, uhi),
              scan::reference::meanFreeShareOfUnmovableBlocks(mem, ulo,
                                                              uhi))
        << "[" << ulo << ", " << uhi << ")";
}

/**
 * The descent queries (DESIGN.md §12) against a fresh linear
 * classification of the frame array: every hot-path building block
 * must agree with the walk it replaces.
 */
void
expectDescentQueriesExact(const PhysMem &mem, Rng &rng)
{
    const ContigIndex &idx = mem.contigIndex();
    const Pfn n = mem.numFrames();

    // Per-pageblock classification and the mixed-block enumeration.
    std::uint64_t mixed_blocks = 0;
    Pfn enumerated = idx.firstMixedBlock(0, n);
    for (Pfn block = 0; block < n; block += pagesPerHuge) {
        std::uint64_t free = 0, unmov = 0, pinned = 0;
        for (Pfn pfn = block; pfn < block + pagesPerHuge; ++pfn) {
            const auto f = mem.frame(pfn);
            free += f.isFree();
            unmov += f.isUnmovableAllocation();
            pinned += !f.isFree() && f.isPinned();
        }
        const std::uint64_t movable = pagesPerHuge - free - unmov;
        const ContigIndex::BlockClass cls = idx.blockClass(block);
        ASSERT_EQ(cls.free, free) << "block " << block;
        ASSERT_EQ(cls.unmovable, unmov) << "block " << block;
        ASSERT_EQ(cls.pinned, pinned) << "block " << block;
        ASSERT_EQ(cls.movableAlloc, movable) << "block " << block;
        if (free > 0 && movable > 0) {
            ++mixed_blocks;
            ASSERT_EQ(enumerated, block);
            enumerated = idx.nextMixedBlock(enumerated, n);
        }
    }
    ASSERT_EQ(enumerated, invalidPfn);
    EXPECT_EQ(idx.mixedBlocksIn(0, n), mixed_blocks);

    // First-frame queries on a random subrange, against linear
    // search with the same predicates.
    const Pfn lo = rng.below(n);
    const Pfn hi = rng.range(lo, n - 1) + 1;
    Pfn first_alloc = invalidPfn;
    Pfn first_unmov = invalidPfn;
    Pfn first_movmt = invalidPfn;
    std::uint64_t movmt_pages = 0;
    for (Pfn pfn = lo; pfn < hi; ++pfn) {
        const auto f = mem.frame(pfn);
        if (!f.isFree() && first_alloc == invalidPfn)
            first_alloc = pfn;
        if (f.isUnmovableAllocation() && first_unmov == invalidPfn)
            first_unmov = pfn;
        if (!f.isFree() && f.migrateType() == MigrateType::Movable) {
            if (first_movmt == invalidPfn)
                first_movmt = pfn;
            ++movmt_pages;
        }
    }
    EXPECT_EQ(idx.firstAllocatedFrame(lo, hi), first_alloc);
    EXPECT_EQ(idx.firstUnmovableFrame(lo, hi), first_unmov);
    EXPECT_EQ(idx.firstMovableMtFrame(lo, hi), first_movmt);
    EXPECT_EQ(idx.movableMtPagesIn(lo, hi), movmt_pages);

    // Fully-free span search, both address preferences, against a
    // linear scan over aligned candidates.
    for (const unsigned order : checkOrders) {
        const Pfn span = Pfn{1} << order;
        const Pfn a = (lo + span - 1) & ~(span - 1);
        const Pfn b = hi & ~(span - 1);
        Pfn lowest = invalidPfn;
        Pfn highest = invalidPfn;
        for (Pfn base = a; base + span <= b; base += span) {
            bool all_free = true;
            for (Pfn pfn = base; pfn < base + span; ++pfn) {
                if (!mem.frame(pfn).isFree()) {
                    all_free = false;
                    break;
                }
            }
            if (all_free) {
                if (lowest == invalidPfn)
                    lowest = base;
                highest = base;
            }
        }
        EXPECT_EQ(idx.firstFullyFreeSpan(order, lo, hi,
                                         AddrPref::None),
                  lowest)
            << "order " << order;
        EXPECT_EQ(idx.firstFullyFreeSpan(order, lo, hi, AddrPref::Low),
                  lowest)
            << "order " << order;
        EXPECT_EQ(idx.firstFullyFreeSpan(order, lo, hi,
                                         AddrPref::High),
                  highest)
            << "order " << order;
    }

    // Per-node counts below the pageblock come from the planes.
    const unsigned order = 1 + rng.below(hugeOrder - 1);
    const std::uint64_t index = rng.below(n >> order);
    std::uint64_t node_free = 0, node_unmov = 0;
    for (Pfn pfn = index << order; pfn < (index + 1) << order; ++pfn) {
        const auto f = mem.frame(pfn);
        node_free += f.isFree();
        node_unmov += f.isUnmovableAllocation();
    }
    EXPECT_EQ(idx.nodeFreePages(order, index), node_free)
        << "order " << order << " index " << index;
    EXPECT_EQ(idx.nodeUnmovablePages(order, index), node_unmov)
        << "order " << order << " index " << index;
}

MigrateType
randomMt(Rng &rng)
{
    switch (rng.below(3)) {
      case 0:
        return MigrateType::Movable;
      case 1:
        return MigrateType::Unmovable;
      default:
        return MigrateType::Reclaimable;
    }
}

AllocSource
randomSource(Rng &rng)
{
    return static_cast<AllocSource>(rng.below(numAllocSources));
}

/**
 * Random alloc/free/pin/setBlockPinned sequence on one machine size,
 * checking the index against the reference scans (and the descent
 * queries when `descents` is set) right after construction, then
 * after every next_gap() mutations, and twice at the end with no
 * mutation in between. Each check is an index read, so the gaps set
 * how much marked state one flush folds.
 */
template <typename NextGap>
void
runAllocFreePinProperty(std::uint64_t bytes, std::uint64_t seed,
                        int steps, bool descents, NextGap next_gap)
{
    PhysMem mem(bytes);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "prop");
    Rng rng(seed);
    Rng range_rng(~seed);
    const auto check = [&] {
        expectIndexExact(mem, rng, range_rng);
        if (descents)
            expectDescentQueriesExact(mem, rng);
    };
    check();
    int next_check = next_gap();

    struct Live
    {
        Pfn head;
        unsigned order;
        bool pinned;
    };
    std::vector<Live> live;

    for (int step = 0; step < steps; ++step) {
        const unsigned op = rng.below(100);
        if (op < 45) {
            const unsigned order = rng.below(5);
            const Pfn head = buddy.allocPages(order, randomMt(rng),
                                              randomSource(rng));
            if (head != invalidPfn)
                live.push_back({head, order, false});
        } else if (op < 75 && !live.empty()) {
            const std::size_t victim = rng.below(live.size());
            Live block = live[victim];
            live.erase(live.begin() + victim);
            if (block.pinned) {
                mem.setRangePinned(
                    block.head,
                    block.head + (Pfn{1} << block.order), false);
            }
            buddy.freePages(block.head);
        } else if (op < 90 && !live.empty()) {
            Live &block = live[rng.below(live.size())];
            block.pinned = !block.pinned;
            mem.setRangePinned(block.head,
                               block.head + (Pfn{1} << block.order),
                               block.pinned);
        } else if (!live.empty()) {
            const Live &block = live[rng.below(live.size())];
            mem.setBlockPinned(block.head, rng.chance(0.5));
            // Reflect the pin bit so the eventual free unpins it.
            Live &entry =
                *std::find_if(live.begin(), live.end(),
                              [&](const Live &l) {
                                  return l.head == block.head;
                              });
            entry.pinned = mem.frame(entry.head).isPinned();
        }
        if (step + 1 == next_check) {
            check();
            next_check += next_gap();
        }
        if (::testing::Test::HasFailure())
            FAIL() << bytes << " bytes: diverged at step " << step;
    }
    check();
    check();
    if (::testing::Test::HasFailure())
        FAIL() << bytes << " bytes: diverged on a repeated read";
}

/** Checks every `gap` mutations. */
auto
every(int gap)
{
    return [gap] { return gap; };
}

TEST(ContigIndexProperty, RandomAllocFreePinSequencesStayExact)
{
    runAllocFreePinProperty(64_MiB, 0xc0117, 400, false, every(4));
}

/** Reads at a random cadence: 1 to 4096 mutations between reads,
 * log-uniform so short and long gaps both occur. A read folds every
 * word marked since the previous one, whatever their number. */
TEST(ContigIndexProperty, RandomReadCadenceStaysExact)
{
    Rng cadence(0xcade);
    const auto gap = [&] {
        const std::uint64_t span = std::uint64_t{1} << cadence.below(13);
        return 1 + static_cast<int>(cadence.below(span));
    };
    runAllocFreePinProperty(64_MiB, 0x1a2e, 20000, true, gap);
}

/** Marks alone rebuild nothing; the next read rebuilds at most the
 * distinct words marked, and a read with nothing marked is free. */
TEST(ContigIndexLazy, MarksRebuildNothingUntilTheNextRead)
{
    FrameArray frames(64_MiB / pageBytes);
    const Pfn n = frames.size();
    for (Pfn p = 0; p < n; ++p)
        frames.frame(p).setFree(true);
    ContigIndex idx(frames);
    EXPECT_EQ(idx.wordsRebuilt(), 0u);
    EXPECT_EQ(idx.freePages(), n);
    EXPECT_EQ(idx.flushes(), 1u);
    EXPECT_EQ(idx.wordsRebuilt(), n / 64);

    Rng rng(0x1a2f);
    std::vector<std::uint64_t> marked;
    std::uint64_t free_frames = n;
    const std::uint64_t calls0 = idx.resyncCalls();
    constexpr unsigned mutations = 1000;
    for (unsigned i = 0; i < mutations; ++i) {
        // Unaligned ranges of 1..200 frames, so some straddle words.
        const Pfn lo = rng.below(n - 200);
        const Pfn hi = lo + 1 + rng.below(200);
        const bool free = rng.chance(0.5);
        for (Pfn p = lo; p < hi; ++p) {
            auto f = frames.frame(p);
            if (f.isFree() == free)
                continue;
            if (free) {
                f.setFree(true);
                ++free_frames;
            } else {
                f.stampAllocated(0, randomMt(rng), randomSource(rng),
                                 true);
                --free_frames;
            }
        }
        idx.resync(lo, hi);
        for (std::uint64_t w = lo >> 6; w <= (hi - 1) >> 6; ++w)
            marked.push_back(w);
    }
    idx.resync(n, n); // an empty range marks nothing
    EXPECT_EQ(idx.resyncCalls() - calls0, mutations);
    EXPECT_EQ(idx.flushes(), 1u);
    EXPECT_EQ(idx.wordsRebuilt(), n / 64);

    std::sort(marked.begin(), marked.end());
    marked.erase(std::unique(marked.begin(), marked.end()),
                 marked.end());
    EXPECT_EQ(idx.fullyFreeBlocks(0), free_frames);
    EXPECT_EQ(idx.flushes(), 2u);
    EXPECT_LE(idx.wordsRebuilt() - n / 64, marked.size());

    const std::uint64_t rebuilt = idx.wordsRebuilt();
    EXPECT_EQ(idx.firstAllocatedFrame(0, n) == invalidPfn,
              free_frames == n);
    EXPECT_EQ(idx.freePages(), free_frames);
    EXPECT_EQ(idx.flushes(), 2u);
    EXPECT_EQ(idx.wordsRebuilt(), rebuilt);
}

/** Machines whose size is not a power of two: the tree's top order is
 * sized to cover them, so its top node is partial (6 MiB: one order-11
 * node over three pageblocks; 1 GiB + 2 MiB: a second 1 GB top node
 * holding one pageblock). */
TEST(ContigIndexProperty, NonPowerOfTwoMachinesStayExact)
{
    runAllocFreePinProperty(6_MiB, 0x6b6b, 400, true, every(4));
    runAllocFreePinProperty(1_GiB + 2_MiB, 0x1602, 400, true,
                            every(100));
}

TEST(ContigIndexProperty, GiganticAndRangeOpsStayExact)
{
    PhysMem mem(1_GiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "giga");
    Rng rng(0x916a);
    Rng range_rng(~std::uint64_t{0x916a});

    // Fragment a little first so gigantic allocation has to work.
    std::vector<Pfn> singles;
    for (int i = 0; i < 200; ++i) {
        const Pfn p = buddy.allocPages(rng.below(4), randomMt(rng),
                                       randomSource(rng));
        if (p != invalidPfn)
            singles.push_back(p);
    }
    expectIndexExact(mem, rng, range_rng);

    const Pfn giant =
        buddy.allocGigantic(MigrateType::Unmovable, AllocSource::User);
    if (giant != invalidPfn)
        expectIndexExact(mem, rng, range_rng);

    // Region-resize style ops: isolate, detach, re-attach a 32 MB
    // aligned window at the top of memory.
    const Pfn span = Pfn{1} << scan::order32M;
    const Pfn lo = mem.numFrames() - span;
    const Pfn hi = mem.numFrames();
    if (buddy.rangeFullyFree(lo, hi)) {
        buddy.isolateRange(lo, hi);
        expectIndexExact(mem, rng, range_rng);
        buddy.detachRange(lo, hi);
        expectIndexExact(mem, rng, range_rng);
        buddy.attachRange(lo, hi, MigrateType::Movable);
        expectIndexExact(mem, rng, range_rng);
    }

    if (giant != invalidPfn) {
        buddy.freePages(giant);
        expectIndexExact(mem, rng, range_rng);
    }
    for (const Pfn p : singles)
        buddy.freePages(p);
    expectIndexExact(mem, rng, range_rng);
    EXPECT_EQ(mem.contigIndex().freePages(), mem.numFrames());
}

TEST(ContigIndexProperty, DescentQueriesMatchLinearClassification)
{
    PhysMem mem(64_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "descent");
    Rng rng(0xdec3);

    struct Live
    {
        Pfn head;
        unsigned order;
        bool pinned;
    };
    std::vector<Live> live;

    for (int step = 0; step < 300; ++step) {
        const unsigned op = rng.below(100);
        if (op < 50) {
            const unsigned order = rng.below(6);
            const Pfn head = buddy.allocPages(order, randomMt(rng),
                                              randomSource(rng));
            if (head != invalidPfn)
                live.push_back({head, order, false});
        } else if (op < 80 && !live.empty()) {
            const std::size_t victim = rng.below(live.size());
            Live block = live[victim];
            live.erase(live.begin() + victim);
            if (block.pinned) {
                mem.setRangePinned(
                    block.head,
                    block.head + (Pfn{1} << block.order), false);
            }
            buddy.freePages(block.head);
        } else if (!live.empty()) {
            Live &block = live[rng.below(live.size())];
            block.pinned = !block.pinned;
            mem.setRangePinned(block.head,
                               block.head + (Pfn{1} << block.order),
                               block.pinned);
        }
        if (step % 10 == 0)
            expectDescentQueriesExact(mem, rng);
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at step " << step;
    }
    expectDescentQueriesExact(mem, rng);
}

/** Exact index-backed AddrPref placement must pick the same block an
 * uncapped free-list scan would: both select the extreme-address
 * entry of the (mt, order) list, so two machines driven by the same
 * operation sequence stay bit-identical. */
TEST(ContigIndexProperty, ExactPrefMatchesUncappedScan)
{
    PhysMem exact_mem(64_MiB);
    PhysMem scan_mem(64_MiB);
    BuddyAllocator exact_buddy(exact_mem, 0, exact_mem.numFrames(),
                               "exact");
    BuddyAllocator scan_buddy(scan_mem, 0, scan_mem.numFrames(),
                              "scan");
    exact_mem.setExactAddrPref(true);
    // An effectively unbounded scan cap examines every list entry,
    // so the capped scan also finds the true extreme.
    scan_buddy.setPrefScanCap(1u << 30);

    Rng rng(0xeac7);
    std::vector<std::pair<Pfn, Pfn>> live; // exact head, scan head
    for (int step = 0; step < 600; ++step) {
        if (rng.below(100) < 60 || live.empty()) {
            const unsigned order = rng.below(6);
            const MigrateType mt = randomMt(rng);
            const AllocSource src = randomSource(rng);
            const AddrPref pref =
                rng.below(2) ? AddrPref::Low : AddrPref::High;
            const Pfn a = exact_buddy.allocPages(order, mt, src, 0,
                                                 pref);
            const Pfn b = scan_buddy.allocPages(order, mt, src, 0,
                                                pref);
            ASSERT_EQ(a, b) << "step " << step;
            if (a != invalidPfn)
                live.push_back({a, b});
        } else {
            const std::size_t victim = rng.below(live.size());
            const auto [a, b] = live[victim];
            live.erase(live.begin() + victim);
            ASSERT_EQ(a, b);
            exact_buddy.freePages(a);
            scan_buddy.freePages(b);
        }
    }
    EXPECT_EQ(exact_mem.contigIndex().freePages(),
              scan_mem.contigIndex().freePages());
}

/** Fleet::run() at 1 thread, then at 1, 4 and 8 threads: every
 * ServerScan must be bit-identical to the first run's. */
void
expectScansBitIdenticalAcrossThreads(Fleet::Config config)
{
    const auto runFleet = [&config](unsigned threads) {
        config.threads = threads;
        Fleet fleet(config);
        return fleet.run();
    };
    const std::vector<ServerScan> baseline = runFleet(1);
    for (const unsigned threads : {1u, 4u, 8u}) {
        const std::vector<ServerScan> scans = runFleet(threads);
        ASSERT_EQ(scans.size(), baseline.size());
        for (std::size_t i = 0; i < scans.size(); ++i) {
            EXPECT_EQ(std::memcmp(&scans[i], &baseline[i],
                                  sizeof(ServerScan)),
                      0)
                << "server " << i << " threads " << threads;
        }
    }
}

/** One prefragmented server of the fleet's shape, run to the end of
 * its uptime: Server::scan(), read from the index, must equal
 * Server::referenceScan(), walked from the frames, bit for bit. */
void
expectServerScanMatchesReference(const Fleet::Config &fleet_config,
                                 WorkloadKind kind)
{
    Server::Config config = Fleet(fleet_config).baseServerConfig();
    config.kind = kind;
    config.prefragment = true;
    config.uptimeSec = fleet_config.maxUptimeSec;
    config.seed = fleet_config.seed;
    Server server(config);
    server.run();
    const ServerScan index = server.scan();
    const ServerScan reference = server.referenceScan();
    EXPECT_EQ(std::memcmp(&index, &reference, sizeof(ServerScan)), 0)
        << workloadName(kind);
    EXPECT_GT(reference.unmovablePageRatio, 0.0);
}

/** The index-driven read and search paths must not change a single
 * bit of any fleet study output at any thread count (fig04/05/11/12
 * all consume ServerScan), and the index must equal its frame-walk
 * oracle on an evolved server. */
TEST(ContigIndexProperty, FleetScansBitIdenticalIndexOnVsOff)
{
    Fleet::Config config;
    config.servers = 8;
    config.memBytes = std::uint64_t{512} << 20;
    config.minUptimeSec = 4.0;
    config.maxUptimeSec = 10.0;
    config.prefragmentFrac = 0.25;
    config.seed = 0xb17;
    expectScansBitIdenticalAcrossThreads(config);
    expectServerScanMatchesReference(config, WorkloadKind::Web);
}

/** Same contract with Contiguitas enabled, which drives the
 * index-driven region-resize, defrag, and contig-alloc hot paths on
 * every server (DESIGN.md §12); the oracle check also covers the
 * unmovable-region-scoped free share. */
TEST(ContigIndexProperty, ContiguitasFleetBitIdenticalIndexOnVsOff)
{
    Fleet::Config config;
    config.servers = 6;
    config.memBytes = std::uint64_t{512} << 20;
    config.policy.name = "contiguitas";
    config.minUptimeSec = 4.0;
    config.maxUptimeSec = 10.0;
    config.prefragmentFrac = 0.25;
    config.seed = 0xc716;
    expectScansBitIdenticalAcrossThreads(config);
    expectServerScanMatchesReference(config, WorkloadKind::CacheB);
}

} // namespace
} // namespace ctg
