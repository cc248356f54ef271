/**
 * @file
 * Contiguity-scanner tests against hand-crafted layouts with known
 * ground-truth metrics.
 */

#include <gtest/gtest.h>

#include "base/units.hh"
#include "mem/buddy.hh"
#include "mem/mem_stats.hh"
#include "mem/scanner.hh"

namespace ctg
{
namespace
{

class ScannerTest : public ::testing::Test
{
  protected:
    ScannerTest()
        : mem(64_MiB), buddy(mem, 0, mem.numFrames(), "scan")
    {}

    /** Allocate the exact page at the head of the free lists until
     * the target block is covered; returns allocated heads. */
    std::vector<Pfn>
    fillPages(std::uint64_t count, MigrateType mt)
    {
        std::vector<Pfn> pages;
        for (std::uint64_t i = 0; i < count; ++i) {
            const Pfn p = buddy.allocPages(0, mt, AllocSource::User,
                                           0, AddrPref::Low);
            EXPECT_NE(p, invalidPfn);
            pages.push_back(p);
        }
        return pages;
    }

    PhysMem mem;
    BuddyAllocator buddy;
};

TEST_F(ScannerTest, EmptyMemoryIsFullyContiguous)
{
    EXPECT_DOUBLE_EQ(mem.stats().freeContiguityFraction(
        0, mem.numFrames(), scan::order2M),
                     1.0);
    EXPECT_DOUBLE_EQ(mem.stats().unmovableBlockFraction(
        0, mem.numFrames(), scan::order2M),
                     0.0);
    EXPECT_DOUBLE_EQ(mem.stats().potentialContiguityFraction(
        0, mem.numFrames(), scan::order2M),
                     1.0);
    EXPECT_DOUBLE_EQ(
        mem.stats().unmovablePageRatio(0, mem.numFrames()), 0.0);
    EXPECT_EQ(mem.stats().freePages(0, mem.numFrames()),
              mem.numFrames());
}

TEST_F(ScannerTest, OneUnmovablePagePerBlockCountsEveryBlock)
{
    // 64 MiB = 32 pageblocks. Put one unmovable page in each.
    const std::uint64_t blocks =
        mem.numFrames() / pagesPerHuge;
    std::vector<Pfn> keep;
    std::vector<Pfn> trash;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        // Allocate until a page lands in block b, then keep it.
        while (true) {
            const Pfn p = buddy.allocPages(
                0, MigrateType::Unmovable, AllocSource::Slab, 0,
                AddrPref::Low);
            ASSERT_NE(p, invalidPfn);
            if (PhysMem::blockIndex(p) == b) {
                keep.push_back(p);
                break;
            }
            trash.push_back(p);
        }
    }
    for (const Pfn p : trash)
        buddy.freePages(p);

    EXPECT_DOUBLE_EQ(mem.stats().unmovableBlockFraction(
        0, mem.numFrames(), scan::order2M),
                     1.0);
    EXPECT_NEAR(mem.stats().unmovablePageRatio(0, mem.numFrames()),
                static_cast<double>(blocks) /
                    static_cast<double>(mem.numFrames()),
                1e-9);
    // Perfect compaction recovers nothing at 2 MB.
    EXPECT_DOUBLE_EQ(mem.stats().potentialContiguityFraction(
        0, mem.numFrames(), scan::order2M),
                     0.0);
}

TEST_F(ScannerTest, MovablePagesDontCountAsUnmovable)
{
    // 100 pages only partially fill a pageblock, leaving free pages
    // outside any fully-free 2 MB block.
    auto pages = fillPages(100, MigrateType::Movable);
    EXPECT_DOUBLE_EQ(
        mem.stats().unmovablePageRatio(0, mem.numFrames()), 0.0);
    // Potential contiguity is unaffected by movable pages.
    EXPECT_DOUBLE_EQ(mem.stats().potentialContiguityFraction(
        0, mem.numFrames(), scan::order2M),
                     1.0);
    // Free contiguity IS affected.
    EXPECT_LT(mem.stats().freeContiguityFraction(0, mem.numFrames(),
                                           scan::order2M),
              1.0);
}

TEST_F(ScannerTest, PinnedMovablePageCountsAsUnmovable)
{
    const Pfn p = buddy.allocPages(0, MigrateType::Movable,
                                   AllocSource::User);
    mem.setRangePinned(p, p + 1, true);
    EXPECT_GT(mem.stats().unmovablePageRatio(0, mem.numFrames()),
              0.0);
    EXPECT_GT(mem.stats().unmovableBlockFraction(
        0, mem.numFrames(), scan::order2M),
              0.0);
}

TEST_F(ScannerTest, SourceBreakdownMatchesAllocations)
{
    auto net = fillPages(100, MigrateType::Unmovable);
    for (const Pfn p : net) {
        mem.frame(p).setSource(AllocSource::Networking);
        mem.noteFramesChanged(p, p + 1);
    }
    auto slab = fillPages(50, MigrateType::Unmovable);
    for (const Pfn p : slab) {
        mem.frame(p).setSource(AllocSource::Slab);
        mem.noteFramesChanged(p, p + 1);
    }

    const auto counts = mem.stats().unmovableBySource();
    EXPECT_EQ(counts[static_cast<unsigned>(AllocSource::Networking)],
              100u);
    EXPECT_EQ(counts[static_cast<unsigned>(AllocSource::Slab)], 50u);
    EXPECT_EQ(counts[static_cast<unsigned>(AllocSource::User)], 0u);
}

TEST_F(ScannerTest, FreeAlignedBlockCounts)
{
    EXPECT_EQ(mem.stats().freeAlignedBlocks(0, mem.numFrames(),
                                      scan::order2M),
              mem.numFrames() / pagesPerHuge);
    // Allocate one page: exactly one block stops being free.
    const Pfn p = buddy.allocPages(0, MigrateType::Movable,
                                   AllocSource::User);
    (void)p;
    EXPECT_EQ(mem.stats().freeAlignedBlocks(0, mem.numFrames(),
                                      scan::order2M),
              mem.numFrames() / pagesPerHuge - 1);
}

TEST_F(ScannerTest, MeanFreeShareOfContaminatedBlocks)
{
    // One unmovable page in the first block; rest of the block free.
    const Pfn p = buddy.allocPages(0, MigrateType::Unmovable,
                                   AllocSource::Slab, 0,
                                   AddrPref::Low);
    ASSERT_LT(p, pagesPerHuge);
    const double share = mem.stats().meanFreeShareOfUnmovableBlocks(
        0, mem.numFrames());
    EXPECT_NEAR(share,
                static_cast<double>(pagesPerHuge - 1) /
                    static_cast<double>(pagesPerHuge),
                1e-9);
}

TEST_F(ScannerTest, SubrangeScans)
{
    // Contaminate only the upper half; lower-half scans stay clean.
    const Pfn half = mem.numFrames() / 2;
    const Pfn p = buddy.allocPages(0, MigrateType::Unmovable,
                                   AllocSource::Slab, 0,
                                   AddrPref::High);
    ASSERT_GE(p, half);
    EXPECT_DOUBLE_EQ(
        mem.stats().unmovablePageRatio(0, half), 0.0);
    EXPECT_GT(mem.stats().unmovablePageRatio(half, mem.numFrames()),
              0.0);
}

} // namespace
} // namespace ctg
