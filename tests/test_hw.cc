/**
 * @file
 * Hardware model tests: cache array, coherence protocol, TLBs, page
 * walker, IOMMU, shootdown timing, and the area model.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "base/rng.hh"
#include "base/units.hh"
#include "hw/areamodel.hh"
#include "hw/system.hh"

namespace ctg
{
namespace
{

TEST(CacheArray, InsertLookupInvalidate)
{
    CacheArray cache(32 * 1024, 8);
    const Addr line = 0x1000;
    EXPECT_EQ(cache.lookup(line), nullptr);
    CacheEntry &e = cache.insert(line, nullptr);
    e.value = 7;
    ASSERT_NE(cache.lookup(line), nullptr);
    EXPECT_EQ(cache.lookup(line)->value, 7u);
    EXPECT_TRUE(cache.invalidate(line));
    EXPECT_EQ(cache.lookup(line), nullptr);
}

TEST(CacheArray, LruEvictsOldest)
{
    // 8-way, line 64B: set count = 32KB/64/8 = 64 sets. Fill one set
    // with 9 lines mapping to set 0.
    CacheArray cache(32 * 1024, 8);
    const Addr stride = 64 * 64; // same set every 64 lines
    for (int i = 0; i < 8; ++i)
        cache.insert(stride * static_cast<Addr>(i), nullptr);
    // Touch line 0 so line at stride*1 is LRU.
    ASSERT_NE(cache.lookup(0), nullptr);
    CacheEntry evicted;
    cache.insert(stride * 8, &evicted);
    ASSERT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.lineAddr, stride * 1);
}

class MemHierarchyTest : public ::testing::Test
{
  protected:
    MemHierarchyTest()
        : mem(HwConfig{})
    {}

    MemHierarchy mem;
};

TEST_F(MemHierarchyTest, ReadReturnsMemoryValue)
{
    mem.pokeMemory(0x4000, 42);
    const auto out = mem.access(0, 0x4000, false);
    EXPECT_EQ(out.value, 42u);
    EXPECT_TRUE(out.servedFromDram);
}

TEST_F(MemHierarchyTest, SecondReadHitsL1)
{
    mem.pokeMemory(0x4000, 42);
    const auto miss = mem.access(0, 0x4000, false);
    const auto hit = mem.access(0, 0x4000, false);
    EXPECT_LT(hit.latency, miss.latency);
    EXPECT_EQ(hit.latency, mem.config().l1Lat);
}

TEST_F(MemHierarchyTest, WriteVisibleToOtherCore)
{
    mem.access(0, 0x8000, true, 1234);
    const auto out = mem.access(3, 0x8000, false);
    EXPECT_EQ(out.value, 1234u);
}

TEST_F(MemHierarchyTest, WriteInvalidatesSharers)
{
    mem.pokeMemory(0xc000, 5);
    mem.access(0, 0xc000, false);
    mem.access(1, 0xc000, false);
    // Core 2 writes; cores 0 and 1 must see the new value (their
    // copies were invalidated, not silently stale).
    mem.access(2, 0xc000, true, 99);
    EXPECT_EQ(mem.access(0, 0xc000, false).value, 99u);
    EXPECT_EQ(mem.access(1, 0xc000, false).value, 99u);
}

TEST_F(MemHierarchyTest, DeviceWriteCoherentWithCores)
{
    mem.access(0, 0x10000, true, 7);
    mem.deviceAccess(0x10000, true, 8);
    EXPECT_EQ(mem.access(0, 0x10000, false).value, 8u);
}

TEST_F(MemHierarchyTest, DeviceReadSeesModifiedLine)
{
    mem.access(5, 0x14000, true, 77);
    EXPECT_EQ(mem.deviceAccess(0x14000, false).value, 77u);
}

/**
 * Main memory against a map oracle. An idle hierarchy caches
 * nothing, so pokeMemory stores to main memory and
 * authoritativeValue loads from it. Over 40,000 distinct lines,
 * three quarters of them stored nonzero, take the table from its
 * first 1,024 slots through five or more doublings.
 */
TEST_F(MemHierarchyTest, MainMemoryMatchesMapOracle)
{
    std::unordered_map<Addr, std::uint64_t> oracle;
    auto expected = [&oracle](Addr line) {
        const auto it = oracle.find(line);
        return it == oracle.end() ? std::uint64_t{0} : it->second;
    };
    Rng rng(25);
    std::vector<Addr> stored;
    // Lines of a 4 GiB memory, with half of them at a page's first
    // line so keys share their low bits.
    auto randomLine = [&rng] {
        const Addr index = rng.below(Addr{1} << 26);
        return (rng.chance(0.5) ? index & ~Addr{63} : index) << lineShift;
    };
    for (int op = 0; op < 60000; ++op) {
        const Addr line = !stored.empty() && rng.chance(0.3)
                              ? stored[rng.below(stored.size())]
                              : randomLine();
        const std::uint64_t value = rng.chance(0.25) ? 0 : rng.next() | 1;
        mem.pokeMemory(line, value);
        oracle[line] = value;
        stored.push_back(line);
        if (op % 97 == 0) {
            const Addr probe = randomLine();
            ASSERT_EQ(mem.authoritativeValue(probe), expected(probe))
                << std::hex << probe;
        }
    }
    ASSERT_GE(oracle.size(), 40000u);
    for (const auto &[line, value] : oracle)
        ASSERT_EQ(mem.authoritativeValue(line), value) << std::hex << line;

    // A zero stored over an absent line still reads 0, and a zero
    // over a present line reads 0 after it.
    const Addr absent = Addr{0x7654321} << lineShift;
    ASSERT_EQ(oracle.count(absent), 0u);
    mem.pokeMemory(absent, 0);
    EXPECT_EQ(mem.authoritativeValue(absent), 0u);
    mem.pokeMemory(absent, 9);
    mem.pokeMemory(absent, 0);
    EXPECT_EQ(mem.authoritativeValue(absent), 0u);

    // The first line and the last one a 32-bit key (index + 1) holds.
    const Addr last = Addr{0xfffffffe} << lineShift;
    mem.pokeMemory(0, 11);
    mem.pokeMemory(last, 12);
    EXPECT_EQ(mem.authoritativeValue(0), 11u);
    EXPECT_EQ(mem.authoritativeValue(last), 12u);
    const Addr past = last + lineBytes;
    EXPECT_THROW(mem.pokeMemory(past, 1), PanicError);
    EXPECT_THROW(mem.authoritativeValue(past), PanicError);
}

/** Random concurrent traffic against a reference model. */
class CoherenceFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CoherenceFuzz, MatchesReferenceModel)
{
    MemHierarchy mem{HwConfig{}};
    Rng rng(GetParam());
    std::unordered_map<Addr, std::uint64_t> reference;

    // 64 random lines shared by all 8 cores: sharing and upgrade
    // traffic. They never fill a set of the default caches, so
    // nothing is evicted; CoherenceEvictionFuzz covers evictions.
    std::vector<Addr> lines;
    for (int i = 0; i < 64; ++i)
        lines.push_back(static_cast<Addr>(rng.below(1u << 20)) *
                        lineBytes);

    for (int step = 0; step < 20000; ++step) {
        const Addr line = lines[rng.below(lines.size())];
        const auto core = static_cast<CoreId>(rng.below(8));
        if (rng.chance(0.4)) {
            const std::uint64_t v = rng.next();
            mem.access(core, line, true, v);
            reference[line] = v;
        } else {
            const auto out = mem.access(core, line, false);
            const auto it = reference.find(line);
            const std::uint64_t expected =
                it == reference.end() ? 0 : it->second;
            ASSERT_EQ(out.value, expected)
                << "core " << core << " line " << std::hex << line;
        }
    }
    // Authoritative values must match the reference at the end.
    for (const Addr line : lines) {
        const auto it = reference.find(line);
        const std::uint64_t expected =
            it == reference.end() ? 0 : it->second;
        EXPECT_EQ(mem.authoritativeValue(line), expected);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceFuzz,
                         ::testing::Values(11, 22, 33, 44));

/**
 * Core writes and reads, DMA writes and reads on caches small enough
 * that every level evicts, checked against a reference map. After
 * every step the directory must cover every private copy: back-
 * invalidation visits only an evicted line's sharers.
 */
class CoherenceEvictionFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CoherenceEvictionFuzz, MatchesReferenceModel)
{
    HwConfig config;
    config.l1Bytes = 1024; // 16 lines, 2-way
    config.l1Assoc = 2;
    config.l2Bytes = 4096; // 64 lines, 4-way
    config.l2Assoc = 4;
    config.llcSliceBytes = 8192; // 128 lines, 4-way, x8 slices
    config.llcAssoc = 4;
    MemHierarchy mem{config};
    Rng rng(GetParam());
    std::unordered_map<Addr, std::uint64_t> reference;
    // Cores that touched a line since its last fill into the LLC and
    // since another agent last wrote it: each still holds it unless
    // its own caches evicted it.
    std::unordered_map<Addr, std::uint32_t> kept;

    // A hot set shared by all cores inside a pool twice the LLC.
    std::vector<Addr> lines;
    for (int i = 0; i < 2048; ++i)
        lines.push_back(static_cast<Addr>(rng.below(1u << 22)) *
                        lineBytes);

    std::uint64_t l1_evictions = 0;
    std::uint64_t l2_evictions = 0;
    std::uint64_t refills_with_data = 0;
    for (int step = 0; step < 20000; ++step) {
        const Addr line = rng.chance(0.6) ? lines[rng.below(48)]
                                          : lines[rng.below(lines.size())];
        const auto it = reference.find(line);
        const std::uint64_t expected =
            it == reference.end() ? 0 : it->second;
        const MemHierarchy::Stats before = mem.stats();
        const bool device = rng.chance(0.25);
        const bool write = rng.chance(0.4);
        const auto core = static_cast<CoreId>(rng.below(8));
        const std::uint32_t bit = std::uint32_t{1} << core;
        const bool was_kept = !device && (kept[line] & bit);
        const std::uint64_t v = rng.next();
        const auto out = device ? mem.deviceAccess(line, write, v)
                                : mem.access(core, line, write, v);
        const MemHierarchy::Stats &after = mem.stats();
        if (write) {
            reference[line] = v;
            kept[line] = device ? 0 : bit;
        } else {
            ASSERT_EQ(out.value, expected)
                << "step " << step << " line " << std::hex << line;
            if (!device)
                kept[line] |= bit;
        }
        if (after.dramFills != before.dramFills) {
            kept[line] = device ? 0 : bit;
            refills_with_data += !write && expected != 0;
        }
        // A kept line served below L1 was evicted by the core's own
        // L1; served by the LLC, by its own L2.
        if (was_kept && after.l2Hits != before.l2Hits)
            ++l1_evictions;
        if (was_kept && after.llcHits != before.llcHits)
            ++l2_evictions;
        ASSERT_EQ(mem.directoryViolation(), "") << "step " << step;
    }
    EXPECT_GT(l1_evictions, 0u);
    EXPECT_GT(l2_evictions, 0u);
    EXPECT_GT(mem.stats().writebacks, 0u); // LLC evictions
    EXPECT_GT(refills_with_data, 0u); // written back, read from DRAM
    for (const Addr line : lines) {
        const auto it = reference.find(line);
        const std::uint64_t expected =
            it == reference.end() ? 0 : it->second;
        EXPECT_EQ(mem.authoritativeValue(line), expected);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceEvictionFuzz,
                         ::testing::Values(11, 22, 33, 44));

TEST(TlbTest, InsertLookupInvalidate)
{
    Tlb tlb(64, 4);
    tlb.insert(100, 555, 0);
    ASSERT_NE(tlb.lookup(100), nullptr);
    EXPECT_EQ(tlb.lookup(100)->pfnHead, 555u);
    EXPECT_TRUE(tlb.invalidate(100));
    EXPECT_EQ(tlb.lookup(100), nullptr);
}

TEST(TlbTest, HugeEntryCoversWholeRange)
{
    Tlb tlb(64, 4);
    tlb.insert(0, 4096, hugeOrder);
    const Tlb::Entry *entry = tlb.lookup(300);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->order, hugeOrder);
    EXPECT_TRUE(tlb.invalidate(17));
    EXPECT_EQ(tlb.lookup(300), nullptr);
}

TEST(TlbTest, CapacityEviction)
{
    Tlb tlb(8, 2);
    // Overfill one set: entries map set by vpn low bits (4 sets).
    for (Vpn v = 0; v < 3; ++v)
        tlb.insert(v * 4, 100 + v, 0);
    // Two of the three conflict-mapped entries survive.
    int present = 0;
    for (Vpn v = 0; v < 3; ++v)
        present += tlb.lookup(v * 4) != nullptr;
    EXPECT_EQ(present, 2);
}

class MmuTest : public ::testing::Test
{
  protected:
    MmuTest()
        : kernel(makeConfig()), tables(kernel), hw(HwConfig{})
    {}

    static KernelConfig
    makeConfig()
    {
        KernelConfig config;
        config.memBytes = 256_MiB;
        config.kernelTextBytes = 2_MiB;
        return config;
    }

    Kernel kernel;
    PageTables tables;
    HwSystem hw;
};

TEST_F(MmuTest, WalkThenTlbHit)
{
    ASSERT_TRUE(tables.map(0x42, 0x1000, 0));
    Mmu &mmu = hw.mmu(0);
    const auto first = mmu.translate(0x42ULL << pageShift, tables);
    ASSERT_TRUE(first.valid);
    EXPECT_TRUE(first.walked);
    EXPECT_EQ(first.paddr, Addr{0x1000} << pageShift);

    const auto second = mmu.translate(0x42ULL << pageShift, tables);
    ASSERT_TRUE(second.valid);
    EXPECT_FALSE(second.walked);
    EXPECT_EQ(second.latency, hw.config().l1TlbLat);
}

TEST_F(MmuTest, HugePageWalkIsShorter)
{
    ASSERT_TRUE(tables.map(0, 0x10000, hugeOrder));
    ASSERT_TRUE(tables.map(pagesPerGiga, 0x1, 0));
    Mmu &mmu = hw.mmu(0);
    const auto huge = mmu.translate(0, tables);
    mmu.flushAll();
    const auto base = mmu.translate(
        Addr{pagesPerGiga} << pageShift, tables);
    ASSERT_TRUE(huge.valid && base.valid);
    EXPECT_LT(huge.walkDepth, base.walkDepth);
}

TEST_F(MmuTest, InvlpgDropsTranslation)
{
    ASSERT_TRUE(tables.map(0x42, 0x1000, 0));
    Mmu &mmu = hw.mmu(0);
    mmu.translate(0x42ULL << pageShift, tables);
    const Cycles cost = mmu.invlpg(0x42);
    EXPECT_EQ(cost, hw.config().invlpgCost);
    const auto after = mmu.translate(0x42ULL << pageShift, tables);
    EXPECT_TRUE(after.walked);
}

TEST_F(MmuTest, PwcAcceleratesNeighborWalks)
{
    ASSERT_TRUE(tables.map(0x100, 0x1000, 0));
    ASSERT_TRUE(tables.map(0x101, 0x1001, 0));
    Mmu &mmu = hw.mmu(0);
    const auto first = mmu.translate(0x100ULL << pageShift, tables);
    // Neighbor shares all upper levels: the PWC should cut the walk
    // to a single PTE access.
    const auto second = mmu.translate(0x101ULL << pageShift, tables);
    ASSERT_TRUE(first.valid && second.valid);
    EXPECT_EQ(first.walkDepth, 4u);
    EXPECT_EQ(second.walkDepth, 1u);
}

TEST_F(MmuTest, IommuDmaTranslatesAndCaches)
{
    ASSERT_TRUE(tables.map(0x77, 0x2000, 0));
    Iommu &iommu = hw.iommu();
    const auto first =
        iommu.dmaAccess(0x77ULL << pageShift, tables, true, 5);
    ASSERT_TRUE(first.valid);
    EXPECT_TRUE(first.walked);
    const auto second =
        iommu.dmaAccess(0x77ULL << pageShift, tables, false);
    ASSERT_TRUE(second.valid);
    EXPECT_FALSE(second.walked);
    EXPECT_EQ(second.value, 5u);
}

TEST_F(MmuTest, IommuWalkChargesEachLevelRead)
{
    ASSERT_TRUE(tables.map(0x77, 0x2000, 0));
    ASSERT_TRUE(tables.map(pagesPerGiga, 0x4000, hugeOrder));
    Iommu &iommu = hw.iommu();
    const Addr base4k = Addr{0x77} << pageShift;
    const Addr base2m = Addr{pagesPerGiga} << pageShift;
    // Warm both target lines into the LLC, so every DMA below pays
    // the same device hit latency.
    hw.mem().deviceAccess(Addr{0x2000} << pageShift, false);
    hw.mem().deviceAccess(Addr{0x4000} << pageShift, false);
    const Cycles hit =
        hw.mem().deviceAccess(Addr{0x2000} << pageShift, false).latency;
    ASSERT_EQ(hw.mem().deviceAccess(Addr{0x4000} << pageShift, false)
                  .latency,
              hit);

    const auto walk4k = iommu.dmaAccess(base4k, tables, false);
    ASSERT_TRUE(walk4k.walked);
    EXPECT_EQ(walk4k.latency,
              Iommu::iotlbLat + 4 * Iommu::walkLatPerLevel + hit);
    const auto walk2m = iommu.dmaAccess(base2m, tables, false);
    ASSERT_TRUE(walk2m.walked);
    EXPECT_EQ(walk2m.latency,
              Iommu::iotlbLat + 3 * Iommu::walkLatPerLevel + hit);

    const auto again = iommu.dmaAccess(base2m, tables, false);
    EXPECT_FALSE(again.walked);
    EXPECT_EQ(again.latency, Iommu::iotlbLat + hit);
    EXPECT_EQ(iommu.stats().walks, 2u);
    EXPECT_EQ(iommu.stats().iotlbHits, 1u);
}

TEST_F(MmuTest, IommuQueuedInvalidationApplies)
{
    ASSERT_TRUE(tables.map(0x77, 0x2000, 0));
    Iommu &iommu = hw.iommu();
    iommu.dmaAccess(0x77ULL << pageShift, tables, false);
    iommu.queueInvalidate(0x77);
    EXPECT_EQ(iommu.pendingInvalidations(), 1u);
    const auto after =
        iommu.dmaAccess(0x77ULL << pageShift, tables, false);
    EXPECT_TRUE(after.walked); // IOTLB entry was dropped
    EXPECT_EQ(iommu.pendingInvalidations(), 0u);
}

TEST(ShootdownTiming, ClassicScalesLinearly)
{
    HwSystem hw;
    const Cycles one = hw.shootdown().classicShootdownCost(1);
    const Cycles four = hw.shootdown().classicShootdownCost(4);
    const Cycles eight = hw.shootdown().classicShootdownCost(8);
    EXPECT_EQ(four, 4 * one);
    EXPECT_EQ(eight, 8 * one);
}

TEST(AreaModel, MatchesPaperNumbers)
{
    const SramEstimate est =
        estimateFaSram(16, migrationEntryBits, 22.0);
    // Paper: 0.0038 mm^2, 0.0017 nJ, 0.64 mW at 22 nm.
    EXPECT_NEAR(est.areaMm2, 0.0038, 0.0008);
    EXPECT_NEAR(est.energyPerAccessNj, 0.0017, 0.0004);
    EXPECT_NEAR(est.leakageMw, 0.64, 0.15);
    // Negligible relative to a core.
    EXPECT_LT(est.areaMm2 / coreAreaMm2At22nm, 0.0005);
}

TEST(AreaModel, ScalesWithTechNode)
{
    const SramEstimate n22 = estimateFaSram(16, migrationEntryBits,
                                            22.0);
    const SramEstimate n7 = estimateFaSram(16, migrationEntryBits,
                                           7.0);
    EXPECT_LT(n7.areaMm2, n22.areaMm2);
}

} // namespace
} // namespace ctg
