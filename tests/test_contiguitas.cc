/**
 * @file
 * Contiguitas core tests: confinement, Algorithm 1 resizing
 * decisions, region expansion/shrinking with evacuation, pin
 * migration, and the hardware-migration hook.
 */

#include <gtest/gtest.h>

#include "base/units.hh"
#include "contiguitas/policy.hh"
#include "contiguitas/region_manager.hh"
#include "contiguitas/resize_controller.hh"
#include "kernel/addrspace.hh"
#include "kernel/netstack.hh"
#include "kernel/slab.hh"
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
    config.memBytes = 512_MiB;
    config.kernelTextBytes = 8_MiB;
    return config;
}

ContiguitasConfig
smallContiguitas()
{
    ContiguitasConfig config;
    config.region.initialUnmovablePages = (64_MiB) / pageBytes;
    config.region.minUnmovablePages = (16_MiB) / pageBytes;
    config.tuning.stepPages = (8_MiB) / pageBytes;
    return config;
}

TEST(ResizeController, ExpandsOnUnmovablePressure)
{
    ResizeController ctrl{ResizeParams{}};
    const ResizeDecision d = ctrl.evaluate(/*unmov=*/20.0,
                                           /*mov=*/0.5, 10000);
    EXPECT_EQ(d.direction, ResizeDirection::Expand);
    EXPECT_GT(d.targetPages, 10000u);
}

TEST(ResizeController, ShrinksWhenMovablePressureHigh)
{
    ResizeController ctrl{ResizeParams{}};
    const ResizeDecision d = ctrl.evaluate(/*unmov=*/1.0,
                                           /*mov=*/30.0, 10000);
    EXPECT_EQ(d.direction, ResizeDirection::Shrink);
    EXPECT_LT(d.targetPages, 10000u);
}

TEST(ResizeController, BothPressuresHighShrinks)
{
    // Algorithm 1: the expand branch requires movable pressure to be
    // *below* its threshold; contention resolves toward shrink.
    ResizeController ctrl{ResizeParams{}};
    const ResizeDecision d = ctrl.evaluate(20.0, 20.0, 10000);
    EXPECT_EQ(d.direction, ResizeDirection::Shrink);
}

TEST(ResizeController, FactorGrowsWithPressure)
{
    ResizeController ctrl{ResizeParams{}};
    const ResizeDecision mild = ctrl.evaluate(6.0, 0.0, 100000);
    const ResizeDecision severe = ctrl.evaluate(60.0, 0.0, 100000);
    EXPECT_EQ(mild.direction, ResizeDirection::Expand);
    EXPECT_EQ(severe.direction, ResizeDirection::Expand);
    EXPECT_GT(severe.factor, mild.factor);
    EXPECT_GT(severe.targetPages, mild.targetPages);
}

TEST(ResizeController, FactorIsClamped)
{
    ResizeParams params;
    params.maxFactor = 0.5;
    ResizeController ctrl{params};
    const ResizeDecision d = ctrl.evaluate(1000.0, 0.0, 1000);
    EXPECT_LE(d.factor, 0.5);
    EXPECT_LE(d.targetPages, 1500u);
}

class RegionManagerTest : public ::testing::Test
{
  protected:
    RegionManagerTest()
        : mem(256_MiB)
    {
        RegionManager::Config config;
        config.initialUnmovablePages = (32_MiB) / pageBytes;
        config.minUnmovablePages = (8_MiB) / pageBytes;
        regions = std::make_unique<RegionManager>(mem, owners, config);
    }

    PhysMem mem;
    OwnerRegistry owners;
    std::unique_ptr<RegionManager> regions;
};

TEST_F(RegionManagerTest, InitialLayout)
{
    EXPECT_EQ(regions->boundary(), (32_MiB) / pageBytes);
    EXPECT_EQ(regions->unmovable().totalPages() +
                  regions->movable().totalPages(),
              mem.numFrames());
    regions->checkConfinement();
}

TEST_F(RegionManagerTest, ExpandTakesFromMovable)
{
    const Pfn before = regions->boundary();
    const std::uint64_t added =
        regions->expandUnmovable((16_MiB) / pageBytes);
    EXPECT_EQ(added, (16_MiB) / pageBytes);
    EXPECT_EQ(regions->boundary(), before + added);
    regions->unmovable().checkInvariants();
    regions->movable().checkInvariants();
    regions->checkConfinement();
}

TEST_F(RegionManagerTest, ExpandEvacuatesMovablePages)
{
    // Fill the area just above the boundary with movable pages that
    // have no registered owner -> they cannot be migrated, so the
    // expansion must fail...
    std::vector<Pfn> held;
    for (int i = 0; i < 4096; ++i) {
        held.push_back(regions->movable().allocPages(
            0, MigrateType::Movable, AllocSource::User, 0,
            AddrPref::Low));
    }
    EXPECT_EQ(regions->expandUnmovable((8_MiB) / pageBytes), 0u);

    // ...but after freeing them the same expansion succeeds.
    for (const Pfn p : held)
        regions->movable().freePages(p);
    EXPECT_GT(regions->expandUnmovable((8_MiB) / pageBytes), 0u);
    regions->checkConfinement();
}

TEST_F(RegionManagerTest, ShrinkReturnsFreeSpace)
{
    const Pfn before = regions->boundary();
    const std::uint64_t removed =
        regions->shrinkUnmovable((8_MiB) / pageBytes);
    EXPECT_EQ(removed, (8_MiB) / pageBytes);
    EXPECT_EQ(regions->boundary(), before - removed);
    regions->checkConfinement();
}

/** A stand-in for a device driver whose buffer translations the
 * IOMMU (and thus Contiguitas-HW) can repoint. */
class DummyIoOwner : public PageOwnerClient
{
  public:
    Pfn current = invalidPfn;

    bool
    relocate(std::uint64_t, Pfn old_head, Pfn new_head) override
    {
        if (current != old_head)
            return false;
        current = new_head;
        return true;
    }
};

TEST_F(RegionManagerTest, ShrinkBlockedByBusyIoPageAtBorder)
{
    // An IO buffer right at the border: busy for DMA (pinned), so
    // software migration is impossible...
    DummyIoOwner io;
    const std::uint16_t cid = owners.registerClient(&io);
    const Pfn page = regions->unmovable().allocPages(
        0, MigrateType::Unmovable, AllocSource::Networking,
        OwnerRegistry::makeOwner(cid, 1), AddrPref::High);
    ASSERT_NE(page, invalidPfn);
    io.current = page;
    mem.setRangePinned(page, page + 1, true);
    EXPECT_EQ(regions->shrinkUnmovable((8_MiB) / pageBytes), 0u);
    EXPECT_GT(regions->stats().shrinkFailures, 0u);

    // ...but Contiguitas-HW migrates it while the device keeps
    // using it, and the shrink goes through.
    regions->enableHwMigration();
    EXPECT_GT(regions->shrinkUnmovable((8_MiB) / pageBytes), 0u);
    EXPECT_GT(regions->stats().hwMigrations, 0u);
    EXPECT_NE(io.current, page); // the driver's record followed
    EXPECT_TRUE(mem.frame(io.current).isPinned());
    regions->checkConfinement();
}

TEST_F(RegionManagerTest, ShrinkBlockedByLinearMapPageEvenWithHw)
{
    // A slab page has raw linear-map pointers into it: nothing can
    // move it, hardware or not (the paper's type-1 unmovable).
    const Pfn page = regions->unmovable().allocPages(
        0, MigrateType::Unmovable, AllocSource::Slab, 0,
        AddrPref::High);
    ASSERT_NE(page, invalidPfn);
    regions->enableHwMigration();
    EXPECT_EQ(regions->shrinkUnmovable((8_MiB) / pageBytes), 0u);
    regions->unmovable().freePages(page);
}

TEST_F(RegionManagerTest, ShrinkRespectsMinimum)
{
    // Try to shrink far below the minimum region size.
    const std::uint64_t huge_request = regions->boundary();
    EXPECT_EQ(regions->shrinkUnmovable(huge_request), 0u);
}

TEST_F(RegionManagerTest, HwHookReceivesMigrations)
{
    std::uint64_t hook_calls = 0;
    regions->enableHwMigration(
        [&hook_calls](Pfn, Pfn, unsigned) { ++hook_calls; });
    DummyIoOwner io;
    const std::uint16_t cid = owners.registerClient(&io);
    const Pfn page = regions->unmovable().allocPages(
        0, MigrateType::Unmovable, AllocSource::Networking,
        OwnerRegistry::makeOwner(cid, 1), AddrPref::High);
    ASSERT_NE(page, invalidPfn);
    io.current = page;
    mem.setRangePinned(page, page + 1, true);
    ASSERT_GT(regions->shrinkUnmovable((8_MiB) / pageBytes), 0u);
    EXPECT_EQ(hook_calls, regions->stats().hwMigrations);
    EXPECT_GT(hook_calls, 0u);
}

TEST(RegionManagerSmall, HalfMemoryCapBeatsTheMinimum)
{
    // Below 128 MiB the default 64 MiB minimum exceeds half of
    // memory; the boundary is capped at total / 2.
    KernelConfig config;
    config.memBytes = 64_MiB;
    config.kernelTextBytes = 2_MiB;
    Kernel kernel(config, ContiguitasPolicy::factory({}));
    auto &policy = static_cast<ContiguitasPolicy &>(kernel.policy());
    EXPECT_GT(RegionManager::Config{}.minUnmovablePages,
              kernel.mem().numFrames() / 2);
    EXPECT_EQ(policy.regions().boundary(), kernel.mem().numFrames() / 2);
    policy.regions().checkConfinement();
}

class ContiguitasPolicyTest : public ::testing::Test
{
  protected:
    ContiguitasPolicyTest()
        : kernel(smallConfig(),
                 ContiguitasPolicy::factory(smallContiguitas())),
          policy(static_cast<ContiguitasPolicy &>(kernel.policy()))
    {}

    Kernel kernel;
    ContiguitasPolicy &policy;
};

TEST_F(ContiguitasPolicyTest, KernelAllocationsConfined)
{
    for (int i = 0; i < 512; ++i) {
        AllocRequest req;
        req.order = 0;
        req.mt = MigrateType::Unmovable;
        req.source = AllocSource::Slab;
        const Pfn p = kernel.allocPages(req);
        ASSERT_NE(p, invalidPfn);
        EXPECT_LT(p, policy.regions().boundary());
    }
    policy.regions().checkConfinement();
}

TEST_F(ContiguitasPolicyTest, UserAllocationsStayAboveBoundary)
{
    for (int i = 0; i < 512; ++i) {
        AllocRequest req;
        req.order = 0;
        req.mt = MigrateType::Movable;
        req.source = AllocSource::User;
        const Pfn p = kernel.allocPages(req);
        ASSERT_NE(p, invalidPfn);
        EXPECT_GE(p, policy.regions().boundary());
    }
}

TEST_F(ContiguitasPolicyTest, RegionFullTriggersUrgentExpansion)
{
    const Pfn before = policy.regions().boundary();
    // Fill the unmovable region far beyond its initial size.
    const std::uint64_t initial = before;
    std::uint64_t allocated = 0;
    while (allocated < initial * 2) {
        AllocRequest req;
        req.order = maxOrder;
        req.mt = MigrateType::Unmovable;
        req.source = AllocSource::Networking;
        const Pfn p = kernel.allocPages(req);
        ASSERT_NE(p, invalidPfn);
        allocated += Pfn{1} << maxOrder;
    }
    EXPECT_GT(policy.regions().boundary(), before);
    EXPECT_GT(policy.stats().urgentExpansions, 0u);
    policy.regions().checkConfinement();
}

TEST_F(ContiguitasPolicyTest, PinMigratesIntoUnmovableRegion)
{
    AddressSpace space(kernel, 1);
    // Sub-huge region so backing uses 4 KB pages.
    const Addr base = space.mmap(64_KiB);
    space.touchRange(base, 64_KiB);

    const Pfn frame = space.randomBacked4kFrame(kernel.rng());
    ASSERT_NE(frame, invalidPfn);
    ASSERT_GE(frame, policy.regions().boundary());

    const Pfn pinned = kernel.pinPages(frame);
    ASSERT_NE(pinned, invalidPfn);
    EXPECT_NE(pinned, frame);
    EXPECT_LT(pinned, policy.regions().boundary());
    EXPECT_TRUE(kernel.mem().frame(pinned).isPinned());
    // The address space mapping followed the migration.
    policy.regions().checkConfinement();

    kernel.unpinPages(pinned);
    EXPECT_FALSE(kernel.mem().frame(pinned).isPinned());
}

TEST_F(ContiguitasPolicyTest, PinnedPageTranslationStaysValid)
{
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(1_MiB);
    space.touchRange(base, 1_MiB);
    const Translation before = space.translate(base);
    ASSERT_TRUE(before.valid);

    const Pfn pinned = kernel.pinPages(before.pfn);
    ASSERT_NE(pinned, invalidPfn);
    const Translation after = space.translate(base);
    ASSERT_TRUE(after.valid);
    EXPECT_EQ(after.pfn, pinned);
}

TEST_F(ContiguitasPolicyTest, ControllerExpandsUnderPressure)
{
    // Synthesize sustained unmovable pressure.
    const Pfn before = policy.regions().boundary();
    for (int second = 1; second <= 10; ++second) {
        kernel.psiUnmovable().recordStall(3e5); // 0.3 s stall/second
        kernel.advanceSeconds(1.0);
    }
    EXPECT_GT(policy.regions().boundary(), before);
    EXPECT_GT(policy.stats().controllerExpands, 0u);
}

TEST_F(ContiguitasPolicyTest, ControllerShrinksIdleRegion)
{
    // Grow first, then let movable pressure dominate.
    ASSERT_GT(policy.regions().expandUnmovable((64_MiB) / pageBytes),
              0u);
    const Pfn grown = policy.regions().boundary();
    for (int second = 1; second <= 30; ++second) {
        kernel.psiMovable().recordStall(3e5);
        kernel.advanceSeconds(1.0);
    }
    EXPECT_LT(policy.regions().boundary(), grown);
    EXPECT_GT(policy.stats().controllerShrinks, 0u);
    policy.regions().checkConfinement();
}

TEST_F(ContiguitasPolicyTest, MovableRegionHasGiganticContiguity)
{
    // With confinement, the movable region of a fresh kernel should
    // offer gigantic contiguity... on a 512 MiB machine no 1 GB
    // range exists, but 2 MB and 32 MB must be plentiful.
    const double frac2m = kernel.mem().stats().potentialContiguityFraction(
        policy.regions().boundary(),
        kernel.mem().numFrames(), scan::order2M);
    EXPECT_GT(frac2m, 0.95);
}

TEST_F(ContiguitasPolicyTest, SlabChurnsStayConfined)
{
    SlabAllocator slab(kernel);
    std::vector<SlabAllocator::ObjHandle> objs;
    for (int i = 0; i < 20000; ++i)
        objs.push_back(slab.allocObject(128));
    for (std::size_t i = 0; i < objs.size(); i += 2)
        slab.freeObject(objs[i]);
    policy.regions().checkConfinement();
    // Unmovable pages exist only below the boundary.
    const double unmov_above = kernel.mem().stats().unmovablePageRatio(
        policy.regions().boundary(),
        kernel.mem().numFrames());
    EXPECT_EQ(unmov_above, 0.0);
}

} // namespace
} // namespace ctg
