/**
 * @file
 * Chaos tests: deterministic fault injection against every armed
 * site, recovery-path accounting (migration rollback, CHW aborts,
 * deferred region resizes), and full fleet simulations run under
 * injected faults with the cross-subsystem auditor green after
 * every workload step.
 *
 * Every test resets the process-wide injector first, so cases are
 * independent and replay bit-identically under any test ordering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "base/span_trace.hh"
#include "base/units.hh"
#include "contiguitas/policy.hh"
#include "contiguitas/region_manager.hh"
#include "contiguitas/resize_controller.hh"
#include "fleet/server.hh"
#include "hw/system.hh"
#include "kernel/migrate.hh"
#include "mem/auditor.hh"
#include "mem/contig_index.hh"
#include "mem/scanner.hh"
#include "sim/fault_injector.hh"

namespace ctg
{
namespace
{

/** Reset the process-wide injector around every case. */
class ChaosTest : public ::testing::Test
{
  protected:
    ChaosTest() { faultInjector().reset(); }
    ~ChaosTest() override { faultInjector().reset(); }
};

/** Relocatable owner tracking its pages by tag. */
class TestOwner : public PageOwnerClient
{
  public:
    std::unordered_map<std::uint64_t, Pfn> where;

    bool
    relocate(std::uint64_t tag, Pfn old_head, Pfn new_head) override
    {
        auto it = where.find(tag);
        if (it == where.end() || it->second != old_head)
            return false;
        it->second = new_head;
        return true;
    }
};

// ---------------------------------------------------------------
// Injector semantics
// ---------------------------------------------------------------

TEST_F(ChaosTest, SpecStringConfiguresSites)
{
    FaultInjector inj;
    EXPECT_TRUE(inj.configure("buddy.alloc_fail:p0.25,"
                              "chw.midcopy_abort:n3,"
                              "region.evac_fail:once,"
                              "kernel.reclaim_fail:o5"));
    EXPECT_TRUE(inj.armed(FaultSite::BuddyAllocFail));
    EXPECT_TRUE(inj.armed(FaultSite::ChwMidcopyAbort));
    EXPECT_TRUE(inj.armed(FaultSite::RegionEvacFail));
    EXPECT_TRUE(inj.armed(FaultSite::KernelReclaimFail));
    EXPECT_FALSE(inj.armed(FaultSite::MigrateDstFail));

    // Malformed tokens are skipped, valid ones still arm.
    FaultInjector inj2;
    EXPECT_FALSE(inj2.configure("nonsense:p0.5,migrate.dst_fail:n2"));
    EXPECT_TRUE(inj2.armed(FaultSite::MigrateDstFail));
    EXPECT_FALSE(inj2.anyArmed() &&
                 inj2.armed(FaultSite::BuddyAllocFail));
}

TEST_F(ChaosTest, SiteNamesRoundTrip)
{
    for (unsigned i = 0; i < numFaultSites; ++i) {
        const auto site = static_cast<FaultSite>(i);
        FaultSite parsed;
        ASSERT_TRUE(
            FaultInjector::siteFromName(FaultInjector::siteName(site),
                                        &parsed));
        EXPECT_EQ(parsed, site);
    }
    FaultSite out;
    EXPECT_FALSE(FaultInjector::siteFromName("no.such_site", &out));
}

TEST_F(ChaosTest, EveryNthFiresOnSchedule)
{
    FaultInjector inj;
    inj.arm(FaultSite::BuddyAllocFail, FaultSpec::everyNth(3));
    std::vector<bool> fires;
    for (int i = 0; i < 9; ++i)
        fires.push_back(inj.shouldFail(FaultSite::BuddyAllocFail));
    const std::vector<bool> expect = {false, false, true,
                                      false, false, true,
                                      false, false, true};
    EXPECT_EQ(fires, expect);
    EXPECT_EQ(inj.siteStats(FaultSite::BuddyAllocFail).fires, 3u);
    EXPECT_EQ(inj.siteStats(FaultSite::BuddyAllocFail).evaluations,
              9u);
}

TEST_F(ChaosTest, OneShotFiresOnceThenDisarms)
{
    FaultInjector inj;
    inj.arm(FaultSite::MigrateDstFail, FaultSpec::oneShot(4));
    for (int i = 1; i <= 3; ++i)
        EXPECT_FALSE(inj.shouldFail(FaultSite::MigrateDstFail));
    EXPECT_TRUE(inj.shouldFail(FaultSite::MigrateDstFail));
    EXPECT_FALSE(inj.anyArmed());
    // Disarmed: further probes never fire.
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(inj.shouldFail(FaultSite::MigrateDstFail));
    EXPECT_EQ(inj.siteStats(FaultSite::MigrateDstFail).fires, 1u);
}

TEST_F(ChaosTest, ProbabilityTriggerReplaysExactly)
{
    const auto record = [](std::uint64_t seed) {
        FaultInjector inj(seed);
        inj.arm(FaultSite::BuddyAllocFail, FaultSpec::chance(0.3));
        std::vector<bool> fires;
        for (int i = 0; i < 256; ++i)
            fires.push_back(inj.shouldFail(FaultSite::BuddyAllocFail));
        return fires;
    };
    const auto a = record(42);
    EXPECT_EQ(a, record(42));
    EXPECT_NE(a, record(43));
    // Sanity: the stream actually mixes fires and non-fires.
    EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
    EXPECT_GT(std::count(a.begin(), a.end(), false), 0);
}

TEST_F(ChaosTest, SiteStreamsAreIndependent)
{
    // Arming (and probing) a second site must not shift the first
    // site's firing pattern — each stream is seeded per site.
    const auto record = [](bool interleave) {
        FaultInjector inj(7);
        inj.arm(FaultSite::BuddyAllocFail, FaultSpec::chance(0.4));
        if (interleave)
            inj.arm(FaultSite::RegionEvacFail, FaultSpec::chance(0.4));
        std::vector<bool> fires;
        for (int i = 0; i < 128; ++i) {
            fires.push_back(inj.shouldFail(FaultSite::BuddyAllocFail));
            if (interleave)
                inj.shouldFail(FaultSite::RegionEvacFail);
        }
        return fires;
    };
    EXPECT_EQ(record(false), record(true));
}

// ---------------------------------------------------------------
// Buddy and software-migration fault paths
// ---------------------------------------------------------------

TEST_F(ChaosTest, BuddyInjectedFailuresKeepInvariants)
{
    PhysMem mem(64_MiB);
    BuddyAllocator alloc(mem, 0, mem.numFrames(), "chaos");
    MemAuditor auditor(mem);
    auditor.addAllocator(&alloc);

    faultInjector().arm(FaultSite::BuddyAllocFail,
                        FaultSpec::everyNth(7));
    std::vector<Pfn> held;
    std::uint64_t held_pages = 0;
    Rng rng(0xc4a05);
    for (int i = 0; i < 2000; ++i) {
        if (rng.chance(0.6)) {
            const unsigned order =
                static_cast<unsigned>(rng.below(4));
            const Pfn p = alloc.allocPages(order, MigrateType::Movable,
                                           AllocSource::User);
            if (p != invalidPfn) {
                held.push_back(p);
                held_pages += Pfn{1} << order;
            }
        } else if (!held.empty()) {
            const std::size_t i2 = rng.below(held.size());
            held_pages -=
                Pfn{1} << mem.frame(held[i2]).order();
            alloc.freePages(held[i2]);
            held[i2] = held.back();
            held.pop_back();
        }
    }
    EXPECT_GT(alloc.stats().injectedFailures, 0u);
    EXPECT_GE(alloc.stats().failedAllocs,
              alloc.stats().injectedFailures);
    // Page conservation in spite of every injected failure.
    EXPECT_EQ(alloc.freePageCount() + held_pages, alloc.totalPages());
    const AuditReport report = auditor.audit();
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(ChaosTest, GiganticInjectedFailureLeavesFreeSpaceIntact)
{
    PhysMem mem(1_GiB);
    BuddyAllocator alloc(mem, 0, mem.numFrames(), "g");
    const std::uint64_t free_before = alloc.freePageCount();

    faultInjector().arm(FaultSite::BuddyGiganticFail,
                        FaultSpec::oneShot());
    EXPECT_EQ(alloc.allocGigantic(MigrateType::Unmovable,
                                  AllocSource::User),
              invalidPfn);
    EXPECT_EQ(alloc.stats().injectedFailures, 1u);
    EXPECT_EQ(alloc.stats().giganticFailures, 1u);
    EXPECT_EQ(alloc.freePageCount(), free_before);
    alloc.checkInvariants();

    // One-shot spent: the fully-free gigabyte is found after all.
    const Pfn head = alloc.allocGigantic(MigrateType::Unmovable,
                                         AllocSource::User);
    ASSERT_NE(head, invalidPfn);
    alloc.freePages(head);
    EXPECT_EQ(alloc.freePageCount(), free_before);
}

TEST_F(ChaosTest, MigrateRollsBackOnInjectedRelocateFault)
{
    PhysMem mem(64_MiB);
    BuddyAllocator alloc(mem, 0, mem.numFrames(), "m");
    OwnerRegistry owners;
    TestOwner owner;
    const std::uint16_t cid = owners.registerClient(&owner);

    const Pfn src = alloc.allocPages(
        0, MigrateType::Movable, AllocSource::User,
        OwnerRegistry::makeOwner(cid, 1));
    ASSERT_NE(src, invalidPfn);
    owner.where[1] = src;

    const std::uint64_t free_before = alloc.freePageCount();
    const MigrateStats before = globalMigrateStats();

    faultInjector().arm(FaultSite::MigrateRelocateFail,
                        FaultSpec::oneShot());
    Pfn dst = invalidPfn;
    const MigrateResult r =
        migrateBlock(alloc, alloc, owners, src, AddrPref::None,
                     MigrateType::Movable, &dst);
    EXPECT_EQ(r, MigrateResult::Unmovable);
    // Rollback: the destination went back to the free lists, the
    // source is untouched, and the owner still points at it.
    EXPECT_EQ(alloc.freePageCount(), free_before);
    EXPECT_FALSE(mem.frame(src).isFree());
    EXPECT_EQ(owner.where.at(1), src);
    EXPECT_EQ(globalMigrateStats().injectedFaults,
              before.injectedFaults + 1);
    EXPECT_EQ(globalMigrateStats().unmovable, before.unmovable + 1);

    // With the one-shot spent, the same migration succeeds.
    EXPECT_EQ(migrateBlock(alloc, alloc, owners, src, AddrPref::None,
                           MigrateType::Movable, &dst),
              MigrateResult::Ok);
    EXPECT_EQ(owner.where.at(1), dst);
    alloc.checkInvariants();
}

TEST_F(ChaosTest, MigrateFailsCleanlyOnInjectedDstFault)
{
    PhysMem mem(64_MiB);
    BuddyAllocator alloc(mem, 0, mem.numFrames(), "m");
    OwnerRegistry owners;
    TestOwner owner;
    const std::uint16_t cid = owners.registerClient(&owner);
    const Pfn src = alloc.allocPages(
        0, MigrateType::Movable, AllocSource::User,
        OwnerRegistry::makeOwner(cid, 1));
    ASSERT_NE(src, invalidPfn);
    owner.where[1] = src;

    const std::uint64_t free_before = alloc.freePageCount();
    const MigrateStats before = globalMigrateStats();
    faultInjector().arm(FaultSite::MigrateDstFail,
                        FaultSpec::oneShot());
    EXPECT_EQ(migrateBlock(alloc, alloc, owners, src, AddrPref::None,
                           MigrateType::Movable, nullptr),
              MigrateResult::NoMemory);
    EXPECT_EQ(alloc.freePageCount(), free_before);
    EXPECT_EQ(owner.where.at(1), src);
    EXPECT_EQ(globalMigrateStats().noMemory, before.noMemory + 1);
    EXPECT_EQ(globalMigrateStats().injectedFaults,
              before.injectedFaults + 1);
    alloc.checkInvariants();
}

// ---------------------------------------------------------------
// Contiguitas-HW abort paths
// ---------------------------------------------------------------

TEST_F(ChaosTest, ChwMidcopyAbortAccountsAndNotifies)
{
    HwSystem hw;
    faultInjector().arm(FaultSite::ChwMidcopyAbort,
                        FaultSpec::oneShot(10));
    bool completed = false;
    bool aborted = false;
    ChwEngine::Descriptor desc;
    desc.src = 0x300;
    desc.dst = 0x700;
    desc.mode = ChwMode::Noncacheable;
    desc.onComplete = [&completed] { completed = true; };
    desc.onAbort = [&aborted] { aborted = true; };
    ASSERT_TRUE(hw.chw().submitMigrate(desc));
    hw.drain();

    EXPECT_FALSE(completed);
    EXPECT_TRUE(aborted);
    EXPECT_EQ(hw.chw().stats().migrationsStarted, 1u);
    EXPECT_EQ(hw.chw().stats().migrationsCompleted, 0u);
    EXPECT_EQ(hw.chw().stats().migrationsAborted, 1u);
    EXPECT_EQ(hw.chw().inFlight(), 0u);
    // The mapping is gone: the page is no longer migrating.
    EXPECT_FALSE(hw.chw().migrating(0x300));
    EXPECT_LT(hw.chw().stats().linesCopied, std::uint64_t{linesPerPage});
}

TEST_F(ChaosTest, ChwOsClearMidCopyCountsSingleAbort)
{
    HwSystem hw;
    unsigned aborts = 0;
    ChwEngine::Descriptor desc;
    desc.src = 0x300;
    desc.dst = 0x700;
    desc.mode = ChwMode::Noncacheable;
    desc.onAbort = [&aborts] { ++aborts; };
    ASSERT_TRUE(hw.chw().submitMigrate(desc));
    for (int i = 0; i < 8; ++i)
        hw.eventq().step();
    ASSERT_TRUE(hw.chw().migrating(0x300));
    hw.chw().clear(0x300);
    // Stale copy events drain without double-counting the abort.
    hw.drain();
    EXPECT_EQ(aborts, 1u);
    EXPECT_EQ(hw.chw().stats().migrationsAborted, 1u);
    EXPECT_EQ(hw.chw().stats().migrationsCompleted, 0u);
    EXPECT_EQ(hw.chw().inFlight(), 0u);
}

TEST_F(ChaosTest, ChwClearAfterCompletionIsNotAnAbort)
{
    HwSystem hw;
    bool completed = false;
    ChwEngine::Descriptor desc;
    desc.src = 0x300;
    desc.dst = 0x700;
    desc.mode = ChwMode::Noncacheable;
    desc.onComplete = [&completed] { completed = true; };
    ASSERT_TRUE(hw.chw().submitMigrate(desc));
    hw.drain();
    ASSERT_TRUE(completed);
    hw.chw().clear(0x300);
    EXPECT_EQ(hw.chw().stats().migrationsAborted, 0u);
    EXPECT_EQ(hw.chw().stats().migrationsCompleted, 1u);
}

TEST_F(ChaosTest, ChwInstallFaultRejectsDescriptor)
{
    HwSystem hw;
    faultInjector().arm(FaultSite::ChwInstallFail,
                        FaultSpec::oneShot());
    ChwEngine::Descriptor desc;
    desc.src = 0x300;
    desc.dst = 0x700;
    desc.mode = ChwMode::Noncacheable;
    EXPECT_FALSE(hw.chw().submitMigrate(desc));
    EXPECT_EQ(hw.chw().stats().installsRejected, 1u);
    EXPECT_EQ(hw.chw().stats().migrationsStarted, 0u);
    // One-shot spent: the resubmission goes through.
    ASSERT_TRUE(hw.chw().submitMigrate(desc));
    hw.drain();
    EXPECT_EQ(hw.chw().stats().migrationsCompleted, 1u);
}

TEST_F(ChaosTest, ChwStartedReconcilesUnderRandomAborts)
{
    HwSystem hw;
    faultInjector().arm(FaultSite::ChwMidcopyAbort,
                        FaultSpec::chance(0.02));
    unsigned submitted = 0;
    for (Pfn i = 0; i < 12; ++i) {
        ChwEngine::Descriptor desc;
        desc.src = 0x1000 + i * 2;
        desc.dst = 0x8000 + i * 2;
        desc.mode = ChwMode::Noncacheable;
        ASSERT_TRUE(hw.chw().submitMigrate(desc));
        ++submitted;
        hw.drain();
        if (!hw.chw().migrating(desc.src))
            continue;
        hw.chw().clear(desc.src);
    }
    const ChwEngine::Stats &s = hw.chw().stats();
    EXPECT_EQ(s.migrationsStarted, submitted);
    EXPECT_EQ(s.migrationsStarted, s.migrationsCompleted +
                                       s.migrationsAborted +
                                       hw.chw().inFlight());
    EXPECT_GT(s.migrationsAborted, 0u);
    EXPECT_GT(s.migrationsCompleted, 0u);
}

// ---------------------------------------------------------------
// Region resize deferral and backoff
// ---------------------------------------------------------------

class RegionChaosTest : public ChaosTest
{
  protected:
    RegionChaosTest()
        : mem(256_MiB)
    {
        RegionManager::Config config;
        config.initialUnmovablePages = (32_MiB) / pageBytes;
        config.minUnmovablePages = (8_MiB) / pageBytes;
        regions = std::make_unique<RegionManager>(mem, owners, config);
        cid = owners.registerClient(&owner);
    }

    /** Populate the range just above the boundary with movable
     * owner-backed pages, so expansion must evacuate. */
    void
    seedBorderMovablePages(int count)
    {
        for (int i = 0; i < count; ++i) {
            const std::uint64_t tag = nextTag++;
            const Pfn p = regions->movable().allocPages(
                0, MigrateType::Movable, AllocSource::User,
                OwnerRegistry::makeOwner(cid, tag), AddrPref::Low);
            ASSERT_NE(p, invalidPfn);
            owner.where[tag] = p;
        }
    }

    AuditReport
    auditAll()
    {
        MemAuditor auditor(mem);
        regions->attachAuditorChecks(auditor);
        return auditor.audit();
    }

    PhysMem mem;
    OwnerRegistry owners;
    TestOwner owner;
    std::uint16_t cid = 0;
    std::uint64_t nextTag = 1;
    std::unique_ptr<RegionManager> regions;
};

TEST_F(RegionChaosTest, InjectedEvacFailureDefersExpansion)
{
    seedBorderMovablePages(256);
    faultInjector().arm(FaultSite::RegionEvacFail,
                        FaultSpec::oneShot());
    const Pfn before = regions->boundary();
    EXPECT_EQ(regions->expandUnmovable((8_MiB) / pageBytes), 0u);
    EXPECT_EQ(regions->boundary(), before);
    EXPECT_EQ(regions->stats().injectedEvacFails, 1u);
    EXPECT_EQ(regions->stats().deferredEnqueued, 1u);
    EXPECT_TRUE(regions->deferredResizePending());
    {
        const AuditReport report = auditAll();
        EXPECT_TRUE(report.ok()) << report.summary();
    }

    // Backoff: two waiting pumps, then the retry succeeds (the
    // one-shot fault is spent and the pages are software-movable).
    EXPECT_EQ(regions->pumpDeferredResizes(), 0u);
    EXPECT_EQ(regions->pumpDeferredResizes(), 0u);
    EXPECT_EQ(regions->stats().deferredRetries, 0u);
    EXPECT_GT(regions->pumpDeferredResizes(), 0u);
    EXPECT_EQ(regions->stats().deferredRetries, 1u);
    EXPECT_EQ(regions->stats().deferredCompleted, 1u);
    EXPECT_FALSE(regions->deferredResizePending());
    EXPECT_GT(regions->boundary(), before);
    const AuditReport report = auditAll();
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(RegionChaosTest, PinnedBorderShrinkRetriesWithBackoff)
{
    // A pinned IO page at the top of the unmovable region blocks the
    // shrink (no HW migration in this rig).
    const std::uint64_t tag = nextTag++;
    const Pfn page = regions->unmovable().allocPages(
        0, MigrateType::Unmovable, AllocSource::Networking,
        OwnerRegistry::makeOwner(cid, tag), AddrPref::High);
    ASSERT_NE(page, invalidPfn);
    owner.where[tag] = page;
    mem.setRangePinned(page, page + 1, true);

    const Pfn before = regions->boundary();
    EXPECT_EQ(regions->shrinkUnmovable((8_MiB) / pageBytes), 0u);
    EXPECT_TRUE(regions->deferredResizePending());
    // Accounting stayed consistent across the failed attempt: the
    // border range was un-isolated and nothing leaked.
    EXPECT_EQ(regions->unmovable().totalPages() +
                  regions->movable().totalPages(),
              mem.numFrames());
    {
        const AuditReport report = auditAll();
        EXPECT_TRUE(report.ok()) << report.summary();
    }

    // First retry (after the 2-pump wait) still hits the pin.
    EXPECT_EQ(regions->pumpDeferredResizes(), 0u);
    EXPECT_EQ(regions->pumpDeferredResizes(), 0u);
    EXPECT_EQ(regions->pumpDeferredResizes(), 0u);
    EXPECT_EQ(regions->stats().deferredRetries, 1u);
    EXPECT_TRUE(regions->deferredResizePending());

    // Unpin; the next retry fires only after the doubled (4-pump)
    // backoff and then succeeds.
    mem.setRangePinned(page, page + 1, false);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(regions->pumpDeferredResizes(), 0u);
    EXPECT_GT(regions->pumpDeferredResizes(), 0u);
    EXPECT_EQ(regions->stats().deferredRetries, 2u);
    EXPECT_EQ(regions->stats().deferredCompleted, 1u);
    EXPECT_FALSE(regions->deferredResizePending());
    EXPECT_LT(regions->boundary(), before);
    // The IO page was evacuated deeper into the region.
    EXPECT_LT(owner.where.at(tag), regions->boundary());
    const AuditReport report = auditAll();
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(RegionChaosTest, DeferredResizeDropsAfterRetryCap)
{
    // A linear-map page at the border: nothing can ever move it, so
    // every retry fails until the queue gives up.
    const Pfn page = regions->unmovable().allocPages(
        0, MigrateType::Unmovable, AllocSource::Slab, 0,
        AddrPref::High);
    ASSERT_NE(page, invalidPfn);
    EXPECT_EQ(regions->shrinkUnmovable((8_MiB) / pageBytes), 0u);
    ASSERT_TRUE(regions->deferredResizePending());

    int pumps = 0;
    while (regions->deferredResizePending() && pumps < 100) {
        regions->pumpDeferredResizes();
        ++pumps;
    }
    EXPECT_FALSE(regions->deferredResizePending());
    EXPECT_EQ(regions->stats().deferredRetries,
              std::uint64_t{RegionManager::maxResizeRetries});
    EXPECT_EQ(regions->stats().deferredDropped, 1u);
    const AuditReport report = auditAll();
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(RegionChaosTest, OppositeDirectionSupersedesQueuedResize)
{
    // Queue a blocked shrink...
    const Pfn pinned = regions->unmovable().allocPages(
        0, MigrateType::Unmovable, AllocSource::Slab, 0,
        AddrPref::High);
    ASSERT_NE(pinned, invalidPfn);
    EXPECT_EQ(regions->shrinkUnmovable((8_MiB) / pageBytes), 0u);
    ASSERT_TRUE(regions->deferredResizePending());

    // ...then fail an expansion: the stale shrink is superseded.
    seedBorderMovablePages(64);
    faultInjector().arm(FaultSite::RegionEvacFail,
                        FaultSpec::oneShot());
    EXPECT_EQ(regions->expandUnmovable((8_MiB) / pageBytes), 0u);
    EXPECT_EQ(regions->stats().deferredSuperseded, 1u);
    EXPECT_EQ(regions->stats().deferredEnqueued, 2u);
    EXPECT_TRUE(regions->deferredResizePending());

    // The queued expansion completes once its backoff elapses.
    EXPECT_EQ(regions->pumpDeferredResizes(), 0u);
    EXPECT_EQ(regions->pumpDeferredResizes(), 0u);
    EXPECT_GT(regions->pumpDeferredResizes(), 0u);
    EXPECT_EQ(regions->stats().deferredCompleted, 1u);
}

// ---------------------------------------------------------------
// Kernel reclaim faults and auditor sensitivity
// ---------------------------------------------------------------

class CountingShrinker : public Shrinker
{
  public:
    std::uint64_t
    shrink(std::uint64_t target_pages) override
    {
        ++calls;
        return target_pages;
    }

    unsigned calls = 0;
};

TEST_F(ChaosTest, KernelReclaimFaultReturnsNoProgress)
{
    KernelConfig config;
    config.memBytes = 256_MiB;
    config.kernelTextBytes = 2_MiB;
    Kernel kernel(config);
    CountingShrinker shrinker;
    kernel.registerShrinker(&shrinker);

    faultInjector().arm(FaultSite::KernelReclaimFail,
                        FaultSpec::oneShot());
    EXPECT_EQ(kernel.reclaim(64), 0u);
    // The injected failure short-circuits before any shrinker runs.
    EXPECT_EQ(shrinker.calls, 0u);
    // Next attempt reaches the shrinkers again.
    EXPECT_GT(kernel.reclaim(64), 0u);
    EXPECT_GT(shrinker.calls, 0u);
}

TEST_F(ChaosTest, AuditorDetectsFrameCorruption)
{
    PhysMem mem(64_MiB);
    BuddyAllocator alloc(mem, 0, mem.numFrames(), "c");
    MemAuditor auditor(mem);
    auditor.addAllocator(&alloc);

    const Pfn p = alloc.allocPages(0, MigrateType::Movable,
                                   AllocSource::User);
    ASSERT_NE(p, invalidPfn);
    ASSERT_TRUE(auditor.audit().ok());

    // Flip the allocated frame to "free" behind the allocator's
    // back: page conservation must flag it.
    mem.frame(p).setFree(true);
    const AuditReport bad = auditor.audit();
    EXPECT_FALSE(bad.ok());
    EXPECT_GT(auditor.stats().violations, 0u);

    mem.frame(p).setFree(false);
    EXPECT_TRUE(auditor.audit().ok());
}

TEST_F(ChaosTest, KernelAuditorCoversOwnerAndPinTables)
{
    KernelConfig config;
    config.memBytes = 256_MiB;
    config.kernelTextBytes = 2_MiB;
    Kernel kernel(config);
    const auto auditor = kernel.makeAuditor();
    {
        const AuditReport report = auditor->audit();
        EXPECT_TRUE(report.ok()) << report.summary();
    }

    // A pin-table entry whose frame is not pinned is a violation.
    AllocRequest req;
    req.order = 0;
    req.mt = MigrateType::Movable;
    req.source = AllocSource::User;
    const Pfn page = kernel.allocPages(req);
    ASSERT_NE(page, invalidPfn);
    const std::uint64_t id = kernel.pinPagesId(page);
    ASSERT_NE(id, 0u);
    const Pfn where = kernel.pinnedLocation(id);
    ASSERT_TRUE(auditor->audit().ok());
    kernel.mem().frame(where).setPinned(false);
    EXPECT_FALSE(auditor->audit().ok());
    kernel.mem().frame(where).setPinned(true);
    kernel.unpinById(id);
    EXPECT_TRUE(auditor->audit().ok());
}

// ---------------------------------------------------------------
// Resize-controller epsilon (sub-1% pressure handling)
// ---------------------------------------------------------------

TEST(ResizeControllerEpsilon, ZeroPressureStaysFiniteAndBounded)
{
    ResizeController ctrl{ResizeParams{}};
    const ResizeParams params;
    // Expand with a perfectly calm movable region: the
    // counter-pressure term is T_mov/minPressure * c_me, not inf.
    const ResizeDecision d = ctrl.evaluate(10.0, 0.0, 100000);
    EXPECT_EQ(d.direction, ResizeDirection::Expand);
    const double expect =
        10.0 / params.thresholdUnmov * params.cue +
        params.thresholdMov / ResizeController::minPressure *
            params.cme;
    EXPECT_NEAR(d.factor, expect, 1e-9);
    EXPECT_LT(d.factor, params.maxFactor);
    EXPECT_EQ(d.targetPages,
              static_cast<std::uint64_t>(
                  std::ceil((1.0 + expect) * 100000.0)));

    // Both pressures zero: modest shrink, not shrink-to-nothing.
    const ResizeDecision idle = ctrl.evaluate(0.0, 0.0, 100000);
    EXPECT_EQ(idle.direction, ResizeDirection::Shrink);
    EXPECT_NEAR(idle.factor,
                params.thresholdUnmov /
                    ResizeController::minPressure * params.cus,
                1e-9);
    EXPECT_GT(idle.targetPages, 100000u / 2);
}

TEST(ResizeControllerEpsilon, SubPercentPressuresKeepTheirGradient)
{
    // The paper's max(P, 1) floor would make these two readings
    // indistinguishable; the epsilon floor preserves the gradient.
    ResizeController ctrl{ResizeParams{}};
    const ResizeDecision calm = ctrl.evaluate(10.0, 0.3, 100000);
    const ResizeDecision calmer = ctrl.evaluate(10.0, 0.9, 100000);
    EXPECT_EQ(calm.direction, ResizeDirection::Expand);
    EXPECT_EQ(calmer.direction, ResizeDirection::Expand);
    EXPECT_GT(calm.factor, calmer.factor);
    EXPECT_GT(calm.targetPages, calmer.targetPages);
}

// ---------------------------------------------------------------
// Fleet chaos: whole simulations under fire, audited every step
// ---------------------------------------------------------------

Server::Config
chaosServer(bool contiguitas)
{
    Server::Config config;
    config.memBytes = 512_MiB;
    config.policy.name = contiguitas ? "contiguitas" : "vanilla";
    config.kind = WorkloadKind::Web;
    config.uptimeSec = 10.0;
    config.prefragment = true;
    config.seed = 0xc4a05;
    return config;
}

void
armFleetFaults()
{
    FaultInjector &inj = faultInjector();
    inj.arm(FaultSite::BuddyAllocFail, FaultSpec::chance(0.002));
    inj.arm(FaultSite::BuddyGiganticFail, FaultSpec::chance(0.5));
    inj.arm(FaultSite::MigrateDstFail, FaultSpec::chance(0.03));
    inj.arm(FaultSite::MigrateRelocateFail, FaultSpec::chance(0.03));
    inj.arm(FaultSite::RegionEvacFail, FaultSpec::chance(0.15));
    inj.arm(FaultSite::KernelReclaimFail, FaultSpec::chance(0.1));
}

TEST_F(ChaosTest, ContiguitasFleetSurvivesInjectedFaults)
{
    Server server(chaosServer(true));
    armFleetFaults();
    server.enableStepAudit();
    const ServerScan scan = server.run(); // audits every step
    EXPECT_GT(scan.freePages, 0u);
    ASSERT_NE(server.auditor(), nullptr);
    EXPECT_GT(server.auditor()->stats().audits, 10u);
    EXPECT_EQ(server.auditor()->stats().violations, 0u);
    // Faults actually fired into the run.
    EXPECT_GT(faultInjector().totalFires(), 0u);
    EXPECT_GT(faultInjector()
                  .siteStats(FaultSite::BuddyAllocFail)
                  .evaluations,
              0u);
}

TEST_F(ChaosTest, VanillaFleetSurvivesInjectedFaults)
{
    Server server(chaosServer(false));
    armFleetFaults();
    server.enableStepAudit();
    const ServerScan scan = server.run();
    EXPECT_GT(scan.freePages, 0u);
    EXPECT_EQ(server.auditor()->stats().violations, 0u);
    EXPECT_GT(faultInjector().totalFires(), 0u);
}

/**
 * ContigIndex exactness under maximal chaos: EVERY fault site armed,
 * Contiguitas server (region resizes, migrations, confinement) with
 * the step audit on — audit() cross-checks the index against a
 * reference full scan after pretreatment and every workload step, so
 * any fault-injected rollback that left the index stale panics the
 * run. A final explicit comparison covers the post-run state too.
 */
TEST_F(ChaosTest, ContigIndexStaysExactWithEveryFaultSiteArmed)
{
    FaultInjector &inj = faultInjector();
    for (unsigned i = 0; i < numFaultSites; ++i)
        inj.arm(static_cast<FaultSite>(i), FaultSpec::chance(0.02));

    Server server(chaosServer(true));
    server.enableStepAudit();
    server.run();
    EXPECT_EQ(server.auditor()->stats().violations, 0u);
    EXPECT_GT(inj.totalFires(), 0u);

    const PhysMem &mem = server.kernel().mem();
    const ContigIndex &idx = mem.contigIndex();
    EXPECT_EQ(idx.freePages(),
              scan::reference::freePages(mem, 0, mem.numFrames()));
    for (const unsigned order :
         {scan::order2M, scan::order32M, scan::order1G}) {
        EXPECT_EQ(idx.fullyFreeBlocks(order),
                  scan::reference::freeAlignedBlocks(
                      mem, 0, mem.numFrames(), order));
        EXPECT_EQ(idx.taintedBlocks(order),
                  scan::reference::unmovableAlignedBlocks(
                      mem, 0, mem.numFrames(), order));
    }
}

/** The index-driven hot paths (compaction, region resizing, contig
 * alloc) and the exact AddrPref descent must hold up with every
 * fault site armed: the step audit cross-checks the descent queries
 * against reference scans after each second of simulated load. */
TEST_F(ChaosTest, IndexHotPathsSurviveEveryFaultSiteWithExactPref)
{
    FaultInjector &inj = faultInjector();
    for (unsigned i = 0; i < numFaultSites; ++i)
        inj.arm(static_cast<FaultSite>(i), FaultSpec::chance(0.02));

    Server::Config config = chaosServer(true);
    config.exactPref = true;
    Server server(config);
    server.enableStepAudit();
    server.run();
    EXPECT_EQ(server.auditor()->stats().violations, 0u);
    EXPECT_GT(inj.totalFires(), 0u);
}

/** Every policy in the registry — not just the two originals — must
 * survive the full fault menu with the step audit on: a registry
 * entry that cannot take chaos is not fit for the sweep matrix. */
TEST_F(ChaosTest, EveryRegistryPolicySurvivesEveryFaultSite)
{
    for (const PolicyRegistry::Entry &entry :
         PolicyRegistry::instance().entries()) {
        FaultInjector &inj = faultInjector();
        inj.reset(0xc4a05);
        for (unsigned i = 0; i < numFaultSites; ++i)
            inj.arm(static_cast<FaultSite>(i),
                    FaultSpec::chance(0.02));

        Server::Config config = chaosServer(true);
        config.policy = {};
        ASSERT_TRUE(parsePolicySpec(entry.name, &config.policy))
            << entry.name;
        Server server(config);
        server.enableStepAudit();
        const ServerScan scan = server.run();
        EXPECT_GT(scan.freePages, 0u) << entry.name;
        ASSERT_NE(server.auditor(), nullptr) << entry.name;
        EXPECT_GT(server.auditor()->stats().audits, 5u)
            << entry.name;
        EXPECT_EQ(server.auditor()->stats().violations, 0u)
            << entry.name;
        EXPECT_GT(inj.totalFires(), 0u) << entry.name;
        inj.reset();
    }
}

TEST_F(ChaosTest, ChaosRunsReplayBitIdentically)
{
    const auto once = [] {
        faultInjector().reset(0xfee1);
        Server server(chaosServer(true));
        armFleetFaults();
        server.enableStepAudit();
        const ServerScan scan = server.run();
        std::vector<std::uint64_t> record{scan.freePages,
                                          scan.free2mBlocks};
        for (unsigned i = 0; i < numFaultSites; ++i) {
            const auto &s =
                faultInjector().siteStats(static_cast<FaultSite>(i));
            record.push_back(s.evaluations);
            record.push_back(s.fires);
        }
        return record;
    };
    EXPECT_EQ(once(), once());
}

// ---------------------------------------------------------------
// Chaos x span tracing: faults land in the causal tree, and
// emitting them never perturbs the simulation
// ---------------------------------------------------------------

/** Clean span-collector slate around a case (mask off, events
 * cleared) even when an assertion bails out early. */
struct SpanResetGuard
{
    SpanResetGuard() { spans::resetForTest(); }
    ~SpanResetGuard() { spans::resetForTest(); }
};

/**
 * Every armed-site fire is an annotated Instant named after the
 * site, parented to the innermost open span — the migration or
 * alloc it is about to fail — so a Perfetto view of a chaos run
 * shows exactly where each injection landed.
 */
TEST_F(ChaosTest, ArmedFaultSitesEmitAnnotatedSpanInstants)
{
    const SpanResetGuard guard;
    spans::enableAll();
    faultInjector().arm(FaultSite::BuddyAllocFail,
                        FaultSpec::everyNth(2));

    std::uint64_t probe_id = 0;
    {
        CTG_SPAN_NAMED(probe, Faults, "chaos.probe",
                       {{"probes", 4}});
        probe_id = probe.id();
        for (int i = 0; i < 4; ++i)
            faultInjector().shouldFail(FaultSite::BuddyAllocFail);
    }
    ASSERT_NE(probe_id, 0u);

    const char *const site =
        FaultInjector::siteName(FaultSite::BuddyAllocFail);
    std::vector<spans::Event> fires;
    for (const spans::Event &e : spans::collectedEvents()) {
        if (e.phase == spans::Event::Phase::Instant &&
            std::string(e.name) == site) {
            fires.push_back(e);
        }
    }
    // everyNth(2) over four probes: evaluations 2 and 4 fire.
    ASSERT_EQ(fires.size(), 2u);
    for (const spans::Event &e : fires) {
        EXPECT_EQ(e.flag, TraceFlag::Faults);
        EXPECT_EQ(e.parent, probe_id)
            << "fault instant not bound to the enclosing span";
        ASSERT_EQ(e.nargs, 2u);
        EXPECT_STREQ(e.args[0].key, "evaluation");
        EXPECT_STREQ(e.args[1].key, "fire");
    }
    EXPECT_EQ(fires[0].args[0].value, 2);
    EXPECT_EQ(fires[0].args[1].value, 1);
    EXPECT_EQ(fires[1].args[0].value, 4);
    EXPECT_EQ(fires[1].args[1].value, 2);
}

/**
 * Replay parity with the collector hot: a fully traced chaos run
 * (every pipeline span + fault instants recorded) must reproduce
 * the untraced run bit for bit — scan results and per-site fault
 * counts alike. Guards against span emission consuming simulation
 * RNG or reordering work.
 */
TEST_F(ChaosTest, SpanEmissionDoesNotPerturbChaosReplay)
{
    const auto once = [](bool traced) {
        const SpanResetGuard guard;
        if (traced)
            spans::enableAll();
        faultInjector().reset(0xfee1);
        Server server(chaosServer(true));
        armFleetFaults();
        const ServerScan scan = server.run();
        std::vector<std::uint64_t> record{scan.freePages,
                                          scan.free2mBlocks};
        for (unsigned i = 0; i < numFaultSites; ++i) {
            const auto &s =
                faultInjector().siteStats(static_cast<FaultSite>(i));
            record.push_back(s.evaluations);
            record.push_back(s.fires);
        }
        if (traced) {
            EXPECT_GT(spans::collectedCount(), 0u)
                << "traced run collected no spans";
        }
        return record;
    };
    EXPECT_EQ(once(false), once(true));
}

} // namespace
} // namespace ctg
