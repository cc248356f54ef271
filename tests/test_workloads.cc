/**
 * @file
 * Workload layer tests: profiles, slab churn, workload lifecycle
 * (start, churn, restart, gigantic rebacking), khugepaged promotion,
 * the fragmenter, and the access-stream generators.
 */

#include <gtest/gtest.h>

#include "base/units.hh"
#include "contiguitas/policy.hh"
#include "mem/mem_stats.hh"
#include "mem/scanner.hh"
#include "workloads/access_gen.hh"
#include "workloads/fragmenter.hh"
#include "workloads/profile.hh"
#include "workloads/workload.hh"

namespace ctg
{
namespace
{

KernelConfig
smallConfig(std::uint64_t bytes = 512_MiB)
{
    KernelConfig config;
    config.memBytes = bytes;
    config.kernelTextBytes = 4_MiB;
    return config;
}

WorkloadProfile
tinyProfile(WorkloadKind kind, std::uint64_t mem_bytes)
{
    WorkloadProfile profile = makeProfile(kind, mem_bytes);
    // Shrink rates so tests stay fast.
    profile.net.skbRatePerSec /= 4;
    profile.fs.scratchRatePerSec /= 4;
    profile.slab.ratePerSec /= 4;
    return profile;
}

TEST(Profiles, RatesScaleWithMemory)
{
    const WorkloadProfile small =
        makeProfile(WorkloadKind::Web, 2_GiB);
    const WorkloadProfile big =
        makeProfile(WorkloadKind::Web, 8_GiB);
    EXPECT_NEAR(big.net.skbRatePerSec / small.net.skbRatePerSec, 4.0,
                0.01);
    EXPECT_NEAR(big.slab.ratePerSec / small.slab.ratePerSec, 4.0,
                0.01);
}

TEST(Profiles, EveryKindIsNamedAndValid)
{
    for (const WorkloadKind kind :
         {WorkloadKind::Web, WorkloadKind::CacheA,
          WorkloadKind::CacheB, WorkloadKind::CI,
          WorkloadKind::Nginx, WorkloadKind::Memcached}) {
        const WorkloadProfile profile = makeProfile(kind, 2_GiB);
        EXPECT_FALSE(profile.name.empty());
        EXPECT_GT(profile.residentFrac, 0.0);
        EXPECT_LT(profile.residentFrac, 0.95);
        EXPECT_GT(profile.net.skbRatePerSec, 0.0);
    }
}

TEST(SlabChurnTest, ReachesSteadyState)
{
    Kernel kernel(smallConfig());
    SlabAllocator slab(kernel);
    SlabChurn::Config config;
    config.ratePerSec = 3000;
    config.meanLifeSec = 0.05;
    config.longLivedFrac = 0.0;
    SlabChurn churn(slab, config, 3);
    churn.advanceTo(10.0);
    // Little's law: ~150 live objects.
    EXPECT_GT(churn.liveObjects(), 75u);
    EXPECT_LT(churn.liveObjects(), 300u);
    EXPECT_GT(slab.backingPages(), 0u);
}

TEST(WorkloadTest, StartBacksResidentSet)
{
    Kernel kernel(smallConfig());
    Workload workload(kernel,
                      tinyProfile(WorkloadKind::CacheB, 512_MiB), 5);
    workload.start();
    const double resident_frac =
        static_cast<double>(workload.residentPages()) /
        static_cast<double>(kernel.mem().numFrames());
    EXPECT_GT(resident_frac, 0.5);
    // Fresh memory: THP backs essentially everything huge.
    EXPECT_GT(workload.hugeBackedFraction(), 0.9);
}

TEST(WorkloadTest, ChurnKeepsResidencyRoughlyConstant)
{
    Kernel kernel(smallConfig());
    Workload workload(kernel,
                      tinyProfile(WorkloadKind::Web, 512_MiB), 5);
    workload.start();
    const std::uint64_t before = workload.residentPages();
    workload.runFor(8.0);
    const std::uint64_t after = workload.residentPages();
    EXPECT_GT(after * 10, before * 7); // within ~30%
    EXPECT_GT(workload.stats().heapPagesChurned, 0u);
}

TEST(WorkloadTest, RestartRefaultsEverything)
{
    Kernel kernel(smallConfig());
    Workload workload(kernel,
                      tinyProfile(WorkloadKind::CacheB, 512_MiB), 5);
    workload.start();
    workload.runFor(5.0);
    workload.restart();
    EXPECT_GT(workload.residentPages(), 0u);
}

TEST(WorkloadTest, CiTurnoverRecyclesJobs)
{
    Kernel kernel(smallConfig());
    WorkloadProfile profile = tinyProfile(WorkloadKind::CI, 512_MiB);
    profile.jobTurnoverPerSec = 0.5;
    Workload workload(kernel, profile, 5);
    workload.start();
    workload.runFor(10.0);
    EXPECT_GT(workload.stats().jobsRecycled, 0u);
}

TEST(WorkloadTest, PinsAreCreatedAndConfined)
{
    KernelConfig kc = smallConfig();
    ContiguitasConfig cc;
    cc.region.initialUnmovablePages = (64_MiB) / pageBytes;
    cc.region.minUnmovablePages = (16_MiB) / pageBytes;
    cc.tuning.stepPages = (8_MiB) / pageBytes;
    Kernel kernel(kc, ContiguitasPolicy::factory(cc));
    WorkloadProfile profile =
        tinyProfile(WorkloadKind::CacheB, 512_MiB);
    profile.pinRatePerSec = 50.0;
    Workload workload(kernel, profile, 5);
    workload.start();
    workload.runFor(6.0);
    EXPECT_GT(workload.stats().pinsCreated, 0u);
    auto &policy = static_cast<ContiguitasPolicy &>(kernel.policy());
    policy.regions().checkConfinement();
}

TEST(PromoteTest, CollapsesFullyBackedRanges)
{
    KernelConfig config = smallConfig();
    config.thpEnabled = true;
    Kernel kernel(config);
    AddressSpace space(kernel, 1);
    // Force 4 KB backing by touching page-wise.
    const Addr base = space.mmap(8_MiB);
    for (Addr off = 0; off < 8_MiB; off += pageBytes)
        space.touchRange(base + off, pageBytes);
    ASSERT_EQ(space.chunks2m(), 0u);
    ASSERT_EQ(space.pages4k(), (8_MiB) / pageBytes);

    const std::uint64_t promoted = space.promoteHugeRanges(16);
    EXPECT_EQ(promoted, 4u);
    EXPECT_EQ(space.chunks2m(), 4u);
    EXPECT_EQ(space.pages4k(), 0u);
    // Translations still valid and huge.
    const Translation t = space.translate(base + 12345);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.order, hugeOrder);
}

TEST(PromoteTest, BudgetIsRespected)
{
    Kernel kernel(smallConfig());
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(8_MiB);
    for (Addr off = 0; off < 8_MiB; off += pageBytes)
        space.touchRange(base + off, pageBytes);
    EXPECT_EQ(space.promoteHugeRanges(2), 2u);
    EXPECT_EQ(space.chunks2m(), 2u);
}

TEST(PromoteTest, PinnedPageBlocksCollapse)
{
    Kernel kernel(smallConfig());
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(2_MiB);
    for (Addr off = 0; off < 2_MiB; off += pageBytes)
        space.touchRange(base + off, pageBytes);
    const Translation t = space.translate(base + 5 * pageBytes);
    ASSERT_TRUE(t.valid);
    kernel.pinPages(t.pfn);
    EXPECT_EQ(space.promoteHugeRanges(4), 0u);
}

TEST(FragmenterTest, DevastatesContiguity)
{
    Kernel kernel(smallConfig());
    Fragmenter fragmenter(kernel, {}, 7);
    fragmenter.run();
    const PhysMem &mem = kernel.mem();
    const double contaminated = mem.stats().unmovableBlockFraction(
        0, mem.numFrames(), scan::order2M);
    const double pages = mem.stats().unmovablePageRatio(0, mem.numFrames());
    // A couple percent of pages poison nearly every 2MB block.
    EXPECT_LT(pages, 0.05);
    EXPECT_GT(contaminated, 0.8);
}

TEST(FragmenterTest, SprinklesFreedOnDestruction)
{
    Kernel kernel(smallConfig());
    const std::uint64_t free_before =
        kernel.policy().freeUserPages() +
        kernel.policy().freeKernelPages();
    {
        Fragmenter fragmenter(kernel, {}, 7);
        fragmenter.run();
    }
    const std::uint64_t free_after =
        kernel.policy().freeUserPages() +
        kernel.policy().freeKernelPages();
    EXPECT_EQ(free_before, free_after);
}

TEST(FragmenterTest, ContiguitasConfinesTheDamage)
{
    KernelConfig kc = smallConfig();
    ContiguitasConfig cc;
    cc.region.initialUnmovablePages = (64_MiB) / pageBytes;
    cc.region.minUnmovablePages = (16_MiB) / pageBytes;
    Kernel kernel(kc, ContiguitasPolicy::factory(cc));
    Fragmenter fragmenter(kernel, {}, 7);
    fragmenter.run();
    auto &policy = static_cast<ContiguitasPolicy &>(kernel.policy());
    const double pot2m = kernel.mem().stats().potentialContiguityFraction(
        policy.regions().boundary(),
        kernel.mem().numFrames(), scan::order2M);
    EXPECT_GT(pot2m, 0.99);
    policy.regions().checkConfinement();
}

TEST(AccessStreamTest, AddressesStayInRegions)
{
    AccessProfile profile;
    profile.dataBytes = 64_MiB;
    profile.codeBytes = 8_MiB;
    AccessStream stream(profile, 0x100000000, 0x200000000, 3);
    Rng unused(0);
    for (int i = 0; i < 5000; ++i) {
        bool w = false;
        const Addr d = stream.nextData(&w);
        EXPECT_GE(d, 0x100000000u);
        EXPECT_LT(d, 0x100000000u + 64_MiB);
        const Addr c = stream.nextCode();
        EXPECT_GE(c, 0x200000000u);
        EXPECT_LT(c, 0x200000000u + 8_MiB);
    }
}

TEST(AccessStreamTest, WriteFractionRespected)
{
    AccessProfile profile;
    profile.dataBytes = 16_MiB;
    profile.codeBytes = 4_MiB;
    profile.writeFrac = 0.25;
    AccessStream stream(profile, 0, 1_GiB, 3);
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        bool w = false;
        stream.nextData(&w);
        writes += w;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.25, 0.02);
}

TEST(AccessStreamTest, PopularitySkewed)
{
    AccessProfile profile;
    profile.dataBytes = 64_MiB;
    profile.codeBytes = 4_MiB;
    profile.dataZipfTheta = 0.8;
    AccessStream stream(profile, 0, 1_GiB, 3);
    std::map<Addr, int> page_counts;
    for (int i = 0; i < 30000; ++i) {
        bool w = false;
        page_counts[stream.nextData(&w) >> pageShift]++;
    }
    // The hottest page must absorb far more than the uniform share.
    int hottest = 0;
    for (const auto &[page, count] : page_counts)
        hottest = std::max(hottest, count);
    const double uniform_share =
        30000.0 / static_cast<double>(64_MiB / pageBytes);
    EXPECT_GT(hottest, 20 * uniform_share);
}

TEST(AccessStreamTest, KindsWithoutAnAccessProfilePanicWithTheirName)
{
    // panic() throws PanicError, so the "death" is asserted as a throw.
    for (const WorkloadKind kind :
         {WorkloadKind::Aging, WorkloadKind::FsCacheHeavy,
          WorkloadKind::UnmovableBursty}) {
        try {
            makeAccessProfile(kind);
            ADD_FAILURE() << workloadName(kind) << " did not panic";
        } catch (const PanicError &e) {
            EXPECT_NE(std::string(e.what()).find(workloadName(kind)),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_GT(makeAccessProfile(WorkloadKind::Nginx).dataBytes, 0u);
}

} // namespace
} // namespace ctg
