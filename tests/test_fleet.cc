/**
 * @file
 * Fleet layer tests: per-server scans, determinism, workload
 * diversity, prefragmentation effects, the vanilla-vs-Contiguitas
 * fleet contrast that underlies Figures 4/5/11, and server teardown.
 */

#include <gtest/gtest.h>

#include "base/units.hh"
#include "fleet/fleet.hh"
#include "kernel/vanilla_policy.hh"
#include "mem/auditor.hh"
#include "mem/mem_stats.hh"

namespace ctg
{
namespace
{

Server::Config
fastServer(WorkloadKind kind, bool contiguitas)
{
    Server::Config config;
    config.memBytes = 1_GiB;
    config.policy.name = contiguitas ? "contiguitas" : "vanilla";
    config.kind = kind;
    config.uptimeSec = 12.0;
    config.seed = 77;
    return config;
}

TEST(ServerTest, ScanFieldsConsistent)
{
    Server server(fastServer(WorkloadKind::CacheB, false));
    const ServerScan scan = server.run();
    for (int i = 0; i < 4; ++i) {
        EXPECT_GE(scan.unmovableBlocks[i], 0.0);
        EXPECT_LE(scan.unmovableBlocks[i], 1.0);
        EXPECT_GE(scan.freeContiguity[i], 0.0);
        EXPECT_LE(scan.freeContiguity[i], 1.0);
    }
    // Coarser granularity can only be more contaminated.
    EXPECT_LE(scan.unmovableBlocks[0], scan.unmovableBlocks[1]);
    EXPECT_LE(scan.unmovableBlocks[1], scan.unmovableBlocks[2]);
    EXPECT_LE(scan.unmovableBlocks[2], scan.unmovableBlocks[3]);
    // ...and potential contiguity smaller.
    EXPECT_GE(scan.potentialContiguity[0],
              scan.potentialContiguity[1]);
    EXPECT_GE(scan.potentialContiguity[1],
              scan.potentialContiguity[2]);
    EXPECT_GT(scan.unmovablePageRatio, 0.0);
    EXPECT_GT(scan.freePages, 0u);
}

TEST(ServerTest, DeterministicForSameSeed)
{
    Server a(fastServer(WorkloadKind::Web, false));
    Server b(fastServer(WorkloadKind::Web, false));
    const ServerScan sa = a.run();
    const ServerScan sb = b.run();
    EXPECT_DOUBLE_EQ(sa.unmovablePageRatio, sb.unmovablePageRatio);
    EXPECT_EQ(sa.freePages, sb.freePages);
    EXPECT_DOUBLE_EQ(sa.unmovableBlocks[0], sb.unmovableBlocks[0]);
}

TEST(ServerTest, SeedChangesOutcome)
{
    Server::Config config = fastServer(WorkloadKind::Web, false);
    Server a(config);
    config.seed = 78;
    Server b(config);
    EXPECT_NE(a.run().freePages, b.run().freePages);
}

TEST(ServerTest, PrefragmentationDestroysPotentialContiguity)
{
    Server::Config config = fastServer(WorkloadKind::CacheB, false);
    Server clean(config);
    config.prefragment = true;
    Server dirty(config);
    const ServerScan clean_scan = clean.run();
    const ServerScan dirty_scan = dirty.run();
    EXPECT_LT(dirty_scan.potentialContiguity[0],
              clean_scan.potentialContiguity[0]);
    EXPECT_GT(dirty_scan.unmovableBlocks[0],
              clean_scan.unmovableBlocks[0]);
}

TEST(ServerTest, ContiguitasBeatsVanillaOnSameSeed)
{
    const ServerScan vanilla =
        Server(fastServer(WorkloadKind::CacheB, false)).run();
    const ServerScan contiguitas =
        Server(fastServer(WorkloadKind::CacheB, true)).run();
    // Confinement: strictly better potential contiguity at 32MB.
    EXPECT_GT(contiguitas.potentialContiguity[1],
              vanilla.potentialContiguity[1]);
}

/** Frees and unpins that reached the placement policy, counted by
 * CountingPolicy across every kernel built with it. */
struct PolicyCalls
{
    std::uint64_t frees = 0;
    std::uint64_t unpins = 0;
};
PolicyCalls policyCalls;

class CountingPolicy : public VanillaPolicy
{
  public:
    using VanillaPolicy::VanillaPolicy;

    void
    free(Pfn head) override
    {
        ++policyCalls.frees;
        VanillaPolicy::free(head);
    }

    void
    freeRun(Pfn lo, std::uint64_t n) override
    {
        policyCalls.frees += n;
        VanillaPolicy::freeRun(lo, n);
    }

    void
    unpin(Pfn head) override
    {
        ++policyCalls.unpins;
        VanillaPolicy::unpin(head);
    }
};

/** Registers CountingPolicy as "test-counting" while it lives. */
struct CountingPolicyEntry
{
    CountingPolicyEntry()
    {
        PolicyRegistry::Entry entry;
        entry.name = "test-counting";
        entry.description = "vanilla, counting frees and unpins";
        entry.make = [](Kernel &kernel, const PolicyConfig &) {
            return std::make_unique<CountingPolicy>(kernel.mem());
        };
        PolicyRegistry::instance().add(entry);
    }

    ~CountingPolicyEntry()
    {
        PolicyRegistry::instance().remove("test-counting");
    }
};

/** Allocated blocks whose owner handle names a client that is gone:
 * pages an exited process failed to return. */
std::uint64_t
blocksOfDeadOwners(const Kernel &kernel)
{
    const PhysMem &mem = kernel.mem();
    std::uint64_t dead = 0;
    for (Pfn pfn = 0; pfn < mem.numFrames(); ++pfn) {
        const auto f = mem.frame(pfn);
        if (f.isFree() || !f.isHead() ||
            f.owner() == OwnerRegistry::noOwner)
            continue;
        if (!kernel.owners().relocatable(f.owner()))
            ++dead;
    }
    return dead;
}

/** DMA-pin up to n mapped user blocks, as a driver would; the pins
 * stay until their process exits. */
void
pinUserPages(Kernel &kernel, unsigned n)
{
    const PhysMem &mem = kernel.mem();
    for (Pfn pfn = 0; pfn < mem.numFrames() && n > 0; ++pfn) {
        const auto f = mem.frame(pfn);
        if (!f.isFree() && f.isHead() &&
            f.source() == AllocSource::User && !f.isPinned() &&
            kernel.pinPagesId(pfn) != 0)
            --n;
    }
}

TEST(ServerTeardown, DestroyFreesAndUnpinsNothing)
{
    Server::Config config = fastServer(WorkloadKind::CacheB, false);
    config.memBytes = 256_MiB;
    config.uptimeSec = 6.0;

    // The same stack built without a Server is never torn down: its
    // workload frees and unpins through the policy as it goes, so
    // the counters see what ~Server skips.
    {
        KernelConfig kc;
        kc.memBytes = config.memBytes;
        kc.kernelTextBytes = 4_MiB;
        Kernel kernel(kc, [](Kernel &k) {
            return std::make_unique<CountingPolicy>(k.mem());
        });
        auto workload = std::make_unique<Workload>(
            kernel, makeProfile(config.kind, config.memBytes),
            config.seed);
        workload->start();
        workload->runFor(config.uptimeSec, config.stepSec);
        pinUserPages(kernel, 8);
        ASSERT_GT(kernel.counters().pins, kernel.counters().unpins);
        const PolicyCalls before = policyCalls;
        workload.reset();
        EXPECT_GT(policyCalls.frees, before.frees);
        EXPECT_GT(policyCalls.unpins, before.unpins);
    }

    const CountingPolicyEntry entry;
    config.policy.name = "test-counting";
    config.prefragment = true;
    auto server = std::make_unique<Server>(config);
    server->run();
    pinUserPages(server->kernel(), 8);
    const Kernel::Counters &counters = server->kernel().counters();
    ASSERT_GT(counters.pins, counters.unpins);
    const PolicyCalls before = policyCalls;
    EXPECT_GT(before.frees, 0u);
    server.reset();
    EXPECT_EQ(policyCalls.frees, before.frees);
    EXPECT_EQ(policyCalls.unpins, before.unpins);
}

TEST(ServerTeardown, MidRunExitsKeepTheFullFreePath)
{
    // CI turns jobs over, and a rolling restart exits every process
    // between the two segments; each exit must return its pages.
    Server::Config config = fastServer(WorkloadKind::CI, true);
    config.memBytes = 256_MiB;
    config.uptimeSec = 4.0;
    config.extraUptimeSec = 4.0;
    Server server(config);
    server.enableStepAudit();
    server.runToCheckpoint();
    server.workload().restart();
    EXPECT_FALSE(server.kernel().tearingDown());
    EXPECT_EQ(blocksOfDeadOwners(server.kernel()), 0u);
    AuditReport report = server.auditor()->audit();
    EXPECT_TRUE(report.ok()) << report.summary();

    server.resume(); // audits after every step
    EXPECT_EQ(blocksOfDeadOwners(server.kernel()), 0u);
    report = server.auditor()->audit();
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ServerTeardown, FragmenterProcessReturnsEveryPage)
{
    KernelConfig kc;
    kc.memBytes = 64_MiB;
    kc.kernelTextBytes = 4_MiB;
    Kernel kernel(kc);
    const std::uint64_t free_before = kernel.mem().stats().freePages();
    auto fragmenter =
        std::make_unique<Fragmenter>(kernel, Fragmenter::Config{}, 7);
    fragmenter->run();
    ASSERT_GT(fragmenter->sprinkledPages(), 0u);
    // The fragmentation process has exited: only the sprinkles stay.
    EXPECT_EQ(kernel.mem().stats().freePages() +
                  fragmenter->sprinkledPages(),
              free_before);
    EXPECT_EQ(blocksOfDeadOwners(kernel), 0u);
    fragmenter.reset();
    EXPECT_EQ(kernel.mem().stats().freePages(), free_before);
}

TEST(FleetTest, RunsRequestedPopulation)
{
    Fleet::Config config;
    config.servers = 6;
    config.memBytes = 1_GiB;
    config.minUptimeSec = 4.0;
    config.maxUptimeSec = 10.0;
    Fleet fleet(config);
    const auto scans = fleet.run();
    EXPECT_EQ(scans.size(), 6u);
    // Diversity: not all servers identical.
    bool differs = false;
    for (std::size_t i = 1; i < scans.size(); ++i)
        differs |= scans[i].freePages != scans[0].freePages;
    EXPECT_TRUE(differs);
}

TEST(FleetTest, UptimesWithinConfiguredRange)
{
    Fleet::Config config;
    config.servers = 5;
    config.memBytes = 1_GiB;
    config.minUptimeSec = 3.0;
    config.maxUptimeSec = 6.0;
    Fleet fleet(config);
    for (const ServerScan &scan : fleet.run()) {
        EXPECT_GE(scan.uptimeSec, 3.0);
        EXPECT_LE(scan.uptimeSec, 6.5);
    }
}

TEST(ScaleProfileTest, MultipliesRates)
{
    const WorkloadProfile base =
        makeProfile(WorkloadKind::Web, 1_GiB);
    const WorkloadProfile scaled = scaleProfile(base, 2.0);
    EXPECT_NEAR(scaled.net.skbRatePerSec,
                base.net.skbRatePerSec * 2.0, 1e-6);
    EXPECT_NEAR(scaled.heapChurnFracPerSec,
                base.heapChurnFracPerSec * 2.0, 1e-9);
}

} // namespace
} // namespace ctg
