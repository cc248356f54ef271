/**
 * @file
 * Determinism suite for the parallel fleet execution engine: fleet
 * runs at 1, 2, 4 and 8 threads must produce bit-identical
 * ServerScan vectors, merged stat values and fault-injection
 * counts — including with faults armed at every
 * site — plus unit coverage of the Executor itself and of the
 * per-task fault-injector forking machinery.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "base/span_trace.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "empirical_cdf.hh"
#include "fleet/fleet.hh"
#include "sim/executor.hh"
#include "sim/fault_injector.hh"

namespace ctg
{
namespace
{

/** Exact bit pattern of a double: == on doubles would already be
 * strict, but bits make "byte-identical" literal (and catch -0.0
 * vs 0.0 drift). */
std::uint64_t
bits(double v)
{
    std::uint64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

Fleet::Config
smallFleet()
{
    Fleet::Config config;
    config.servers = 8;
    config.memBytes = 512_MiB;
    config.minUptimeSec = 3.0;
    config.maxUptimeSec = 6.0;
    config.prefragmentFrac = 0.3;
    config.seed = 0xdef1ee7;
    return config;
}

void
armEverySite(double p)
{
    FaultInjector &inj = faultInjector();
    for (unsigned i = 0; i < numFaultSites; ++i)
        inj.arm(static_cast<FaultSite>(i), FaultSpec::chance(p));
}

/** Everything observable from one fleet run, flattened to bit
 * patterns for strict comparison. */
struct RunRecord
{
    std::vector<std::uint64_t> scanBits;
    std::vector<std::uint64_t> statBits;
    std::vector<std::uint64_t> faultCounts;

    bool
    operator==(const RunRecord &o) const
    {
        return scanBits == o.scanBits && statBits == o.statBits &&
               faultCounts == o.faultCounts;
    }
};

void
recordScan(const ServerScan &scan, std::vector<std::uint64_t> *out)
{
    for (const double v : scan.freeContiguity)
        out->push_back(bits(v));
    for (const double v : scan.unmovableBlocks)
        out->push_back(bits(v));
    for (const double v : scan.potentialContiguity)
        out->push_back(bits(v));
    out->push_back(bits(scan.unmovablePageRatio));
    for (const std::uint64_t v : scan.bySource)
        out->push_back(v);
    out->push_back(scan.freePages);
    out->push_back(scan.free2mBlocks);
    out->push_back(bits(scan.unmovableRegionFreeShare));
    out->push_back(bits(scan.uptimeSec));
}

RunRecord
runFleetAt(unsigned threads, bool withFaults)
{
    faultInjector().reset(0xd15ea5e);
    if (withFaults)
        armEverySite(0.02);

    StatRegistry registry;
    Fleet::Config config = smallFleet();
    config.threads = threads;
    Fleet fleet(config);
    fleet.attachTelemetry(registry);
    const std::vector<ServerScan> scans = fleet.run();

    RunRecord record;
    for (const ServerScan &scan : scans)
        recordScan(scan, &record.scanBits);
    for (std::size_t i = 0; i < registry.size(); ++i) {
        const Stat &stat = registry.at(i);
        // Host-side readings (wall clock, worker count, process RSS)
        // legitimately vary between runs; everything else must be
        // exact.
        if (stat.name() == "fleet.run_wall_ms" ||
            stat.name() == "fleet.threads" ||
            stat.name() == "fleet.peak_rss_mb") {
            continue;
        }
        record.statBits.push_back(bits(stat.value()));
        if (stat.kind() == Stat::Kind::Distribution) {
            const auto &dist =
                static_cast<const Distribution &>(stat);
            record.statBits.push_back(dist.count());
            record.statBits.push_back(bits(dist.mean()));
            record.statBits.push_back(bits(dist.min()));
            record.statBits.push_back(bits(dist.max()));
            record.statBits.push_back(bits(dist.stddev()));
        }
    }
    for (unsigned i = 0; i < numFaultSites; ++i) {
        const auto &s =
            faultInjector().siteStats(static_cast<FaultSite>(i));
        record.faultCounts.push_back(s.evaluations);
        record.faultCounts.push_back(s.fires);
    }
    faultInjector().reset();
    return record;
}

// ---------------------------------------------------------------
// Fleet determinism across thread counts
// ---------------------------------------------------------------

TEST(ParallelFleet, ScansAndStatsBitIdenticalAcrossThreadCounts)
{
    const RunRecord baseline = runFleetAt(1, /*withFaults=*/false);
    EXPECT_FALSE(baseline.scanBits.empty());
    EXPECT_FALSE(baseline.statBits.empty());
    for (const unsigned threads : {2u, 4u, 8u}) {
        const RunRecord parallel =
            runFleetAt(threads, /*withFaults=*/false);
        EXPECT_EQ(baseline.scanBits, parallel.scanBits)
            << "scan mismatch at " << threads << " threads";
        EXPECT_EQ(baseline.statBits, parallel.statBits)
            << "merged stat mismatch at " << threads << " threads";
    }
}

TEST(ParallelFleet, FaultCountsIdenticalWithEverySiteArmed)
{
    const RunRecord baseline = runFleetAt(1, /*withFaults=*/true);
    std::uint64_t evaluations = 0;
    for (std::size_t i = 0; i < baseline.faultCounts.size(); i += 2)
        evaluations += baseline.faultCounts[i];
    EXPECT_GT(evaluations, 0u) << "faults never probed";
    for (const unsigned threads : {2u, 4u, 8u}) {
        const RunRecord parallel =
            runFleetAt(threads, /*withFaults=*/true);
        EXPECT_EQ(baseline.faultCounts, parallel.faultCounts)
            << "fault counts diverge at " << threads << " threads";
        EXPECT_EQ(baseline.scanBits, parallel.scanBits)
            << "scans under faults diverge at " << threads
            << " threads";
        EXPECT_EQ(baseline.statBits, parallel.statBits);
    }
}

/** Run one arbitrary fleet config and record its scan bits. */
RunRecord
runOnce(const Fleet::Config &config)
{
    faultInjector().reset(0xd15ea5e);
    Fleet fleet(config);
    RunRecord record;
    for (const ServerScan &scan : fleet.run())
        recordScan(scan, &record.scanBits);
    faultInjector().reset();
    return record;
}

TEST(ParallelFleet, WorkloadOverrideNameMatchesDeprecatedEnum)
{
    // Config::workloadOverride and its CTG_WORKLOAD spelling pin the
    // same population bit for bit; an unrecognized name must warn
    // and leave the sampled mix in place rather than pick a kind.
    Fleet::Config config = smallFleet();
    config.servers = 4;
    config.maxUptimeSec = 4.0;
    config.threads = 2;

    Fleet::Config byName = config;
    byName.workloadOverride = "cache-b";
    const RunRecord nameRun = runOnce(byName);

    // Environment spelling, picked up by the overlay.
    setenv("CTG_WORKLOAD", "cache-b", 1);
    Fleet::Config byEnv = config;
    byEnv.applyEnvOverlay();
    unsetenv("CTG_WORKLOAD");
    EXPECT_EQ(byEnv.workloadOverride, "cache-b");
    EXPECT_TRUE(runOnce(byEnv) == nameRun);

    Fleet::Config bad = config;
    bad.workloadOverride = "warehouse-scale";
    EXPECT_TRUE(runOnce(bad) == runOnce(config));
}

TEST(ParallelFleet, KindOverridePinsEveryServer)
{
    Fleet::Config config = smallFleet();
    config.servers = 4;
    config.maxUptimeSec = 4.0;
    config.workloadOverride = "cache-b";
    config.threads = 2;
    Fleet fleet(config);
    const auto scans = fleet.run();
    EXPECT_EQ(scans.size(), 4u);
    // The override must not disturb the rest of the seed stream:
    // uptimes match the un-overridden fleet's draws.
    config.workloadOverride.clear();
    Fleet mixed(config);
    const auto mixedScans = mixed.run();
    for (std::size_t i = 0; i < scans.size(); ++i)
        EXPECT_EQ(bits(scans[i].uptimeSec),
                  bits(mixedScans[i].uptimeSec));
}

TEST(ParallelFleet, WallClockAndThreadsReported)
{
    Fleet::Config config = smallFleet();
    config.servers = 2;
    config.maxUptimeSec = 4.0;
    config.threads = 2;
    StatRegistry registry;
    Fleet fleet(config);
    fleet.attachTelemetry(registry);
    fleet.run();
    EXPECT_GT(fleet.lastRunWallMs(), 0.0);
    EXPECT_EQ(fleet.lastRunThreads(), 2u);
    const Stat *wall = registry.find("fleet.run_wall_ms");
    const Stat *threads = registry.find("fleet.threads");
    ASSERT_NE(wall, nullptr);
    ASSERT_NE(threads, nullptr);
    EXPECT_DOUBLE_EQ(wall->value(), fleet.lastRunWallMs());
    EXPECT_DOUBLE_EQ(threads->value(), 2.0);
}

// ---------------------------------------------------------------
// Span streams and streaming scan sinks across thread counts
// ---------------------------------------------------------------

/**
 * Flatten the collected span stream to one line per event.
 * Excluded: wall clock (profiling-only) and `threads` args — like
 * the `fleet.threads` stat, the worker count legitimately names the
 * run configuration. Everything else — phase, name, ids, logical
 * timestamps, simulated ticks, streams and args — must be
 * bit-identical at any thread count.
 */
std::vector<std::string>
spanRecord()
{
    std::vector<std::string> out;
    for (const spans::Event &e : spans::collectedEvents()) {
        char head[160];
        std::snprintf(head, sizeof(head),
                      "%d|%s|%llu|%llu|%llu|%llu|%u",
                      static_cast<int>(e.phase), e.name,
                      static_cast<unsigned long long>(e.id),
                      static_cast<unsigned long long>(e.parent),
                      static_cast<unsigned long long>(e.ts),
                      static_cast<unsigned long long>(e.tick),
                      e.stream);
        std::string line = head;
        for (unsigned a = 0; a < e.nargs; ++a) {
            if (std::strcmp(e.args[a].key, "threads") == 0)
                continue;
            line += '|';
            line += e.args[a].key;
            line += '=';
            line += std::to_string(e.args[a].value);
        }
        out.push_back(std::move(line));
    }
    return out;
}

TEST(ParallelFleet, SpanStreamsBitIdenticalAcrossThreadCounts)
{
    // Reference run with spans off: capture must never perturb the
    // simulation, so every traced run below must reproduce it.
    const RunRecord plain = runFleetAt(1, /*withFaults=*/false);

    spans::resetForTest();
    spans::enableAll();
    const RunRecord tracedAtOne = runFleetAt(1, /*withFaults=*/false);
    const std::vector<std::string> baseline = spanRecord();
    spans::resetForTest();

    EXPECT_TRUE(plain == tracedAtOne)
        << "span capture perturbed the simulation";
    ASSERT_FALSE(baseline.empty());
    EXPECT_EQ(spans::droppedCount(), 0u);

    for (const unsigned threads : {4u, 8u}) {
        spans::enableAll();
        const RunRecord traced =
            runFleetAt(threads, /*withFaults=*/false);
        const std::vector<std::string> events = spanRecord();
        spans::resetForTest();
        EXPECT_TRUE(plain == traced)
            << "span capture perturbed the simulation at "
            << threads << " threads";
        EXPECT_EQ(baseline, events)
            << "span stream diverges at " << threads << " threads";
    }
}

TEST(ParallelFleet, StreamedSinksMatchMaterializedQuantiles)
{
    const double fracs[] = {0.0, 0.1, 0.25, 0.5,
                            0.75, 0.9, 0.99, 1.0};
    std::vector<std::uint64_t> baseline;
    for (const unsigned threads : {1u, 4u, 8u}) {
        Fleet::Config config = smallFleet();
        config.threads = threads;
        Fleet fleet(config);
        OnlineHistogram free2mSink;
        OnlineHistogram unmovableSink;
        OnlineHistogram ratioSink;
        OnlineHistogram uptimeSink;
        std::vector<ServerScan> scans;
        fleet.run([&](unsigned, const ServerScan &scan) {
            free2mSink.add(scan.freeContiguity[0]);
            unmovableSink.add(scan.unmovableBlocks[0]);
            ratioSink.add(scan.unmovablePageRatio);
            uptimeSink.add(scan.uptimeSec);
            scans.push_back(scan);
        });
        ASSERT_FALSE(scans.empty());

        // Materialized reference: the sample vectors the streaming
        // path is allowed to drop.
        EmpiricalCdf free2m;
        EmpiricalCdf unmovable;
        EmpiricalCdf ratio;
        EmpiricalCdf uptime;
        for (const ServerScan &scan : scans) {
            free2m.add(scan.freeContiguity[0]);
            unmovable.add(scan.unmovableBlocks[0]);
            ratio.add(scan.unmovablePageRatio);
            uptime.add(scan.uptimeSec);
        }

        EXPECT_EQ(free2mSink.count(), scans.size());
        EXPECT_EQ(uptimeSink.count(), scans.size());

        std::vector<std::uint64_t> record;
        const auto check = [&](const OnlineHistogram &sink,
                               const EmpiricalCdf &cdf,
                               const char *what) {
            for (const double f : fracs) {
                EXPECT_EQ(bits(sink.quantile(f)),
                          bits(cdf.quantile(f)))
                    << what << " quantile(" << f << ") at "
                    << threads << " threads";
                record.push_back(bits(sink.quantile(f)));
            }
        };
        check(free2mSink, free2m, "freeContiguity2m");
        check(unmovableSink, unmovable, "unmovableBlocks2m");
        check(ratioSink, ratio, "unmovablePageRatio");
        check(uptimeSink, uptime, "uptimeSec");
        EXPECT_EQ(
            bits(uptimeSink.fractionAtOrBelow(4.5)),
            bits(uptime.fractionAtOrBelow(4.5)));

        if (baseline.empty())
            baseline = record;
        else
            EXPECT_EQ(baseline, record)
                << "streamed quantiles diverge at " << threads
                << " threads";
    }
}

// ---------------------------------------------------------------
// Executor unit tests
// ---------------------------------------------------------------

TEST(ExecutorTest, RunsEveryTaskExactlyOnce)
{
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        Executor executor(threads);
        constexpr std::size_t count = 100;
        std::vector<std::atomic<unsigned>> hits(count);
        executor.run(count, [&](std::size_t i) {
            hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i].load(), 1u) << "task " << i;
    }
}

TEST(ExecutorTest, SingleThreadRunsInlineInOrder)
{
    Executor executor(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    executor.run(5, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ExecutorTest, RethrowsLowestIndexedFailure)
{
    Executor executor(4);
    for (int repeat = 0; repeat < 3; ++repeat) {
        try {
            executor.run(16, [&](std::size_t i) {
                if (i == 3)
                    throw std::runtime_error("task 3");
                if (i == 11)
                    throw std::runtime_error("task 11");
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 3");
        }
    }
}

TEST(ExecutorTest, ZeroTasksIsANoop)
{
    Executor executor(4);
    bool ran = false;
    executor.run(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ExecutorTest, DefaultThreadsHonorsEnvironment)
{
    ASSERT_EQ(setenv("CTG_THREADS", "3", 1), 0);
    EXPECT_EQ(Executor::defaultThreads(), 3u);
    EXPECT_EQ(Executor().threads(), 3u);
    ASSERT_EQ(setenv("CTG_THREADS", "garbage", 1), 0);
    EXPECT_GE(Executor::defaultThreads(), 1u);
    ASSERT_EQ(unsetenv("CTG_THREADS"), 0);
    EXPECT_GE(Executor::defaultThreads(), 1u);
}

// ---------------------------------------------------------------
// Fault-injector forking and scoping
// ---------------------------------------------------------------

TEST(FaultForkTest, ForkedStreamsAreDeterministicPerStreamId)
{
    FaultInjector parent(0xabcdef);
    parent.arm(FaultSite::BuddyAllocFail, FaultSpec::chance(0.5));

    const auto firePattern = [](FaultInjector inj) {
        std::vector<bool> fires;
        for (int i = 0; i < 64; ++i)
            fires.push_back(
                inj.shouldFail(FaultSite::BuddyAllocFail));
        return fires;
    };

    EXPECT_EQ(firePattern(parent.forkForTask(7)),
              firePattern(parent.forkForTask(7)));
    EXPECT_NE(firePattern(parent.forkForTask(7)),
              firePattern(parent.forkForTask(8)));
}

TEST(FaultForkTest, ForkCopiesSpecsAndResetsState)
{
    FaultInjector parent(1);
    parent.arm(FaultSite::ChwMidcopyAbort, FaultSpec::everyNth(3));
    // Burn parent state; the fork must not inherit it.
    parent.shouldFail(FaultSite::ChwMidcopyAbort);
    parent.shouldFail(FaultSite::ChwMidcopyAbort);

    FaultInjector fork = parent.forkForTask(0);
    EXPECT_TRUE(fork.armed(FaultSite::ChwMidcopyAbort));
    EXPECT_EQ(fork.siteStats(FaultSite::ChwMidcopyAbort).evaluations,
              0u);
    EXPECT_FALSE(fork.shouldFail(FaultSite::ChwMidcopyAbort));
    EXPECT_FALSE(fork.shouldFail(FaultSite::ChwMidcopyAbort));
    EXPECT_TRUE(fork.shouldFail(FaultSite::ChwMidcopyAbort));
    EXPECT_FALSE(fork.armed(FaultSite::BuddyAllocFail));
}

TEST(FaultForkTest, AbsorbStatsSumsPerSite)
{
    FaultInjector sink(1);
    FaultInjector a(2);
    FaultInjector b(3);
    a.arm(FaultSite::BuddyAllocFail, FaultSpec::everyNth(1));
    a.shouldFail(FaultSite::BuddyAllocFail);
    b.shouldFail(FaultSite::BuddyAllocFail);
    sink.absorbStats(a);
    sink.absorbStats(b);
    EXPECT_EQ(sink.siteStats(FaultSite::BuddyAllocFail).evaluations,
              2u);
    EXPECT_EQ(sink.siteStats(FaultSite::BuddyAllocFail).fires, 1u);
}

TEST(FaultScopeTest, ScopeOverridesAndRestores)
{
    FaultInjector &global = faultInjector();
    FaultInjector local(42);
    {
        const FaultInjectorScope scope(local);
        EXPECT_EQ(&faultInjector(), &local);
        FaultInjector inner(43);
        {
            const FaultInjectorScope nested(inner);
            EXPECT_EQ(&faultInjector(), &inner);
        }
        EXPECT_EQ(&faultInjector(), &local);
    }
    EXPECT_EQ(&faultInjector(), &global);
}

TEST(FaultScopeTest, ScopeIsPerThread)
{
    FaultInjector local(42);
    const FaultInjectorScope scope(local);
    FaultInjector *seenOnWorker = nullptr;
    std::thread worker(
        [&] { seenOnWorker = &faultInjector(); });
    worker.join();
    EXPECT_EQ(&faultInjector(), &local);
    EXPECT_NE(seenOnWorker, &local);
}

} // namespace
} // namespace ctg
