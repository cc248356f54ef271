/**
 * @file
 * Google-benchmark microbenchmarks of the core primitives: buddy
 * allocation/free, contiguity scans, TLB lookups, cache-hierarchy
 * accesses, LLC redirection during migration, and software vs
 * hardware migration procedures. These guard the simulator's own
 * performance (a fleet study runs millions of these operations).
 */

#include <benchmark/benchmark.h>

#include "base/rng.hh"
#include "base/units.hh"
#include "bench/bench_util.hh"
#include "hw/system.hh"
#include "mem/buddy.hh"
#include "mem/mem_stats.hh"
#include "mem/scanner.hh"

namespace ctg
{
namespace
{

void
BM_BuddyAllocFree4k(benchmark::State &state)
{
    PhysMem mem(256_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "bm");
    for (auto _ : state) {
        const Pfn pfn = buddy.allocPages(0, MigrateType::Movable,
                                         AllocSource::User);
        benchmark::DoNotOptimize(pfn);
        buddy.freePages(pfn);
    }
}
BENCHMARK(BM_BuddyAllocFree4k);

void
BM_BuddyAllocFreeHuge(benchmark::State &state)
{
    PhysMem mem(256_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "bm");
    for (auto _ : state) {
        const Pfn pfn = buddy.allocPages(hugeOrder,
                                         MigrateType::Movable,
                                         AllocSource::User);
        benchmark::DoNotOptimize(pfn);
        buddy.freePages(pfn);
    }
}
BENCHMARK(BM_BuddyAllocFreeHuge);

void
BM_BuddyFallbackSteal(benchmark::State &state)
{
    PhysMem mem(256_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "bm");
    for (auto _ : state) {
        // Every unmovable allocation on a movable-only machine goes
        // through the fallback path.
        const Pfn pfn = buddy.allocPages(0, MigrateType::Unmovable,
                                         AllocSource::Slab);
        benchmark::DoNotOptimize(pfn);
        buddy.freePages(pfn);
    }
}
BENCHMARK(BM_BuddyFallbackSteal);

/** Shared rig for the contiguity read-path benchmarks: a 512 MiB
 * machine fragmented by 20k single-page allocations, ~10% unmovable.
 */
void
fragmentForScan(BuddyAllocator &buddy)
{
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
        buddy.allocPages(0,
                         rng.chance(0.1) ? MigrateType::Unmovable
                                         : MigrateType::Movable,
                         AllocSource::User);
    }
}

/** Legacy full-scan read path (scan::reference). */
void
BM_ContiguityScan2MReference(benchmark::State &state)
{
    PhysMem mem(512_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "bm");
    fragmentForScan(buddy);
    for (auto _ : state) {
        benchmark::DoNotOptimize(scan::reference::unmovableBlockFraction(
            mem, 0, mem.numFrames(), scan::order2M));
    }
}
BENCHMARK(BM_ContiguityScan2MReference);

/** Same metric answered from the ContigIndex in O(1). */
void
BM_ContiguityScan2MIndex(benchmark::State &state)
{
    PhysMem mem(512_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "bm");
    fragmentForScan(buddy);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.stats().unmovableBlockFraction(
            0, mem.numFrames(), scan::order2M));
    }
}
BENCHMARK(BM_ContiguityScan2MIndex);

void
BM_TlbHit(benchmark::State &state)
{
    Tlb tlb(64, 4);
    tlb.insert(42, 100, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.lookup(42));
}
BENCHMARK(BM_TlbHit);

void
BM_CacheAccessL1Hit(benchmark::State &state)
{
    MemHierarchy mem{HwConfig{}};
    mem.access(0, 0x4000, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.access(0, 0x4000, false));
}
BENCHMARK(BM_CacheAccessL1Hit);

void
BM_CacheAccessSpread(benchmark::State &state)
{
    MemHierarchy mem{HwConfig{}};
    Rng rng(7);
    for (auto _ : state) {
        const Addr addr =
            (rng.below(1u << 16)) * lineBytes;
        benchmark::DoNotOptimize(mem.access(
            static_cast<CoreId>(rng.below(8)), addr,
            rng.chance(0.3), 1));
    }
}
BENCHMARK(BM_CacheAccessSpread);

void
BM_RedirectedAccess(benchmark::State &state)
{
    HwSystem hw;
    hw.mem().migrationTable().install(0x300, 0x5123,
                                      ChwMode::Noncacheable);
    MigrationEntry *entry =
        hw.mem().migrationTable().findBySrc(0x300);
    entry->ptr = 32;
    Rng rng(3);
    for (auto _ : state) {
        const Addr addr = pfnToAddr(0x300) +
                          rng.below(linesPerPage) * lineBytes;
        benchmark::DoNotOptimize(hw.mem().access(0, addr, false));
    }
}
BENCHMARK(BM_RedirectedAccess);

void
BM_ChwPageMigration(benchmark::State &state)
{
    HwSystem hw;
    Pfn src = 0x1000;
    Pfn dst = 0x2000;
    for (auto _ : state) {
        ChwEngine::Descriptor desc;
        desc.src = src;
        desc.dst = dst;
        desc.mode = ChwMode::Noncacheable;
        hw.chw().submitMigrate(desc);
        hw.drain();
        hw.chw().clear(src);
        std::swap(src, dst);
    }
}
BENCHMARK(BM_ChwPageMigration);

} // namespace
} // namespace ctg

// Custom main instead of BENCHMARK_MAIN(): the shared bench flags
// (--json) are split off before google-benchmark sees the command
// line (it rejects flags it does not know), and the uniform
// `fleet.run_wall_ms` line is dumped once the benchmarks finish.
int
main(int argc, char **argv)
{
    const ctg::bench::WallTimer timer;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            ctg::bench::jsonOutPath() = argv[++i];
        else if (arg.rfind("--json=", 0) == 0)
            ctg::bench::jsonOutPath() = arg.substr(7);
        else
            rest.push_back(argv[i]);
    }
    int rest_argc = static_cast<int>(rest.size());
    benchmark::Initialize(&rest_argc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(rest_argc,
                                               rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    ctg::bench::dumpWallMs(timer.ms());
    return 0;
}
