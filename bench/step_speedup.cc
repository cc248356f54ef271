/**
 * @file
 * Hot-path step microbenchmark: the three index-accelerated search
 * loops of DESIGN.md §12 — compaction passes (compactUntil), region
 * boundary resizing (expand/shrink ping-pong), and gigantic-window
 * search (allocContigRange) — timed through the legacy linear frame
 * walks vs the ContigIndex subtree descent.
 *
 * Each stage is staged so the timed operation is a *pure search* —
 * the part the index accelerates — with no migrations inside the
 * timed region, on the fig11 2 GiB server shape at the uptime where
 * that search dominates in practice:
 *
 *  - compactUntil: a mature fragmented server whose residual mixed
 *    pageblocks are pinned — the paper's motivating state, in which
 *    periodic compaction passes find nothing movable and the whole
 *    pass is classification.
 *  - allocContigRange: a young server with sparse scattered
 *    unmovable pages. Every 1 GB candidate window is tainted, but
 *    the reference scan must walk deep into each window to prove it.
 *  - region resize: an early-uptime Contiguitas server — the window
 *    in which the Algorithm 1 controller does its initial sizing —
 *    ping-ponging the boundary over an already-evacuated border
 *    range, so each leg is a border walk plus constant-cost block
 *    handoff.
 *
 * Pure-search ops mutate nothing, so the reference and index paths
 * must return identical results on every call; the benchmark
 * verifies that before timing is reported.
 *
 * A second table measures the index's write side: a fixed
 * alloc/free/pin churn on the fig11 2 GiB shape and the 64 MiB
 * scale-tier shape, each mutation published through
 * ContigIndex::resync the way the buddy allocator publishes its
 * blocks. It reports ns per resync (the churn timed with and without
 * the resync calls, the difference divided by the calls), plus the
 * resyncs and frames rescanned per machine.
 *
 * `--json BENCH_step.json` dumps machine-readable results (keys
 * `bench_step.*`) for the CI artifact.
 */

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "base/rng.hh"
#include "bench/bench_util.hh"
#include "contiguitas/policy.hh"
#include "fleet/server.hh"
#include "kernel/compaction.hh"
#include "kernel/contig_alloc.hh"
#include "mem/contig_index.hh"

using namespace ctg;

namespace
{

constexpr unsigned numServers = 3;   //!< per stage
constexpr unsigned compactReps = 16; //!< no-op passes timed
constexpr unsigned contigReps = 64;  //!< all-blocked searches timed
constexpr unsigned resizeReps = 24;  //!< expand+shrink ping-pongs
/** Resize step: 128 MB border range walked per ping-pong leg. */
constexpr std::uint64_t resizePages = std::uint64_t{1} << 15;
constexpr unsigned writeOps = 200000; //!< churn mutations per machine
constexpr unsigned writeReps = 5;     //!< timed churns, best kept

Server::Config
serverConfig(unsigned i, bool contiguitas, double uptime,
             bool prefragment, double intensity)
{
    // Fig11-cell shape: 2 GiB, mixed workloads.
    Server::Config config;
    config.memBytes = std::uint64_t{2} << 30;
    config.kind = static_cast<WorkloadKind>(i % 4);
    config.intensity = intensity;
    config.prefragment = prefragment;
    config.uptimeSec = uptime;
    config.policy.name = contiguitas ? "contiguitas" : "vanilla";
    config.seed = 0x5ca9 + i;
    config.applyEnvOverlay();
    return config;
}

double
msSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool
sameResult(const CompactionResult &a, const CompactionResult &b)
{
    return a.migrated == b.migrated &&
           a.failedNoMem == b.failedNoMem &&
           a.skippedUnmovable == b.skippedUnmovable &&
           a.blockedPageblocks == b.blockedPageblocks &&
           a.targetReached == b.targetReached;
}

bool
sameStats(const ContigAllocStats &a, const ContigAllocStats &b)
{
    return a.candidatesScanned == b.candidatesScanned &&
           a.candidatesBlocked == b.candidatesBlocked &&
           a.evacuations == b.evacuations &&
           a.evacuationFailures == b.evacuationFailures;
}

/** One stage's accumulated numbers. */
struct StageResult
{
    double refMs = 0.0;
    double indexMs = 0.0;
    bool identical = true;

    double speedup() const { return refMs / indexMs; }
};

/**
 * Pin the residual movable allocations of every mixed pageblock, so
 * compaction has no candidates left: the steady state the paper's
 * pinned-page problem produces, in which a periodic compaction pass
 * is pure classification.
 */
void
pinResidualMovables(Server &server)
{
    PhysMem &mem = server.kernel().mem();
    BuddyAllocator &alloc =
        server.kernel().policy().movableAllocator();
    const Pfn lo = alloc.startPfn();
    const Pfn hi =
        lo + ((alloc.endPfn() - lo) / pagesPerHuge) * pagesPerHuge;
    const Pfn block0 = lo / pagesPerHuge;
    std::vector<bool> mixed((hi - lo) / pagesPerHuge, false);
    for (Pfn b = lo; b < hi; b += pagesPerHuge) {
        bool has_free = false;
        bool has_mov = false;
        for (Pfn p = b; p < b + pagesPerHuge; ++p) {
            const auto f = mem.frame(p);
            if (f.isFree())
                has_free = true;
            else if (!f.isUnmovableAllocation())
                has_mov = true;
        }
        mixed[b / pagesPerHuge - block0] = has_free && has_mov;
    }
    for (Pfn p = lo; p < hi;) {
        const auto f = mem.frame(p);
        if (f.isFree() || !f.isHead() || f.isUnmovableAllocation()) {
            p += f.isHead() ? (Pfn{1} << f.order()) : 1;
            continue;
        }
        const Pfn span = Pfn{1} << f.order();
        bool touches = false;
        for (Pfn b = p / pagesPerHuge;
             b <= (p + span - 1) / pagesPerHuge; ++b) {
            if (b >= block0 && b - block0 < mixed.size() &&
                mixed[b - block0])
                touches = true;
        }
        if (touches)
            mem.setBlockPinned(p, true);
        p += span;
    }
}

/**
 * Steady-state compaction pass on a mature fragmented server whose
 * movable stragglers are pinned: every pass classifies the whole
 * zone and migrates nothing.
 */
void
benchCompact(unsigned i, StageResult &out)
{
    Server server(serverConfig(i, false, 30.0, true, 0.8 + 0.15 * i));
    server.run();
    pinResidualMovables(server);

    BuddyAllocator &alloc =
        server.kernel().policy().movableAllocator();
    const OwnerRegistry &owners = server.kernel().owners();

    std::vector<CompactionResult> ref;
    std::vector<CompactionResult> indexed;
    server.kernel().mem().setContigIndexReads(false);
    auto start = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < compactReps; ++r)
        ref.push_back(compactUntil(alloc, owners, gigaOrder,
                                   std::uint64_t{1} << 20));
    out.refMs += msSince(start);

    server.kernel().mem().setContigIndexReads(true);
    start = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < compactReps; ++r)
        indexed.push_back(compactUntil(alloc, owners, gigaOrder,
                                       std::uint64_t{1} << 20));
    out.indexMs += msSince(start);

    for (unsigned r = 0; r < compactReps; ++r)
        out.identical =
            out.identical && ref[r].migrated == 0 &&
            sameResult(ref[r], indexed[r]);
}

/**
 * Gigantic-window search on a young, lightly fragmented server:
 * unmovable pages are sparse but every 1 GB window holds at least
 * one, so the reference scan walks tens of thousands of frames per
 * window before discovering the taint (Section 2.4: even young
 * servers fail gigantic allocation). Warmup claims any still-clean
 * window as an unmovable range, making the search side-effect-free.
 */
void
benchContig(unsigned i, StageResult &out)
{
    Server server(
        serverConfig(i, false, 4.0, false, 0.55 + 0.05 * i));
    server.run();

    BuddyAllocator &alloc =
        server.kernel().policy().movableAllocator();
    const OwnerRegistry &owners = server.kernel().owners();

    for (unsigned r = 0; r < 8; ++r) {
        const Pfn head =
            allocContigRange(alloc, owners, gigaOrder,
                             MigrateType::Unmovable,
                             AllocSource::Slab, 0);
        if (head == invalidPfn)
            break;
    }

    std::vector<ContigAllocStats> ref(contigReps);
    std::vector<ContigAllocStats> indexed(contigReps);
    server.kernel().mem().setContigIndexReads(false);
    auto start = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < contigReps; ++r)
        out.identical &=
            allocContigRange(alloc, owners, gigaOrder,
                             MigrateType::Unmovable,
                             AllocSource::Slab, 0,
                             &ref[r]) == invalidPfn;
    out.refMs += msSince(start);

    server.kernel().mem().setContigIndexReads(true);
    start = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < contigReps; ++r)
        out.identical &=
            allocContigRange(alloc, owners, gigaOrder,
                             MigrateType::Unmovable,
                             AllocSource::Slab, 0,
                             &indexed[r]) == invalidPfn;
    out.indexMs += msSince(start);

    for (unsigned r = 0; r < contigReps; ++r)
        out.identical = out.identical && sameStats(ref[r], indexed[r]);
}

/**
 * Region-boundary resize ping-pong on an early-uptime Contiguitas
 * server (the initial-sizing window, where border ranges are still
 * evacuable). The warmup expand evacuates the border once, untimed;
 * after the paired shrink hands it back the range stays free — no
 * workload is running — so every timed leg is a pure border-range
 * search plus the constant-cost block handoff between allocators.
 */
void
benchResize(unsigned i, StageResult &out)
{
    Server server(serverConfig(i, true, 0.5, false, 0.8));
    server.run();
    auto &policy = static_cast<ContiguitasPolicy &>(
        server.kernel().policy());
    RegionManager &regions = policy.regions();

    const std::uint64_t warm = regions.expandUnmovable(resizePages);
    if (warm == 0 || regions.shrinkUnmovable(warm) != warm) {
        std::printf("  [resize] server %u skipped: border range "
                    "not evacuable\n", i);
        return;
    }

    std::vector<std::uint64_t> ref;
    std::vector<std::uint64_t> indexed;
    server.kernel().mem().setContigIndexReads(false);
    auto start = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < resizeReps; ++r) {
        const std::uint64_t grown =
            regions.expandUnmovable(resizePages);
        ref.push_back(grown);
        ref.push_back(regions.shrinkUnmovable(grown));
    }
    out.refMs += msSince(start);

    server.kernel().mem().setContigIndexReads(true);
    start = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < resizeReps; ++r) {
        const std::uint64_t grown =
            regions.expandUnmovable(resizePages);
        indexed.push_back(grown);
        indexed.push_back(regions.shrinkUnmovable(grown));
    }
    out.indexMs += msSince(start);

    for (std::size_t r = 0; r < ref.size(); ++r)
        out.identical = out.identical && ref[r] > 0 &&
                        ref[r] == indexed[r];
}

/** Write-side numbers of one machine shape. */
struct WriteResult
{
    double buildUs = 0.0;
    double nsPerResync = 0.0;
    std::uint64_t resyncs = 0;
    std::uint64_t framesRescanned = 0;
    double indexBytesPerFrame = 0.0;
};

/**
 * One fixed churn over a standalone frame table: random aligned
 * blocks of order 0..4 are allocated (when wholly free), freed, or
 * have their pin bits flipped, with random migratetypes and sources
 * — the mutation mix of the buddy allocator and the pin API. When
 * idx is set, every mutation is published through idx->resync over
 * the block, as the allocator does; without it the same mutations
 * run alone, which is the baseline the resync cost is measured
 * against. Returns the churn's wall time in ns.
 */
double
runChurn(FrameArray &frames, ContigIndex *idx)
{
    const Pfn n = frames.size();
    Rng rng(0x3417e);
    const auto start = std::chrono::steady_clock::now();
    for (unsigned op = 0; op < writeOps; ++op) {
        const unsigned order = static_cast<unsigned>(rng.below(5));
        const Pfn lo = rng.below(n >> order) << order;
        const Pfn hi = lo + (Pfn{1} << order);
        const unsigned kind = static_cast<unsigned>(rng.below(100));
        if (kind < 45) {
            bool all_free = true;
            for (Pfn p = lo; p < hi && all_free; ++p)
                all_free = frames.frame(p).isFree();
            if (!all_free)
                continue;
            const MigrateType mt = static_cast<MigrateType>(
                rng.below(numMigrateTypes));
            const AllocSource src =
                static_cast<AllocSource>(rng.below(numAllocSources));
            for (Pfn p = lo; p < hi; ++p)
                frames.frame(p).stampAllocated(order, mt, src, p == lo);
        } else if (kind < 85) {
            for (Pfn p = lo; p < hi; ++p) {
                auto f = frames.frame(p);
                f.setFree(true);
                f.setPinned(false);
            }
        } else {
            const bool pin = rng.chance(0.5);
            for (Pfn p = lo; p < hi; ++p) {
                auto f = frames.frame(p);
                if (!f.isFree())
                    f.setPinned(pin);
            }
        }
        if (idx)
            idx->resync(lo, hi);
    }
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Fresh frame table of the given size, every frame free. */
FrameArray
freeFrames(std::uint64_t mem_bytes)
{
    FrameArray frames(mem_bytes / pageBytes);
    for (Pfn p = 0; p < frames.size(); ++p)
        frames.frame(p).setFree(true);
    return frames;
}

WriteResult
benchWrite(std::uint64_t mem_bytes)
{
    WriteResult out;
    double best_with = std::numeric_limits<double>::infinity();
    double best_without = best_with;
    out.buildUs = best_with;
    for (unsigned rep = 0; rep < writeReps; ++rep) {
        FrameArray bare = freeFrames(mem_bytes);
        best_without = std::min(best_without, runChurn(bare, nullptr));

        FrameArray frames = freeFrames(mem_bytes);
        const auto start = std::chrono::steady_clock::now();
        ContigIndex idx(frames);
        out.buildUs = std::min(out.buildUs, 1000.0 * msSince(start));
        const std::uint64_t calls0 = idx.resyncCalls();
        const std::uint64_t frames0 = idx.framesRescanned();
        best_with = std::min(best_with, runChurn(frames, &idx));
        out.resyncs = idx.resyncCalls() - calls0;
        out.framesRescanned = idx.framesRescanned() - frames0;
        out.indexBytesPerFrame = static_cast<double>(idx.bytesUsed()) /
                                 static_cast<double>(frames.size());
    }
    out.nsPerResync = std::max(0.0, best_with - best_without) /
                      static_cast<double>(std::max<std::uint64_t>(
                          out.resyncs, 1));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner("Step speedup",
                  "Hot-path searches: linear frame walks vs "
                  "ContigIndex descent");

    StageResult compact;
    StageResult contig;
    StageResult resize;
    for (unsigned i = 0; i < numServers; ++i) {
        benchCompact(i, compact);
        benchContig(i, contig);
        benchResize(i, resize);
    }

    Table table;
    table.header({"Hot path", "Reference (ms)", "Index (ms)",
                  "Speedup", "Identical"});
    const StageResult *stages[] = {&compact, &contig, &resize};
    const char *names[] = {"compactUntil (steady pass)",
                           "allocContigRange (blocked)",
                           "region resize (ping-pong)"};
    for (int i = 0; i < 3; ++i) {
        table.row({names[i], cell(stages[i]->refMs, 2),
                   cell(stages[i]->indexMs, 2),
                   cell(stages[i]->speedup(), 1) + "x",
                   stages[i]->identical ? "yes" : "NO"});
    }
    table.print();

    const bool all_identical =
        compact.identical && contig.identical && resize.identical;
    const double min_speedup =
        std::min({compact.speedup(), contig.speedup(),
                  resize.speedup()});
    std::printf("\n%u servers per stage: min speedup %.1fx, "
                "results %s\n",
                numServers, min_speedup,
                all_identical ? "identical" : "DIVERGED");

    const struct
    {
        const char *name;
        const char *key;
        std::uint64_t bytes;
    } shapes[] = {{"fig11 2 GiB", "write_2g", std::uint64_t{2} << 30},
                  {"scale tier 64 MiB", "write_64m", std::uint64_t{64}
                                                         << 20}};
    WriteResult writes[2];
    Table write_table;
    write_table.header({"Write side", "Build (us)", "ns/resync",
                        "Resyncs", "Frames rescanned", "Index B/frame"});
    for (int i = 0; i < 2; ++i) {
        writes[i] = benchWrite(shapes[i].bytes);
        write_table.row({shapes[i].name, cell(writes[i].buildUs, 1),
                         cell(writes[i].nsPerResync, 1),
                         std::to_string(writes[i].resyncs),
                         std::to_string(writes[i].framesRescanned),
                         cell(writes[i].indexBytesPerFrame, 3)});
    }
    std::printf("\n%u-op alloc/free/pin churn per machine:\n",
                writeOps);
    write_table.print();

    StatRegistry registry;
    const StatGroup group(registry, "bench_step");
    for (int i = 0; i < 2; ++i) {
        const std::string key = shapes[i].key;
        group.settableGauge(key + "_build_us", "index build us")
            .set(writes[i].buildUs);
        group.settableGauge(key + "_ns_per_resync", "ns per resync")
            .set(writes[i].nsPerResync);
        group.settableGauge(key + "_resyncs", "resyncs per machine")
            .set(static_cast<double>(writes[i].resyncs));
        group.settableGauge(key + "_frames_rescanned",
                            "frames rescanned per machine")
            .set(static_cast<double>(writes[i].framesRescanned));
        group.settableGauge(key + "_index_bytes_per_frame",
                            "index host bytes per frame")
            .set(writes[i].indexBytesPerFrame);
    }
    group.settableGauge("servers", "servers per stage")
        .set(numServers);
    group.settableGauge("compact_ref_ms", "compactUntil reference ms")
        .set(compact.refMs);
    group.settableGauge("compact_index_ms", "compactUntil index ms")
        .set(compact.indexMs);
    group.settableGauge("compact_speedup", "compactUntil speedup")
        .set(compact.speedup());
    group.settableGauge("contig_ref_ms",
                        "allocContigRange reference ms")
        .set(contig.refMs);
    group.settableGauge("contig_index_ms", "allocContigRange index ms")
        .set(contig.indexMs);
    group.settableGauge("contig_speedup", "allocContigRange speedup")
        .set(contig.speedup());
    group.settableGauge("resize_ref_ms", "region resize reference ms")
        .set(resize.refMs);
    group.settableGauge("resize_index_ms", "region resize index ms")
        .set(resize.indexMs);
    group.settableGauge("resize_speedup", "region resize speedup")
        .set(resize.speedup());
    group.settableGauge("speedup_min", "minimum speedup across paths")
        .set(min_speedup);
    group.settableGauge("identical", "1 when paths return identically")
        .set(all_identical ? 1.0 : 0.0);
    bench::dumpStats(registry, "step benchmark (JSON lines)");

    return all_identical ? 0 : 1;
}
