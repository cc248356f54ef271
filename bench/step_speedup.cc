/**
 * @file
 * ContigIndex maintenance microbenchmark: a fixed alloc/free/pin churn
 * on the fig11 2 GiB shape and the 64 MiB scale-tier shape, each
 * mutation published through ContigIndex::resync the way the buddy
 * allocator publishes its blocks, with one index read every K
 * mutations (K = 1, 64, 4096). resync only marks the words it
 * covers and the read flushes them, so the cost of a mutation
 * depends on how many mutations share a flush: K = 1 is the eager
 * worst case. It reports ns per mutation with the flushes amortized
 * (the churn timed with and without the index, the difference
 * divided by the mutations), plus the resyncs and frames marked per
 * machine, the index build time (construction plus the first read)
 * and its host bytes per frame.
 *
 * The read side of the hot paths (compaction, region resizing,
 * gigantic-window search) has no second implementation left to time
 * against; its last reference-vs-index numbers are in EXPERIMENTS.md.
 *
 * `--json BENCH_step.json` dumps machine-readable results (keys
 * `bench_step.*`) for the CI artifact.
 */

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "bench/bench_util.hh"
#include "mem/contig_index.hh"

using namespace ctg;

namespace
{

constexpr unsigned writeOps = 200000; //!< churn mutations per machine
constexpr unsigned writeReps = 5;     //!< timed churns, best kept
/** Mutations between two index reads. */
constexpr unsigned readEvery[] = {1, 64, 4096};
constexpr unsigned numCadences = std::size(readEvery);

double
msSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Write-side numbers of one machine shape. */
struct WriteResult
{
    double buildUs = 0.0;
    /** Per readEvery entry. */
    double nsPerMutation[numCadences] = {};
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
 * the block, as the allocator does, and every `read_every` mutations
 * (and once at the end) one read flushes the marks; without it the
 * same mutations run alone, which is the baseline the index cost is
 * measured against. Returns the churn's wall time in ns.
 */
double
runChurn(FrameArray &frames, ContigIndex *idx, unsigned read_every = 1)
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
        if (idx) {
            idx->resync(lo, hi);
            if ((op + 1) % read_every == 0)
                idx->freePages();
        }
    }
    if (idx)
        idx->freePages();
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
    constexpr double inf = std::numeric_limits<double>::infinity();
    double best_with[numCadences];
    std::fill(std::begin(best_with), std::end(best_with), inf);
    double best_without = inf;
    out.buildUs = inf;
    for (unsigned rep = 0; rep < writeReps; ++rep) {
        FrameArray bare = freeFrames(mem_bytes);
        best_without = std::min(best_without, runChurn(bare, nullptr));

        for (unsigned k = 0; k < numCadences; ++k) {
            FrameArray frames = freeFrames(mem_bytes);
            const auto start = std::chrono::steady_clock::now();
            ContigIndex idx(frames);
            idx.freePages();
            out.buildUs = std::min(out.buildUs, 1000.0 * msSince(start));
            const std::uint64_t calls0 = idx.resyncCalls();
            const std::uint64_t frames0 = idx.framesRescanned();
            best_with[k] = std::min(best_with[k],
                                    runChurn(frames, &idx, readEvery[k]));
            out.resyncs = idx.resyncCalls() - calls0;
            out.framesRescanned = idx.framesRescanned() - frames0;
            out.indexBytesPerFrame =
                static_cast<double>(idx.bytesUsed()) /
                static_cast<double>(frames.size());
        }
    }
    for (unsigned k = 0; k < numCadences; ++k) {
        out.nsPerMutation[k] =
            std::max(0.0, best_with[k] - best_without) /
            static_cast<double>(
                std::max<std::uint64_t>(out.resyncs, 1));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner("Step speedup",
                  "ContigIndex maintenance: cost per mutation");

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
    std::vector<std::string> header = {"Write side", "Build (us)"};
    for (const unsigned k : readEvery)
        header.push_back("ns/mut K=" + std::to_string(k));
    for (const char *col : {"Resyncs", "Frames marked", "Index B/frame"})
        header.push_back(col);
    write_table.header(header);
    for (int i = 0; i < 2; ++i) {
        writes[i] = benchWrite(shapes[i].bytes);
        std::vector<std::string> row = {shapes[i].name,
                                        cell(writes[i].buildUs, 1)};
        for (const double ns : writes[i].nsPerMutation)
            row.push_back(cell(ns, 1));
        row.push_back(std::to_string(writes[i].resyncs));
        row.push_back(std::to_string(writes[i].framesRescanned));
        row.push_back(cell(writes[i].indexBytesPerFrame, 3));
        write_table.row(row);
    }
    std::printf("\n%u-op alloc/free/pin churn per machine, one index "
                "read every K mutations:\n",
                writeOps);
    write_table.print();

    StatRegistry registry;
    const StatGroup group(registry, "bench_step");
    for (int i = 0; i < 2; ++i) {
        const std::string key = shapes[i].key;
        group.settableGauge(key + "_build_us", "index build us")
            .set(writes[i].buildUs);
        for (unsigned k = 0; k < numCadences; ++k) {
            const std::string every = std::to_string(readEvery[k]);
            group.settableGauge(key + "_ns_per_mutation_k" + every,
                                "ns per mutation, one read every " +
                                    every + " mutations")
                .set(writes[i].nsPerMutation[k]);
        }
        group.settableGauge(key + "_resyncs", "resyncs per machine")
            .set(static_cast<double>(writes[i].resyncs));
        group.settableGauge(key + "_frames_rescanned",
                            "frames marked per machine")
            .set(static_cast<double>(writes[i].framesRescanned));
        group.settableGauge(key + "_index_bytes_per_frame",
                            "index host bytes per frame")
            .set(writes[i].indexBytesPerFrame);
    }
    bench::dumpStats(registry, "step benchmark (JSON lines)");
    return 0;
}
