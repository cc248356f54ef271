/**
 * @file
 * Differential fuzz of BuddyAllocator::allocRun and freeRun against
 * the one-page loop they stand for. Two machines replay the same
 * random fragmented history; then one takes a run call and the other
 * the loop of allocPages / freePages calls, and the two must agree on
 * everything: every free list in order, the counters and Stats, every
 * frame's metadata and owner (the serialized frame table and
 * allocators hold all of it), and the flushed ContigIndex.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "base/rng.hh"
#include "base/serde.hh"
#include "base/units.hh"
#include "mem/buddy.hh"
#include "mem/physmem.hh"

namespace ctg
{
namespace
{

/** One machine: a single allocator, or two adjacent ones split at a
 * pageblock boundary that cuts a max-order block in two, as the
 * Contiguitas boundary does. */
struct Machine
{
    static constexpr Pfn boundary = 3 * pagesPerHuge;

    Machine(bool split, bool claim) : mem(32_MiB)
    {
        const Pfn end = mem.numFrames();
        if (split) {
            allocs.push_back(std::make_unique<BuddyAllocator>(
                mem, 0, boundary, "low", MigrateType::Unmovable));
            allocs.push_back(std::make_unique<BuddyAllocator>(
                mem, boundary, end, "high"));
        } else {
            allocs.push_back(
                std::make_unique<BuddyAllocator>(mem, 0, end, "one"));
        }
        for (auto &alloc : allocs)
            alloc->setClaimRemainderOnSmallSteal(claim);
    }

    /** Frame table, links, pageblock tags, and every allocator's
     * list heads, counts and Stats. */
    std::vector<std::uint8_t>
    bytes() const
    {
        serde::Writer out;
        mem.saveTo(out);
        for (const auto &alloc : allocs)
            alloc->saveTo(out);
        return out.take();
    }

    PhysMem mem;
    std::vector<std::unique_ptr<BuddyAllocator>> allocs;
};

MigrateType
randomMt(Rng &rng)
{
    return static_cast<MigrateType>(rng.below(3));
}

/** One step of the shared history: mostly order-0 allocations of
 * every migratetype (with and without fallback), frees, pageblock
 * retags and isolation. Deterministic in (machine state, rng). */
void
historyStep(Machine &m, Rng &rng, std::vector<Pfn> &live)
{
    BuddyAllocator &alloc = *m.allocs[rng.below(m.allocs.size())];
    const std::uint64_t kind = rng.below(100);
    if (kind < 55) {
        const unsigned order = rng.chance(0.8) ? 0 : 1 + rng.below(3);
        const Pfn pfn = alloc.allocPages(
            order, randomMt(rng), AllocSource::User, rng.below(1u << 30),
            AddrPref::None, rng.chance(0.8));
        if (pfn != invalidPfn)
            live.push_back(pfn);
    } else if (kind < 93) {
        if (!live.empty()) {
            const std::size_t i = rng.below(live.size());
            const Pfn pfn = live[i];
            live[i] = live.back();
            live.pop_back();
            for (auto &a : m.allocs)
                if (pfn >= a->startPfn() && pfn < a->endPfn())
                    a->freePages(pfn);
        }
    } else if (kind < 98) {
        const Pfn block =
            alloc.startPfn() +
            rng.below(alloc.totalPages() / pagesPerHuge) * pagesPerHuge;
        m.mem.setBlockMt(block, randomMt(rng));
    } else {
        // Isolate or restore one max-order-aligned range.
        constexpr Pfn span = Pfn{1} << maxOrder;
        const Pfn lo = (alloc.startPfn() + span - 1) & ~(span - 1);
        if (lo + span > alloc.endPfn())
            return;
        const Pfn at =
            lo + rng.below((alloc.endPfn() - lo) / span) * span;
        if (m.mem.blockMt(at) == MigrateType::Isolate)
            alloc.unisolateRange(at, at + span, randomMt(rng));
        else
            alloc.isolateRange(at, at + span);
    }
}

/** Everything a reader of the flushed index can see. */
std::vector<std::uint64_t>
indexView(const PhysMem &mem)
{
    const ContigIndex &idx = mem.contigIndex();
    std::vector<std::uint64_t> v{idx.freePages(), idx.unmovablePages(),
                                 idx.pinnedPages(),
                                 idx.framesRescanned()};
    for (unsigned o = 0; o <= gigaOrder; ++o) {
        v.push_back(idx.fullyFreeBlocks(o));
        v.push_back(idx.taintedBlocks(o));
    }
    const Pfn n = mem.numFrames();
    for (Pfn lo = 0; lo < n; lo += pagesPerHuge) {
        v.push_back(idx.freePagesIn(lo, lo + pagesPerHuge));
        v.push_back(idx.unmovablePagesIn(lo, lo + pagesPerHuge));
    }
    return v;
}

/** Maximal runs [lo, hi) of allocated order-0 heads inside one
 * allocator's coverage. */
std::vector<std::pair<Pfn, Pfn>>
order0Runs(const Machine &m, const BuddyAllocator &alloc)
{
    std::vector<std::pair<Pfn, Pfn>> runs;
    Pfn lo = invalidPfn;
    for (Pfn pfn = alloc.startPfn(); pfn <= alloc.endPfn(); ++pfn) {
        bool in = false;
        if (pfn < alloc.endPfn()) {
            const auto f = m.mem.frame(pfn);
            in = !f.isFree() && f.isHead() && f.order() == 0;
        }
        if (in && lo == invalidPfn)
            lo = pfn;
        if (!in && lo != invalidPfn) {
            runs.emplace_back(lo, pfn);
            lo = invalidPfn;
        }
    }
    return runs;
}

struct Coverage
{
    unsigned allocRuns = 0;
    unsigned fallbackOrFailure = 0;
    unsigned freeRuns = 0;
    unsigned edgeRuns = 0;
    unsigned mixedBlockMtRuns = 0;
    unsigned longRuns = 0;
};

void
fuzz(std::uint64_t seed, bool split, bool claim, Coverage &cov)
{
    Machine run(split, claim);
    Machine loop(split, claim);
    std::vector<Pfn> run_live;
    std::vector<Pfn> loop_live;
    Rng rng(seed);
    // Fill most of memory with scattered pages of every type, so the
    // coverage edges are allocated and the lists are fragments.
    for (Machine *m : {&run, &loop}) {
        Rng fill(seed);
        std::vector<Pfn> &live = m == &run ? run_live : loop_live;
        for (Pfn i = 0; i < m->mem.numFrames() * 9 / 10; ++i) {
            BuddyAllocator &alloc =
                *m->allocs[fill.below(m->allocs.size())];
            const Pfn pfn = alloc.allocPages(0, randomMt(fill),
                                             AllocSource::User, i);
            if (pfn != invalidPfn)
                live.push_back(pfn);
        }
    }
    for (int trial = 0; trial < 120; ++trial) {
        const std::uint64_t steps = rng.below(200);
        const std::uint64_t history_seed = rng.next();
        Rng a(history_seed);
        Rng b(history_seed);
        for (std::uint64_t i = 0; i < steps; ++i) {
            historyStep(run, a, run_live);
            historyStep(loop, b, loop_live);
        }
        ASSERT_TRUE(run.bytes() == loop.bytes()) << "history diverged";

        const std::size_t ai = rng.below(run.allocs.size());
        BuddyAllocator &ra = *run.allocs[ai];
        BuddyAllocator &la = *loop.allocs[ai];
        const std::uint64_t calls_before = run.mem.contigIndex().resyncCalls();
        const std::uint64_t loop_calls_before =
            loop.mem.contigIndex().resyncCalls();
        std::uint64_t n = 0;
        if (rng.chance(0.5)) {
            n = 1 + rng.below(600);
            const MigrateType mt = randomMt(rng);
            const auto src = rng.chance(0.5) ? AllocSource::User
                                             : AllocSource::Slab;
            const std::uint64_t owner = rng.below(1u << 30);
            std::vector<Pfn> got(n, invalidPfn);
            std::vector<Pfn> want(n, invalidPfn);
            const BuddyAllocator::Stats before = ra.stats();
            const std::uint64_t k =
                ra.allocRun(n, mt, src, owner, got.data());
            std::uint64_t j = 0;
            while (j < n &&
                   (want[j] = la.allocPages(0, mt, src, owner + j)) !=
                       invalidPfn)
                ++j;
            ASSERT_EQ(k, j) << "trial " << trial;
            ASSERT_TRUE(got == want) << "trial " << trial;
            for (std::uint64_t i = 0; i < k; ++i) {
                run_live.push_back(got[i]);
                loop_live.push_back(want[i]);
            }
            ++cov.allocRuns;
            if (k < n || ra.stats().fallbackAllocs != before.fallbackAllocs)
                ++cov.fallbackOrFailure;
        } else {
            const auto runs = order0Runs(run, ra);
            if (runs.empty())
                continue;
            // Favour the runs nearest the coverage edges and the
            // longest one.
            const std::uint64_t pick = rng.below(10);
            auto [lo, hi] = runs[rng.below(runs.size())];
            if (pick == 0)
                std::tie(lo, hi) = runs.front();
            else if (pick == 1)
                std::tie(lo, hi) = runs.back();
            else if (pick < 4)
                std::tie(lo, hi) = *std::max_element(
                    runs.begin(), runs.end(),
                    [](const auto &x, const auto &y) {
                        return x.second - x.first < y.second - y.first;
                    });
            if (rng.chance(0.6)) {
                // A random piece; else the whole maximal run, which
                // reaches a coverage edge when it starts or ends at
                // one.
                const Pfn a0 = lo + rng.below(hi - lo);
                const Pfn len = 1 + rng.below(std::min<Pfn>(600, hi - a0));
                lo = a0;
                hi = a0 + len;
            }
            n = hi - lo;
            if (n > 600)
                hi = lo + (n = 600);
            ra.freeRun(lo, n);
            for (Pfn pfn = lo; pfn < hi; ++pfn)
                la.freePages(pfn);
            const auto drop = [lo, hi](std::vector<Pfn> &live) {
                std::erase_if(live, [lo, hi](Pfn p) {
                    return p >= lo && p < hi;
                });
            };
            drop(run_live);
            drop(loop_live);
            ++cov.freeRuns;
            if (lo == ra.startPfn() || hi == ra.endPfn())
                ++cov.edgeRuns;
            if (run.mem.blockMt(lo) != run.mem.blockMt(hi - 1))
                ++cov.mixedBlockMtRuns;
        }
        if (n >= 100)
            ++cov.longRuns;
        ASSERT_TRUE(run.bytes() == loop.bytes())
            << "seed " << seed << " trial " << trial;
        ASSERT_EQ(indexView(run.mem), indexView(loop.mem))
            << "seed " << seed << " trial " << trial;
        // One index mark per run (or per carved stretch), against
        // one per page.
        const std::uint64_t marks =
            run.mem.contigIndex().resyncCalls() - calls_before;
        EXPECT_LE(marks, loop.mem.contigIndex().resyncCalls() -
                             loop_calls_before);
        for (const auto &alloc : run.allocs)
            alloc->checkInvariants();
    }
}

class BuddyRunFuzz
    : public ::testing::TestWithParam<std::tuple<bool, bool>>
{};

TEST_P(BuddyRunFuzz, RunsMatchThePageLoop)
{
    const auto [split, claim] = GetParam();
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        fuzz(seed * 7919 + split * 2 + claim, split, claim, cov);
        if (HasFatalFailure())
            return;
    }
    // The histories reach the cases the runs must get right.
    EXPECT_GT(cov.allocRuns, 100u);
    EXPECT_GT(cov.fallbackOrFailure, 5u);
    EXPECT_GT(cov.freeRuns, 100u);
    EXPECT_GT(cov.edgeRuns, 0u);
    EXPECT_GT(cov.mixedBlockMtRuns, 0u);
    EXPECT_GT(cov.longRuns, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, BuddyRunFuzz,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "Split" : "One") +
               (std::get<1>(info.param) ? "Claim" : "NoClaim");
    });

TEST(BuddyRun, CarvesABlockFrontToBack)
{
    PhysMem mem(8_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "carve");
    // The whole machine is max-order blocks; 3 pages come from the
    // first block on the list and leave 1 + 4 + 8 + ... behind.
    std::vector<Pfn> out(3);
    ASSERT_EQ(buddy.allocRun(3, MigrateType::Movable, AllocSource::User,
                             10, out.data()),
              3u);
    EXPECT_EQ(out[1], out[0] + 1);
    EXPECT_EQ(out[2], out[0] + 2);
    EXPECT_EQ(mem.frame(out[2]).owner(), 12u);
    EXPECT_EQ(buddy.freeBlocks(MigrateType::Movable, 0), 1u);
    EXPECT_EQ(buddy.freeBlocks(MigrateType::Movable, 1), 0u);
    EXPECT_EQ(buddy.freeBlocks(MigrateType::Movable, 2), 1u);
    EXPECT_EQ(buddy.stats().splits, 3 - 1 + 9u);
    buddy.freeRun(out[0], 3);
    EXPECT_EQ(buddy.freePageCount(), mem.numFrames());
    EXPECT_EQ(buddy.freeBlocks(MigrateType::Movable, maxOrder),
              mem.numFrames() >> maxOrder);
    buddy.checkInvariants();
}

} // namespace
} // namespace ctg
