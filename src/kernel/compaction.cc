#include "kernel/compaction.hh"

#include "base/span_trace.hh"
#include "kernel/migrate.hh"
#include "mem/contig_index.hh"

namespace ctg
{

namespace
{

/** Whether a block of free pages of target order exists already. */
bool
haveTargetBlock(const BuddyAllocator &alloc, unsigned target_order)
{
    return alloc.largestFreeOrder() >= static_cast<int>(target_order);
}

/**
 * Evacuate the movable allocations of one mixed pageblock into
 * high-address free space (the free scanner analogue).
 */
void
evacuatePageblock(BuddyAllocator &alloc, const OwnerRegistry &registry,
                  Pfn block, CompactionResult &result,
                  std::uint64_t max_migrations)
{
    PhysMem &mem = alloc.mem();
    for (Pfn pfn = block; pfn < block + pagesPerHuge;) {
        const auto f = mem.frame(pfn);
        const Pfn step = f.isHead() ? (Pfn{1} << f.order()) : 1;
        if (f.isFree() || !f.isHead() ||
            f.isUnmovableAllocation() ||
            f.migrateType() != MigrateType::Movable) {
            if (!f.isFree() && f.isHead() &&
                f.isUnmovableAllocation()) {
                ++result.skippedUnmovable;
            }
            pfn += step;
            continue;
        }
        if (result.migrated >= max_migrations)
            break;
        Pfn dst = invalidPfn;
        const MigrateResult mr = migrateBlock(
            alloc, alloc, registry, pfn, AddrPref::High,
            MigrateType::Movable, &dst);
        switch (mr) {
          case MigrateResult::Ok:
            ++result.migrated;
            break;
          case MigrateResult::NoMemory:
            ++result.failedNoMem;
            break;
          case MigrateResult::Unmovable:
            ++result.skippedUnmovable;
            break;
        }
        pfn += step;
    }
}

} // namespace

/**
 * Migrate scanner: visit the pageblocks of [lo, hi) bottom-up, jumping
 * straight between mixed ones (some free, some allocated-movable) via
 * ContigIndex::firstMixedBlock and counting the taint of each skipped
 * gap in bulk. Fully-allocated blocks are not worth evacuating; they
 * would just shuffle memory. Gaps contain no migrations, so the bulk
 * count sees the state a block-by-block walk would, and re-querying
 * after each evacuation observes destination blocks the evacuation
 * itself may have made mixed (DESIGN.md §12).
 */
CompactionResult
compactRange(BuddyAllocator &alloc, const OwnerRegistry &registry,
             Pfn lo, Pfn hi, std::uint64_t max_migrations)
{
    // Callers pass buddy zone edges, which move in whole pageblocks.
    ctg_assert(lo % pagesPerHuge == 0);
    CTG_SPAN_NAMED(span, Compaction, "compact.range",
                   {{"lo", static_cast<std::int64_t>(lo)},
                    {"hi", static_cast<std::int64_t>(hi)}});
    CompactionResult result;
    const ContigIndex &idx = alloc.mem().contigIndex();
    // Whole pageblocks only: base + pagesPerHuge <= hi.
    const Pfn end = lo + ((hi - lo) / pagesPerHuge) * pagesPerHuge;

    Pfn block = lo;
    while (block < end && result.migrated < max_migrations) {
        const Pfn next = idx.firstMixedBlock(block, end);
        const Pfn gap_end = next == invalidPfn ? end : next;
        // Nothing mutates across the gap, so its taint is one range
        // count.
        result.blockedPageblocks +=
            idx.taintedBlocksIn(block, gap_end, hugeOrder);
        if (next == invalidPfn)
            break;
        if (idx.blockClass(next).unmovable > 0)
            ++result.blockedPageblocks;
        evacuatePageblock(alloc, registry, next, result,
                          max_migrations);
        block = next + pagesPerHuge;
    }

    span.arg("migrated", static_cast<std::int64_t>(result.migrated));
    span.arg("blocked", static_cast<std::int64_t>(
                            result.blockedPageblocks));
    span.arg("skipped", static_cast<std::int64_t>(
                            result.skippedUnmovable));
    span.arg("nomem", static_cast<std::int64_t>(result.failedNoMem));
    return result;
}

CompactionResult
compactUntil(BuddyAllocator &alloc, const OwnerRegistry &registry,
             unsigned target_order, std::uint64_t max_migrations)
{
    CompactionResult total;
    if (haveTargetBlock(alloc, target_order)) {
        total.targetReached = true;
        return total;
    }

    CTG_SPAN_NAMED(span, Compaction, "compact.until",
                   {{"target_order", target_order},
                    {"budget",
                     static_cast<std::int64_t>(max_migrations)}});

    PhysMem &mem = alloc.mem();
    // Run bounded passes; each pass re-walks because freed space
    // changes which pageblocks are mixed.
    std::uint64_t budget = max_migrations;
    for (int pass = 0; pass < 4 && budget > 0; ++pass) {
        const Pfn lo = alloc.startPfn();
        const Pfn hi = alloc.endPfn();
        // Early exit: no mixed pageblock means a pass cannot migrate
        // anything — it would only recount the blocked snapshot,
        // fail to reach the target, and stop. Do exactly that
        // without opening a pass.
        const Pfn end = lo + ((hi - lo) / pagesPerHuge) * pagesPerHuge;
        const ContigIndex &idx = mem.contigIndex();
        if (idx.mixedBlocksIn(lo, end) == 0) {
            total.blockedPageblocks =
                idx.taintedBlocksIn(lo, end, hugeOrder);
            if (haveTargetBlock(alloc, target_order))
                total.targetReached = true;
            break;
        }
        CompactionResult r = compactRange(alloc, registry, lo, hi,
                                          budget);
        total.migrated += r.migrated;
        total.failedNoMem += r.failedNoMem;
        total.skippedUnmovable += r.skippedUnmovable;
        // Deliberately a final-pass *snapshot*, not a sum: passes
        // revisit the same pageblocks, so accumulating would count
        // each blocked pageblock once per pass. The last pass's
        // count is the current number of blocked pageblocks in the
        // zone (asserted by CompactUntilBlockedPageblocksIsSnapshot).
        total.blockedPageblocks = r.blockedPageblocks;
        budget -= std::min(budget, r.migrated);
        if (haveTargetBlock(alloc, target_order)) {
            total.targetReached = true;
            break;
        }
        if (r.migrated == 0)
            break;
    }
    span.arg("migrated", static_cast<std::int64_t>(total.migrated));
    span.arg("reached", total.targetReached ? 1 : 0);
    span.arg("blocked",
             static_cast<std::int64_t>(total.blockedPageblocks));
    return total;
}

} // namespace ctg
