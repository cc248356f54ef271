#include "contiguitas/region_manager.hh"

#include <algorithm>

#include "base/serde.hh"
#include "base/span_trace.hh"
#include "kernel/migrate.hh"
#include "sim/fault_injector.hh"

namespace ctg
{

namespace
{

constexpr Pfn resizeAlign = Pfn{1} << maxOrder;

Pfn
roundUpToAlign(Pfn pages)
{
    return (pages + resizeAlign - 1) & ~(resizeAlign - 1);
}

/**
 * The one normalisation of a region config for a machine of `total`
 * frames. Defaults are filled in, and `initialUnmovablePages` becomes
 * the first boundary. The floor is rounded up to the resize alignment
 * and capped at half of memory: below 128 MiB the default 64 MiB
 * floor exceeds it, and the half-memory cap wins. The ceiling is
 * raised to the first boundary if it sits below it. Resizing moves
 * the boundary in aligned steps and keeps it within
 * [minUnmovablePages, maxUnmovablePages], so these are the
 * boundaries a live server can reach.
 */
RegionManager::Config
normalize(RegionManager::Config c, Pfn total)
{
    if (c.initialUnmovablePages == 0)
        c.initialUnmovablePages = total / 16;
    if (c.maxUnmovablePages == 0)
        c.maxUnmovablePages = total / 2;
    c.minUnmovablePages =
        std::min<Pfn>(roundUpToAlign(c.minUnmovablePages), total / 2);
    c.initialUnmovablePages = std::min<Pfn>(
        std::max<Pfn>(roundUpToAlign(c.initialUnmovablePages),
                      c.minUnmovablePages),
        total / 2);
    c.maxUnmovablePages =
        std::max(c.maxUnmovablePages, c.initialUnmovablePages);
    return c;
}

} // namespace

RegionManager::RegionManager(PhysMem &mem, OwnerRegistry &owners,
                             Config config)
    : mem_(mem), owners_(owners),
      config_(normalize(config, mem.numFrames()))
{
    const Pfn boundary = config_.initialUnmovablePages;
    unmovable_ = std::make_unique<BuddyAllocator>(
        mem, 0, boundary, "unmovable", MigrateType::Unmovable);
    movable_ = std::make_unique<BuddyAllocator>(
        mem, boundary, mem.numFrames(), "movable",
        MigrateType::Movable);
}

RegionManager::RegionManager(PhysMem &mem, OwnerRegistry &owners,
                             Config config, serde::Reader &in)
    : mem_(mem), owners_(owners),
      config_(normalize(config, mem.numFrames()))
{
    const Pfn total = mem.numFrames();
    unmovable_ = std::make_unique<BuddyAllocator>(mem, in);
    movable_ = std::make_unique<BuddyAllocator>(mem, in);
    if (unmovable_->startPfn() != 0 ||
        unmovable_->endPfn() != movable_->startPfn() ||
        movable_->endPfn() != total)
        throw serde::Error(
            "region manager: allocators do not tile memory");
    const Pfn boundary = unmovable_->endPfn();
    if (boundary % resizeAlign !=
            config_.initialUnmovablePages % resizeAlign ||
        boundary < config_.minUnmovablePages ||
        boundary > config_.maxUnmovablePages)
        throw serde::Error(
            "region manager: restored boundary out of bounds");

    if (in.getBool()) {
        DeferredResize d;
        d.expand = in.getBool();
        d.pages = in.getU64();
        d.attempts = in.getU32();
        d.waitPumps = in.getU32();
        if (d.attempts > maxResizeRetries ||
            d.waitPumps > maxResizeBackoff)
            throw serde::Error(
                "region manager: deferred resize out of bounds");
        deferred_ = d;
    }
    Stats &s = stats_;
    for (std::uint64_t *field :
         {&s.expansions, &s.expansionFailures, &s.shrinks,
          &s.shrinkFailures, &s.evacuatedBlocks, &s.hwMigrations,
          &s.injectedEvacFails, &s.deferredEnqueued,
          &s.deferredRetries, &s.deferredCompleted,
          &s.deferredDropped, &s.deferredSuperseded})
        *field = in.getU64();
}

void
RegionManager::saveTo(serde::Writer &out) const
{
    unmovable_->saveTo(out);
    movable_->saveTo(out);
    out.putBool(deferred_.has_value());
    if (deferred_) {
        out.putBool(deferred_->expand);
        out.putU64(deferred_->pages);
        out.putU32(deferred_->attempts);
        out.putU32(deferred_->waitPumps);
    }
    const Stats &s = stats_;
    for (const std::uint64_t field :
         {s.expansions, s.expansionFailures, s.shrinks,
          s.shrinkFailures, s.evacuatedBlocks, s.hwMigrations,
          s.injectedEvacFails, s.deferredEnqueued, s.deferredRetries,
          s.deferredCompleted, s.deferredDropped,
          s.deferredSuperseded})
        out.putU64(field);
}

bool
RegionManager::hwMigrateBlock(BuddyAllocator &alloc, Pfn src,
                              AddrPref pref, Pfn *out_dst)
{
    if (!hwEnabled_)
        return false;

    CTG_SPAN_NAMED(span, Region, "region.hw_migrate",
                   {{"src", static_cast<std::int64_t>(src)}});

    const auto sf = mem_.frame(src);
    ctg_assert(!sf.isFree() && sf.isHead());
    // Contiguitas-HW moves pages whose translations can be
    // repointed: pinned user memory, IOMMU-mapped buffers, device
    // rings. Linear-map structures (slab, page tables, kernel text)
    // have raw pointers strewn through memory — not even hardware
    // redirection makes those movable (Section 2.1, type 1).
    const std::uint64_t owner = sf.owner();
    if (!owners_.relocatable(owner))
        return false;
    const unsigned order = sf.order();
    const MigrateType mt = sf.migrateType();
    const AllocSource source = sf.source();
    const bool pinned = sf.isPinned();

    const Pfn dst = alloc.allocPages(order, mt, source, owner, pref,
                                     /*allow_fallback=*/true);
    if (dst == invalidPfn)
        return false;

    // The LLC migration extension keeps the page accessible while it
    // is copied; software repoints the translation concurrently.
    if (!owners_.relocate(owner, src, dst)) {
        alloc.freePages(dst);
        return false;
    }
    if (pinned) {
        const Pfn count = Pfn{1} << order;
        mem_.setRangePinned(dst, dst + count, true);
        if (pinMoved_)
            pinMoved_(src, dst);
    }
    alloc.freePages(src);
    if (hwHook_)
        hwHook_(src, dst, order);
    ++stats_.hwMigrations;
    if (out_dst != nullptr)
        *out_dst = dst;
    span.arg("dst", static_cast<std::int64_t>(dst));
    span.arg("order", order);
    return true;
}

bool
RegionManager::evacuateBlock(BuddyAllocator &alloc, Pfn head,
                             Pfn range_lo, Pfn range_hi, bool allow_hw)
{
    (void)range_lo;
    (void)range_hi;

    CTG_SPAN_NAMED(span, Region, "region.evacuate_block",
                   {{"head", static_cast<std::int64_t>(head)}});

    // Injected evacuation veto: the block behaves as if nothing —
    // not even Contiguitas-HW — could move it right now, forcing the
    // resize onto its failure/retry path.
    if (faultInjector().shouldFail(FaultSite::RegionEvacFail)) {
        ++stats_.injectedEvacFails;
        return false;
    }

    const auto f = mem_.frame(head);
    // Pick a destination list the region actually has free space on:
    // the frame's own migratetype, falling back across lists.
    const MigrateType dst_mt =
        f.migrateType() == MigrateType::Isolate
            ? MigrateType::Unmovable
            : f.migrateType();
    const AddrPref pref =
        &alloc == unmovable_.get() ? AddrPref::Low : AddrPref::None;

    const MigrateResult r =
        migrateBlock(alloc, alloc, owners_, head, pref, dst_mt,
                     nullptr, /*allow_fallback=*/true);
    if (r == MigrateResult::Ok) {
        ++stats_.evacuatedBlocks;
        return true;
    }
    if (r == MigrateResult::NoMemory)
        return false;
    // Software cannot move it; only Contiguitas-HW can.
    if (allow_hw && hwMigrateBlock(alloc, head, pref, nullptr)) {
        ++stats_.evacuatedBlocks;
        return true;
    }
    return false;
}

bool
RegionManager::evacuateRange(BuddyAllocator &alloc, Pfn lo, Pfn hi)
{
    CTG_SPAN(Region, "region.evacuate_range",
             {{"lo", static_cast<std::int64_t>(lo)},
              {"hi", static_cast<std::int64_t>(hi)}});

    // Hop between allocated heads; the range is isolated, so
    // evacuation destinations always land outside [lo, hi) and each
    // re-query sees the state left by the previous evacuation.
    const ContigIndex &idx = mem_.contigIndex();
    Pfn pfn = lo;
    while (pfn < hi) {
        pfn = idx.firstAllocatedFrame(pfn, hi);
        if (pfn == invalidPfn)
            return true;
        const auto f = mem_.frame(pfn);
        if (!f.isHead()) {
            ++pfn;
            continue;
        }
        const Pfn span = Pfn{1} << f.order();
        if (!evacuateBlock(alloc, pfn, lo, hi, hwEnabled_))
            return false;
        pfn += span;
    }
    return true;
}

std::uint64_t
RegionManager::tryExpand(std::uint64_t pages,
                         bool *evacuation_blocked)
{
    if (evacuation_blocked != nullptr)
        *evacuation_blocked = false;
    const Pfn step = roundUpToAlign(pages);
    CTG_SPAN_NAMED(span, Region, "region.expand",
                   {{"pages", static_cast<std::int64_t>(step)},
                    {"boundary",
                     static_cast<std::int64_t>(boundary())}});
    const Pfn lo = boundary();
    const Pfn hi = lo + step;
    if (hi > movable_->endPfn() ||
        lo + step > config_.maxUnmovablePages ||
        step >= movable_->totalPages()) {
        ++stats_.expansionFailures;
        span.arg("rejected", 1);
        return 0;
    }

    movable_->isolateRange(lo, hi);

    const bool ok = evacuateRange(*movable_, lo, hi);

    if (!ok || !movable_->rangeFullyFree(lo, hi)) {
        movable_->unisolateRange(lo, hi, MigrateType::Movable);
        ++stats_.expansionFailures;
        if (evacuation_blocked != nullptr)
            *evacuation_blocked = true;
        span.arg("blocked", 1);
        return 0;
    }
    span.arg("moved", static_cast<std::int64_t>(step));

    movable_->detachRange(lo, hi);
    unmovable_->attachRange(lo, hi, MigrateType::Unmovable);
    ++stats_.expansions;
    return step;
}

std::uint64_t
RegionManager::tryShrink(std::uint64_t pages,
                         bool *evacuation_blocked)
{
    if (evacuation_blocked != nullptr)
        *evacuation_blocked = false;
    const Pfn step = roundUpToAlign(pages);
    CTG_SPAN_NAMED(span, Region, "region.shrink",
                   {{"pages", static_cast<std::int64_t>(step)},
                    {"boundary",
                     static_cast<std::int64_t>(boundary())}});
    const Pfn hi = boundary();
    if (step >= hi || hi - step < config_.minUnmovablePages) {
        ++stats_.shrinkFailures;
        span.arg("rejected", 1);
        return 0;
    }
    const Pfn lo = hi - step;

    unmovable_->isolateRange(lo, hi);

    const bool ok = evacuateRange(*unmovable_, lo, hi);

    if (!ok || !unmovable_->rangeFullyFree(lo, hi)) {
        unmovable_->unisolateRange(lo, hi, MigrateType::Unmovable);
        ++stats_.shrinkFailures;
        if (evacuation_blocked != nullptr)
            *evacuation_blocked = true;
        span.arg("blocked", 1);
        return 0;
    }
    span.arg("moved", static_cast<std::int64_t>(step));

    unmovable_->detachRange(lo, hi);
    movable_->attachRange(lo, hi, MigrateType::Movable);
    ++stats_.shrinks;
    return step;
}

std::uint64_t
RegionManager::expandUnmovable(std::uint64_t pages)
{
    bool evacuation_blocked = false;
    const std::uint64_t moved = tryExpand(pages, &evacuation_blocked);
    // Only evacuation failures are transient; bounds rejections are
    // not retried (the controller will re-evaluate anyway).
    if (moved == 0 && evacuation_blocked)
        deferResize(/*expand=*/true, pages);
    return moved;
}

std::uint64_t
RegionManager::shrinkUnmovable(std::uint64_t pages)
{
    bool evacuation_blocked = false;
    const std::uint64_t moved = tryShrink(pages, &evacuation_blocked);
    if (moved == 0 && evacuation_blocked)
        deferResize(/*expand=*/false, pages);
    return moved;
}

void
RegionManager::deferResize(bool expand, std::uint64_t pages)
{
    if (deferred_ && deferred_->expand == expand) {
        // Merge with the queued request; the larger goal wins and
        // the backoff clock keeps running.
        deferred_->pages = std::max(deferred_->pages, pages);
        return;
    }
    if (deferred_) {
        // Opposite direction queued: the controller changed its
        // mind, so the stale request is superseded rather than
        // retried against current pressure.
        ++stats_.deferredSuperseded;
    }
    DeferredResize d;
    d.expand = expand;
    d.pages = pages;
    d.attempts = 1;
    d.waitPumps = std::min(2u, maxResizeBackoff);
    deferred_ = d;
    ++stats_.deferredEnqueued;
    CTG_SPAN_EVENT(Region, "region.defer_resize",
                   {{"expand", expand ? 1 : 0},
                    {"pages", static_cast<std::int64_t>(pages)}});
}

std::uint64_t
RegionManager::pumpDeferredResizes()
{
    if (!deferred_)
        return 0;
    if (deferred_->waitPumps > 0) {
        --deferred_->waitPumps;
        CTG_SPAN_EVENT(Region, "region.defer_backoff",
                       {{"expand", deferred_->expand ? 1 : 0},
                        {"wait_pumps", deferred_->waitPumps + 1},
                        {"attempts", deferred_->attempts}});
        return 0;
    }

    CTG_SPAN_NAMED(span, Region, "region.pump_deferred",
                   {{"expand", deferred_->expand ? 1 : 0},
                    {"pages",
                     static_cast<std::int64_t>(deferred_->pages)},
                    {"attempt", deferred_->attempts + 1}});
    ++stats_.deferredRetries;
    bool evacuation_blocked = false;
    const std::uint64_t moved =
        deferred_->expand
            ? tryExpand(deferred_->pages, &evacuation_blocked)
            : tryShrink(deferred_->pages, &evacuation_blocked);
    if (moved != 0) {
        ++stats_.deferredCompleted;
        span.arg("completed", 1);
        deferred_.reset();
        return moved;
    }

    ++deferred_->attempts;
    if (!evacuation_blocked || deferred_->attempts > maxResizeRetries) {
        // Structural rejection (region hit a bound since we queued)
        // or out of retries: stop.
        ++stats_.deferredDropped;
        span.arg("dropped", 1);
        deferred_.reset();
        return 0;
    }
    // Capped exponential backoff: 2, 4, 8, 8, ... pump calls.
    deferred_->waitPumps =
        std::min(1u << deferred_->attempts, maxResizeBackoff);
    return 0;
}

std::uint64_t
RegionManager::defragUnmovable(std::uint64_t max_migrations)
{
    CTG_SPAN_NAMED(defrag_span, Region, "region.defrag",
                   {{"budget",
                     static_cast<std::int64_t>(max_migrations)}});
    std::uint64_t migrated = 0;
    const Pfn end = boundary();
    const ContigIndex &idx = mem_.contigIndex();

    // Walk 2 MB blocks top-down (near the border first) and evacuate
    // sparse ones toward the low end of the region. Occupancy comes
    // from one subtree query per block and the inner walk hops
    // between allocated heads.
    for (Pfn block = end; block >= pagesPerHuge && migrated < max_migrations;
         block -= pagesPerHuge) {
        const Pfn base = block - pagesPerHuge;
        const std::uint64_t used =
            pagesPerHuge - idx.freePagesIn(base, block);
        if (used == 0 || used > pagesPerHuge / 2)
            continue;

        for (Pfn pfn = base; pfn < block && migrated < max_migrations;) {
            pfn = idx.firstAllocatedFrame(pfn, block);
            if (pfn == invalidPfn)
                break;
            const auto f = mem_.frame(pfn);
            if (!f.isHead()) {
                ++pfn;
                continue;
            }
            const Pfn span = Pfn{1} << f.order();
            Pfn dst = invalidPfn;
            const MigrateResult r = migrateBlock(
                *unmovable_, *unmovable_, owners_, pfn, AddrPref::Low,
                f.migrateType(), &dst, /*allow_fallback=*/true);
            bool moved = r == MigrateResult::Ok;
            if (!moved && r == MigrateResult::Unmovable && hwEnabled_)
                moved = hwMigrateBlock(*unmovable_, pfn,
                                       AddrPref::Low, &dst);
            if (moved && dst != invalidPfn && dst >= base) {
                // Destination landed back in the sparse block; give
                // up on this block to avoid thrash.
                ++migrated;
                break;
            }
            if (moved)
                ++migrated;
            pfn += span;
        }
    }
    defrag_span.arg("migrated", static_cast<std::int64_t>(migrated));
    return migrated;
}

void
RegionManager::regStats(StatGroup group) const
{
    group.gauge("expansions",
                [this] { return double(stats_.expansions); },
                "successful unmovable-region growths");
    group.gauge("expansion_failures",
                [this] { return double(stats_.expansionFailures); });
    group.gauge("shrinks",
                [this] { return double(stats_.shrinks); },
                "successful unmovable-region shrinks");
    group.gauge("shrink_failures",
                [this] { return double(stats_.shrinkFailures); });
    group.gauge("evacuated_blocks",
                [this] { return double(stats_.evacuatedBlocks); },
                "blocks moved out of a resizing border range");
    group.gauge("hw_migrations",
                [this] { return double(stats_.hwMigrations); },
                "blocks only Contiguitas-HW could move");
    group.gauge("boundary_pfn",
                [this] { return double(boundary()); },
                "unmovable region covers [0, boundary)");
    group.gauge("unmovable_pages",
                [this] { return double(unmovable_->totalPages()); });
    group.gauge("injected_evac_fails",
                [this] { return double(stats_.injectedEvacFails); },
                "evacuations vetoed by the fault injector");
    group.gauge("deferred_enqueued",
                [this] { return double(stats_.deferredEnqueued); },
                "failed resizes queued for retry");
    group.gauge("deferred_retries",
                [this] { return double(stats_.deferredRetries); });
    group.gauge("deferred_completed",
                [this] { return double(stats_.deferredCompleted); },
                "queued resizes that eventually succeeded");
    group.gauge("deferred_dropped",
                [this] { return double(stats_.deferredDropped); },
                "queued resizes abandoned after the retry cap");
    group.gauge("deferred_superseded",
                [this] { return double(stats_.deferredSuperseded); },
                "queued resizes replaced by the opposite direction");
}

void
RegionManager::auditConfinement(AuditReport &report) const
{
    const Pfn b = boundary();
    const Pfn n = mem_.numFrames();

    // The violating frames are exactly the movable-migratetype
    // allocations inside [0, b) and the unmovable allocations in
    // [b, n); enumerate only those via index descents, in ascending
    // frame order. Stop once the report is full — further
    // violation() calls would be dropped anyway.
    const ContigIndex &idx = mem_.contigIndex();
    for (Pfn pfn = idx.firstMovableMtFrame(0, b); pfn != invalidPfn;) {
        report.violation("movable allocation at %llu inside unmovable "
                         "region [0, %llu)",
                         static_cast<unsigned long long>(pfn),
                         static_cast<unsigned long long>(b));
        if (report.violations.size() >= AuditReport::maxViolations)
            return;
        const Pfn next = pfn + 1;
        pfn = next >= b ? invalidPfn : idx.firstMovableMtFrame(next, b);
    }
    for (Pfn pfn = idx.firstUnmovableFrame(b, n); pfn != invalidPfn;) {
        report.violation("unmovable allocation at %llu outside the "
                         "unmovable region [0, %llu)",
                         static_cast<unsigned long long>(pfn),
                         static_cast<unsigned long long>(b));
        if (report.violations.size() >= AuditReport::maxViolations)
            return;
        const Pfn next = pfn + 1;
        pfn = next >= n ? invalidPfn : idx.firstUnmovableFrame(next, n);
    }
}

void
RegionManager::checkConfinement() const
{
    AuditReport report;
    auditConfinement(report);
    if (!report.ok())
        panic("%s", report.violations.front().c_str());
}

void
RegionManager::attachAuditorChecks(MemAuditor &auditor)
{
    auditor.addAllocator(unmovable_.get());
    auditor.addAllocator(movable_.get());
    auditor.addCheck("region.accounting", [this](AuditReport &r) {
        if (unmovable_->startPfn() != 0)
            r.violation("unmovable region starts at %llu, not 0",
                        static_cast<unsigned long long>(
                            unmovable_->startPfn()));
        if (unmovable_->endPfn() != movable_->startPfn())
            r.violation(
                "regions not adjacent: unmovable ends %llu, movable "
                "starts %llu",
                static_cast<unsigned long long>(unmovable_->endPfn()),
                static_cast<unsigned long long>(
                    movable_->startPfn()));
        if (movable_->endPfn() != mem_.numFrames())
            r.violation(
                "movable region ends at %llu, not %llu",
                static_cast<unsigned long long>(movable_->endPfn()),
                static_cast<unsigned long long>(mem_.numFrames()));
        if (unmovable_->totalPages() > config_.maxUnmovablePages)
            r.violation(
                "unmovable region %llu pages exceeds cap %llu",
                static_cast<unsigned long long>(
                    unmovable_->totalPages()),
                static_cast<unsigned long long>(
                    config_.maxUnmovablePages));
    });
    auditor.addCheck("region.confinement", [this](AuditReport &r) {
        auditConfinement(r);
    });
}

} // namespace ctg
