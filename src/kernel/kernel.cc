#include "kernel/kernel.hh"

#include <algorithm>
#include <map>

#include "base/serde.hh"
#include "base/span_trace.hh"
#include "kernel/contig_alloc.hh"
#include "kernel/vanilla_policy.hh"
#include "mem/auditor.hh"
#include "sim/fault_injector.hh"

namespace ctg
{

namespace
{

/** Background compaction (kcompactd) migrations per second. */
constexpr double kcompactdBudgetPerSec = 4096;
/** Low watermark as a fraction of total pages; direct reclaim kicks
 * in below it. */
constexpr double lowWatermarkFrac = 0.02;
/** Direct-reclaim stall charged per failed allocation (us). */
constexpr double reclaimStallUs = 1500.0;

} // namespace

Kernel::PolicyFactory
Kernel::vanillaPolicy()
{
    return [](Kernel &kernel) -> std::unique_ptr<MemPolicy> {
        return std::make_unique<VanillaPolicy>(kernel.mem());
    };
}

Kernel::Kernel(const KernelConfig &config, const PolicyFactory &factory)
    : config_(config), mem_(std::make_unique<PhysMem>(config.memBytes)),
      rng_(config.seed)
{
    policy_ = factory(*this);
    ctg_assert(policy_ != nullptr);
    lowWatermark_ = static_cast<std::uint64_t>(
        lowWatermarkFrac * static_cast<double>(mem_->numFrames()));
    bootAllocations();
}

Kernel::Kernel(const KernelConfig &config)
    : Kernel(config, vanillaPolicy())
{}

Kernel::Kernel(const KernelConfig &config,
               const PolicyFactory &factory, serde::Reader &in)
    : config_(config), mem_(std::make_unique<PhysMem>(config.memBytes)),
      rng_(config.seed)
{
    // Stream order matches saveTo(): physical memory first (the
    // policy's allocators reference restored frames), then the
    // policy, then the kernel's own state. No bootAllocations() —
    // the restored frame table already holds them.
    mem_->loadFrom(in);
    policy_ = factory(*this);
    ctg_assert(policy_ != nullptr);
    lowWatermark_ = static_cast<std::uint64_t>(
        lowWatermarkFrac * static_cast<double>(mem_->numFrames()));

    const std::uint64_t clientCount = in.getU64();
    if (clientCount >= 0x10000)
        throw serde::Error("kernel: client count out of range");
    owners_.restorePadTo(static_cast<std::size_t>(clientCount));

    Psi::SavedState psi;
    for (Psi *target : {&psiMovable_, &psiUnmovable_}) {
        psi.nowUs = in.getDouble();
        psi.pendingStallUs = in.getDouble();
        psi.decayedStall = in.getDouble();
        psi.elapsedUs = in.getDouble();
        psi.totalStallUs = in.getDouble();
        target->restoreState(psi);
    }
    rng_.setRawState(in.getRngState());
    bootPages_ = in.getPodVector<Pfn>();
    for (const Pfn head : bootPages_)
        if (head >= mem_->numFrames())
            throw serde::Error("kernel: boot page out of range");

    Counters &c = counters_;
    for (std::uint64_t *field :
         {&c.allocRetries, &c.allocFailures, &c.directReclaims,
          &c.directCompactions, &c.pins, &c.unpins,
          &c.reclaimedPages, &c.kcompactdRuns, &c.compactMigrated,
          &c.compactFailedNoMem, &c.compactSkippedUnmovable})
        *field = in.getU64();

    nextPinId_ = in.getU64();
    const std::uint64_t pinCount = in.getU64();
    if (pinCount > mem_->numFrames())
        throw serde::Error("kernel: pin table larger than memory");
    for (std::uint64_t i = 0; i < pinCount; ++i) {
        const std::uint64_t id = in.getU64();
        const Pfn pfn = in.getU64();
        if (id == 0 || id >= nextPinId_ || pfn >= mem_->numFrames())
            throw serde::Error("kernel: pin entry out of range");
        if (!pinPfnById_.emplace(id, pfn).second ||
            !pinIdByPfn_.emplace(pfn, id).second)
            throw serde::Error("kernel: duplicate pin entry");
    }
    nowSeconds_ = in.getDouble();
    kcompactdCarry_ = in.getDouble();
}

void
Kernel::saveTo(serde::Writer &out) const
{
    mem_->saveTo(out);
    policy_->saveTo(out);
    out.putU64(owners_.clientCount());

    for (const Psi *source : {&psiMovable_, &psiUnmovable_}) {
        const Psi::SavedState psi = source->savedState();
        out.putDouble(psi.nowUs);
        out.putDouble(psi.pendingStallUs);
        out.putDouble(psi.decayedStall);
        out.putDouble(psi.elapsedUs);
        out.putDouble(psi.totalStallUs);
    }
    out.putRngState(rng_.rawState());
    out.putPodVector(bootPages_);

    const Counters &c = counters_;
    for (const std::uint64_t field :
         {c.allocRetries, c.allocFailures, c.directReclaims,
          c.directCompactions, c.pins, c.unpins, c.reclaimedPages,
          c.kcompactdRuns, c.compactMigrated, c.compactFailedNoMem,
          c.compactSkippedUnmovable})
        out.putU64(field);

    out.putU64(nextPinId_);
    // Pin handles: id -> pfn, written in id order (the two
    // unordered maps are exact inverses; both rebuild from this).
    const std::map<std::uint64_t, Pfn> sorted(pinPfnById_.begin(),
                                              pinPfnById_.end());
    out.putU64(sorted.size());
    for (const auto &[id, pfn] : sorted) {
        out.putU64(id);
        out.putU64(pfn);
    }
    out.putDouble(nowSeconds_);
    out.putDouble(kcompactdCarry_);
}

void
Kernel::bootAllocations()
{
    // Kernel text and immortal boot-time structures. These are the
    // allocations Contiguitas parks at the far end of the unmovable
    // region (Section 3.2).
    const std::uint64_t text_pages =
        config_.kernelTextBytes / pageBytes;
    std::uint64_t remaining = text_pages;
    while (remaining > 0) {
        const unsigned order =
            std::min<unsigned>(maxOrder,
                               remaining >= (1u << maxOrder)
                                   ? maxOrder
                                   : 0);
        AllocRequest req;
        req.order = order;
        req.mt = MigrateType::Unmovable;
        req.source = AllocSource::KernelText;
        req.lifetime = Lifetime::Immortal;
        const Pfn head = policy_->alloc(req);
        if (head == invalidPfn)
            fatal("cannot place kernel text at boot");
        bootPages_.push_back(head);
        remaining -= std::min<std::uint64_t>(remaining,
                                             Pfn{1} << order);
    }
}

void
Kernel::checkLive(const char *what) const
{
    if (tearingDown_)
        panic("%s on a kernel being torn down", what);
}

void
Kernel::advanceSeconds(double dt)
{
    checkLive("advanceSeconds");
    ctg_assert(dt >= 0);
    nowSeconds_ += dt;
    const double now_us = nowSeconds_ * 1e6;
    psiMovable_.advanceTo(now_us);
    psiUnmovable_.advanceTo(now_us);
    policy_->tick(static_cast<std::uint32_t>(nowSeconds_));

    // kcompactd: proactive background compaction of the movable
    // space, paced by wall-clock time.
    kcompactdCarry_ += dt * kcompactdBudgetPerSec;
    if (kcompactdCarry_ >= 1.0) {
        const auto budget = static_cast<std::uint64_t>(kcompactdCarry_);
        kcompactdCarry_ -= static_cast<double>(budget);
        CTG_SPAN(Compaction, "kernel.kcompactd",
                 {{"budget", static_cast<std::int64_t>(budget)}});
        BuddyAllocator &movable = policy_->movableAllocator();
        const CompactionResult r = compactRange(
            movable, owners_, movable.startPfn(), movable.endPfn(), budget);
        counters_.compactMigrated += r.migrated;
        counters_.compactFailedNoMem += r.failedNoMem;
        counters_.compactSkippedUnmovable += r.skippedUnmovable;
        ++counters_.kcompactdRuns;
    }
}

Pfn
Kernel::allocPages(const AllocRequest &req)
{
    checkLive("allocPages");
    const Pfn head = policy_->alloc(req);
    return head != invalidPfn ? head : allocSlow(req);
}

void
Kernel::allocRun(const AllocRequest &req, std::uint64_t n, Pfn *out)
{
    checkLive("allocRun");
    // Both policies serve a movable order-0 alloc from their movable
    // allocator, so its allocRun is exactly that alloc loop.
    ctg_assert(req.mt == MigrateType::Movable && req.order == 0);
    BuddyAllocator &movable = policy_->movableAllocator();
    AllocRequest page = req;
    std::uint64_t done = 0;
    while (done < n) {
        done += movable.allocRun(n - done, req.mt, req.source,
                                 req.owner + done, out + done);
        if (done == n)
            break;
        // The allocator's attempt at page `done` failed: finish it as
        // allocPages would.
        page.owner = req.owner + done;
        out[done++] = allocSlow(page);
    }
}

Pfn
Kernel::allocSlow(const AllocRequest &req)
{
    // Slow path: charge a stall to the region this request targets,
    // reclaim, optionally compact, retry.
    CTG_SPAN_NAMED(span, Kernel, "kernel.alloc_slow",
                   {{"order", req.order},
                    {"movable",
                     req.mt == MigrateType::Movable ? 1 : 0}});
    Psi &psi = req.mt == MigrateType::Movable ? psiMovable_
                                              : psiUnmovable_;
    psi.recordStall(reclaimStallUs);
    ++counters_.allocRetries;
    ++counters_.directReclaims;
    const std::uint64_t want = (Pfn{1} << req.order) * 4;
    counters_.reclaimedPages += reclaim(want);

    Pfn head = policy_->alloc(req);
    if (head != invalidPfn) {
        span.arg("after_reclaim", 1);
        return head;
    }

    // Huge-page faults fail fast in defer mode (khugepaged promotes
    // later); smaller high-order requests compact directly.
    const bool may_compact =
        req.mt == MigrateType::Movable && req.order > 0 &&
        (req.order < hugeOrder || config_.thpDirectCompact);
    if (may_compact) {
        ++counters_.directCompactions;
        psi.recordStall(reclaimStallUs);
        compact(req.order);
        head = policy_->alloc(req);
        if (head != invalidPfn) {
            span.arg("after_compact", 1);
            return head;
        }
    }

    psi.recordStall(reclaimStallUs);
    ++counters_.allocFailures;
    span.arg("failed", 1);
    return invalidPfn;
}

void
Kernel::freePages(Pfn head)
{
    if (tearingDown_)
        return;
    policy_->free(head);
}

void
Kernel::freeRun(Pfn lo, std::uint64_t n)
{
    if (tearingDown_)
        return;
    policy_->freeRun(lo, n);
}

Pfn
Kernel::allocGigantic(std::uint64_t owner)
{
    checkLive("allocGigantic");
    Pfn head = policy_->allocGigantic(AllocSource::User, owner);
    if (head != invalidPfn)
        return head;

    // HugeTLB's dynamic path works hard: reclaim enough free memory
    // for the evacuees, then run alloc_contig_range — isolate a
    // candidate gigabyte and migrate everything movable out of it.
    // On a vanilla kernel scattered unmovable pages block every
    // candidate window; on Contiguitas the movable region is clean
    // by construction.
    CTG_SPAN(Kernel, "kernel.alloc_gigantic_slow");
    psiMovable_.recordStall(reclaimStallUs * 4);
    ++counters_.directReclaims;
    counters_.reclaimedPages +=
        reclaim(pagesPerGiga + pagesPerGiga / 4);
    ++counters_.directCompactions;
    return allocContigRange(policy_->movableAllocator(), owners_,
                            gigaOrder, MigrateType::Movable,
                            AllocSource::User, owner);
}

Pfn
Kernel::pinPages(Pfn head)
{
    checkLive("pinPages");
    ++counters_.pins;
    return policy_->pin(head);
}

void
Kernel::unpinPages(Pfn head)
{
    if (tearingDown_)
        return;
    ++counters_.unpins;
    policy_->unpin(head);
    // Retire any handle bound to this location.
    const auto it = pinIdByPfn_.find(head);
    if (it != pinIdByPfn_.end()) {
        pinPfnById_.erase(it->second);
        pinIdByPfn_.erase(it);
    }
}

std::uint64_t
Kernel::pinPagesId(Pfn head)
{
    const Pfn where = pinPages(head);
    if (where == invalidPfn)
        return 0;
    const std::uint64_t id = nextPinId_++;
    pinIdByPfn_[where] = id;
    pinPfnById_[id] = where;
    return id;
}

void
Kernel::unpinById(std::uint64_t id)
{
    if (tearingDown_)
        return;
    const auto it = pinPfnById_.find(id);
    if (it == pinPfnById_.end())
        return; // already force-unpinned (process exit)
    const Pfn where = it->second;
    pinPfnById_.erase(it);
    pinIdByPfn_.erase(where);
    if (mem_->frame(where).isPinned()) {
        ++counters_.unpins;
        policy_->unpin(where);
    }
}

Pfn
Kernel::pinnedLocation(std::uint64_t id) const
{
    const auto it = pinPfnById_.find(id);
    return it == pinPfnById_.end() ? invalidPfn : it->second;
}

void
Kernel::notifyPinnedMoved(Pfn old_head, Pfn new_head)
{
    const auto it = pinIdByPfn_.find(old_head);
    if (it == pinIdByPfn_.end())
        return;
    const std::uint64_t id = it->second;
    pinIdByPfn_.erase(it);
    pinIdByPfn_[new_head] = id;
    pinPfnById_[id] = new_head;
}

void
Kernel::registerShrinker(Shrinker *shrinker)
{
    ctg_assert(shrinker != nullptr);
    shrinkers_.push_back(shrinker);
}

std::uint64_t
Kernel::reclaim(std::uint64_t target_pages)
{
    CTG_SPAN_NAMED(span, Kernel, "kernel.reclaim",
                   {{"target",
                     static_cast<std::int64_t>(target_pages)}});

    // Injected reclaim failure: every shrinker comes back empty, so
    // the caller's no-progress path (stall accounting, compaction,
    // final allocation failure) is exercised.
    if (faultInjector().shouldFail(FaultSite::KernelReclaimFail))
        return 0;

    std::uint64_t freed = 0;
    for (Shrinker *shrinker : shrinkers_) {
        if (freed >= target_pages)
            break;
        freed += shrinker->shrink(target_pages - freed);
    }
    span.arg("freed", static_cast<std::int64_t>(freed));
    return freed;
}

void
Kernel::attachAuditorChecks(MemAuditor &auditor)
{
    auditor.addCheck("kernel.owners", [this](AuditReport &r) {
        // Owner-handle conservation: every allocated block's handle
        // must name a registered client slot (live or retired) or be
        // noOwner. A handle above the registered range means frame
        // metadata was corrupted or stamped outside the registry.
        const Pfn n = mem_->numFrames();
        for (Pfn pfn = 0; pfn < n; ++pfn) {
            const auto f = mem_->frame(pfn);
            const std::uint64_t owner = f.isFree() ? 0 : f.owner();
            if (f.isFree() || !f.isHead() ||
                owner == OwnerRegistry::noOwner) {
                continue;
            }
            const std::uint64_t cid = owner >> 48;
            if (cid == 0 || cid > owners_.clientCount()) {
                r.violation(
                    "frame %llu owner handle %#llx names unknown "
                    "client %llu",
                    static_cast<unsigned long long>(pfn),
                    static_cast<unsigned long long>(owner),
                    static_cast<unsigned long long>(cid));
            }
        }
    });
    auditor.addCheck("kernel.pins", [this](AuditReport &r) {
        if (pinIdByPfn_.size() != pinPfnById_.size()) {
            r.violation("pin maps out of sync: %zu by-pfn vs %zu "
                        "by-id", pinIdByPfn_.size(),
                        pinPfnById_.size());
        }
        for (const auto &[id, pfn] : pinPfnById_) {
            const auto it = pinIdByPfn_.find(pfn);
            if (it == pinIdByPfn_.end() || it->second != id) {
                r.violation(
                    "pin handle %llu -> frame %llu has no matching "
                    "reverse entry",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(pfn));
                continue;
            }
            const auto f = mem_->frame(pfn);
            if (f.isFree() || !f.isHead() || !f.isPinned()) {
                r.violation(
                    "pin handle %llu -> frame %llu which is not an "
                    "allocated pinned head (flags %u)",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(pfn),
                    unsigned(f.flags()));
            }
        }
    });
}

std::unique_ptr<MemAuditor>
Kernel::makeAuditor()
{
    auto auditor = std::make_unique<MemAuditor>(*mem_);
    policy_->attachAuditorChecks(*auditor);
    attachAuditorChecks(*auditor);
    return auditor;
}

CompactionResult
Kernel::compact(unsigned target_order, std::uint64_t max_migrations)
{
    // The policy may redirect the effort (over-compact THP-style or
    // cap it); the default target is exactly what was requested.
    const CompactionResult r =
        compactUntil(policy_->movableAllocator(), owners_,
                     policy_->compactUntilTarget(target_order),
                     max_migrations);
    counters_.compactMigrated += r.migrated;
    counters_.compactFailedNoMem += r.failedNoMem;
    counters_.compactSkippedUnmovable += r.skippedUnmovable;
    return r;
}

void
Kernel::regStats(StatGroup group) const
{
    group.gauge("alloc_retries",
                [this] { return double(counters_.allocRetries); },
                "allocations that entered the reclaim slow path");
    group.gauge("alloc_failures",
                [this] { return double(counters_.allocFailures); },
                "allocations that failed after reclaim/compaction");
    group.gauge("direct_reclaims",
                [this] { return double(counters_.directReclaims); });
    group.gauge(
        "direct_compactions",
        [this] { return double(counters_.directCompactions); });
    group.gauge("pins", [this] { return double(counters_.pins); });
    group.gauge("unpins",
                [this] { return double(counters_.unpins); });
    group.gauge("reclaimed_pages",
                [this] { return double(counters_.reclaimedPages); });
    group.gauge("kcompactd_runs",
                [this] { return double(counters_.kcompactdRuns); });

    const StatGroup compact_group = group.group("compact");
    compact_group.gauge(
        "migrated",
        [this] { return double(counters_.compactMigrated); },
        "blocks relocated by any compaction run");
    compact_group.gauge(
        "failed_nomem",
        [this] { return double(counters_.compactFailedNoMem); });
    compact_group.gauge(
        "skipped_unmovable",
        [this] { return double(counters_.compactSkippedUnmovable); },
        "blocks compaction could not move");

    const StatGroup index_group = group.group("contig_index");
    index_group.gauge(
        "resync_calls",
        [this] { return double(mem_->contigIndex().resyncCalls()); },
        "frame ranges marked for the next index read");
    index_group.gauge(
        "frames_rescanned",
        [this] {
            return double(mem_->contigIndex().framesRescanned());
        },
        "frames covered by those marks");
    index_group.gauge(
        "flushes",
        [this] { return double(mem_->contigIndex().flushes()); },
        "index reads that found marked words");
    index_group.gauge(
        "words_rebuilt",
        [this] { return double(mem_->contigIndex().wordsRebuilt()); },
        "64-frame plane words rebuilt by those reads");
    index_group.gauge(
        "free_pages",
        [this] { return double(mem_->contigIndex().freePages()); });
    index_group.gauge(
        "unmovable_pages",
        [this] {
            return double(mem_->contigIndex().unmovablePages());
        });
    index_group.gauge(
        "pinned_pages",
        [this] { return double(mem_->contigIndex().pinnedPages()); });

    group.gauge("now_seconds",
                [this] { return nowSeconds_; },
                "simulated kernel wall clock");
    group.gauge("free_user_pages",
                [this] { return double(policy_->freeUserPages()); });
    group.gauge(
        "free_kernel_pages",
        [this] { return double(policy_->freeKernelPages()); });
    group.gauge("psi_movable",
                [this] { return psiMovable_.pressure(); },
                "PSI pressure of the movable space, percent");
    group.gauge("psi_unmovable",
                [this] { return psiUnmovable_.pressure(); },
                "PSI pressure of the unmovable space, percent");
}

} // namespace ctg
