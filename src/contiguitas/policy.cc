#include "contiguitas/policy.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "base/logging.hh"
#include "base/serde.hh"
#include "base/span_trace.hh"
#include "kernel/migrate.hh"
#include "kernel/vanilla_policy.hh"

namespace ctg
{

namespace
{

bool
parseU64Strict(const std::string &value, std::uint64_t *out)
{
    if (value.empty() || value[0] < '0' || value[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    *out = v;
    return true;
}

bool
parseDoubleStrict(const std::string &value, double *out)
{
    if (value.empty() ||
        !((value[0] >= '0' && value[0] <= '9') || value[0] == '.'))
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    *out = v;
    return true;
}

} // namespace

bool
ResizeTuning::set(const std::string &key, const std::string &value)
{
    if (key == "period") {
        double v = 0.0;
        if (!parseDoubleStrict(value, &v) || v <= 0.0 || v > 3600.0) {
            warn_once("resize tuning: period=%s out of range (0, 3600]"
                      "; keeping %g", value.c_str(), periodSec);
            return false;
        }
        periodSec = v;
        return true;
    }
    if (key == "step") {
        std::uint64_t v = 0;
        if (!parseU64Strict(value, &v) || v < 1) {
            warn_once("resize tuning: step=%s invalid (want pages >= 1)"
                      "; keeping %llu", value.c_str(),
                      static_cast<unsigned long long>(stepPages));
            return false;
        }
        stepPages = v;
        return true;
    }
    if (key == "max") {
        std::uint64_t v = 0;
        if (!parseU64Strict(value, &v) || v < 1) {
            warn_once("resize tuning: max=%s invalid (want pages >= 1)"
                      "; keeping %llu", value.c_str(),
                      static_cast<unsigned long long>(maxPerTick));
            return false;
        }
        maxPerTick = v;
        return true;
    }
    if (key == "watermark") {
        double v = 0.0;
        if (!parseDoubleStrict(value, &v) || v < 0.0 || v > 0.5) {
            warn_once("resize tuning: watermark=%s out of range "
                      "[0, 0.5]; keeping %g", value.c_str(),
                      unmovFreeWatermark);
            return false;
        }
        unmovFreeWatermark = v;
        return true;
    }
    if (key == "slack") {
        double v = 0.0;
        if (!parseDoubleStrict(value, &v) || v < 0.0 || v > 1.0) {
            warn_once("resize tuning: slack=%s out of range [0, 1]; "
                      "keeping %g", value.c_str(), shrinkFreeSlack);
            return false;
        }
        shrinkFreeSlack = v;
        return true;
    }
    warn_once("resize tuning: unknown knob '%s' (=%s) ignored",
              key.c_str(), value.c_str());
    return false;
}

ContiguitasPolicy::ContiguitasPolicy(Kernel &kernel,
                                     const ContiguitasConfig &config)
    : kernel_(kernel), config_(config),
      regions_(kernel.mem(), kernel.owners(), config.region),
      controller_(config.resize)
{
    if (config_.hwMigration)
        regions_.enableHwMigration();
    regions_.setPinMovedCallback([this](Pfn src, Pfn dst) {
        kernel_.notifyPinnedMoved(src, dst);
    });
    if (config_.placementBias) {
        // The region is small; a deep best-of scan keeps long-lived
        // allocations packed away from the border.
        regions_.unmovable().setPrefScanCap(256);
    }
}

ContiguitasPolicy::ContiguitasPolicy(Kernel &kernel,
                                     const ContiguitasConfig &config,
                                     serde::Reader &in)
    : kernel_(kernel), config_(config),
      regions_(kernel.mem(), kernel.owners(), config.region, in),
      controller_(config.resize)
{
    // Hooks are process-local function objects: re-attach exactly as
    // in cold construction (the serialized prefScanCap already holds
    // the bias value, so re-applying it is idempotent).
    if (config_.hwMigration)
        regions_.enableHwMigration();
    regions_.setPinMovedCallback([this](Pfn src, Pfn dst) {
        kernel_.notifyPinnedMoved(src, dst);
    });

    for (std::uint64_t *field :
         {&stats_.pinMigrations, &stats_.pinMigrationFailures,
          &stats_.urgentExpansions, &stats_.controllerExpands,
          &stats_.controllerShrinks})
        *field = in.getU64();
    lastResizeSec_ = in.getDouble();

    ResizeController::Stats cs;
    cs.evaluations = in.getU64();
    cs.expandDecisions = in.getU64();
    cs.shrinkDecisions = in.getU64();
    cs.noneDecisions = in.getU64();
    controller_.restoreStats(cs);
}

void
ContiguitasPolicy::saveTo(serde::Writer &out) const
{
    regions_.saveTo(out);
    for (const std::uint64_t field :
         {stats_.pinMigrations, stats_.pinMigrationFailures,
          stats_.urgentExpansions, stats_.controllerExpands,
          stats_.controllerShrinks})
        out.putU64(field);
    out.putDouble(lastResizeSec_);

    const ResizeController::Stats &cs = controller_.stats();
    out.putU64(cs.evaluations);
    out.putU64(cs.expandDecisions);
    out.putU64(cs.shrinkDecisions);
    out.putU64(cs.noneDecisions);
}

AddrPref
ContiguitasPolicy::placementPref(const AllocRequest &req) const
{
    if (req.mt == MigrateType::Movable || !config_.placementBias)
        return AddrPref::None;
    // The unmovable region sits at the bottom of the address space;
    // "away from the border" therefore means low PFNs. Everything is
    // biased away from the border while space is available; the
    // immortal/long-lived classes benefit the most because they are
    // placed first and never churn.
    switch (req.lifetime) {
      case Lifetime::Immortal:
      case Lifetime::Long:
      case Lifetime::Short:
        return AddrPref::Low;
    }
    return AddrPref::None;
}

AddrPref
ContiguitasPolicy::pinPlacementPref() const
{
    // Pages migrated in at pin time are short-lived: park them deep
    // in the region (high PFNs, near the border) so the boundary can
    // keep shrinking past them once they unpin.
    return config_.placementBias ? AddrPref::High : AddrPref::None;
}

Pfn
ContiguitasPolicy::alloc(const AllocRequest &req)
{
    if (req.mt == MigrateType::Movable) {
        return regions_.movable().allocPages(req.order, req.mt,
                                             req.source, req.owner);
    }

    BuddyAllocator &unmov = regions_.unmovable();
    const AddrPref pref = placementPref(req);
    Pfn head = unmov.allocPages(req.order, req.mt, req.source,
                                req.owner, pref);
    if (head != invalidPfn || config_.staticBoundary)
        return head;

    // The region is full: expand synchronously. This is the rare
    // slow path; the controller normally keeps headroom.
    CTG_SPAN_NAMED(span, Region, "policy.urgent_expand",
                   {{"order", req.order}});
    const std::uint64_t step =
        std::max<std::uint64_t>(config_.tuning.stepPages,
                                Pfn{1} << req.order);
    if (regions_.expandUnmovable(step) > 0) {
        ++stats_.urgentExpansions;
        head = unmov.allocPages(req.order, req.mt, req.source,
                                req.owner, pref);
    }
    span.arg("ok", head != invalidPfn ? 1 : 0);
    return head;
}

void
ContiguitasPolicy::free(Pfn head)
{
    if (head < regions_.boundary())
        regions_.unmovable().freePages(head);
    else
        regions_.movable().freePages(head);
}

Pfn
ContiguitasPolicy::allocGigantic(AllocSource src, std::uint64_t owner)
{
    return regions_.movable().allocGigantic(MigrateType::Movable, src,
                                            owner);
}

Pfn
ContiguitasPolicy::pin(Pfn head)
{
    PhysMem &mem = kernel_.mem();
    if (head < regions_.boundary()) {
        // Already confined (kernel page or previously migrated).
        setBlockPinned(mem, head, true);
        return head;
    }

    // Movable page becoming unmovable: migrate it into the unmovable
    // region first, near the border (such pages are short-lived),
    // then pin the destination (Section 3.2).
    CTG_SPAN_NAMED(span, Region, "policy.pin_migrate",
                   {{"head", static_cast<std::int64_t>(head)}});
    for (int attempt = 0; attempt < 2; ++attempt) {
        Pfn dst = invalidPfn;
        const MigrateResult r = migrateBlock(
            regions_.movable(), regions_.unmovable(),
            kernel_.owners(), head, pinPlacementPref(),
            MigrateType::Unmovable, &dst, /*allow_fallback=*/true);
        if (r == MigrateResult::Ok) {
            setBlockPinned(mem, dst, true);
            ++stats_.pinMigrations;
            span.arg("dst", static_cast<std::int64_t>(dst));
            return dst;
        }
        if (r == MigrateResult::Unmovable)
            break;
        // No space: expand and retry once (never with a static
        // boundary — ZONE_MOVABLE would just fail the pin).
        if (config_.staticBoundary ||
            regions_.expandUnmovable(config_.tuning.stepPages) == 0)
            break;
    }
    ++stats_.pinMigrationFailures;
    span.arg("failed", 1);
    return invalidPfn;
}

void
ContiguitasPolicy::unpin(Pfn head)
{
    setBlockPinned(kernel_.mem(), head, false);
}

void
ContiguitasPolicy::runController()
{
    CTG_SPAN(Region, "policy.run_controller");
    BuddyAllocator &unmov = regions_.unmovable();
    const std::uint64_t size = unmov.totalPages();
    const std::uint64_t free = unmov.freePageCount();
    const double free_frac =
        static_cast<double>(free) / static_cast<double>(size);

    // Urgent path: low free memory in the unmovable region expands
    // it regardless of PSI (the reclaim-triggered wakeup of §3.2).
    if (free_frac < config_.tuning.unmovFreeWatermark) {
        if (regions_.expandUnmovable(config_.tuning.stepPages) > 0)
            ++stats_.controllerExpands;
        return;
    }

    const ResizeDecision decision = controller_.evaluate(
        kernel_.psiUnmovable().pressure(),
        kernel_.psiMovable().pressure(), size);

    switch (decision.direction) {
      case ResizeDirection::Expand: {
        const std::uint64_t want = decision.targetPages - size;
        const std::uint64_t delta =
            std::min<std::uint64_t>(want, config_.tuning.maxPerTick);
        if (delta >= config_.tuning.stepPages &&
            regions_.expandUnmovable(delta) > 0) {
            ++stats_.controllerExpands;
        }
        break;
      }
      case ResizeDirection::Shrink: {
        const std::uint64_t want = size - decision.targetPages;
        std::uint64_t delta =
            std::min<std::uint64_t>(want, config_.tuning.maxPerTick);
        // Hysteresis: never shrink into the used part of the region
        // or below the free-slack level.
        const std::uint64_t used = size - free;
        const auto slack = static_cast<std::uint64_t>(
            config_.tuning.shrinkFreeSlack * static_cast<double>(used));
        const std::uint64_t floor_pages = used + slack;
        if (size - delta < floor_pages) {
            delta = size > floor_pages ? size - floor_pages : 0;
            delta &= ~((std::uint64_t{1} << maxOrder) - 1);
        }
        if (delta >= config_.tuning.stepPages &&
            regions_.shrinkUnmovable(delta) > 0) {
            ++stats_.controllerShrinks;
        }
        break;
      }
      case ResizeDirection::None:
        break;
    }
}

void
ContiguitasPolicy::tick(std::uint32_t now_seconds)
{
    const auto now = static_cast<double>(now_seconds);
    if (now - lastResizeSec_ < config_.tuning.periodSec)
        return;
    lastResizeSec_ = now;

    CTG_SPAN(Region, "policy.tick",
             {{"now_sec", static_cast<std::int64_t>(now_seconds)}});

    if (!config_.staticBoundary) {
        // Resizes that failed evacuation earlier retry here with
        // capped exponential backoff, ahead of fresh controller
        // decisions.
        regions_.pumpDeferredResizes();
        runController();
    }
    const std::uint64_t budget = defragBudgetPerTick();
    if (budget > 0)
        regions_.defragUnmovable(budget);
}

std::uint64_t
ContiguitasPolicy::freeUserPages() const
{
    return regions_.movable().freePageCount();
}

std::uint64_t
ContiguitasPolicy::freeKernelPages() const
{
    return regions_.unmovable().freePageCount();
}

std::pair<Pfn, Pfn>
ContiguitasPolicy::unmovableRegion() const
{
    return {0, regions_.boundary()};
}

BuddyAllocator &
ContiguitasPolicy::movableAllocator()
{
    return regions_.movable();
}

void
ContiguitasPolicy::regStats(StatGroup group) const
{
    const StatGroup ctg_group = group.group("ctg");
    ctg_group.gauge("pin_migrations",
                    [this] { return double(stats_.pinMigrations); },
                    "pages moved into the unmovable region at pin");
    ctg_group.gauge(
        "pin_migration_failures",
        [this] { return double(stats_.pinMigrationFailures); });
    ctg_group.gauge("urgent_expansions",
                    [this] { return double(stats_.urgentExpansions); },
                    "watermark-triggered expansions");
    ctg_group.gauge(
        "controller_expands",
        [this] { return double(stats_.controllerExpands); });
    ctg_group.gauge(
        "controller_shrinks",
        [this] { return double(stats_.controllerShrinks); });
    regions_.regStats(ctg_group.group("region"));
    controller_.regStats(ctg_group.group("controller"));
    regions_.unmovable().regStats(
        group.group("mem.unmovable.buddy"));
    regions_.movable().regStats(group.group("mem.movable.buddy"));
}

} // namespace ctg
