#include "kernel/migrate.hh"

#include "base/span_trace.hh"
#include "sim/fault_injector.hh"

namespace ctg
{

MigrateStats &
globalMigrateStats()
{
    static MigrateStats stats;
    return stats;
}

void
regMigrateStats(StatGroup group)
{
    MigrateStats &stats = globalMigrateStats();
    group.gauge("attempts",
                [&stats] { return double(stats.attempts); },
                "migrateBlock calls (process-wide)");
    group.gauge("moved", [&stats] { return double(stats.moved); });
    group.gauge("unmovable",
                [&stats] { return double(stats.unmovable); },
                "attempts rejected: pinned or non-relocatable owner");
    group.gauge("no_memory",
                [&stats] { return double(stats.noMemory); },
                "attempts without a destination block");
    group.gauge("injected_faults",
                [&stats] { return double(stats.injectedFaults); },
                "migration failures forced by the fault injector");
}

MigrateResult
migrateBlock(BuddyAllocator &src_alloc, BuddyAllocator &dst_alloc,
             const OwnerRegistry &registry, Pfn src, AddrPref pref,
             MigrateType dst_mt, Pfn *out_dst, bool allow_fallback)
{
    MigrateStats &mstats = globalMigrateStats();
    ++mstats.attempts;

    CTG_SPAN_NAMED(span, Migrate, "migrate.block",
                   {{"src", static_cast<std::int64_t>(src)}});

    PhysMem &mem = src_alloc.mem();
    const auto sf = mem.frame(src);
    ctg_assert(!sf.isFree() && sf.isHead());

    if (sf.isPinned()) {
        ++mstats.unmovable;
        span.arg("unmovable", 1);
        return MigrateResult::Unmovable;
    }
    const std::uint64_t owner = sf.owner();
    if (!registry.relocatable(owner)) {
        ++mstats.unmovable;
        span.arg("unmovable", 1);
        return MigrateResult::Unmovable;
    }

    const unsigned order = sf.order();
    const AllocSource source = sf.source();
    span.arg("order", order);

    if (faultInjector().shouldFail(FaultSite::MigrateDstFail)) {
        ++mstats.injectedFaults;
        ++mstats.noMemory;
        span.arg("no_memory", 1);
        return MigrateResult::NoMemory;
    }

    const Pfn dst = dst_alloc.allocPages(order, dst_mt, source, owner,
                                         pref, allow_fallback);
    if (dst == invalidPfn) {
        ++mstats.noMemory;
        span.arg("no_memory", 1);
        return MigrateResult::NoMemory;
    }
    span.arg("dst", static_cast<std::int64_t>(dst));

    // An injected relocate refusal exercises the rollback path: the
    // destination block was already allocated and must be returned.
    if (faultInjector().shouldFail(FaultSite::MigrateRelocateFail)) {
        ++mstats.injectedFaults;
        dst_alloc.freePages(dst);
        ++mstats.unmovable;
        span.arg("rolled_back", 1);
        return MigrateResult::Unmovable;
    }

    if (!registry.relocate(owner, src, dst)) {
        dst_alloc.freePages(dst);
        ++mstats.unmovable;
        span.arg("rolled_back", 1);
        return MigrateResult::Unmovable;
    }

    src_alloc.freePages(src);
    ++mstats.moved;
    if (out_dst != nullptr)
        *out_dst = dst;
    return MigrateResult::Ok;
}

} // namespace ctg
