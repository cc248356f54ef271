#include "kernel/contig_alloc.hh"

#include "kernel/migrate.hh"
#include "mem/contig_index.hh"

namespace ctg
{

namespace
{

/**
 * Does the window contain anything software cannot move? One subtree
 * query answers the unmovable half; only the allocated heads (reached
 * by index jumps over the free space) need an owner lookup.
 */
bool
windowBlocked(const PhysMem &mem, Pfn lo, Pfn hi,
              const OwnerRegistry &registry)
{
    const ContigIndex &idx = mem.contigIndex();
    if (idx.unmovablePagesIn(lo, hi) > 0)
        return true;
    for (Pfn pfn = idx.firstAllocatedFrame(lo, hi);
         pfn != invalidPfn;) {
        const auto f = mem.frame(pfn);
        Pfn next;
        if (f.isHead()) {
            if (!registry.relocatable(f.owner()))
                return true;
            next = pfn + (Pfn{1} << f.order());
        } else {
            next = pfn + 1;
        }
        pfn = next >= hi ? invalidPfn
                         : idx.firstAllocatedFrame(next, hi);
    }
    return false;
}

} // namespace

Pfn
allocContigRange(BuddyAllocator &alloc, const OwnerRegistry &registry,
                 unsigned order, MigrateType mt, AllocSource src,
                 std::uint64_t owner, ContigAllocStats *stats)
{
    ContigAllocStats local;
    ContigAllocStats &st = stats != nullptr ? *stats : local;
    // Only the gigantic path exists today; smaller orders go
    // through normal compaction.
    ctg_assert(order == gigaOrder);
    PhysMem &mem = alloc.mem();
    const ContigIndex &idx = mem.contigIndex();
    const Pfn span = Pfn{1} << order;

    const Pfn first =
        (alloc.startPfn() + span - 1) & ~(span - 1);
    for (Pfn base = first; base + span <= alloc.endPfn();
         base += span) {
        ++st.candidatesScanned;
        if (windowBlocked(mem, base, base + span, registry)) {
            ++st.candidatesBlocked;
            continue;
        }
        // Enough free space *outside* the window to absorb the
        // evacuees?
        const std::uint64_t free_inside =
            idx.freePagesIn(base, base + span);
        const std::uint64_t used = span - free_inside;
        const std::uint64_t free_total = alloc.freePageCount();
        if (free_total - free_inside < used + used / 16)
            continue;

        alloc.isolateRange(base, base + span);

        // Jump between allocated heads instead of stepping over every
        // free frame; each migration frees its source, so the next
        // query sees the window as it now is.
        bool ok = true;
        for (Pfn pfn = base; pfn < base + span;) {
            pfn = idx.firstAllocatedFrame(pfn, base + span);
            if (pfn == invalidPfn)
                break;
            const auto f = mem.frame(pfn);
            if (!f.isHead()) {
                ++pfn;
                continue;
            }
            const Pfn step = Pfn{1} << f.order();
            ++st.evacuations;
            const MigrateResult r = migrateBlock(
                alloc, alloc, registry, pfn, AddrPref::None,
                MigrateType::Movable, nullptr,
                /*allow_fallback=*/true);
            if (r != MigrateResult::Ok) {
                ++st.evacuationFailures;
                ok = false;
                break;
            }
            pfn += step;
        }

        if (!ok || !alloc.rangeFullyFree(base, base + span)) {
            alloc.unisolateRange(base, base + span,
                                 MigrateType::Movable);
            continue;
        }

        // Claim the window: pull its free blocks off the isolate
        // lists, retag and mark the whole range as one allocation.
        // allocGigantic takes the lowest fully-free aligned window:
        // ours, unless an even earlier one was already free.
        alloc.unisolateRange(base, base + span, mt);
        return alloc.allocGigantic(mt, src, owner);
    }
    return invalidPfn;
}

} // namespace ctg
