#include "kernel/addrspace.hh"

#include <algorithm>

#include "base/serde.hh"

namespace ctg
{

AddressSpace::AddressSpace(Kernel &kernel, std::uint32_t pid)
    : kernel_(kernel), pid_(pid),
      clientId_(kernel.owners().registerClient(this)), tables_(kernel)
{}

AddressSpace::AddressSpace(Kernel &kernel, serde::Reader &in)
    : kernel_(kernel), pid_(in.getU32()), clientId_(in.getU16()),
      tables_(kernel, in)
{
    kernel_.owners().attachClientAt(clientId_, this);

    const std::uint64_t region_count = in.getU64();
    for (std::uint64_t i = 0; i < region_count; ++i) {
        const Vpn base = in.getU64();
        const std::uint64_t pages = in.getU64();
        if (pages == 0 ||
            !regions_.emplace(base, Region{base, pages}).second)
            throw serde::Error("address space: bad region");
    }

    // The chunk slot order is RNG-visible state (releasePages samples
    // it uniformly), so the dense array is adopted verbatim. Each
    // entry is cross-checked against the restored page tables and
    // tags its leaf with its slot; the per-size counters are derived
    // and rebuilt here.
    const std::uint64_t chunk_count = in.getU64();
    if (chunk_count != tables_.mappings())
        throw serde::Error("address space: chunk count mismatch");
    for (std::uint64_t i = 0; i < chunk_count; ++i) {
        const Vpn vpn = in.getU64();
        const std::uint32_t order = in.getU32();
        if (order != 0 && order != hugeOrder && order != gigaOrder)
            throw serde::Error("address space: bad chunk order");
        const Translation tr = tables_.translate(vpn);
        if (!tr.valid || tr.order != order ||
            (vpn & ((Vpn{1} << order) - 1)) != 0)
            throw serde::Error(
                "address space: chunk/page-table mismatch");
        chunks_.insert(vpn, tables_.setTag(vpn, nextSlot()));
        if (order == 0)
            ++pages4k_;
        else if (order == hugeOrder)
            ++chunks2m_;
        else
            ++chunks1g_;
    }
    // A leaf listed twice keeps only its last slot as tag.
    for (std::uint32_t slot = 0; slot < chunks_.size(); ++slot)
        if (tables_.translate(chunks_.at(slot).vpn).tag != slot)
            throw serde::Error("chunk table: duplicate vpn");
    nextBaseVpn_ = in.getU64();
}

void
AddressSpace::saveTo(serde::Writer &out) const
{
    out.putU32(pid_);
    out.putU16(clientId_);
    tables_.saveTo(out);
    out.putU64(regions_.size());
    for (const auto &[base, region] : regions_) {
        out.putU64(region.baseVpn);
        out.putU64(region.pages);
    }
    out.putU64(chunks_.size());
    for (const ChunkTable::Entry &entry : chunks_.entries()) {
        out.putU64(entry.vpn);
        out.putU32(entry.order());
    }
    out.putU64(nextBaseVpn_);
}

AddressSpace::~AddressSpace()
{
    // As munmap of every region in ascending order, without the
    // per-chunk slot bookkeeping: the slot order dies with the
    // process. A kernel being torn down frees nothing, so its
    // processes skip the walk.
    if (!kernel_.tearingDown()) {
        for (const auto &[base, region] : regions_)
            tables_.unmapRange(
                base, base + region.pages,
                [this](Vpn, const Translation &tr) {
                    if (kernel_.mem().frame(tr.pfn).isPinned())
                        kernel_.unpinPages(tr.pfn);
                    kernel_.freePages(tr.pfn);
                });
    }
    kernel_.owners().unregisterClient(clientId_);
}

Addr
AddressSpace::mmap(std::uint64_t bytes)
{
    const std::uint64_t pages =
        (bytes + pageBytes - 1) / pageBytes;
    ctg_assert(pages > 0);
    const Vpn base = nextBaseVpn_;
    // Advance by whole gigabytes so every region base is 1 GB aligned.
    const std::uint64_t giga_span =
        (pages + pagesPerGiga - 1) / pagesPerGiga;
    nextBaseVpn_ += giga_span * pagesPerGiga;
    regions_.emplace(base, Region{base, pages});
    return pfnToAddr(base);
}

void
AddressSpace::munmap(Addr base)
{
    const Vpn base_vpn = addrToPfn(base);
    auto it = regions_.find(base_vpn);
    ctg_assert(it != regions_.end());
    const Region region = it->second;

    // Mapped leaves are exactly the chunk heads; remove them in
    // ascending vpn order.
    tables_.unmapRange(
        region.baseVpn, region.baseVpn + region.pages,
        [this](Vpn vpn, const Translation &tr) {
            // Process teardown drops any remaining DMA pins.
            if (kernel_.mem().frame(tr.pfn).isPinned())
                kernel_.unpinPages(tr.pfn);
            dropChunk(vpn, tr);
        });
    regions_.erase(it);
}

bool
AddressSpace::backChunk(Vpn vpn, unsigned order)
{
    AllocRequest req;
    req.order = order;
    req.mt = MigrateType::Movable;
    req.source = AllocSource::User;
    req.owner = OwnerRegistry::makeOwner(clientId_, vpn);
    req.lifetime = Lifetime::Short;
    const Pfn pfn = kernel_.allocPages(req);
    if (pfn == invalidPfn)
        return false;
    PageTables::Table *table = tables_.map(vpn, pfn, order, nextSlot());
    if (table == nullptr) {
        kernel_.freePages(pfn);
        return false;
    }
    chunks_.insert(vpn, *table);
    if (order == 0)
        ++pages4k_;
    else if (order == hugeOrder)
        ++chunks2m_;
    return true;
}

void
AddressSpace::unbackChunk(Vpn vpn, unsigned order)
{
    const Translation tr = tables_.unmap(vpn);
    ctg_assert(tr.valid && tr.order == order);
    dropChunk(vpn, tr);
}

void
AddressSpace::dropChunk(Vpn vpn, const Translation &tr)
{
    kernel_.freePages(tr.pfn);
    const std::uint32_t slot = tr.tag;
    ctg_assert(chunks_.at(slot).vpn == vpn);
    chunks_.eraseAt(slot);
    if (slot < chunks_.size()) {
        const ChunkTable::Entry &moved = chunks_.at(slot);
        tables_.setTag(*moved.table, moved.vpn, slot);
    }
    if (tr.order == 0) {
        --pages4k_;
    } else if (tr.order == hugeOrder) {
        --chunks2m_;
    } else {
        ctg_assert(tr.order == gigaOrder);
        --chunks1g_;
    }
}

std::uint64_t
AddressSpace::touchRange(Addr addr, std::uint64_t bytes)
{
    const Vpn end = addrToPfn(addr + bytes - 1) + 1;
    std::uint64_t backed = 0;

    Vpn vpn = tables_.nextHole(addrToPfn(addr), end);
    while (vpn < end) {
        // THP policy: aligned 2 MB chunk fully inside the requested
        // range, with no 4 KB page mapped in it, gets a huge-page
        // attempt first.
        const bool huge_aligned = (vpn % pagesPerHuge) == 0;
        const bool huge_fits = vpn + pagesPerHuge <= end;
        if (kernel_.config().thpEnabled && huge_aligned && huge_fits &&
            tables_.ptesInRange(vpn) == 0 &&
            backChunk(vpn, hugeOrder)) {
            backed += pagesPerHuge;
            vpn += pagesPerHuge;
        } else {
            if (backChunk(vpn, 0))
                ++backed;
            ++vpn;
        }
        vpn = tables_.nextHole(vpn, end);
    }
    return backed;
}

bool
AddressSpace::backWithGigantic(Addr addr)
{
    const Vpn vpn = addrToPfn(addr);
    ctg_assert(vpn % pagesPerGiga == 0);
    ctg_assert(!tables_.translate(vpn).valid);
    const std::uint64_t owner =
        OwnerRegistry::makeOwner(clientId_, vpn);
    const Pfn pfn = kernel_.allocGigantic(owner);
    if (pfn == invalidPfn)
        return false;
    PageTables::Table *table =
        tables_.map(vpn, pfn, gigaOrder, nextSlot());
    if (table == nullptr) {
        kernel_.freePages(pfn);
        return false;
    }
    chunks_.insert(vpn, *table);
    ++chunks1g_;
    return true;
}

std::uint64_t
AddressSpace::releasePages(std::uint64_t pages, Rng &rng)
{
    if (chunks_.empty())
        return 0;
    std::uint64_t freed = 0;
    // Random eviction: uniform over the dense chunk slots (see
    // ChunkTable).
    std::uint64_t attempts = 0;
    const std::uint64_t max_attempts = pages * 8 + 64;
    while (freed < pages && !chunks_.empty() &&
           attempts++ < max_attempts) {
        const ChunkTable::Entry &entry =
            chunks_.at(rng.below(chunks_.size()));
        const Vpn vpn = entry.vpn;
        const unsigned order = entry.order();
        // Pinned pages cannot be reclaimed while IO may target them.
        const Translation tr = tables_.translate(vpn);
        if (tr.valid && kernel_.mem().frame(tr.pfn).isPinned())
            continue;
        unbackChunk(vpn, order);
        freed += Pfn{1} << order;
    }
    return freed;
}

std::uint64_t
AddressSpace::releaseRange(Addr base, std::uint64_t bytes,
                           std::uint64_t pages, Rng &rng)
{
    const Vpn lo = addrToPfn(base);
    const std::uint64_t span = bytes / pageBytes;
    ctg_assert(span > 0);
    std::uint64_t freed = 0;
    std::uint64_t attempts = 0;
    const std::uint64_t max_attempts = pages * 4 + 16;
    while (freed < pages && attempts++ < max_attempts) {
        const Vpn vpn = lo + rng.below(span);
        const Translation tr = tables_.translate(vpn);
        if (!tr.valid || tr.order > hugeOrder)
            continue;
        const Vpn head = vpn & ~((Vpn{1} << tr.order) - 1);
        if (kernel_.mem().frame(tr.pfn - (vpn - head)).isPinned())
            continue;
        unbackChunk(head, tr.order);
        freed += Pfn{1} << tr.order;
    }
    return freed;
}

std::uint64_t
AddressSpace::promoteHugeRanges(std::uint64_t budget)
{
    if (budget == 0 || !kernel_.config().thpEnabled)
        return 0;
    // Candidates are the fully 4K-backed ranges in ascending order,
    // gathered before any collapse changes the tables.
    const std::vector<Vpn> candidates = tables_.fullPteRanges(budget * 4);

    std::uint64_t promoted = 0;
    for (const Vpn head : candidates) {
        if (promoted >= budget)
            break;
        // Skip ranges with pinned pages (DMA may target them).
        if (tables_.anyPteIn(head, [this](Pfn pfn) {
                return kernel_.mem().frame(pfn).isPinned();
            }))
            continue;

        AllocRequest req;
        req.order = hugeOrder;
        req.mt = MigrateType::Movable;
        req.source = AllocSource::User;
        req.owner = OwnerRegistry::makeOwner(clientId_, head);
        req.lifetime = Lifetime::Short;
        const Pfn huge = kernel_.allocPages(req);
        if (huge == invalidPfn)
            break; // no contiguity available right now

        // Migrate ("copy") each base page into the huge frame and
        // retire the old mapping.
        tables_.unmapRange(head, head + pagesPerHuge,
                           [this](Vpn vpn, const Translation &tr) {
                               ctg_assert(tr.order == 0);
                               dropChunk(vpn, tr);
                           });
        PageTables::Table *table =
            tables_.map(head, huge, hugeOrder, nextSlot());
        ctg_assert(table != nullptr);
        chunks_.insert(head, *table);
        ++chunks2m_;
        ++promoted;
    }
    return promoted;
}

Translation
AddressSpace::translate(Addr vaddr) const
{
    return tables_.translate(addrToPfn(vaddr));
}

bool
AddressSpace::relocate(std::uint64_t tag, Pfn old_head, Pfn new_head)
{
    return tables_.repoint(tag, old_head, new_head);
}

std::uint64_t
AddressSpace::backedPages() const
{
    return pages4k_ + chunks2m_ * pagesPerHuge +
           chunks1g_ * pagesPerGiga;
}

Pfn
AddressSpace::randomBacked4kFrame(Rng &rng) const
{
    if (chunks_.empty())
        return invalidPfn;
    for (int attempt = 0; attempt < 64; ++attempt) {
        const ChunkTable::Entry &entry =
            chunks_.at(rng.below(chunks_.size()));
        if (entry.order() == 0) {
            const Translation tr = tables_.translate(entry.vpn);
            ctg_assert(tr.valid);
            return tr.pfn;
        }
    }
    return invalidPfn;
}

} // namespace ctg
