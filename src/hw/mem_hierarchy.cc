#include "hw/mem_hierarchy.hh"

namespace ctg
{

namespace
{

Addr
alignLine(Addr addr)
{
    return addr & ~static_cast<Addr>(lineBytes - 1);
}

} // namespace

MemHierarchy::MemHierarchy(const HwConfig &config)
    : config_(config), table_(config.chwEntries)
{
    cores_.resize(config_.cores);
    for (unsigned c = 0; c < config_.cores; ++c) {
        cores_[c].l1 = std::make_unique<CacheArray>(
            config_.l1Bytes, config_.l1Assoc, "l1");
        cores_[c].l2 = std::make_unique<CacheArray>(
            config_.l2Bytes, config_.l2Assoc, "l2");
    }
    for (unsigned s = 0; s < config_.llcSlices(); ++s) {
        slices_.push_back(std::make_unique<CacheArray>(
            config_.llcSliceBytes, config_.llcAssoc, "llc"));
    }
}

unsigned
MemHierarchy::sliceOf(Addr line_addr) const
{
    // XOR-fold the line address bits — the cheap hash the paper
    // notes real slice-selection functions use.
    std::uint64_t x = line_addr >> lineShift;
    x ^= x >> 17;
    x ^= x >> 9;
    x ^= x >> 4;
    return static_cast<unsigned>(x % slices_.size());
}

Cycles
MemHierarchy::ringLat(unsigned from, unsigned to) const
{
    const unsigned n = static_cast<unsigned>(slices_.size());
    const unsigned d = from > to ? from - to : to - from;
    const unsigned hops = std::min(d, n - d);
    return hops * config_.ringHopLat;
}

void
MemHierarchy::dropSharer(CacheEntry &entry, CoreId core)
{
    entry.sharers &= ~(std::uint32_t{1} << core);
    if (entry.owner == static_cast<std::int32_t>(core))
        entry.owner = -1;
}

std::uint64_t
MemHierarchy::freshValue(Addr line_addr) const
{
    // Owner's private copy is freshest; then the LLC; then DRAM.
    const CacheArray &slice = *slices_[sliceOf(line_addr)];
    const CacheEntry *dir = slice.peek(line_addr);
    if (dir != nullptr && dir->owner >= 0) {
        const PrivateCaches &pc =
            cores_[static_cast<unsigned>(dir->owner)];
        if (const CacheEntry *e = pc.l1->peek(line_addr))
            return e->value;
        if (const CacheEntry *e = pc.l2->peek(line_addr))
            return e->value;
    }
    if (dir != nullptr)
        return dir->value;
    const auto it = mainMem_.find(line_addr);
    return it == mainMem_.end() ? 0 : it->second;
}

std::uint64_t
MemHierarchy::authoritativeValue(Addr line_addr) const
{
    return freshValue(alignLine(line_addr));
}

void
MemHierarchy::pokeMemory(Addr line_addr, std::uint64_t value)
{
    mainMem_[alignLine(line_addr)] = value;
}

void
MemHierarchy::invalidatePrivate(Addr line_addr)
{
    for (auto &pc : cores_) {
        pc.l1->invalidate(line_addr);
        pc.l2->invalidate(line_addr);
    }
    CacheArray &slice = *slices_[sliceOf(line_addr)];
    // The directory forgets all sharers; the LLC copy (if any)
    // already carries the freshest value only if no owner existed,
    // so callers needing the value must read it first (busRdX does).
    if (CacheEntry *dir =
            const_cast<CacheEntry *>(slice.peek(line_addr))) {
        dir->sharers = 0;
        dir->owner = -1;
    }
}

void
MemHierarchy::backInvalidate(const CacheEntry &evicted)
{
    if (!evicted.valid)
        return;
    // Inclusive LLC: displacing a line evicts it everywhere. Collect
    // the freshest private value first.
    std::uint64_t value = evicted.value;
    if (evicted.owner >= 0) {
        const PrivateCaches &pc =
            cores_[static_cast<unsigned>(evicted.owner)];
        if (const CacheEntry *e = pc.l1->peek(evicted.lineAddr))
            value = e->value;
        else if (const CacheEntry *e = pc.l2->peek(evicted.lineAddr))
            value = e->value;
    }
    for (auto &pc : cores_) {
        pc.l1->invalidate(evicted.lineAddr);
        pc.l2->invalidate(evicted.lineAddr);
    }
    mainMem_[evicted.lineAddr] = value;
    ++stats_.writebacks;
}

CacheEntry &
MemHierarchy::llcFill(Addr line_addr, bool *filled_from_dram,
                      Cycles *extra)
{
    CacheArray &slice = *slices_[sliceOf(line_addr)];
    if (CacheEntry *hit = slice.lookup(line_addr)) {
        if (filled_from_dram != nullptr)
            *filled_from_dram = false;
        return *hit;
    }
    CacheEntry evicted;
    CacheEntry &fresh = slice.insert(line_addr, &evicted);
    backInvalidate(evicted);
    const auto it = mainMem_.find(line_addr);
    fresh.value = it == mainMem_.end() ? 0 : it->second;
    fresh.state = CohState::Shared;
    fresh.sharers = 0;
    fresh.owner = -1;
    if (filled_from_dram != nullptr)
        *filled_from_dram = true;
    if (extra != nullptr)
        *extra += config_.dramLat;
    ++stats_.dramFills;
    return fresh;
}

Addr
MemHierarchy::resolveLine(CoreId core, Addr line_addr,
                          bool *redirected, bool *noncacheable,
                          Cycles *extra)
{
    MigrationEntry *entry = table_.find(addrToPfn(line_addr));
    if (entry == nullptr)
        return line_addr;

    *extra += config_.chwLat;
    const Addr canonical = canonicalLine(*entry, line_addr);
    *redirected = canonical != line_addr;
    if (*redirected)
        ++stats_.redirects;

    if (entry->mode == ChwMode::Noncacheable) {
        *noncacheable = true;
        // First touch from a core that missed the notification gets
        // NACKed and retried as noncacheable (Section 3.3); a device
        // access (core ~0) has no private copy and is never NACKed.
        if (core != ~CoreId{0} &&
            !(entry->notified & (std::uint32_t{1} << core))) {
            entry->notified |= std::uint32_t{1} << core;
            *extra += config_.l2Lat + config_.ringHopLat;
            ++stats_.nackRetries;
            // Purge any stale private copies of both names.
            const unsigned off = lineInPage(line_addr);
            const Addr off_bytes =
                static_cast<Addr>(off) * lineBytes;
            cores_[core].l1->invalidate(pfnToAddr(entry->srcPpn) +
                                        off_bytes);
            cores_[core].l2->invalidate(pfnToAddr(entry->srcPpn) +
                                        off_bytes);
            cores_[core].l1->invalidate(pfnToAddr(entry->dstPpn) +
                                        off_bytes);
            cores_[core].l2->invalidate(pfnToAddr(entry->dstPpn) +
                                        off_bytes);
        }
    }
    return canonical;
}

MemHierarchy::Outcome
MemHierarchy::access(CoreId core, Addr paddr, bool write,
                     std::uint64_t write_value)
{
    ctg_assert(core < cores_.size());
    ++stats_.accesses;
    Outcome out;
    const Addr requested = alignLine(paddr);
    PrivateCaches &pc = cores_[core];

    // Contiguitas-HW resolution. In cacheable mode lines are cached
    // under their canonical name, so redirection applies before the
    // private lookup; the per-line BusRdX of the copy engine purges
    // entries whose canonical name changed.
    Cycles extra = 0;
    bool noncacheable = false;
    const Addr line = resolveLine(core, requested, &out.redirected,
                                  &noncacheable, &extra);
    out.latency += extra;

    if (!noncacheable) {
        // L1.
        if (CacheEntry *e1 = pc.l1->lookup(line)) {
            out.latency += config_.l1Lat;
            if (write) {
                if (e1->state == CohState::Shared) {
                    // Upgrade: claim exclusivity at the directory.
                    CacheArray &slice = *slices_[sliceOf(line)];
                    CacheEntry *dir = const_cast<CacheEntry *>(
                        slice.peek(line));
                    out.latency += ringLat(core % slices_.size(),
                                           sliceOf(line)) +
                                   config_.llcLat;
                    ++stats_.upgrades;
                    if (dir != nullptr) {
                        for (unsigned c = 0; c < cores_.size(); ++c) {
                            if (c != core &&
                                (dir->sharers &
                                 (std::uint32_t{1} << c))) {
                                cores_[c].l1->invalidate(line);
                                cores_[c].l2->invalidate(line);
                            }
                        }
                        dir->sharers = std::uint32_t{1} << core;
                        dir->owner = static_cast<std::int32_t>(core);
                    }
                }
                e1->state = CohState::Modified;
                e1->value = write_value;
                if (CacheEntry *e2 = pc.l2->lookup(line)) {
                    e2->state = CohState::Modified;
                    e2->value = write_value;
                }
            }
            out.value = e1->value;
            ++stats_.l1Hits;
            return out;
        }
        out.latency += config_.l1Lat;

        // L2.
        if (CacheEntry *e2 = pc.l2->lookup(line)) {
            out.latency += config_.l2Lat;
            if (write && e2->state == CohState::Shared) {
                CacheArray &slice = *slices_[sliceOf(line)];
                CacheEntry *dir =
                    const_cast<CacheEntry *>(slice.peek(line));
                out.latency += ringLat(core % slices_.size(),
                                       sliceOf(line)) +
                               config_.llcLat;
                ++stats_.upgrades;
                if (dir != nullptr) {
                    for (unsigned c = 0; c < cores_.size(); ++c) {
                        if (c != core &&
                            (dir->sharers & (std::uint32_t{1} << c))) {
                            cores_[c].l1->invalidate(line);
                            cores_[c].l2->invalidate(line);
                        }
                    }
                    dir->sharers = std::uint32_t{1} << core;
                    dir->owner = static_cast<std::int32_t>(core);
                }
            }
            if (write) {
                e2->state = CohState::Modified;
                e2->value = write_value;
            }
            // Fill L1 (inclusive of L2; eviction is silent since L2
            // still holds the line).
            CacheEntry evicted;
            CacheEntry &e1 = pc.l1->insert(line, &evicted);
            e1.state = e2->state;
            e1.value = e2->value;
            out.value = e2->value;
            ++stats_.l2Hits;
            return out;
        }
        out.latency += config_.l2Lat;
    } else {
        out.bypassedPrivate = true;
        ++stats_.ncBypasses;
    }

    // LLC slice of the canonical line (forwarding between slices is
    // the Figure 9 step 6 path).
    const unsigned home = sliceOf(line);
    const unsigned requested_home = sliceOf(requested);
    out.latency += ringLat(core % slices_.size(), requested_home) +
                   config_.llcLat;
    if (home != requested_home) {
        out.latency += ringLat(requested_home, home);
        ++stats_.crossSliceForwards;
    }

    CacheArray &slice = *slices_[home];
    CacheEntry *dir = slice.lookup(line);
    bool from_dram = false;
    if (dir == nullptr) {
        Cycles fill_extra = 0;
        dir = &llcFill(line, &from_dram, &fill_extra);
        out.latency += fill_extra;
        out.servedFromDram = from_dram;
    } else {
        ++stats_.llcHits;
    }

    // Fetch the freshest copy from a remote owner if one exists.
    if (dir->owner >= 0 &&
        dir->owner != static_cast<std::int32_t>(core)) {
        const auto owner = static_cast<unsigned>(dir->owner);
        out.latency +=
            ringLat(home, owner % slices_.size()) + config_.l2Lat;
        std::uint64_t owner_value = dir->value;
        if (const CacheEntry *e = cores_[owner].l1->peek(line))
            owner_value = e->value;
        else if (const CacheEntry *e = cores_[owner].l2->peek(line))
            owner_value = e->value;
        dir->value = owner_value;
        if (write || noncacheable) {
            cores_[owner].l1->invalidate(line);
            cores_[owner].l2->invalidate(line);
            dropSharer(*dir, owner);
        } else {
            // Downgrade the owner to Shared.
            if (CacheEntry *e = cores_[owner].l1->lookup(line))
                e->state = CohState::Shared;
            if (CacheEntry *e = cores_[owner].l2->lookup(line))
                e->state = CohState::Shared;
            dir->owner = -1;
        }
    }

    if (noncacheable) {
        // Serve directly from the LLC; writes update it in place.
        if (write)
            dir->value = write_value;
        out.value = dir->value;
        return out;
    }

    // Fill the private hierarchy.
    if (write) {
        for (unsigned c = 0; c < cores_.size(); ++c) {
            if (c != core && (dir->sharers & (std::uint32_t{1} << c))) {
                cores_[c].l1->invalidate(line);
                cores_[c].l2->invalidate(line);
            }
        }
        dir->sharers = std::uint32_t{1} << core;
        dir->owner = static_cast<std::int32_t>(core);
    } else {
        dir->sharers |= std::uint32_t{1} << core;
    }

    const std::uint64_t fill_value = write ? write_value : dir->value;
    const CohState state =
        write ? CohState::Modified
              : (dir->sharers == (std::uint32_t{1} << core)
                     ? CohState::Exclusive
                     : CohState::Shared);
    // Exclusive lines can be silently written (E->M); the directory
    // must treat the exclusive holder as the potential owner.
    if (state != CohState::Shared)
        dir->owner = static_cast<std::int32_t>(core);

    CacheEntry evicted;
    CacheEntry &e2 = pc.l2->insert(line, &evicted);
    if (evicted.valid) {
        // L2 eviction: writeback to the LLC and keep inclusion.
        pc.l1->invalidate(evicted.lineAddr);
        CacheArray &vslice = *slices_[sliceOf(evicted.lineAddr)];
        if (CacheEntry *vdir = const_cast<CacheEntry *>(
                vslice.peek(evicted.lineAddr))) {
            if (evicted.state == CohState::Modified)
                vdir->value = evicted.value;
            dropSharer(*vdir, core);
        }
    }
    e2.state = state;
    e2.value = fill_value;

    CacheEntry evicted1;
    CacheEntry &e1 = pc.l1->insert(line, &evicted1);
    e1.state = state;
    e1.value = fill_value;

    out.value = fill_value;
    return out;
}

MemHierarchy::Outcome
MemHierarchy::deviceAccess(Addr paddr, bool write,
                           std::uint64_t write_value)
{
    // The NIC is cache coherent with the LLC (Section 3.3 platform)
    // but has no private cache in our model: treat it as a
    // noncacheable agent hitting the LLC directly.
    Outcome out;
    const Addr requested = alignLine(paddr);
    Cycles extra = 0;
    bool noncacheable = false;
    const Addr line = resolveLine(~CoreId{0}, requested,
                                  &out.redirected, &noncacheable,
                                  &extra);
    out.latency += extra;

    const unsigned home = sliceOf(line);
    out.latency += config_.ringHopLat + config_.llcLat;
    CacheEntry *dir = slices_[home]->lookup(line);
    bool from_dram = false;
    if (dir == nullptr) {
        Cycles fill_extra = 0;
        dir = &llcFill(line, &from_dram, &fill_extra);
        out.latency += fill_extra;
        out.servedFromDram = from_dram;
    }
    if (dir->owner >= 0) {
        const auto owner = static_cast<unsigned>(dir->owner);
        std::uint64_t v = dir->value;
        if (const CacheEntry *e = cores_[owner].l1->peek(line))
            v = e->value;
        else if (const CacheEntry *e = cores_[owner].l2->peek(line))
            v = e->value;
        dir->value = v;
        if (write) {
            cores_[owner].l1->invalidate(line);
            cores_[owner].l2->invalidate(line);
            dropSharer(*dir, owner);
        }
        out.latency += config_.l2Lat;
    }
    if (write) {
        // Invalidate all cached copies; DMA writes must be visible.
        for (unsigned c = 0; c < cores_.size(); ++c) {
            if (dir->sharers & (std::uint32_t{1} << c)) {
                cores_[c].l1->invalidate(line);
                cores_[c].l2->invalidate(line);
            }
        }
        dir->sharers = 0;
        dir->owner = -1;
        dir->value = write_value;
    }
    out.value = dir->value;
    return out;
}

std::uint64_t
MemHierarchy::busRdX(Addr line_addr, Cycles *cost)
{
    const Addr line = alignLine(line_addr);
    const std::uint64_t value = freshValue(line);
    invalidatePrivate(line);
    bool from_dram = false;
    Cycles extra = 0;
    CacheEntry &dir = llcFill(line, &from_dram, &extra);
    dir.value = value;
    dir.sharers = 0;
    dir.owner = -1;
    if (cost != nullptr)
        *cost += config_.llcLat + extra;
    return value;
}

void
MemHierarchy::copyWrite(Addr line_addr, std::uint64_t value,
                        Cycles *cost)
{
    const Addr line = alignLine(line_addr);
    invalidatePrivate(line);
    bool from_dram = false;
    Cycles extra = 0;
    CacheEntry &dir = llcFill(line, &from_dram, &extra);
    dir.value = value;
    dir.sharers = 0;
    dir.owner = -1;
    if (cost != nullptr)
        *cost += config_.llcLat + extra;
}

bool
MemHierarchy::lineModifiedInPrivate(Addr line_addr) const
{
    const Addr line = alignLine(line_addr);
    const CacheEntry *dir = slices_[sliceOf(line)]->peek(line);
    return dir != nullptr && dir->owner >= 0;
}

void
MemHierarchy::regStats(StatGroup group) const
{
    group.gauge("accesses",
                [this] { return double(stats_.accesses); });
    group.gauge("l1_hits",
                [this] { return double(stats_.l1Hits); });
    group.gauge("l2_hits",
                [this] { return double(stats_.l2Hits); });
    group.gauge("llc_hits",
                [this] { return double(stats_.llcHits); });
    group.gauge("dram_fills",
                [this] { return double(stats_.dramFills); });
    group.gauge("redirects",
                [this] { return double(stats_.redirects); },
                "LLC requests canonicalized by a live migration");
    group.gauge(
        "cross_slice_forwards",
        [this] { return double(stats_.crossSliceForwards); });
    group.gauge("nc_bypasses",
                [this] { return double(stats_.ncBypasses); },
                "noncacheable-mode private-cache bypasses");
    group.gauge("nack_retries",
                [this] { return double(stats_.nackRetries); });
    group.gauge("writebacks",
                [this] { return double(stats_.writebacks); });
    group.gauge("upgrades",
                [this] { return double(stats_.upgrades); });
}

} // namespace ctg
