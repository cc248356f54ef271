#include "hw/mem_hierarchy.hh"

#include <bit>
#include <sstream>

namespace ctg
{

namespace
{

Addr
alignLine(Addr addr)
{
    return addr & ~static_cast<Addr>(lineBytes - 1);
}

/** Main-memory table capacity before the first line is stored. */
constexpr std::size_t initialMemSlots = 1024;

} // namespace

MemHierarchy::MemHierarchy(const HwConfig &config)
    : config_(config), memKeys_(initialMemSlots),
      memValues_(initialMemSlots), table_(config.chwEntries)
{
    // Sharer and notification bitmaps are 32-bit, owners 8-bit.
    if (config_.cores == 0 || config_.cores > 32)
        panic("%u cores: the directory holds 1 to 32",
              config_.cores);
    // An L2 entry names its LLC way in 8 bits.
    ctg_assert(config_.llcAssoc <= 256);
    cores_.resize(config_.cores);
    for (unsigned c = 0; c < config_.cores; ++c) {
        cores_[c].l1 = std::make_unique<CacheArray>(
            config_.l1Bytes, config_.l1Assoc);
        cores_[c].l2 = std::make_unique<CacheArray>(
            config_.l2Bytes, config_.l2Assoc);
    }
    for (unsigned s = 0; s < config_.llcSlices(); ++s) {
        slices_.push_back(std::make_unique<CacheArray>(
            config_.llcSliceBytes, config_.llcAssoc));
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
    if (entry.owner == static_cast<std::int8_t>(core))
        entry.owner = -1;
}

void
MemHierarchy::claimExclusive(CacheEntry &dir, Addr line_addr,
                             CoreId core)
{
    invalidateCores(line_addr,
                    dir.sharers & ~(std::uint32_t{1} << core));
    dir.sharers = std::uint32_t{1} << core;
    dir.owner = static_cast<std::int8_t>(core);
}

void
MemHierarchy::invalidateCores(Addr line_addr, std::uint32_t cores)
{
    for (; cores != 0; cores &= cores - 1) {
        PrivateCaches &pc =
            cores_[static_cast<unsigned>(std::countr_zero(cores))];
        pc.l1->invalidate(line_addr);
        pc.l2->invalidate(line_addr);
    }
}

std::size_t
MemHierarchy::memSlot(std::uint32_t key) const
{
    // Fibonacci hashing: the top bits of key * 2^64/phi spread the
    // strided line indices of a page-granular heap over the table.
    const std::size_t mask = memKeys_.size() - 1;
    const int shift = 64 - std::countr_zero(memKeys_.size());
    std::size_t slot = static_cast<std::size_t>(
        (key * 0x9e3779b97f4a7c15ull) >> shift);
    while (memKeys_[slot] != key && memKeys_[slot] != 0)
        slot = (slot + 1) & mask;
    return slot;
}

void
MemHierarchy::growMemory()
{
    std::vector<std::uint32_t> keys(memKeys_.size() * 2);
    std::vector<std::uint64_t> values(keys.size());
    keys.swap(memKeys_);
    values.swap(memValues_);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == 0)
            continue;
        const std::size_t slot = memSlot(keys[i]);
        memKeys_[slot] = keys[i];
        memValues_[slot] = values[i];
    }
}

std::uint64_t
MemHierarchy::loadMemory(Addr line_addr) const
{
    // An empty slot's value stays 0, so an absent line reads as 0.
    return memValues_[memSlot(lineKey(line_addr))];
}

void
MemHierarchy::storeMemory(Addr line_addr, std::uint64_t value)
{
    const std::uint32_t key = lineKey(line_addr);
    std::size_t slot = memSlot(key);
    if (memKeys_[slot] == 0) {
        // An absent line reads as 0: store a 0 only over a present
        // one.
        if (value == 0)
            return;
        if ((memLines_ + 1) * 4 > memKeys_.size() * 3) {
            growMemory();
            slot = memSlot(key);
        }
        memKeys_[slot] = key;
        ++memLines_;
    }
    memValues_[slot] = value;
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
    return loadMemory(line_addr);
}

std::uint64_t
MemHierarchy::authoritativeValue(Addr line_addr) const
{
    return freshValue(alignLine(line_addr));
}

void
MemHierarchy::pokeMemory(Addr line_addr, std::uint64_t value)
{
    storeMemory(alignLine(line_addr), value);
}

void
MemHierarchy::invalidatePrivate(Addr line_addr)
{
    CacheArray &slice = *slices_[sliceOf(line_addr)];
    // Inclusion: a line absent from the LLC has no private copy, and
    // a present one's sharers cover every core holding it. The
    // directory forgets all sharers; the LLC copy (if any) already
    // carries the freshest value only if no owner existed, so
    // callers needing the value must read it first (busRdX does).
    if (CacheEntry *dir =
            const_cast<CacheEntry *>(slice.peek(line_addr))) {
        invalidateCores(line_addr, dir->sharers);
        dir->sharers = 0;
        dir->owner = -1;
    }
}

void
MemHierarchy::backInvalidate(const CacheEntry &evicted)
{
    if (!evicted.valid)
        return;
    // Inclusive LLC: displacing a line evicts it from every private
    // cache, and only its sharers can hold it. Collect the freshest
    // private value (the owner's, a sharer) first.
    std::uint64_t value = evicted.value;
    if (evicted.owner >= 0) {
        const PrivateCaches &pc =
            cores_[static_cast<unsigned>(evicted.owner)];
        if (const CacheEntry *e = pc.l1->peek(evicted.lineAddr()))
            value = e->value;
        else if (const CacheEntry *e = pc.l2->peek(evicted.lineAddr()))
            value = e->value;
    }
    invalidateCores(evicted.lineAddr(), evicted.sharers);
    storeMemory(evicted.lineAddr(), value);
    ++stats_.writebacks;
}

CacheEntry &
MemHierarchy::llcInsert(CacheArray &slice, Addr line_addr)
{
    CacheEntry evicted;
    CacheEntry &fresh = slice.insert(line_addr, &evicted);
    backInvalidate(evicted);
    fresh.value = loadMemory(line_addr);
    fresh.state = CohState::Shared;
    ++stats_.dramFills;
    return fresh;
}

CacheEntry &
MemHierarchy::llcFill(Addr line_addr, Cycles *extra)
{
    CacheArray &slice = *slices_[sliceOf(line_addr)];
    if (CacheEntry *hit = slice.lookup(line_addr))
        return *hit;
    *extra += config_.dramLat;
    return llcInsert(slice, line_addr);
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
                    if (dir != nullptr)
                        claimExclusive(*dir, line, core);
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
                if (dir != nullptr)
                    claimExclusive(*dir, line, core);
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
        // The fill below displaces this line, unless the LLC first
        // back-invalidates one of its set. Start reading its
        // directory entry now, so that host-cache miss overlaps the
        // LLC lookup.
        const CacheEntry &doomed = pc.l2->victim(line);
        if (doomed.valid)
            slices_[sliceOf(doomed.lineAddr())]->prefetch(
                doomed.lineAddr(), doomed.dirWay);
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
    if (dir == nullptr) {
        dir = &llcInsert(slice, line);
        out.latency += config_.dramLat;
        out.servedFromDram = true;
    } else {
        ++stats_.llcHits;
    }

    // Fetch the freshest copy from a remote owner if one exists.
    if (dir->owner >= 0 &&
        dir->owner != static_cast<std::int8_t>(core)) {
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
        claimExclusive(*dir, line, core);
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
        dir->owner = static_cast<std::int8_t>(core);

    CacheEntry evicted;
    CacheEntry &e2 = pc.l2->insert(line, &evicted);
    if (evicted.valid) {
        // L2 eviction: writeback to the LLC and keep inclusion. The
        // victim's directory entry is where its fill found it.
        const Addr victim = evicted.lineAddr();
        pc.l1->invalidate(victim);
        CacheEntry &vdir =
            slices_[sliceOf(victim)]->at(victim, evicted.dirWay);
        ctg_assert(vdir.key == evicted.key);
        if (evicted.state == CohState::Modified)
            vdir.value = evicted.value;
        dropSharer(vdir, core);
    }
    e2.state = state;
    e2.value = fill_value;
    e2.dirWay = static_cast<std::uint8_t>(slice.wayOf(*dir));

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
    CacheArray &slice = *slices_[home];
    CacheEntry *dir = slice.lookup(line);
    if (dir == nullptr) {
        dir = &llcInsert(slice, line);
        out.latency += config_.dramLat;
        out.servedFromDram = true;
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
        invalidateCores(line, dir->sharers);
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
    Cycles extra = 0;
    CacheEntry &dir = llcFill(line, &extra);
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
    Cycles extra = 0;
    CacheEntry &dir = llcFill(line, &extra);
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

std::string
MemHierarchy::directoryViolation() const
{
    std::ostringstream why;
    for (unsigned c = 0; c < cores_.size(); ++c) {
        for (const CacheArray *level :
             {cores_[c].l1.get(), cores_[c].l2.get()}) {
            for (const CacheEntry &e : level->entries()) {
                if (!e.valid)
                    continue;
                const CacheArray &slice = *slices_[sliceOf(e.lineAddr())];
                const CacheEntry *dir = slice.peek(e.lineAddr());
                if (dir == nullptr)
                    why << "core " << c << " holds line 0x" << std::hex
                        << e.lineAddr() << " absent from the LLC";
                else if (!(dir->sharers & (std::uint32_t{1} << c)))
                    why << "core " << c << " holds line 0x" << std::hex
                        << e.lineAddr() << " without its sharer bit";
                else if (level == cores_[c].l2.get() &&
                         e.dirWay != slice.wayOf(*dir))
                    why << "core " << c << " L2 line 0x" << std::hex
                        << e.lineAddr() << " names LLC way " << std::dec
                        << unsigned{e.dirWay} << ", not "
                        << slice.wayOf(*dir);
                else
                    continue;
                return why.str();
            }
        }
    }
    for (const auto &slice : slices_) {
        for (const CacheEntry &dir : slice->entries()) {
            if (dir.valid && dir.owner >= 0 &&
                !(dir.sharers & (std::uint32_t{1} << dir.owner))) {
                why << "owner " << int{dir.owner} << " of line 0x"
                    << std::hex << dir.lineAddr() << " is not a sharer";
                return why.str();
            }
        }
    }
    return {};
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
