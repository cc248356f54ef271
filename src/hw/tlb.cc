#include "hw/tlb.hh"

namespace ctg
{

namespace
{

constexpr unsigned supportedOrders[] = {0, hugeOrder, gigaOrder};

/** Index of a supported order in Tlb::held_. */
unsigned
sizeIndex(unsigned order)
{
    return order / hugeOrder;
}

} // namespace

Tlb::Tlb(unsigned entries, unsigned assoc)
    : assoc_(assoc)
{
    ctg_assert(entries > 0 && assoc > 0 && entries % assoc == 0);
    // Set counts like 96 (1536/16) are not powers of two; index by
    // modulo as real TLBs effectively do with their hash.
    sets_ = entries / assoc;
    entries_.resize(entries);
}

std::uint64_t
Tlb::setOf(Vpn vpn, unsigned order) const
{
    return (vpn >> order) % sets_;
}

const Tlb::Entry *
Tlb::lookup(Vpn vpn)
{
    // One probe per supported page size, like split/skewed designs.
    for (const unsigned order : supportedOrders) {
        if (held_[sizeIndex(order)] == 0)
            continue;
        const Vpn head = vpn & ~((Vpn{1} << order) - 1);
        const std::uint64_t set = setOf(vpn, order);
        for (unsigned way = 0; way < assoc_; ++way) {
            Entry &entry = entries_[set * assoc_ + way];
            if (entry.valid && entry.order == order &&
                entry.vpnHead == head) {
                entry.lru = ++lruClock_;
                ++stats.hits;
                return &entry;
            }
        }
    }
    ++stats.misses;
    return nullptr;
}

void
Tlb::insert(Vpn vpn_head, Pfn pfn_head, unsigned order)
{
    ctg_assert(order == 0 || order == hugeOrder || order == gigaOrder);
    ctg_assert((vpn_head & ((Vpn{1} << order) - 1)) == 0);
    const std::uint64_t set = setOf(vpn_head, order);
    Entry *victim = nullptr;
    for (unsigned way = 0; way < assoc_; ++way) {
        Entry &entry = entries_[set * assoc_ + way];
        if (entry.valid && entry.order == order &&
            entry.vpnHead == vpn_head) {
            victim = &entry; // refresh in place
            break;
        }
        if (!entry.valid) {
            if (victim == nullptr || victim->valid)
                victim = &entry;
            continue;
        }
        if (victim == nullptr ||
            (victim->valid && entry.lru < victim->lru)) {
            victim = &entry;
        }
    }
    ctg_assert(victim != nullptr);
    if (victim->valid)
        --held_[sizeIndex(victim->order)];
    ++held_[sizeIndex(order)];
    victim->valid = true;
    victim->vpnHead = vpn_head;
    victim->pfnHead = pfn_head;
    victim->order = order;
    victim->lru = ++lruClock_;
}

bool
Tlb::invalidate(Vpn vpn)
{
    bool any = false;
    for (const unsigned order : supportedOrders) {
        if (held_[sizeIndex(order)] == 0)
            continue;
        const Vpn head = vpn & ~((Vpn{1} << order) - 1);
        const std::uint64_t set = setOf(vpn, order);
        for (unsigned way = 0; way < assoc_; ++way) {
            Entry &entry = entries_[set * assoc_ + way];
            if (entry.valid && entry.order == order &&
                entry.vpnHead == head) {
                entry = Entry{};
                --held_[sizeIndex(order)];
                any = true;
            }
        }
    }
    if (any)
        ++stats.invalidations;
    return any;
}

void
Tlb::flushAll()
{
    for (auto &entry : entries_)
        entry = Entry{};
    held_ = {};
}

PageWalkCache::PageWalkCache(unsigned entries)
    : entries_(entries)
{
    ctg_assert(entries > 0);
}

bool
PageWalkCache::lookup(std::uint64_t key, Addr *table_addr)
{
    for (auto &entry : entries_) {
        if (entry.valid && entry.key == key) {
            entry.lru = ++lruClock_;
            if (table_addr != nullptr)
                *table_addr = entry.tableAddr;
            return true;
        }
    }
    return false;
}

void
PageWalkCache::insert(std::uint64_t key, Addr table_addr)
{
    Entry *victim = &entries_[0];
    for (auto &entry : entries_) {
        if (entry.valid && entry.key == key) {
            entry.tableAddr = table_addr;
            entry.lru = ++lruClock_;
            return;
        }
        if (!entry.valid) {
            victim = &entry;
            break;
        }
        if (entry.lru < victim->lru)
            victim = &entry;
    }
    victim->valid = true;
    victim->key = key;
    victim->tableAddr = table_addr;
    victim->lru = ++lruClock_;
}

void
PageWalkCache::flushAll()
{
    for (auto &entry : entries_)
        entry = Entry{};
}

Mmu::Mmu(const HwConfig &config, CoreId core, MemHierarchy &mem)
    : config_(config), core_(core), mem_(mem),
      l1_(config.l1TlbEntries, config.l1TlbAssoc),
      l2_(config.l2TlbEntries, config.l2TlbAssoc)
{
    for (int level = 0; level < 3; ++level)
        pwcs_.emplace_back(config.pwcEntries);
}

Mmu::Result
Mmu::translate(Addr vaddr, const PageTables &tables)
{
    ++stats_.translations;
    Result result;
    const Vpn vpn = addrToPfn(vaddr);
    const Addr page_off = vaddr & (pageBytes - 1);

    auto finish = [&result, vpn, page_off](const Tlb::Entry &entry) {
        const Vpn delta = vpn - entry.vpnHead;
        result.valid = true;
        result.paddr =
            pfnToAddr(entry.pfnHead + delta) + page_off;
    };

    result.latency += config_.l1TlbLat;
    if (const Tlb::Entry *entry = l1_.lookup(vpn)) {
        finish(*entry);
        return result;
    }

    result.latency += config_.l2TlbLat;
    if (const Tlb::Entry *entry = l2_.lookup(vpn)) {
        l1_.insert(entry->vpnHead, entry->pfnHead, entry->order);
        finish(*entry);
        return result;
    }

    // Page walk. The PWCs can skip upper radix levels; every level
    // actually visited is a real memory access through the cache
    // hierarchy.
    result.walked = true;
    ++stats_.walks;
    result.latency += config_.pwcLat;

    const PageTables::Walk walk = tables.walk(vpn);
    ctg_assert(walk.depth >= 1);

    // Deepest PWC hit determines where the walk starts. PWC level i
    // caches the table reached after consuming i+1 radix levels.
    unsigned start = 0;
    const unsigned upper_levels = walk.depth - 1;
    for (int i = static_cast<int>(
             std::min(upper_levels, 3u)) - 1;
         i >= 0; --i) {
        const std::uint64_t key =
            vpn >> (27 - 9 * static_cast<unsigned>(i));
        if (pwcs_[static_cast<unsigned>(i)].lookup(key, nullptr)) {
            start = static_cast<unsigned>(i) + 1;
            break;
        }
    }

    for (unsigned j = start; j < walk.depth; ++j) {
        const auto outcome = mem_.access(core_, walk.addrs[j], false);
        result.latency += outcome.latency;
        stats_.walkCycles += outcome.latency;
        ++result.walkDepth;
    }

    // Refill the PWCs for the levels traversed.
    for (unsigned j = 0; j + 1 < walk.depth && j < 3; ++j) {
        const std::uint64_t key = vpn >> (27 - 9 * j);
        pwcs_[j].insert(key, walk.addrs[j + 1]);
    }

    const Translation &tr = walk.leaf;
    if (!tr.valid)
        return result;

    const Vpn head = vpn & ~((Vpn{1} << tr.order) - 1);
    const Pfn pfn_head = tr.pfn - (vpn & ((Vpn{1} << tr.order) - 1));
    l1_.insert(head, pfn_head, tr.order);
    l2_.insert(head, pfn_head, tr.order);
    result.valid = true;
    result.paddr = pfnToAddr(tr.pfn) + page_off;
    return result;
}

Cycles
Mmu::invlpg(Vpn vpn)
{
    ++stats_.invlpgs;
    l1_.invalidate(vpn);
    l2_.invalidate(vpn);
    for (auto &pwc : pwcs_)
        pwc.flushAll();
    return config_.invlpgCost;
}

void
Mmu::flushAll()
{
    l1_.flushAll();
    l2_.flushAll();
    for (auto &pwc : pwcs_)
        pwc.flushAll();
}

namespace
{

void
regTlbStats(StatGroup group, const Tlb &tlb)
{
    group.gauge("hits", [&tlb] { return double(tlb.stats.hits); });
    group.gauge("misses",
                [&tlb] { return double(tlb.stats.misses); });
    group.gauge("invalidations",
                [&tlb] { return double(tlb.stats.invalidations); });
}

} // namespace

void
Mmu::regStats(StatGroup group) const
{
    group.gauge("translations",
                [this] { return double(stats_.translations); });
    group.gauge("walks", [this] { return double(stats_.walks); },
                "translations that missed both TLB levels");
    group.gauge("walk_cycles",
                [this] { return double(stats_.walkCycles); },
                "cycles spent in hardware page walks");
    group.gauge("invlpgs",
                [this] { return double(stats_.invlpgs); });
    regTlbStats(group.group("l1"), l1_);
    regTlbStats(group.group("l2"), l2_);
}

} // namespace ctg
