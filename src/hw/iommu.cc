#include "hw/iommu.hh"

namespace ctg
{

Iommu::Iommu(const HwConfig &config, MemHierarchy &mem)
    : config_(config), mem_(mem), iotlb_(128, 4)
{}

void
Iommu::queueInvalidate(Vpn vpn)
{
    queue_.push_back(vpn);
}

void
Iommu::drainQueue()
{
    while (!queue_.empty()) {
        iotlb_.invalidate(queue_.front());
        queue_.pop_front();
        ++stats_.invalidations;
    }
}

Iommu::Result
Iommu::dmaAccess(Addr vaddr, const PageTables &tables, bool write,
                 std::uint64_t write_value)
{
    ++stats_.accesses;
    drainQueue();

    Result result;
    const Vpn vpn = addrToPfn(vaddr);
    result.latency += iotlbLat;

    Pfn pfn = invalidPfn;
    if (const Tlb::Entry *entry = iotlb_.lookup(vpn)) {
        pfn = entry->pfnHead + (vpn - entry->vpnHead);
        ++stats_.iotlbHits;
    } else {
        const PageTables::Walk walk = tables.walk(vpn);
        const Translation &tr = walk.leaf;
        if (!tr.valid)
            return result;
        result.walked = true;
        ++stats_.walks;
        // IOMMU page walk: charge a flat per-level cost (the IOMMU
        // walker has its own small caches we do not model).
        result.latency += walk.depth * walkLatPerLevel;
        const Vpn head = vpn & ~((Vpn{1} << tr.order) - 1);
        iotlb_.insert(head, tr.pfn - (vpn & ((Vpn{1} << tr.order) - 1)),
                      tr.order);
        pfn = tr.pfn;
    }

    const Addr paddr = pfnToAddr(pfn) + (vaddr & (pageBytes - 1));
    const auto outcome = mem_.deviceAccess(paddr, write, write_value);
    result.latency += outcome.latency;
    result.value = outcome.value;
    result.valid = true;
    return result;
}

} // namespace ctg
