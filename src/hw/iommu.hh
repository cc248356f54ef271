/**
 * @file
 * IOMMU with an IOTLB and a queued-invalidation interface, plus a
 * device-TLB-equipped NIC front end. Device accesses translate
 * through the IOTLB and hit the LLC as cache-coherent DMA; the core
 * posts TLB invalidations onto an in-memory queue that the IOMMU
 * drains asynchronously — the mechanism Contiguitas-HW leans on for
 * device-side lazy invalidation (Section 3.3).
 */

#ifndef CTG_HW_IOMMU_HH
#define CTG_HW_IOMMU_HH

#include <deque>

#include "hw/tlb.hh"

namespace ctg
{

/**
 * IOMMU + NIC device TLB model.
 */
class Iommu
{
  public:
    Iommu(const HwConfig &config, MemHierarchy &mem);

    /** IOTLB lookup latency, paid by every access. */
    static constexpr Cycles iotlbLat = 4;
    /** IOTLB-miss walk cost per table entry read. */
    static constexpr Cycles walkLatPerLevel = 40;

    /** Result of one DMA access. */
    struct Result
    {
        bool valid = false;
        Cycles latency = 0;
        std::uint64_t value = 0;
        bool walked = false;
    };

    /**
     * Device read/write of vaddr through the given (DMA) page
     * tables. Pending queued invalidations are drained first.
     */
    Result dmaAccess(Addr vaddr, const PageTables &tables, bool write,
                     std::uint64_t write_value = 0);

    /** Post an invalidation request onto the in-memory queue (the
     * core returns immediately; no blocking handshake). */
    void queueInvalidate(Vpn vpn);

    /** Number of requests still queued. */
    std::size_t pendingInvalidations() const { return queue_.size(); }

    struct Stats
    {
        std::uint64_t accesses = 0;
        std::uint64_t iotlbHits = 0;
        std::uint64_t walks = 0;
        std::uint64_t invalidations = 0;
    };

    const Stats &stats() const { return stats_; }

    /** Register IOMMU counters under the given group. */
    void
    regStats(StatGroup group) const
    {
        group.gauge("accesses",
                    [this] { return double(stats_.accesses); });
        group.gauge("iotlb_hits",
                    [this] { return double(stats_.iotlbHits); });
        group.gauge("walks",
                    [this] { return double(stats_.walks); });
        group.gauge(
            "invalidations",
            [this] { return double(stats_.invalidations); },
            "queued invalidations drained");
    }

  private:
    void drainQueue();

    const HwConfig &config_;
    MemHierarchy &mem_;
    Tlb iotlb_;
    std::deque<Vpn> queue_;
    Stats stats_;
};

} // namespace ctg

#endif // CTG_HW_IOMMU_HH
