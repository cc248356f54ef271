#include "hw/system.hh"

#include <string>

#include "base/span_trace.hh"

namespace ctg
{

HwSystem::HwSystem(const HwConfig &config)
    : config_(config)
{
    // Span events are stamped with this system's hardware clock.
    // Kernel-only runs (no HwSystem) trace unstamped.
    spans::setTickSource([this] { return eventq_.now(); });
    mem_ = std::make_unique<MemHierarchy>(config_);
    for (unsigned c = 0; c < config_.cores; ++c)
        mmus_.push_back(std::make_unique<Mmu>(config_, c, *mem_));
    engine_ = std::make_unique<ChwEngine>(eventq_, *mem_);
    std::vector<Mmu *> raw;
    raw.reserve(mmus_.size());
    for (auto &mmu : mmus_)
        raw.push_back(mmu.get());
    shootdown_ = std::make_unique<ShootdownManager>(
        eventq_, config_, *mem_, std::move(raw));
    iommu_ = std::make_unique<Iommu>(config_, *mem_);
}

HwSystem::~HwSystem()
{
    spans::clearTickSource();
}

HwSystem::AccessResult
HwSystem::coreAccess(CoreId core, Addr vaddr, const PageTables &tables,
                     bool write, std::uint64_t write_value)
{
    AccessResult result;
    Mmu::Result tr = mmus_.at(core)->translate(vaddr, tables);
    result.translationLatency = tr.latency;
    result.latency = tr.latency;
    result.pageWalk = tr.walked;
    if (!tr.valid)
        return result;
    const auto outcome =
        mem_->access(core, tr.paddr, write, write_value);
    result.latency += outcome.latency;
    result.value = outcome.value;
    result.valid = true;
    return result;
}

void
HwSystem::drain(Tick limit_ticks)
{
    eventq_.run(limit_ticks);
}

void
HwSystem::regStats(StatGroup group) const
{
    for (std::size_t c = 0; c < mmus_.size(); ++c) {
        mmus_[c]->regStats(
            group.group("core" + std::to_string(c) + ".mmu"));
    }
    mem_->regStats(group.group("mem_hierarchy"));
    engine_->regStats(group.group("chw"));
    shootdown_->regStats(group.group("shootdown"));
    iommu_->regStats(group.group("iommu"));
}

} // namespace ctg
