/**
 * @file
 * Baseline Linux-like placement policy: one buddy allocator over all
 * of physical memory. Unmovable allocations mix freely with movable
 * ones through migratetype fallback — the behaviour the paper's
 * Section 2 measures in production.
 */

#ifndef CTG_KERNEL_VANILLA_POLICY_HH
#define CTG_KERNEL_VANILLA_POLICY_HH

#include "kernel/policy.hh"
#include "mem/auditor.hh"

namespace ctg
{

/** Single-region policy matching stock Linux 5.12 behaviour. */
class VanillaPolicy : public MemPolicy
{
  public:
    explicit VanillaPolicy(PhysMem &mem);

    /** Checkpoint restore: adopt the serialized allocator state (the
     * frame table must already be restored). */
    VanillaPolicy(PhysMem &mem, serde::Reader &in);

    Pfn alloc(const AllocRequest &req) override;
    void free(Pfn head) override;
    Pfn allocGigantic(AllocSource src, std::uint64_t owner) override;
    Pfn pin(Pfn head) override;
    void unpin(Pfn head) override;
    void tick(std::uint32_t) override {}
    std::uint64_t freeUserPages() const override;
    std::uint64_t freeKernelPages() const override;
    std::pair<Pfn, Pfn> unmovableRegion() const override;
    BuddyAllocator &movableAllocator() override { return allocator_; }
    PhysMem &mem() override { return mem_; }

    void
    regStats(StatGroup group) const override
    {
        allocator_.regStats(group.group("mem.buddy"));
    }

    void
    attachAuditorChecks(MemAuditor &auditor) override
    {
        auditor.addAllocator(&allocator_);
    }

    const BuddyAllocator &allocator() const { return allocator_; }

    void saveTo(serde::Writer &out) const override;

  private:
    PhysMem &mem_;
    BuddyAllocator allocator_;
};

/** Set/clear the pinned flag on every frame of a block. */
void setBlockPinned(PhysMem &mem, Pfn head, bool pinned);

} // namespace ctg

#endif // CTG_KERNEL_VANILLA_POLICY_HH
