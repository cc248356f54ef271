#include "kernel/vanilla_policy.hh"

#include "base/serde.hh"

namespace ctg
{

void
setBlockPinned(PhysMem &mem, Pfn head, bool pinned)
{
    mem.setBlockPinned(head, pinned);
}

VanillaPolicy::VanillaPolicy(PhysMem &mem)
    : mem_(mem), allocator_(mem, 0, mem.numFrames(), "vanilla")
{}

VanillaPolicy::VanillaPolicy(PhysMem &mem, serde::Reader &in)
    : mem_(mem), allocator_(mem, in)
{
    if (allocator_.startPfn() != 0 ||
        allocator_.endPfn() != mem.numFrames())
        throw serde::Error(
            "vanilla policy: allocator coverage is not whole-machine");
}

void
VanillaPolicy::saveTo(serde::Writer &out) const
{
    allocator_.saveTo(out);
}

Pfn
VanillaPolicy::alloc(const AllocRequest &req)
{
    return allocator_.allocPages(req.order, req.mt, req.source,
                                 req.owner);
}

void
VanillaPolicy::free(Pfn head)
{
    allocator_.freePages(head);
}

Pfn
VanillaPolicy::allocGigantic(AllocSource src, std::uint64_t owner)
{
    return allocator_.allocGigantic(MigrateType::Movable, src, owner);
}

Pfn
VanillaPolicy::pin(Pfn head)
{
    // Stock Linux pins in place: the page becomes unmovable wherever
    // it happens to sit, polluting its pageblock.
    setBlockPinned(mem_, head, true);
    return head;
}

void
VanillaPolicy::unpin(Pfn head)
{
    setBlockPinned(mem_, head, false);
}

std::uint64_t
VanillaPolicy::freeUserPages() const
{
    return allocator_.freePageCount();
}

std::uint64_t
VanillaPolicy::freeKernelPages() const
{
    return allocator_.freePageCount();
}

std::pair<Pfn, Pfn>
VanillaPolicy::unmovableRegion() const
{
    return {0, 0};
}

} // namespace ctg
