/**
 * @file
 * Memory placement policy interface.
 *
 * A MemPolicy decides *where* in physical memory each allocation
 * lands. The kernel substrate drives it for every allocation, free,
 * pin and maintenance tick. Two implementations exist:
 *
 *  - VanillaPolicy (this library): one buddy allocator over all of
 *    memory with Linux fallback stealing — the paper's baseline.
 *  - ContiguitasPolicy (src/contiguitas): two regions with a dynamic
 *    boundary, confinement, placement bias and Algorithm 1 resizing.
 *
 * Policies are normally constructed by name through the
 * PolicyRegistry (src/contiguitas/policy_registry.hh), which also
 * derives variants ("contiguitas-nobias", "zone-movable") from
 * config presets rather than subclass forks — the tunable decision
 * points are the virtual hooks below (placementPref,
 * pinPlacementPref, compactUntilTarget, defragBudgetPerTick).
 */

#ifndef CTG_KERNEL_POLICY_HH
#define CTG_KERNEL_POLICY_HH

#include <cstdint>

#include "base/stat_registry.hh"
#include "base/types.hh"
#include "mem/buddy.hh"
#include "mem/physmem.hh"

namespace ctg
{

class MemAuditor;

/** Expected lifetime of an allocation; Contiguitas places long-lived
 * unmovable allocations away from the region border (Section 3.2). */
enum class Lifetime : std::uint8_t
{
    Short = 0,    //!< sub-second churn (skb, fs buffers)
    Long = 1,     //!< minutes-to-hours (slab backing, rings)
    Immortal = 2, //!< never freed (kernel text, boot structures)
};

/** Parameters of one block allocation. */
struct AllocRequest
{
    unsigned order = 0;
    MigrateType mt = MigrateType::Movable;
    AllocSource source = AllocSource::User;
    std::uint64_t owner = 0;
    Lifetime lifetime = Lifetime::Short;
};

/**
 * Placement policy driven by the Kernel facade.
 */
class MemPolicy
{
  public:
    virtual ~MemPolicy() = default;

    /** Allocate one block; invalidPfn on failure (caller reclaims
     * and retries). */
    virtual Pfn alloc(const AllocRequest &req) = 0;

    /** Free a block previously returned by alloc/allocGigantic. */
    virtual void free(Pfn head) = 0;

    /** Free the order-0 pages [lo, lo + n), exactly as free(lo),
     * ..., free(lo + n - 1) would. */
    virtual void freeRun(Pfn lo, std::uint64_t n) = 0;

    /** Allocate a 1 GB gigantic movable block (HugeTLB path). */
    virtual Pfn allocGigantic(AllocSource src, std::uint64_t owner) = 0;

    /**
     * Pin a movable page for DMA/zero-copy IO. Contiguitas first
     * migrates the page into the unmovable region (Section 3.2).
     * @return the (possibly new) PFN of the pinned page, or
     *         invalidPfn if pinning failed.
     */
    virtual Pfn pin(Pfn head) = 0;

    /** Release a pin. */
    virtual void unpin(Pfn head) = 0;

    /** Periodic maintenance (reclaim hooks, region resizing). */
    virtual void tick(std::uint32_t now_seconds) = 0;

    /**
     * Placement preference for one allocation — the policy's
     * opportunity to bias *where inside its allocator* the block
     * lands (Contiguitas pushes long-lived unmovables low, away
     * from the region border; Section 3.2). Default: no preference.
     */
    virtual AddrPref placementPref(const AllocRequest &req) const
    {
        (void)req;
        return AddrPref::None;
    }

    /** Placement preference for the unmovable copy of a pinned page
     * (Contiguitas with placement bias pushes pins high, deep into
     * the unmovable region). Default: no preference. */
    virtual AddrPref pinPlacementPref() const { return AddrPref::None; }

    /**
     * Order the kernel's direct compaction should actually aim for
     * when a caller of order @p requested hits the slow path. A
     * policy may over-compact (build bigger blocks than asked, THP
     * style) or cap the effort. Default: compact exactly what was
     * requested.
     */
    virtual unsigned compactUntilTarget(unsigned requested) const
    {
        return requested;
    }

    /** Background defragmentation budget, in max-order blocks per
     * maintenance tick (0 = no background defrag). */
    virtual std::uint64_t defragBudgetPerTick() const { return 0; }

    /**
     * Does the policy have maintenance work queued that wants the
     * fine tick cadence — deferred region resizes retrying with
     * backoff, half-evacuated regions? Coarse fleet stepping
     * (Server::Config::coarseStep) consults this at each quantum
     * boundary: while false the server batches the rest of its
     * segment into one step; while true it falls back to
     * stepSec-sized steps so the pending work gets its per-second
     * tick retries. Default: nothing pending (stateless policies
     * batch whole segments).
     */
    virtual bool hasPendingMaintenance() const { return false; }

    /** Free movable-capacity pages available to user allocations. */
    virtual std::uint64_t freeUserPages() const = 0;

    /** Free pages available to kernel (unmovable) allocations. */
    virtual std::uint64_t freeKernelPages() const = 0;

    /** The unmovable region bounds; {0, 0} when the policy has no
     * dedicated region (vanilla). */
    virtual std::pair<Pfn, Pfn> unmovableRegion() const = 0;

    /** Allocator serving movable allocations (for compaction). */
    virtual BuddyAllocator &movableAllocator() = 0;

    virtual PhysMem &mem() = 0;

    /** Register the policy's stats subtree (allocators, regions,
     * controller) under the given group. The group is the *server*
     * prefix; implementations add their own `mem.` / `ctg.`
     * components so vanilla and Contiguitas dumps line up. */
    virtual void regStats(StatGroup group) const { (void)group; }

    /** Register this policy's allocators and invariant checks with a
     * system-wide auditor (default: nothing to audit). */
    virtual void attachAuditorChecks(MemAuditor &auditor)
    {
        (void)auditor;
    }

    /** Serialize policy-owned state (allocators, region boundary,
     * deferred resizes, stats) for a checkpoint. Restore happens via
     * each policy's restore constructor, selected by the restoring
     * Server from its own config. */
    virtual void saveTo(serde::Writer &out) const = 0;
};

} // namespace ctg

#endif // CTG_KERNEL_POLICY_HH
