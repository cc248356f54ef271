/**
 * @file
 * Kernel facade: the top-level object representing one simulated
 * server's memory-management stack.
 *
 * It owns physical memory, a placement policy (vanilla Linux or
 * Contiguitas), per-region PSI, the owner registry used by page
 * migration, and the reclaim machinery (shrinker list + watermarks).
 * Subsystems (slab, netstack, address spaces, ...) allocate through
 * it so every allocation gets reclaim-retry and stall accounting.
 */

#ifndef CTG_KERNEL_KERNEL_HH
#define CTG_KERNEL_KERNEL_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "kernel/compaction.hh"
#include "kernel/owner.hh"
#include "kernel/policy.hh"
#include "kernel/psi.hh"
#include "mem/physmem.hh"

namespace ctg
{

/** Static configuration of a simulated server kernel. */
struct KernelConfig
{
    std::uint64_t memBytes = std::uint64_t{4} << 30;
    bool thpEnabled = true;
    /** THP fault behaviour: defer (fail fast, khugepaged promotes
     * later — Linux's defer mode and Meta's production setting) vs
     * direct compaction on the fault path. */
    bool thpDirectCompact = false;
    /** Background compaction (kcompactd) migrations per second;
     * 0 disables. */
    std::uint64_t kcompactdBudgetPerSec = 4096;
    /** Low watermark as a fraction of total pages; direct reclaim
     * kicks in below it. */
    double lowWatermarkFrac = 0.02;
    /** Kernel text + immortal boot allocations. */
    std::uint64_t kernelTextBytes = std::uint64_t{48} << 20;
    /** Direct-reclaim stall charged per failed allocation (us). */
    double reclaimStallUs = 1500.0;
    std::uint64_t seed = 0xc0ffee;
};

/** Subsystems that can surrender pages under memory pressure. */
class Shrinker
{
  public:
    virtual ~Shrinker() = default;

    /** Try to free up to target pages; returns pages actually freed. */
    virtual std::uint64_t shrink(std::uint64_t target_pages) = 0;
};

/**
 * One simulated server kernel.
 */
class Kernel
{
  public:
    using PolicyFactory =
        std::function<std::unique_ptr<MemPolicy>(Kernel &)>;

    /** Factory for the stock-Linux baseline policy. */
    static PolicyFactory vanillaPolicy();

    Kernel(const KernelConfig &config, const PolicyFactory &factory);

    /** Convenience: vanilla kernel. */
    explicit Kernel(const KernelConfig &config);

    /**
     * Checkpoint restore. Constructs a quiescent kernel (no boot
     * allocations — the restored frame table already holds them),
     * restores physical memory from the stream, then invokes the
     * factory, which must build the policy from the same stream (use
     * a restore-mode policy constructor), then restores the kernel's
     * own state. Shrinkers and owner clients re-attach as the
     * workload is restored afterwards. Throws serde::Error on
     * malformed input.
     */
    Kernel(const KernelConfig &config, const PolicyFactory &factory,
           serde::Reader &in);

    /** Serialize physical memory, policy and kernel state. */
    void saveTo(serde::Writer &out) const;

    /** @{ Accessors. */
    PhysMem &mem() { return *mem_; }
    const PhysMem &mem() const { return *mem_; }
    MemPolicy &policy() { return *policy_; }
    OwnerRegistry &owners() { return owners_; }
    const OwnerRegistry &owners() const { return owners_; }
    Psi &psiMovable() { return psiMovable_; }
    Psi &psiUnmovable() { return psiUnmovable_; }
    Rng &rng() { return rng_; }
    const KernelConfig &config() const { return config_; }
    /** @} */

    /** @{ Simulated kernel time. */
    double nowSeconds() const { return nowSeconds_; }
    /** Advance time; runs PSI decay and the policy maintenance tick. */
    void advanceSeconds(double dt);
    /** @} */

    /**
     * Allocate pages with reclaim-retry. On first failure the kernel
     * charges a PSI stall to the region the request targets, runs the
     * shrinkers, optionally compacts (movable requests), and retries.
     * @return head PFN or invalidPfn.
     */
    Pfn allocPages(const AllocRequest &req);

    /** Free a block allocated through allocPages/allocGigantic. */
    void freePages(Pfn head);

    /** HugeTLB-style dynamic 1 GB allocation attempt. */
    Pfn allocGigantic(std::uint64_t owner);

    /** Pin a movable block for IO (may migrate under Contiguitas). */
    Pfn pinPages(Pfn head);

    /** Release a pin. */
    void unpinPages(Pfn head);

    /** @{ Handle-based pinning. Contiguitas-HW may migrate a pinned
     * page; handles stay valid across such moves while raw PFNs go
     * stale. 0 means the pin failed. */
    std::uint64_t pinPagesId(Pfn head);
    void unpinById(std::uint64_t id);
    Pfn pinnedLocation(std::uint64_t id) const;
    /** Called by the policy when hardware moved a pinned page. */
    void notifyPinnedMoved(Pfn old_head, Pfn new_head);
    /** @} */

    /** Register a shrinker (never unregistered in our runs). */
    void registerShrinker(Shrinker *shrinker);

    /** Run shrinkers until target pages freed or all are exhausted. */
    std::uint64_t reclaim(std::uint64_t target_pages);

    /** Register kernel-level cross-checks (owner-handle validity,
     * pin-table consistency) with a system-wide auditor. */
    void attachAuditorChecks(MemAuditor &auditor);

    /** Assemble a system-wide auditor for this server: the policy's
     * allocators and invariant checks plus the kernel's own. The
     * caller owns the auditor; this kernel must outlive it. */
    std::unique_ptr<MemAuditor> makeAuditor();

    /** Compact the movable allocator toward a free block of the
     * given order. */
    CompactionResult compact(unsigned target_order,
                             std::uint64_t max_migrations = 1u << 16);

    /** Event counters for reporting. */
    struct Counters
    {
        std::uint64_t allocRetries = 0;
        std::uint64_t allocFailures = 0;
        std::uint64_t directReclaims = 0;
        std::uint64_t directCompactions = 0;
        std::uint64_t pins = 0;
        std::uint64_t unpins = 0;
        std::uint64_t reclaimedPages = 0;
        std::uint64_t kcompactdRuns = 0;
        /** Lifetime totals over every compaction run (direct and
         * kcompactd), accumulated from CompactionResult. */
        std::uint64_t compactMigrated = 0;
        std::uint64_t compactFailedNoMem = 0;
        std::uint64_t compactSkippedUnmovable = 0;
    };

    const Counters &counters() const { return counters_; }

    /** Register the kernel's counters and occupancy gauges under the
     * given group (conventionally `<server>.kernel`). The policy's
     * subtree is registered separately via MemPolicy::regStats. */
    void regStats(StatGroup group) const;

    /** Pages below which direct reclaim triggers. */
    std::uint64_t lowWatermarkPages() const { return lowWatermark_; }

    /**
     * Start tearing the whole kernel down (~Server, before the
     * workload and fragmenter go). Nothing reads this memory again,
     * so from here on freePages, unpinPages and unpinById do nothing,
     * address spaces skip their unmap walk, and allocPages,
     * allocGigantic, pinPages and advanceSeconds panic: no model code
     * may run. Irreversible. A kernel never torn down (a process
     * exiting mid-run, a kernel without a Server) frees in full.
     */
    void beginTeardown() { tearingDown_ = true; }

    /** True once beginTeardown ran. */
    bool tearingDown() const { return tearingDown_; }

  private:
    void bootAllocations();

    /** Panic if the kernel is being torn down. */
    void checkLive(const char *what) const;

    KernelConfig config_;
    std::unique_ptr<PhysMem> mem_;
    OwnerRegistry owners_;
    std::unique_ptr<MemPolicy> policy_;
    Psi psiMovable_;
    Psi psiUnmovable_;
    Rng rng_;
    std::vector<Shrinker *> shrinkers_;
    std::vector<Pfn> bootPages_;
    Counters counters_;
    std::unordered_map<Pfn, std::uint64_t> pinIdByPfn_;
    std::unordered_map<std::uint64_t, Pfn> pinPfnById_;
    std::uint64_t nextPinId_ = 1;
    double nowSeconds_ = 0.0;
    double kcompactdCarry_ = 0.0;
    std::uint64_t lowWatermark_ = 0;
    bool tearingDown_ = false;
};

} // namespace ctg

#endif // CTG_KERNEL_KERNEL_HH
