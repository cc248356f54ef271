/**
 * @file
 * ContiguitasPolicy — the paper's OS contribution as a drop-in
 * placement policy for the kernel substrate.
 *
 * Confinement: movable allocations are served from the movable
 * region only; unmovable/reclaimable ones from the unmovable region
 * only — never mixed (Section 3.2). Long-lived unmovable allocations
 * are biased toward the far end of the region; pages migrated in at
 * pin time land near the border where their short remaining lifetime
 * keeps shrinking viable. The Algorithm 1 controller resizes the
 * boundary off the allocation critical path, triggered by per-region
 * PSI and a free-memory low watermark.
 */

#ifndef CTG_CONTIGUITAS_POLICY_HH
#define CTG_CONTIGUITAS_POLICY_HH

#include <string>

#include "contiguitas/region_manager.hh"
#include "contiguitas/resize_controller.hh"
#include "kernel/kernel.hh"
#include "kernel/policy.hh"

namespace ctg
{

/**
 * Boundary-resize pacing knobs, grouped so they can be validated in
 * one place. All five are set through set(), which range-checks and
 * warns (warn_once, naming variable and value) instead of silently
 * clamping — an out-of-range assignment keeps the previous value.
 */
struct ResizeTuning
{
    /** Seconds between controller evaluations (resizing is off the
     * allocation critical path; a kernel thread wakes periodically).
     * Valid range (0, 3600]. */
    double periodSec = 1.0;
    /** Resize granularity in pages (16 MB default); must be >= 1. */
    std::uint64_t stepPages = 1u << 12;
    /** Max pages moved per controller wakeup; must be >= 1. */
    std::uint64_t maxPerTick = 1u << 15; // 128 MB
    /** Urgent-expansion watermark: free fraction of the unmovable
     * region below which the region grows regardless of PSI.
     * Valid range [0, 0.5]. */
    double unmovFreeWatermark = 0.08;
    /** Shrink hysteresis: only shrink when the border step would
     * still leave this much of the region free. Valid range [0, 1]. */
    double shrinkFreeSlack = 0.25;

    /**
     * Assign one knob by key: "period", "step", "max", "watermark"
     * or "slack". Unknown keys, malformed numbers and out-of-range
     * values warn (naming the key and the offending value) and leave
     * the current value untouched.
     * @return true iff the value was applied.
     */
    bool set(const std::string &key, const std::string &value);
};

/** Configuration of the Contiguitas OS component. */
struct ContiguitasConfig
{
    RegionManager::Config region;
    ResizeParams resize;
    /** Boundary-resize pacing (period, step, budget, watermarks). */
    ResizeTuning tuning;
    /** Enable the Contiguitas-HW transparent-migration hook. */
    bool hwMigration = false;
    /** Placement bias inside the unmovable region (Section 3.2:
     * allocate away from the border); off = take whatever block the
     * free lists offer first. Ablation knob. */
    bool placementBias = true;
    /** 2 MB blocks defragmented inside the unmovable region per
     * wakeup (0 disables; requires hwMigration for kernel pages). */
    std::uint64_t defragBlocksPerTick = 0;
    /** ZONE_MOVABLE-style baseline: the boundary is fixed at its
     * initial split — no Algorithm 1 controller, no urgent
     * expansion, no expand-on-pin-failure. Confinement and (if
     * budgeted) in-region defrag still apply. */
    bool staticBoundary = false;
};

/**
 * The Contiguitas placement policy.
 */
class ContiguitasPolicy : public MemPolicy
{
  public:
    ContiguitasPolicy(Kernel &kernel, const ContiguitasConfig &config);

    /** Checkpoint restore: adopt serialized regions, controller and
     * policy stats; hooks are re-attached as in cold construction. */
    ContiguitasPolicy(Kernel &kernel, const ContiguitasConfig &config,
                      serde::Reader &in);

    /** Factory for Kernel construction. */
    static Kernel::PolicyFactory
    factory(const ContiguitasConfig &config = {})
    {
        return [config](Kernel &kernel) -> std::unique_ptr<MemPolicy> {
            return std::make_unique<ContiguitasPolicy>(kernel, config);
        };
    }

    /** Factory for the Kernel restore constructor: builds the policy
     * from the serialized stream. The reader must outlive the
     * factory call (Kernel's restore constructor invokes it
     * immediately). */
    static Kernel::PolicyFactory
    restoreFactory(const ContiguitasConfig &config, serde::Reader &in)
    {
        return [config, &in](Kernel &kernel)
                   -> std::unique_ptr<MemPolicy> {
            return std::make_unique<ContiguitasPolicy>(kernel, config,
                                                       in);
        };
    }

    Pfn alloc(const AllocRequest &req) override;
    void free(Pfn head) override;
    void freeRun(Pfn lo, std::uint64_t n) override;
    Pfn allocGigantic(AllocSource src, std::uint64_t owner) override;
    Pfn pin(Pfn head) override;
    void unpin(Pfn head) override;
    void tick(std::uint32_t now_seconds) override;
    AddrPref placementPref(const AllocRequest &req) const override;
    AddrPref pinPlacementPref() const override;
    std::uint64_t defragBudgetPerTick() const override
    {
        return config_.defragBlocksPerTick;
    }
    std::uint64_t freeUserPages() const override;
    std::uint64_t freeKernelPages() const override;
    /** Deferred resizes retry with per-tick backoff, so coarse
     * stepping must keep the fine cadence while one is queued. */
    bool hasPendingMaintenance() const override
    {
        return regions_.deferredResizePending();
    }
    std::pair<Pfn, Pfn> unmovableRegion() const override;
    BuddyAllocator &movableAllocator() override;
    PhysMem &mem() override { return kernel_.mem(); }

    RegionManager &regions() { return regions_; }
    const RegionManager &regions() const { return regions_; }
    const ResizeController &controller() const { return controller_; }

    struct Stats
    {
        std::uint64_t pinMigrations = 0;
        std::uint64_t pinMigrationFailures = 0;
        std::uint64_t urgentExpansions = 0;
        std::uint64_t controllerExpands = 0;
        std::uint64_t controllerShrinks = 0;
    };

    const Stats &stats() const { return stats_; }

    /** Registers `ctg.*` (policy, region manager, controller) and
     * `mem.unmovable.buddy.*` / `mem.movable.buddy.*` subtrees. */
    void regStats(StatGroup group) const override;

    /** Both region allocators plus region-accounting and confinement
     * checks. */
    void
    attachAuditorChecks(MemAuditor &auditor) override
    {
        regions_.attachAuditorChecks(auditor);
    }

    void saveTo(serde::Writer &out) const override;

  private:
    void runController();

    Kernel &kernel_;
    ContiguitasConfig config_;
    RegionManager regions_;
    ResizeController controller_;
    Stats stats_;
    double lastResizeSec_ = 0.0;
};

} // namespace ctg

#endif // CTG_CONTIGUITAS_POLICY_HH
