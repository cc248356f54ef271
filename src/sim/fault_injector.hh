/**
 * @file
 * Deterministic, seeded fault injection for chaos testing.
 *
 * The simulator's fidelity argument rests on its failure paths:
 * allocations that fail under pressure, migrations that abort
 * mid-copy, region resizes that cannot evacuate. Those paths are
 * rare under benign workloads, so each of them carries a *named
 * injection site* — a probe the subsystem consults before the
 * operation proceeds. Arming a site makes the probe fire according
 * to a trigger spec:
 *
 *  - `p<float>`  fire with the given probability per evaluation,
 *                drawn from a per-site seeded RNG;
 *  - `n<uint>`   fire on every Nth evaluation since arming;
 *  - `o<uint>`   fire once, on the given (1-based) evaluation since
 *                arming; `once` is shorthand for `o1`.
 *
 * Runs replay exactly: every site owns an independent RNG stream
 * derived from the injector seed, so firing patterns do not shift
 * when unrelated subsystems change their call interleaving.
 *
 * Runtime control: the process-wide injector reads the environment
 * on first use — `CTG_FAULTS=site:spec,...` (for example
 * `CTG_FAULTS=buddy.alloc_fail:p0.01,chw.midcopy_abort:n3`) and
 * `CTG_FAULTS_SEED=<uint64>`. Tests arm sites programmatically and
 * reset the injector between cases. With no site armed every probe
 * is a counter increment and one branch.
 */

#ifndef CTG_SIM_FAULT_INJECTOR_HH
#define CTG_SIM_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <string>

#include "base/rng.hh"
#include "base/stat_registry.hh"

namespace ctg
{

namespace serde
{
class Writer;
class Reader;
} // namespace serde

/** Named injection sites threaded through the simulator. */
enum class FaultSite : unsigned
{
    /** BuddyAllocator::allocPages fails outright. */
    BuddyAllocFail = 0,
    /** BuddyAllocator::allocGigantic finds no range. */
    BuddyGiganticFail,
    /** migrateBlock's destination allocation fails. */
    MigrateDstFail,
    /** The owner refuses to repoint after the destination was
     * allocated (exercises the rollback path). */
    MigrateRelocateFail,
    /** ChwEngine::submitMigrate: descriptor install rejected. */
    ChwInstallFail,
    /** ChwEngine::copyNextLine: the OS clears the mapping mid-copy. */
    ChwMidcopyAbort,
    /** RegionManager::evacuateBlock cannot move the block. */
    RegionEvacFail,
    /** Kernel::reclaim: every shrinker comes back empty. */
    KernelReclaimFail,
    /** Snapshot write dies mid-file: the temp file is truncated
     * before the rename (torn write / crashed checkpointer). */
    SnapTornWrite,
    /** One payload byte of a written snapshot flips (silent media
     * corruption — must surface as a section CRC mismatch). */
    SnapBitFlip,
    /** Snapshot is stamped with an alien format version. */
    SnapVersionSkew,
    /** Manifest entry disagrees with the snapshot file it points at
     * (mixed-up checkpoint directories). */
    SnapManifestSkew,
    /** Snapshot file read fails outright (I/O error / missing). */
    SnapReadFail,
};

constexpr unsigned numFaultSites = 13;

/** Trigger specification for one armed site. */
struct FaultSpec
{
    enum class Trigger : std::uint8_t
    {
        Off = 0,
        Probability,
        EveryNth,
        OneShot,
    };

    Trigger trigger = Trigger::Off;
    /** Fire probability per evaluation (Probability trigger). */
    double p = 0.0;
    /** Period (EveryNth) or 1-based target evaluation (OneShot). */
    std::uint64_t n = 0;

    static FaultSpec
    chance(double probability)
    {
        FaultSpec spec;
        spec.trigger = Trigger::Probability;
        spec.p = probability;
        return spec;
    }

    static FaultSpec
    everyNth(std::uint64_t period)
    {
        ctg_assert(period >= 1);
        FaultSpec spec;
        spec.trigger = Trigger::EveryNth;
        spec.n = period;
        return spec;
    }

    static FaultSpec
    oneShot(std::uint64_t at = 1)
    {
        ctg_assert(at >= 1);
        FaultSpec spec;
        spec.trigger = Trigger::OneShot;
        spec.n = at;
        return spec;
    }
};

/**
 * Deterministic fault injector with named sites.
 */
class FaultInjector
{
  public:
    static constexpr std::uint64_t defaultSeed = 0xfa01770123456789ULL;

    explicit FaultInjector(std::uint64_t seed = defaultSeed);

    /**
     * Probe a site. Counts the evaluation and, when the site is
     * armed, applies its trigger.
     * @return true if the caller must simulate the failure.
     */
    bool
    shouldFail(FaultSite site)
    {
        SiteState &state = sites_[index(site)];
        ++state.stats.evaluations;
        if (state.spec.trigger == FaultSpec::Trigger::Off)
            return false;
        return evaluateArmed(site, state);
    }

    /** Arm a site with a trigger spec (replaces any previous spec;
     * restarts the site's since-arming evaluation count). */
    void arm(FaultSite site, FaultSpec spec);

    /** Disarm one site (its cumulative stats are retained). */
    void disarm(FaultSite site);

    /** Disarm every site. */
    void disarmAll();

    /** Disarm every site, zero all stats, and reseed — the clean
     * slate chaos tests start from. */
    void reset(std::uint64_t seed = defaultSeed);

    /** Reseed every per-site RNG stream (does not touch specs). */
    void setSeed(std::uint64_t seed);

    /**
     * Parse and arm a `site:spec,...` list (the CTG_FAULTS syntax).
     * Malformed tokens and unknown site names warn and are skipped.
     * @return true if every token parsed.
     */
    bool configure(const std::string &spec_list);

    bool anyArmed() const { return armedCount_ != 0; }
    bool
    armed(FaultSite site) const
    {
        return sites_[index(site)].spec.trigger !=
               FaultSpec::Trigger::Off;
    }

    /** The spec a site is currently armed with (Trigger::Off when
     * disarmed). */
    const FaultSpec &
    spec(FaultSite site) const
    {
        return sites_[index(site)].spec;
    }

    /**
     * Fork a task-local injector: the same armed specs, fresh
     * since-arming counts, zero stats, and per-site RNG streams
     * derived deterministically from this injector's seed and the
     * stream id. A forked injector's firing pattern depends only on
     * (seed, streamId, its own probe sequence) — never on sibling
     * tasks or the thread schedule — which is what makes parallel
     * fleet runs replay the sequential path bit-identically.
     *
     * Stateful triggers are per task: a OneShot armed on the parent
     * fires once in *every* forked task, not once per fleet.
     */
    FaultInjector forkForTask(std::uint64_t streamId) const;

    /** Fold another injector's per-site evaluation/fire counts into
     * this one (the deterministic merge step after a fleet run). */
    void absorbStats(const FaultInjector &other);

    /** Per-site probe accounting. */
    struct SiteStats
    {
        std::uint64_t evaluations = 0;
        std::uint64_t fires = 0;
    };

    const SiteStats &
    siteStats(FaultSite site) const
    {
        return sites_[index(site)].stats;
    }

    std::uint64_t totalFires() const;

    /** Serialize the complete injector state: seed, per-site spec,
     * since-arming count, RNG stream position and stats. A restored
     * injector continues the exact firing pattern of the saved one,
     * which the bit-identical checkpoint-resume contract requires. */
    void saveTo(serde::Writer &out) const;

    /** Restore state written by saveTo onto this injector. Throws
     * serde::Error on malformed input (including a site-count
     * mismatch from a different build). */
    void loadFrom(serde::Reader &in);

    /** Canonical site name, e.g. "buddy.alloc_fail". */
    static const char *siteName(FaultSite site);

    /** Reverse lookup; returns false for unknown names. */
    static bool siteFromName(const std::string &name, FaultSite *out);

    /** Register `<site>.evaluations` / `<site>.fires` gauges for
     * every site under the given group (conventionally `faults`). */
    void regStats(StatGroup group) const;

  private:
    struct SiteState
    {
        FaultSpec spec;
        /** Evaluations since the site was last armed; EveryNth and
         * OneShot triggers count against this, so specs mean "the
         * Nth evaluation after arming" regardless of prior runs. */
        std::uint64_t sinceArmed = 0;
        Rng rng{0};
        SiteStats stats;
    };

    static unsigned
    index(FaultSite site)
    {
        const auto i = static_cast<unsigned>(site);
        ctg_assert(i < numFaultSites);
        return i;
    }

    /** Slow path of shouldFail for armed sites. Fires show up as
     * span instants (Faults flag) annotated with the site name, so
     * chaos runs place each fault inside the causal span tree. */
    bool evaluateArmed(FaultSite site, SiteState &state);

    void reseedSite(unsigned i);

    std::array<SiteState, numFaultSites> sites_;
    unsigned armedCount_ = 0;
    std::uint64_t seed_;
};

/**
 * The injector every subsystem probes. Normally the process-wide
 * singleton, configured from CTG_FAULTS / CTG_FAULTS_SEED on first
 * access; tests reconfigure it programmatically (and must reset() it
 * between cases). While a FaultInjectorScope is active on the
 * calling thread, its injector is returned instead — parallel fleet
 * workers scope a forked injector around each server task so probes
 * never race on (or nondeterministically drain) the shared streams.
 */
FaultInjector &faultInjector();

/**
 * RAII thread-local override of faultInjector(). Scopes nest; the
 * previous injector (or the global singleton) is restored on
 * destruction. The caller keeps ownership of the injector, which
 * must outlive the scope.
 */
class FaultInjectorScope
{
  public:
    explicit FaultInjectorScope(FaultInjector &injector);
    ~FaultInjectorScope();

    FaultInjectorScope(const FaultInjectorScope &) = delete;
    FaultInjectorScope &operator=(const FaultInjectorScope &) = delete;

  private:
    FaultInjector *prev_;
};

} // namespace ctg

#endif // CTG_SIM_FAULT_INJECTOR_HH
