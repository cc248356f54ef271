/**
 * @file
 * One fleet server: a kernel (vanilla or Contiguitas), a workload,
 * an optional fragmentation pretreatment, and the full-memory scan
 * the paper's fleet studies perform (Sections 2.4, 2.5, 5.2).
 */

#ifndef CTG_FLEET_SERVER_HH
#define CTG_FLEET_SERVER_HH

#include <array>
#include <memory>
#include <string>

#include "contiguitas/policy_registry.hh"
#include "kernel/kernel.hh"
#include "sim/stat_sampler.hh"
#include "workloads/fragmenter.hh"
#include "workloads/workload.hh"

namespace ctg
{

/** Results of one server's full memory scan. */
struct ServerScan
{
    /** Free contiguity as a fraction of free memory (Figure 4),
     * indexed 2M/4M/32M/1G. */
    std::array<double, 4> freeContiguity{};
    /** Fraction of aligned blocks containing unmovable pages
     * (Figure 5 / Figure 11), indexed 2M/4M/32M/1G. */
    std::array<double, 4> unmovableBlocks{};
    /** Post-perfect-compaction contiguity as fraction of memory
     * (Figure 12), indexed 2M/32M/1G. */
    std::array<double, 3> potentialContiguity{};
    /** Unmovable 4 KB pages / total pages. */
    double unmovablePageRatio = 0.0;
    /** Unmovable pages per source (Figure 6). */
    std::array<std::uint64_t, numAllocSources> bySource{};
    /** Free pages at scan time. */
    std::uint64_t freePages = 0;
    /** Free aligned 2 MB blocks (uptime-correlation study). */
    std::uint64_t free2mBlocks = 0;
    /** Mean free share inside unmovable 2 MB blocks (Section 5.2's
     * internal fragmentation; scoped to the unmovable region when
     * one exists). */
    double unmovableRegionFreeShare = 0.0;
    /** Simulated uptime. */
    double uptimeSec = 0.0;
};

/**
 * A single simulated server.
 */
class Server
{
  public:
    struct Config
    {
        std::uint64_t memBytes = std::uint64_t{2} << 30;
        /** Placement policy, selected by registry name (empty name =
         * CTG_POLICY, else "vanilla"). Construction goes through
         * PolicyRegistry::instance(); an unregistered name is fatal
         * at server construction. The embedded ContiguitasConfig
         * carries the knobs the contiguitas-family entries use. */
        PolicyConfig policy;
        WorkloadKind kind = WorkloadKind::Web;
        /** Scales all kernel churn rates of the profile. */
        double intensity = 1.0;
        /** Run the Full Fragmentation pretreatment first. */
        bool prefragment = false;
        double uptimeSec = 40.0;
        /** Continuation segment run after the checkpoint boundary.
         * run() always executes uptimeSec then extraUptimeSec as two
         * separate segments, so a straight-through run and a
         * checkpoint-at-the-boundary + resume() run take the exact
         * same sequence of workload steps — the foundation of the
         * bit-identical warm-start contract. */
        double extraUptimeSec = 0.0;
        double stepSec = 1.0;
        /** Scale stepping (default off): while the policy reports no
         * pending maintenance, batch the rest of the segment into one
         * workload step instead of pacing at stepSec — skipping the
         * per-step tick/PSI/kcompactd overhead on idle ticks.
         * Deterministic, but a deliberately coarser model than fine
         * stepping (it changes results, so it is fingerprinted);
         * figure regressions pin that the confinement direction and
         * CDF shapes survive it. Ignored when a sampler or step
         * auditor needs the per-step cadence. */
        bool coarseStep = false;
        std::uint64_t seed = 1;
        /** Exact index-backed AddrPref placement (default off).
         * This deliberately changes placement, so it is opt-in and
         * has its own figure-regression check. */
        bool exactPref = false;

        /** Overlay CTG_POLICY (sim::EnvConfig) onto the policy while
         * policy.name is empty. */
        void applyEnvOverlay();
    };

    explicit Server(const Config &config);

    /**
     * Checkpoint restore: rebuild the complete server — frame table,
     * allocators, policy, registries, workload, RNG streams — from a
     * decoded Server snapshot section. The config must match the one
     * the snapshot was taken under (decodeSnapshot checks the
     * fingerprint first). Throws serde::Error on malformed input;
     * use resume() afterwards, never run().
     */
    Server(const Config &config, serde::Reader &in);

    ~Server();

    /** Boot, (optionally) fragment, run the workload, and scan.
     * Equivalent to runToCheckpoint() followed by resume(). */
    ServerScan run();

    /** First half of run(): pretreatment, workload start, and the
     * uptimeSec segment, stopping at the checkpoint boundary. */
    void runToCheckpoint();

    /** Second half of run(): the extraUptimeSec continuation segment
     * and the final scan. Valid after runToCheckpoint() or on a
     * snapshot-restored server. */
    ServerScan resume();

    /** Serialize the complete server state (the payload of a
     * snapshot Server section). Call at the checkpoint boundary —
     * i.e. after runToCheckpoint(), before resume(). */
    void saveTo(serde::Writer &out) const;

    /**
     * Audit the whole memory stack (free lists, frame table, page
     * conservation, region accounting, confinement, owner handles,
     * pin tables) after pretreatment and after every workload step
     * of run(), panicking on the first violation. Chaos tests run
     * fleets with this on while the fault injector fires. Call
     * before attachTelemetry to get `audit.*` gauges.
     */
    void enableStepAudit();

    /** The step auditor, or nullptr when disabled. */
    MemAuditor *auditor() { return auditor_.get(); }

    Kernel &kernel() { return *kernel_; }
    const Kernel &kernel() const { return *kernel_; }
    Workload &workload() { return *workload_; }
    const Config &config() const { return config_; }

    /** Scan without running (for intermediate sampling). */
    ServerScan scan() const;

    /** scan() computed by the scan::reference frame walks instead of
     * the ContigIndex: the audit oracle scan() must equal bit for
     * bit. O(frames) per metric; for tests and benches only. */
    ServerScan referenceScan() const;

    /**
     * Register this server's whole stat tree (kernel, policy,
     * workload, fragmentation gauges) under `<prefix>.` in the
     * registry. The registry's gauges read live server state, so it
     * must not outlive the server. If a sampler is given, run()
     * snapshots it after every workload step with the simulated time
     * in milliseconds as the tick, producing the fragmentation
     * trajectory time series.
     */
    void attachTelemetry(StatRegistry &registry,
                         StatSampler *sampler = nullptr,
                         const std::string &prefix = "server");

  private:
    /** Advance the workload by one segment, honouring the stepped
     * audit/sampling mode when enabled. */
    void runSegment(double seconds);

    Config config_;
    std::unique_ptr<Kernel> kernel_;
    std::unique_ptr<Fragmenter> fragmenter_;
    std::unique_ptr<Workload> workload_;
    std::unique_ptr<MemAuditor> auditor_;
    StatSampler *sampler_ = nullptr;
};

/** Scale a profile's kernel churn rates by an intensity factor. */
WorkloadProfile scaleProfile(WorkloadProfile profile,
                             double intensity);

class FaultInjector;

namespace snap
{
class Fingerprint;
} // namespace snap

/** Mix a PolicyConfig — resolved name plus every knob that shapes
 * placement — into a snapshot fingerprint. Shared by the server and
 * fleet config fingerprints so both refuse images taken under a
 * different policy. */
void mixPolicyConfig(snap::Fingerprint &fp, const PolicyConfig &policy);

/** Fingerprint of everything in a Server::Config that shapes the
 * simulation (exactPref included — it changes placement). Stored in
 * a snapshot's Meta section; decodeSnapshot refuses images whose
 * fingerprint disagrees with the restoring config. */
std::uint64_t serverConfigFingerprint(const Server::Config &config);

/**
 * Encode a complete snapshot image for a server at its checkpoint
 * boundary: container header, Meta (config fingerprint), Server
 * (full state), Faults (the injector driving this server's task) and
 * End sections. Pair with snap::writeImageFile for durable storage.
 */
std::vector<std::uint8_t> encodeSnapshot(const Server &server,
                                         const FaultInjector &faults);

/**
 * Decode, validate and restore a snapshot image. Checks the header,
 * every section CRC, the Meta fingerprint against `config`, restores
 * the server, then cross-checks the result with a full MemAuditor
 * audit before anything runs. Only when all of that passes is
 * `faults` overwritten with the snapshot's injector state — a failed
 * decode leaves it untouched, so the cold-start fallback replays the
 * straight-through firing pattern. Throws serde::Error on any
 * failure.
 */
std::unique_ptr<Server>
decodeSnapshot(const Server::Config &config,
               const std::vector<std::uint8_t> &bytes,
               FaultInjector *faults);

} // namespace ctg

#endif // CTG_FLEET_SERVER_HH
