/**
 * @file
 * Fleet-scale study driver: a population of servers with randomized
 * workloads, intensities and uptimes, run in parallel and scanned,
 * reproducing the methodology behind Figures 4, 5 and 6 and the
 * Section 2.4 uptime-correlation analysis.
 *
 * Servers are independent, so run() farms them out to a
 * work-stealing Executor, one bounded window of servers at a time.
 * Determinism is a contract, not an accident: per-server configs are
 * sampled from the fleet RNG in server order on the calling thread,
 * every worker task runs under a forked per-server fault injector
 * and a per-thread span capture, and all observable side effects
 * (the per-server scan callback, fleet Distributions, span streams,
 * fault counters, manifest entries) are applied in a merge step that
 * walks each window's servers in index order before the next window
 * starts — so a run is byte-identical at every thread count,
 * including threads = 1 (the sequential path), and holds O(window)
 * results in memory however large the population. See DESIGN.md §10.
 */

#ifndef CTG_FLEET_FLEET_HH
#define CTG_FLEET_FLEET_HH

#include <functional>
#include <vector>

#include "fleet/server.hh"

namespace ctg
{

/**
 * A sampled population of production-like servers.
 */
class Fleet
{
  public:
    struct Config
    {
        unsigned servers = 60;
        std::uint64_t memBytes = std::uint64_t{1} << 31; // 2 GiB
        /** Placement policy for every server, selected by registry
         * name (empty name = CTG_POLICY, else "vanilla"); copied
         * into each sampled Server::Config. */
        PolicyConfig policy;
        /** Uptime range (simulated seconds; the steady state is
         * reached within the first ~30 s of simulated churn, just as
         * production servers fragment within their first hour). */
        double minUptimeSec = 4.0;
        double maxUptimeSec = 60.0;
        /** Intensity spread across servers. */
        double minIntensity = 0.4;
        double maxIntensity = 1.6;
        /** Share of servers that were pre-fragmented by a previous
         * tenant. */
        double prefragmentFrac = 0.25;
        /** Continuation segment each server runs after its sampled
         * uptime (Server::Config::extraUptimeSec, a plain copy).
         * With a restore directory set, only this segment is
         * simulated — the sampled uptime comes from the snapshot. */
        double extraUptimeSec = 0.0;
        std::uint64_t seed = 0xf1ee7;
        /** Worker threads for run(): 0 = auto (the CTG_THREADS
         * environment variable, else hardware concurrency); 1 =
         * sequential legacy path. Any value produces bit-identical
         * results. */
        unsigned threads = 0;
        /** Fix every server's workload kind by name (workloadKey
         * vocabulary: "web", "cache-a", ..., "aging") instead of
         * sampling the standard six-kind mix — population studies of
         * a single workload (Figure 11 cells). Empty defers to
         * CTG_WORKLOAD. The kind draw is still taken from the fleet
         * RNG so the rest of the seed stream is unchanged. Unknown
         * names warn and leave the sampled mix in place. */
        std::string workloadOverride;
        /** Per-server exact AddrPref toggle, copied into every
         * Server::Config (default off). */
        bool exactPref = false;
        /** Per-server scale stepping toggle, copied into every
         * Server::Config (default off). Changes results (deliberately
         * coarser model), so it is part of both config
         * fingerprints. */
        bool coarseStep = false;

        /** Checkpoint directory (CTG_CHECKPOINT): every server's
         * state at its uptime boundary is written here as an
         * integrity-checked snapshot file, plus a manifest after the
         * run. Empty disables checkpointing. The run's results are
         * unchanged — servers continue into their extra segment
         * after the snapshot is taken. */
        std::string checkpointDir;

        /** Restore directory (CTG_RESTORE): servers resume from the
         * snapshots found here instead of simulating their uptime
         * segment. Any validation failure — missing file, torn
         * write, CRC mismatch, version skew, manifest disagreement,
         * failed audit — warns and cold-starts that server, so the
         * fleet's output is bit-identical to a straight-through run
         * either way. Empty disables restoring. */
        std::string restoreDir;

        /** Overlay environment-derived fields (sim::EnvConfig) onto
         * any still-unset knobs (threads, policy, workloadOverride,
         * checkpointDir, restoreDir). */
        void applyEnvOverlay();

        /** Move checkpointDir and restoreDir, where set, into their
         * subdirectory `name`. A binary that runs several fleets
         * gives each its own name, so each keeps its own snapshot
         * set rather than overwriting the previous fleet's. */
        void useSnapshotSubdir(const std::string &name);
    };

    /** Servers dispatched per worker thread before the merge
     * drains them: run() keeps at most kMergeWindowPerThread ×
     * threads results in flight. Results do not depend on it. */
    static constexpr unsigned kMergeWindowPerThread = 64;

    /** Per-server result callback: server index and its scan. */
    using ScanCallback =
        std::function<void(unsigned server, const ServerScan &)>;

    explicit Fleet(const Config &config) : config_(config) {}

    /**
     * Attach fleet-level telemetry. Servers are transient (created
     * and destroyed per task), so per-server gauges would dangle;
     * the fleet instead owns value-holding Distributions of the scan
     * results, registered under `<prefix>.`, plus `run_wall_ms` /
     * `threads` gauges reading the last run()'s wall clock and
     * worker count (the fleet must outlive the registry's reads).
     */
    void attachTelemetry(StatRegistry &registry,
                         const std::string &prefix = "fleet");

    /** Run every server, calling `onScan` once per server, in
     * server order, on the calling thread (during the merge of the
     * window that ran it). A task failure rethrows after every
     * server below the failing one has been merged — the same
     * servers at any thread count. (No manifest is written then;
     * which orphan snapshot files the failing window left behind
     * depends on the window size.) */
    void run(const ScanCallback &onScan);

    /** Run every server and collect its scan, indexed by server. */
    std::vector<ServerScan> run();

    /** Wall-clock milliseconds of the last run(). */
    double lastRunWallMs() const { return runWallMs_; }

    /** Worker threads the last run() used. */
    unsigned lastRunThreads() const { return runThreads_; }

    /** One server's config with every fleet-wide (non-sampled) knob
     * stamped: memBytes, policy, toggles, step mode, extra uptime.
     * run() starts each sampled config from this; benchmarks reuse
     * it to probe a representative server without restating the
     * stamping rules. */
    Server::Config baseServerConfig() const;

    const Config &config() const { return config_; }

  private:
    Config config_;
    Distribution *freeContiguity2m_ = nullptr;
    Distribution *unmovableBlocks2m_ = nullptr;
    Distribution *unmovablePageRatio_ = nullptr;
    Distribution *uptimeSec_ = nullptr;
    Counter *serversRun_ = nullptr;
    double runWallMs_ = 0.0;
    unsigned runThreads_ = 0;
};

/** Fingerprint of everything in a Fleet::Config that shapes the
 * population (thread count and telemetry knobs excluded — they are
 * bit-identical by contract). Stamped into the checkpoint manifest;
 * a restore against a different fleet configuration is refused up
 * front. The workload override is mixed in resolved form, so an
 * unknown name fingerprints like no override — it leaves the same
 * sampled population. */
std::uint64_t fleetConfigFingerprint(const Fleet::Config &config);

} // namespace ctg

#endif // CTG_FLEET_FLEET_HH
