#include "fleet/fleet.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>

#include "base/env_config.hh"
#include "base/host_mem.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/span_trace.hh"
#include "sim/executor.hh"
#include "sim/fault_injector.hh"
#include "sim/snapshot.hh"

namespace ctg
{

void
Fleet::Config::applyEnvOverlay()
{
    const sim::EnvConfig env = sim::EnvConfig::fromEnv();
    if (threads == 0)
        threads = env.threads;
    if (policy.name.empty() && !env.policySpec.empty())
        parsePolicySpec(env.policySpec, &policy);
    if (workloadOverride.empty())
        workloadOverride = env.workloadOverride;
    if (checkpointDir.empty())
        checkpointDir = env.checkpointDir;
    if (restoreDir.empty())
        restoreDir = env.restoreDir;
}

void
Fleet::Config::useSnapshotSubdir(const std::string &name)
{
    if (!checkpointDir.empty())
        checkpointDir += "/" + name;
    if (!restoreDir.empty())
        restoreDir += "/" + name;
}

namespace
{

/** Resolve the named workload override against workloadKey(). An
 * unknown name warns and leaves the sampled mix in place — a typo in
 * CTG_WORKLOAD must not silently pick a kind. */
std::optional<WorkloadKind>
resolvedKindOverride(const Fleet::Config &config)
{
    if (config.workloadOverride.empty())
        return std::nullopt;
    WorkloadKind kind = WorkloadKind::Web;
    if (parseWorkloadKind(config.workloadOverride, &kind))
        return kind;
    warn_once("ignoring unknown workload override '%s'",
              config.workloadOverride.c_str());
    return std::nullopt;
}

} // namespace

std::uint64_t
fleetConfigFingerprint(const Fleet::Config &config)
{
    snap::Fingerprint fp;
    fp.mixU32(config.servers);
    fp.mixU64(config.memBytes);
    mixPolicyConfig(fp, config.policy);
    fp.mixDouble(config.minUptimeSec);
    fp.mixDouble(config.maxUptimeSec);
    fp.mixDouble(config.minIntensity);
    fp.mixDouble(config.maxIntensity);
    fp.mixDouble(config.prefragmentFrac);
    fp.mixDouble(config.extraUptimeSec);
    fp.mixU64(config.seed);
    const std::optional<WorkloadKind> kind =
        resolvedKindOverride(config);
    fp.mixBool(kind.has_value());
    if (kind)
        fp.mixU32(static_cast<std::uint32_t>(*kind));
    // Coarse stepping changes results, so it partitions snapshots
    // just like it does in serverConfigFingerprint.
    fp.mixBool(config.coarseStep);
    return fp.value();
}

Server::Config
Fleet::baseServerConfig() const
{
    Server::Config sc;
    sc.memBytes = config_.memBytes;
    sc.policy = config_.policy;
    sc.exactPref = config_.exactPref;
    sc.coarseStep = config_.coarseStep;
    sc.extraUptimeSec = config_.extraUptimeSec;
    return sc;
}

void
Fleet::attachTelemetry(StatRegistry &registry,
                       const std::string &prefix)
{
    const StatGroup group(registry, prefix);
    serversRun_ = &group.counter("servers_run");
    freeContiguity2m_ = &group.distribution(
        "free_contiguity_2m",
        "per-server fraction of free memory in free 2M blocks");
    unmovableBlocks2m_ = &group.distribution(
        "unmovable_blocks_2m",
        "per-server fraction of 2M blocks with unmovable pages");
    unmovablePageRatio_ =
        &group.distribution("unmovable_page_ratio");
    uptimeSec_ = &group.distribution("uptime_sec");
    group.gauge(
        "run_wall_ms", [this] { return runWallMs_; },
        "wall-clock milliseconds of the last run()");
    group.gauge(
        "threads",
        [this] { return static_cast<double>(runThreads_); },
        "worker threads used by the last run()");
    group.gauge(
        "peak_rss_mb",
        [] {
            return static_cast<double>(peakRssBytes()) /
                   (1024.0 * 1024.0);
        },
        "peak resident-set size of the whole process (MiB)");
}

std::vector<ServerScan>
Fleet::run()
{
    std::vector<ServerScan> scans;
    scans.reserve(config_.servers);
    run([&scans](unsigned, const ServerScan &scan) {
        scans.push_back(scan);
    });
    return scans;
}

void
Fleet::run(const ScanCallback &onScan)
{
    const auto wallStart = std::chrono::steady_clock::now();

    Executor executor(config_.threads);
    runThreads_ = executor.threads();

    // Stream ids for the per-server captures are reserved up front
    // from the main thread, so back-to-back fleets in one process
    // never reuse a track (a reused track's logical clock would
    // restart and break event ordering in viewers).
    const bool spansOn = spans::anyEnabled();
    const std::uint32_t streamBase =
        spansOn ? spans::reserveStreams(config_.servers) : 0;
    CTG_SPAN_NAMED(run_span, Fleet, "fleet.run",
                   {{"servers", config_.servers},
                    {"threads", runThreads_}});

    // The sampled mix stays the six paper kinds even now that more
    // profiles exist: adding to this array would shift every seed
    // stream and break the bit-identity contract with older runs.
    // The aging profiles enter through the workload override.
    static const WorkloadKind kinds[] = {
        WorkloadKind::Web,    WorkloadKind::CacheA,
        WorkloadKind::CacheB, WorkloadKind::CI,
        WorkloadKind::Nginx,  WorkloadKind::Memcached,
    };
    const std::optional<WorkloadKind> pinnedKind =
        resolvedKindOverride(config_);

    // Every server's configuration is drawn from the fleet RNG on
    // the calling thread, window by window before dispatch: the seed
    // stream is consumed in server order, so the draws cannot depend
    // on the worker schedule or the window size.
    const Server::Config base = baseServerConfig();
    Rng rng(config_.seed);
    const auto sampleConfig = [&](Server::Config &sc) {
        // Fleet-wide knobs are plain copies of the stamped base —
        // not RNG draws, so they cannot perturb the seed stream.
        sc = base;
        sc.kind = kinds[rng.below(std::size(kinds))];
        // Applied after the draw so the seed stream is unchanged.
        if (pinnedKind)
            sc.kind = *pinnedKind;
        sc.intensity =
            config_.minIntensity +
            rng.uniform() * (config_.maxIntensity -
                             config_.minIntensity);
        sc.prefragment = rng.chance(config_.prefragmentFrac);
        sc.uptimeSec =
            config_.minUptimeSec +
            rng.uniform() * (config_.maxUptimeSec -
                             config_.minUptimeSec);
        sc.seed = rng.next();
    };

    // Checkpoint/restore plumbing. The restore manifest is loaded
    // and validated once, up front, on the calling thread; any
    // failure warns and disables restoring — every server then
    // cold-starts, which by construction reproduces the
    // straight-through results.
    const std::uint64_t fleetFp = fleetConfigFingerprint(config_);
    bool checkpointing = !config_.checkpointDir.empty();
    if (checkpointing) {
        std::error_code ec;
        std::filesystem::create_directories(config_.checkpointDir,
                                            ec);
        if (ec) {
            warn("fleet checkpoint to '%s' disabled: %s",
                 config_.checkpointDir.c_str(),
                 ec.message().c_str());
            checkpointing = false;
        }
    }
    std::optional<snap::Manifest> restoreManifest;
    if (!config_.restoreDir.empty()) {
        try {
            restoreManifest =
                snap::loadManifest(config_.restoreDir, fleetFp);
        } catch (const serde::Error &e) {
            warn("fleet restore from '%s' disabled: %s",
                 config_.restoreDir.c_str(), e.what());
        }
    }

    // Each task gets a fault injector forked from the ambient one
    // (resolved here, on the calling thread, so nested scopes work)
    // and a span capture; both are merged below in server order.
    FaultInjector &ambient = faultInjector();

    struct TaskResult
    {
        ServerScan scan;
        FaultInjector faults{0};
        std::vector<spans::Event> spanEvents;
        /** Manifest line for this server's written snapshot, when
         * checkpointing succeeded for it. */
        std::optional<snap::ManifestEntry> snapEntry;
        /** The task's exception, if it failed. */
        std::exception_ptr error;
    };

    const auto runOne = [&](unsigned i, const Server::Config &sc,
                            TaskResult &out) {
        std::optional<spans::Capture> spanCapture;
        if (spansOn)
            spanCapture.emplace(streamBase + i);
        const FaultInjectorScope scope(out.faults);
        {
            CTG_SPAN_NAMED(srv_span, Fleet, "server.run",
                           {{"server", i},
                            {"kind", int(sc.kind)},
                            {"prefragment",
                             sc.prefragment ? 1 : 0}});
            // Warm start: resume from the snapshot when one loads
            // and validates. Every failure mode — missing entry,
            // injected read fault, torn write, bit flip, version
            // skew, manifest skew, failed audit — lands in the warn
            // + cold-start path below, whose simulation is
            // bit-identical to a straight-through run (the restore
            // attempt only ever probes snap.* fault sites, which
            // have their own RNG streams).
            std::unique_ptr<Server> restoredServer;
            if (restoreManifest) {
                const snap::ManifestEntry *entry =
                    restoreManifest->find(i);
                if (entry == nullptr) {
                    warn("server %u: no snapshot in manifest; "
                         "cold-starting", i);
                } else {
                    try {
                        const std::vector<std::uint8_t> bytes =
                            snap::readImageFile(config_.restoreDir +
                                                "/" + entry->file);
                        snap::validateAgainstManifest(*entry, bytes);
                        restoredServer =
                            decodeSnapshot(sc, bytes, &out.faults);
                        out.scan = restoredServer->resume();
                    } catch (const serde::Error &e) {
                        restoredServer.reset();
                        warn("server %u: snapshot restore failed "
                             "(%s); cold-starting", i, e.what());
                    }
                }
            }
            std::optional<Server> localServer;
            if (restoredServer == nullptr && checkpointing) {
                Server &server = localServer.emplace(sc);
                server.runToCheckpoint();
                snap::ManifestEntry entry;
                entry.server = i;
                entry.file = snap::snapshotFileName(i);
                // The manifest records the intended bytes; injected
                // write corruption (applied inside writeImageFile)
                // therefore always disagrees with either the
                // manifest or a section CRC.
                const std::vector<std::uint8_t> bytes =
                    encodeSnapshot(server, out.faults);
                entry.bytes = bytes.size();
                entry.crc = serde::crc32(bytes.data(), bytes.size());
                if (snap::writeImageFile(config_.checkpointDir +
                                             "/" + entry.file,
                                         bytes))
                    out.snapEntry = std::move(entry);
                out.scan = server.resume();
            } else if (restoredServer == nullptr) {
                out.scan = localServer.emplace(sc).run();
            }
            srv_span.arg("free_2m_bp",
                         static_cast<std::int64_t>(
                             out.scan.freeContiguity[0] * 10000.0));
            srv_span.arg("unmovable_blocks_2m_bp",
                         static_cast<std::int64_t>(
                             out.scan.unmovableBlocks[0] * 10000.0));
            srv_span.arg("intensity_bp",
                         static_cast<std::int64_t>(sc.intensity *
                                                   10000.0));
            srv_span.arg("uptime_ms", static_cast<std::int64_t>(
                                          sc.uptimeSec * 1000.0));
            CTG_SPAN(Fleet, "server.destroy",
                     {{"pages",
                       static_cast<std::int64_t>(sc.memBytes / pageBytes)},
                      {"prefragment", sc.prefragment ? 1 : 0}});
            localServer.reset();
            restoredServer.reset();
        }
        if (spanCapture)
            out.spanEvents = spanCapture->take();
    };

    // Dispatch in windows of kMergeWindowPerThread × threads servers.
    // After each window, every observable side effect is applied
    // here, in server order, on the calling thread — identical
    // Distributions (same sample order), span streams, fault
    // counters, manifest entries and callback sequence at any thread
    // count — and the window's results are dropped before the next
    // one starts.
    CTG_SPAN(Fleet, "fleet.simulate",
             {{"servers", config_.servers},
              {"threads", runThreads_}});
    const unsigned window = kMergeWindowPerThread * runThreads_;
    std::vector<Server::Config> configs;
    std::vector<TaskResult> results;
    std::vector<snap::ManifestEntry> manifestEntries;
    for (unsigned lo = 0; lo < config_.servers; lo += window) {
        const unsigned count = std::min(window, config_.servers - lo);
        configs.resize(count);
        for (Server::Config &sc : configs)
            sampleConfig(sc);
        results.clear();
        results.resize(count);
        executor.run(count, [&](std::size_t task) {
            const unsigned i = lo + static_cast<unsigned>(task);
            TaskResult &out = results[task];
            out.faults = ambient.forkForTask(i);
            try {
                runOne(i, configs[task], out);
            } catch (...) {
                out.error = std::current_exception();
            }
        });

        for (unsigned task = 0; task < count; ++task) {
            TaskResult &r = results[task];
            const unsigned i = lo + task;
            // Servers below the first failure are already merged,
            // so the output before the rethrow is the same at any
            // thread count (and any window size).
            if (r.error)
                std::rethrow_exception(r.error);
            if (!r.spanEvents.empty())
                spans::publish(std::move(r.spanEvents));
            ambient.absorbStats(r.faults);
            if (serversRun_ != nullptr) {
                ++*serversRun_;
                freeContiguity2m_->sample(r.scan.freeContiguity[0]);
                unmovableBlocks2m_->sample(r.scan.unmovableBlocks[0]);
                unmovablePageRatio_->sample(r.scan.unmovablePageRatio);
                uptimeSec_->sample(r.scan.uptimeSec);
            }
            if (r.snapEntry)
                manifestEntries.push_back(std::move(*r.snapEntry));
            onScan(i, r.scan);
        }
    }

    // The manifest is written last, on the calling thread, in server
    // order: the snap.manifest_skew probes it takes on the ambient
    // injector are deterministic at any thread count. Servers whose
    // snapshot write failed are simply absent — a later restore
    // cold-starts them.
    if (checkpointing) {
        snap::Manifest manifest;
        manifest.fleetFingerprint = fleetFp;
        manifest.entries = std::move(manifestEntries);
        snap::writeManifest(config_.checkpointDir, manifest);
    }

    runWallMs_ =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wallStart)
            .count();
}

} // namespace ctg
