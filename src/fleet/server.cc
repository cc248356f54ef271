#include "fleet/server.hh"

#include <algorithm>

#include "base/env_config.hh"
#include "base/serde.hh"
#include "base/span_trace.hh"
#include "mem/auditor.hh"
#include "mem/mem_stats.hh"
#include "mem/scanner.hh"
#include "sim/fault_injector.hh"
#include "sim/snapshot.hh"

namespace ctg
{

void
Server::Config::applyEnvOverlay()
{
    if (policy.name.empty()) {
        const std::string spec = sim::EnvConfig::fromEnv().policySpec;
        if (!spec.empty())
            parsePolicySpec(spec, &policy);
    }
}

WorkloadProfile
scaleProfile(WorkloadProfile profile, double intensity)
{
    profile.net.skbRatePerSec *= intensity;
    profile.fs.scratchRatePerSec *= intensity;
    profile.fs.cacheGrowthPagesPerSec *= intensity;
    profile.slab.ratePerSec *= intensity;
    profile.miscRatePerSec *= intensity;
    profile.pinRatePerSec *= intensity;
    profile.heapChurnFracPerSec *= intensity;
    return profile;
}

namespace
{

KernelConfig
kernelConfigFor(const Server::Config &config)
{
    KernelConfig kc;
    kc.memBytes = config.memBytes;
    kc.kernelTextBytes = std::max<std::uint64_t>(
        std::uint64_t{4} << 20, config.memBytes / 1024);
    kc.seed = config.seed;
    return kc;
}

/** Resolve the config's policy against the registry; fatal on an
 * unregistered name (bad user config, not a simulator bug). */
PolicyRegistry::Entry
policyEntryFor(const Server::Config &config)
{
    PolicyRegistry::Entry entry;
    const std::string &name = config.policy.resolvedName();
    if (!PolicyRegistry::instance().find(name, &entry))
        fatal("unknown placement policy '%s'", name.c_str());
    return entry;
}

WorkloadProfile
profileFor(const Server::Config &config)
{
    return scaleProfile(makeProfile(config.kind, config.memBytes),
                        config.intensity);
}

} // namespace

Server::Server(const Config &config)
    : config_(config)
{
    const KernelConfig kc = kernelConfigFor(config_);
    const PolicyRegistry::Entry entry = policyEntryFor(config_);
    kernel_ = std::make_unique<Kernel>(
        kc, [&entry, this](Kernel &kernel) {
            return entry.make(kernel, config_.policy);
        });

    kernel_->mem().setExactAddrPref(config_.exactPref);

    workload_ = std::make_unique<Workload>(
        *kernel_, profileFor(config_), config_.seed ^ 0x77ff);
}

Server::Server(const Config &config, serde::Reader &in)
    : config_(config)
{
    // Mirrors saveTo(): policy name, then kernel (memory + policy +
    // kernel state), then the optional fragmenter, then the workload
    // — the same construction order as the cold path, so
    // owner-client ids and the shrinker list land exactly where the
    // checkpoint had them.
    //
    // The *serialized* name selects the registry entry: an image is
    // restorable on any config whose fingerprint matches, and a name
    // that is no longer registered is a recoverable decode failure
    // (cold-start fallback), not a crash.
    const std::string name = in.getString();
    PolicyRegistry::Entry entry;
    if (!PolicyRegistry::instance().find(name, &entry)) {
        throw serde::Error("snapshot: unknown placement policy '" +
                           name + "'");
    }
    const KernelConfig kc = kernelConfigFor(config_);
    kernel_ = std::make_unique<Kernel>(
        kc,
        [&entry, &in, this](Kernel &kernel) {
            return entry.restore(kernel, config_.policy, in);
        },
        in);

    kernel_->mem().setExactAddrPref(config_.exactPref);

    const bool hasFragmenter = in.getBool();
    if (hasFragmenter != config_.prefragment)
        throw serde::Error(
            "server: fragmenter presence disagrees with config");
    if (hasFragmenter) {
        fragmenter_ = std::make_unique<Fragmenter>(
            *kernel_, Fragmenter::Config{}, in);
    }
    workload_ = std::make_unique<Workload>(
        *kernel_, profileFor(config_), in);
}

void
Server::saveTo(serde::Writer &out) const
{
    out.putString(config_.policy.resolvedName());
    kernel_->saveTo(out);
    out.putBool(fragmenter_ != nullptr);
    if (fragmenter_)
        fragmenter_->saveTo(out);
    workload_->saveTo(out);
}

Server::~Server()
{
    // Nothing reads this server's memory once it goes, so the
    // workload and fragmenter, destroyed after this body, release
    // only host memory: their frees and unpins into the dying kernel
    // are skipped.
    kernel_->beginTeardown();
}

void
Server::enableStepAudit()
{
    if (!auditor_)
        auditor_ = kernel_->makeAuditor();
}

ServerScan
Server::scan() const
{
    const MemStats stats = kernel_->mem().stats();
    ServerScan result;

    const unsigned orders4[4] = {scan::order2M, scan::order4M,
                                 scan::order32M, scan::order1G};
    for (int i = 0; i < 4; ++i) {
        result.freeContiguity[i] =
            stats.freeContiguityFraction(orders4[i]);
        result.unmovableBlocks[i] =
            stats.unmovableBlockFraction(orders4[i]);
    }
    const unsigned orders3[3] = {scan::order2M, scan::order32M,
                                 scan::order1G};
    for (int i = 0; i < 3; ++i) {
        result.potentialContiguity[i] =
            stats.potentialContiguityFraction(orders3[i]);
    }
    result.unmovablePageRatio = stats.unmovablePageRatio();
    result.bySource = stats.unmovableBySource();
    result.freePages = stats.freePages();
    result.free2mBlocks = stats.freeAlignedBlocks(scan::order2M);
    const auto region = kernel_->policy().unmovableRegion();
    if (region.second > region.first) {
        result.unmovableRegionFreeShare =
            stats.meanFreeShareOfUnmovableBlocks(region.first,
                                                 region.second);
    } else {
        result.unmovableRegionFreeShare =
            stats.meanFreeShareOfUnmovableBlocks();
    }
    result.uptimeSec = workload_ ? workload_->now() : 0.0;
    return result;
}

ServerScan
Server::referenceScan() const
{
    const PhysMem &mem = kernel_->mem();
    const Pfn n = mem.numFrames();
    ServerScan result;

    const unsigned orders4[4] = {scan::order2M, scan::order4M,
                                 scan::order32M, scan::order1G};
    for (int i = 0; i < 4; ++i) {
        result.freeContiguity[i] = scan::reference::
            freeContiguityFraction(mem, 0, n, orders4[i]);
        result.unmovableBlocks[i] = scan::reference::
            unmovableBlockFraction(mem, 0, n, orders4[i]);
    }
    const unsigned orders3[3] = {scan::order2M, scan::order32M,
                                 scan::order1G};
    for (int i = 0; i < 3; ++i) {
        result.potentialContiguity[i] = scan::reference::
            potentialContiguityFraction(mem, 0, n, orders3[i]);
    }
    result.unmovablePageRatio =
        scan::reference::unmovablePageRatio(mem, 0, n);
    result.bySource = scan::reference::unmovableBySource(mem, 0, n);
    result.freePages = scan::reference::freePages(mem, 0, n);
    result.free2mBlocks =
        scan::reference::freeAlignedBlocks(mem, 0, n, scan::order2M);
    auto region = kernel_->policy().unmovableRegion();
    if (region.second <= region.first)
        region = {0, n};
    result.unmovableRegionFreeShare =
        scan::reference::meanFreeShareOfUnmovableBlocks(
            mem, region.first, region.second);
    result.uptimeSec = workload_ ? workload_->now() : 0.0;
    return result;
}

void
Server::attachTelemetry(StatRegistry &registry, StatSampler *sampler,
                        const std::string &prefix)
{
    const StatGroup group(registry, prefix);
    kernel_->regStats(group.group("kernel"));
    kernel_->policy().regStats(group);
    workload_->regStats(group.group("workload"));
    if (auditor_)
        auditor_->regStats(group.group("audit"));

    // Fragmentation gauges answer from the ContigIndex in O(1).
    const StatGroup frag = group.group("frag");
    const PhysMem &mem = kernel_->mem();
    frag.gauge(
        "free_contiguity_2m",
        [&mem] {
            return mem.stats().freeContiguityFraction(scan::order2M);
        },
        "fraction of free memory in free aligned 2M blocks");
    frag.gauge(
        "unmovable_blocks_2m",
        [&mem] {
            return mem.stats().unmovableBlockFraction(scan::order2M);
        },
        "fraction of 2M blocks containing unmovable pages");
    frag.gauge(
        "free_2m_blocks",
        [&mem] {
            return double(
                mem.stats().freeAlignedBlocks(scan::order2M));
        });
    frag.gauge(
        "unmovable_page_ratio",
        [&mem] { return mem.stats().unmovablePageRatio(); });
    sampler_ = sampler;
}

void
Server::runSegment(double seconds)
{
    if (seconds <= 0.0)
        return;
    CTG_SPAN(Fleet, "server.segment",
             {{"pages", std::int64_t(config_.memBytes / pageBytes)},
              {"prefragment", config_.prefragment ? 1 : 0}});
    if (sampler_ == nullptr && auditor_ == nullptr) {
        if (!config_.coarseStep) {
            workload_->runFor(seconds, config_.stepSec);
            return;
        }
        // Scale stepping: batch the remainder of the segment into a
        // single workload step while the policy is idle; fall back
        // to the fine cadence while maintenance (deferred resizes)
        // is pending so its per-tick retries still happen. Pending
        // work surfacing *inside* a batched step waits for the next
        // quantum boundary — that coarsening is the model, and it
        // is deterministic either way.
        double remaining = seconds;
        while (remaining > 0.0) {
            const double dt =
                kernel_->policy().hasPendingMaintenance()
                    ? std::min(config_.stepSec, remaining)
                    : remaining;
            workload_->runFor(dt, dt);
            remaining -= dt;
        }
        return;
    }

    // Stepped run: advance step by step so the sampler can snapshot
    // the stat tree along the way and the auditor can cross-check the
    // memory stack after every step. Ticks are simulated milliseconds.
    double remaining = seconds;
    while (remaining > 0.0) {
        const double dt = std::min(config_.stepSec, remaining);
        workload_->runFor(dt, dt);
        remaining -= dt;
        if (auditor_)
            auditor_->auditOrDie();
        if (sampler_) {
            sampler_->sample(
                static_cast<Tick>(workload_->now() * 1000.0));
        }
    }
}

void
Server::runToCheckpoint()
{
    // Phase spans split a traced server.run for span_profile.py; the
    // args give the machine size and whether it was prefragmented.
    const std::int64_t pages = config_.memBytes / pageBytes;
    const int prefragment = config_.prefragment ? 1 : 0;
    if (config_.prefragment) {
        CTG_SPAN(Fleet, "server.fragment", {{"pages", pages}});
        Fragmenter::Config fc;
        fragmenter_ = std::make_unique<Fragmenter>(
            *kernel_, fc, config_.seed ^ 0xf7a6);
        fragmenter_->run();
        if (auditor_)
            auditor_->auditOrDie();
    }
    {
        CTG_SPAN(Fleet, "workload.start",
                 {{"pages", pages}, {"prefragment", prefragment}});
        workload_->start();
    }
    if (auditor_)
        auditor_->auditOrDie();
    if (sampler_) {
        sampler_->sample(
            static_cast<Tick>(workload_->now() * 1000.0));
    }
    runSegment(config_.uptimeSec);
}

ServerScan
Server::resume()
{
    runSegment(config_.extraUptimeSec);
    return scan();
}

ServerScan
Server::run()
{
    runToCheckpoint();
    return resume();
}

void
mixPolicyConfig(snap::Fingerprint &fp, const PolicyConfig &policy)
{
    const std::string &name = policy.resolvedName();
    fp.mixU64(name.size());
    for (const char c : name)
        fp.mixU32(static_cast<std::uint32_t>(
            static_cast<unsigned char>(c)));

    // Every knob the contiguitas-family entries read shapes
    // placement, so all of them guard the snapshot fingerprint.
    const ContiguitasConfig &cc = policy.contiguitas;
    fp.mixU64(cc.region.initialUnmovablePages);
    fp.mixU64(cc.region.minUnmovablePages);
    fp.mixU64(cc.region.maxUnmovablePages);
    fp.mixDouble(cc.resize.thresholdUnmov);
    fp.mixDouble(cc.resize.thresholdMov);
    fp.mixDouble(cc.resize.cue);
    fp.mixDouble(cc.resize.cme);
    fp.mixDouble(cc.resize.cms);
    fp.mixDouble(cc.resize.cus);
    fp.mixDouble(cc.resize.maxFactor);
    fp.mixDouble(cc.tuning.periodSec);
    fp.mixU64(cc.tuning.stepPages);
    fp.mixU64(cc.tuning.maxPerTick);
    fp.mixDouble(cc.tuning.unmovFreeWatermark);
    fp.mixDouble(cc.tuning.shrinkFreeSlack);
    fp.mixBool(cc.hwMigration);
    fp.mixBool(cc.placementBias);
    fp.mixU64(cc.defragBlocksPerTick);
    fp.mixBool(cc.staticBoundary);
}

std::uint64_t
serverConfigFingerprint(const Server::Config &config)
{
    snap::Fingerprint fp;
    fp.mixU64(config.memBytes);
    mixPolicyConfig(fp, config.policy);
    fp.mixU32(static_cast<std::uint32_t>(config.kind));
    fp.mixDouble(config.intensity);
    fp.mixBool(config.prefragment);
    fp.mixDouble(config.uptimeSec);
    fp.mixDouble(config.extraUptimeSec);
    fp.mixDouble(config.stepSec);
    fp.mixU64(config.seed);
    // exactPref changes placement, so a snapshot taken with it on
    // must not silently continue with it off (and vice versa).
    fp.mixBool(config.exactPref);
    // Coarse stepping batches workload events differently, so a
    // snapshot taken fine must not silently resume coarse.
    fp.mixBool(config.coarseStep);
    return fp.value();
}

std::vector<std::uint8_t>
encodeSnapshot(const Server &server, const FaultInjector &faults)
{
    serde::Writer out;
    snap::beginImage(out);

    out.beginSection(snap::SecMeta);
    out.putU64(serverConfigFingerprint(server.config()));
    out.endSection();

    out.beginSection(snap::SecServer);
    server.saveTo(out);
    out.endSection();

    out.beginSection(snap::SecFaults);
    faults.saveTo(out);
    out.endSection();

    out.beginSection(snap::SecEnd);
    out.endSection();
    return out.take();
}

std::unique_ptr<Server>
decodeSnapshot(const Server::Config &config,
               const std::vector<std::uint8_t> &bytes,
               FaultInjector *faults)
{
    serde::Reader in(bytes);
    snap::openImage(in);

    auto expect = [&in](std::uint32_t id) -> serde::Reader {
        serde::Reader::Section section = in.nextSection();
        if (section.id != id)
            throw serde::Error("snapshot: unexpected section " +
                               std::to_string(section.id));
        return section.payload;
    };

    serde::Reader meta = expect(snap::SecMeta);
    if (meta.getU64() != serverConfigFingerprint(config))
        throw serde::Error(
            "snapshot: server-config fingerprint mismatch");

    serde::Reader body = expect(snap::SecServer);
    auto server = std::make_unique<Server>(config, body);
    if (!body.atEnd())
        throw serde::Error(
            "snapshot: trailing bytes in server section");

    // Restore the injector into a scratch copy first: a failure past
    // this point must leave the caller's injector untouched so the
    // cold-start fallback replays the straight-through pattern.
    serde::Reader faultBody = expect(snap::SecFaults);
    FaultInjector restoredFaults(0);
    restoredFaults.loadFrom(faultBody);
    if (!faultBody.atEnd())
        throw serde::Error(
            "snapshot: trailing bytes in faults section");

    serde::Reader end = expect(snap::SecEnd);
    if (!end.atEnd() || !in.atEnd())
        throw serde::Error("snapshot: trailing bytes after end");

    // Integrity gate: the restored machine must pass the same
    // system-wide invariant audit chaos runs enforce — free lists,
    // page conservation, region accounting, owner handles, pin
    // tables — before a single workload step runs on it.
    const AuditReport report =
        server->kernel().makeAuditor()->audit();
    if (!report.ok())
        throw serde::Error("snapshot: restored state failed audit: " +
                           report.summary());

    if (faults != nullptr)
        *faults = restoredFaults;
    return server;
}

} // namespace ctg
