#include "sim/fault_injector.hh"

#include <cstdlib>
#include <iterator>

#include "base/env_config.hh"
#include "base/logging.hh"
#include "base/serde.hh"
#include "base/span_trace.hh"

namespace ctg
{

namespace
{

const char *const siteNames[] = {
    "buddy.alloc_fail",      // BuddyAllocFail
    "buddy.gigantic_fail",   // BuddyGiganticFail
    "migrate.dst_fail",      // MigrateDstFail
    "migrate.relocate_fail", // MigrateRelocateFail
    "chw.install_fail",      // ChwInstallFail
    "chw.midcopy_abort",     // ChwMidcopyAbort
    "region.evac_fail",      // RegionEvacFail
    "kernel.reclaim_fail",   // KernelReclaimFail
    "snap.torn_write",       // SnapTornWrite
    "snap.bit_flip",         // SnapBitFlip
    "snap.version_skew",     // SnapVersionSkew
    "snap.manifest_skew",    // SnapManifestSkew
    "snap.read_fail",        // SnapReadFail
};

static_assert(std::size(siteNames) == numFaultSites,
              "every FaultSite needs a canonical name (and vice "
              "versa) — update both the enum and this table");

/** Parse one trigger spec ("p0.01", "n3", "o5", "once"). */
bool
parseSpec(const std::string &text, FaultSpec *out)
{
    if (text.empty())
        return false;
    if (text == "once") {
        *out = FaultSpec::oneShot(1);
        return true;
    }
    const char kind = text[0];
    const std::string arg = text.substr(1);
    if (arg.empty())
        return false;
    char *end = nullptr;
    if (kind == 'p') {
        const double p = std::strtod(arg.c_str(), &end);
        if (*end != '\0' || p < 0.0 || p > 1.0)
            return false;
        *out = FaultSpec::chance(p);
        return true;
    }
    const std::uint64_t n = std::strtoull(arg.c_str(), &end, 10);
    if (*end != '\0' || n == 0)
        return false;
    if (kind == 'n') {
        *out = FaultSpec::everyNth(n);
        return true;
    }
    if (kind == 'o') {
        *out = FaultSpec::oneShot(n);
        return true;
    }
    return false;
}

} // namespace

FaultInjector::FaultInjector(std::uint64_t seed)
    : seed_(seed)
{
    for (unsigned i = 0; i < numFaultSites; ++i)
        reseedSite(i);
}

void
FaultInjector::reseedSite(unsigned i)
{
    // Independent stream per site: interleaving changes in one
    // subsystem never shift another site's firing pattern.
    std::uint64_t sm = seed_ ^ ((i + 1) * 0x9e3779b97f4a7c15ULL);
    sites_[i].rng = Rng(splitMix64(sm));
}

bool
FaultInjector::evaluateArmed(FaultSite site, SiteState &state)
{
    ++state.sinceArmed;
    bool fired = false;
    switch (state.spec.trigger) {
      case FaultSpec::Trigger::Probability:
        fired = state.rng.chance(state.spec.p);
        break;
      case FaultSpec::Trigger::EveryNth:
        fired = state.sinceArmed % state.spec.n == 0;
        break;
      case FaultSpec::Trigger::OneShot:
        fired = state.sinceArmed == state.spec.n;
        if (fired) {
            state.spec.trigger = FaultSpec::Trigger::Off;
            ctg_assert(armedCount_ > 0);
            --armedCount_;
        }
        break;
      case FaultSpec::Trigger::Off:
        break;
    }
    if (fired) {
        ++state.stats.fires;
        if (spans::enabled(TraceFlag::Faults)) {
            // Drops the fault into the causal span tree: the instant
            // inherits the innermost open span (the migration,
            // evacuation, or alloc the site is about to fail).
            spans::instant(
                TraceFlag::Faults, siteName(site),
                {{"evaluation",
                  static_cast<std::int64_t>(state.sinceArmed)},
                 {"fire",
                  static_cast<std::int64_t>(state.stats.fires)}});
        }
    }
    return fired;
}

void
FaultInjector::arm(FaultSite site, FaultSpec spec)
{
    SiteState &state = sites_[index(site)];
    const bool was_armed =
        state.spec.trigger != FaultSpec::Trigger::Off;
    const bool now_armed = spec.trigger != FaultSpec::Trigger::Off;
    state.spec = spec;
    state.sinceArmed = 0;
    if (!was_armed && now_armed)
        ++armedCount_;
    else if (was_armed && !now_armed)
        --armedCount_;
}

void
FaultInjector::disarm(FaultSite site)
{
    arm(site, FaultSpec{});
}

void
FaultInjector::disarmAll()
{
    for (unsigned i = 0; i < numFaultSites; ++i)
        disarm(static_cast<FaultSite>(i));
}

void
FaultInjector::reset(std::uint64_t seed)
{
    disarmAll();
    seed_ = seed;
    for (unsigned i = 0; i < numFaultSites; ++i) {
        sites_[i].stats = SiteStats{};
        sites_[i].sinceArmed = 0;
        reseedSite(i);
    }
}

void
FaultInjector::setSeed(std::uint64_t seed)
{
    seed_ = seed;
    for (unsigned i = 0; i < numFaultSites; ++i)
        reseedSite(i);
}

bool
FaultInjector::configure(const std::string &spec_list)
{
    bool all_ok = true;
    std::size_t pos = 0;
    while (pos < spec_list.size()) {
        std::size_t end = spec_list.find(',', pos);
        if (end == std::string::npos)
            end = spec_list.size();
        const std::string token = spec_list.substr(pos, end - pos);
        pos = end + 1;
        if (token.empty())
            continue;

        const std::size_t colon = token.find(':');
        FaultSite site;
        FaultSpec spec;
        if (colon == std::string::npos ||
            !siteFromName(token.substr(0, colon), &site) ||
            !parseSpec(token.substr(colon + 1), &spec)) {
            warn("ignoring malformed fault spec '%s'", token.c_str());
            all_ok = false;
            continue;
        }
        arm(site, spec);
    }
    return all_ok;
}

FaultInjector
FaultInjector::forkForTask(std::uint64_t streamId) const
{
    // Mix the stream id into the parent seed rather than consuming
    // parent RNG state: fork(i) is a pure function of (seed_, i), so
    // the order tasks are forked in cannot shift their streams.
    std::uint64_t sm =
        seed_ ^ ((streamId + 1) * 0x9e3779b97f4a7c15ULL);
    FaultInjector forked(splitMix64(sm));
    for (unsigned i = 0; i < numFaultSites; ++i) {
        if (sites_[i].spec.trigger != FaultSpec::Trigger::Off)
            forked.arm(static_cast<FaultSite>(i), sites_[i].spec);
    }
    return forked;
}

void
FaultInjector::absorbStats(const FaultInjector &other)
{
    for (unsigned i = 0; i < numFaultSites; ++i) {
        sites_[i].stats.evaluations +=
            other.sites_[i].stats.evaluations;
        sites_[i].stats.fires += other.sites_[i].stats.fires;
    }
}

void
FaultInjector::saveTo(serde::Writer &out) const
{
    out.putU32(numFaultSites);
    out.putU64(seed_);
    out.putU32(armedCount_);
    for (const SiteState &state : sites_) {
        out.putU8(static_cast<std::uint8_t>(state.spec.trigger));
        out.putDouble(state.spec.p);
        out.putU64(state.spec.n);
        out.putU64(state.sinceArmed);
        out.putRngState(state.rng.rawState());
        out.putU64(state.stats.evaluations);
        out.putU64(state.stats.fires);
    }
}

void
FaultInjector::loadFrom(serde::Reader &in)
{
    if (in.getU32() != numFaultSites)
        throw serde::Error("fault injector: site count mismatch");
    seed_ = in.getU64();
    const std::uint32_t armed = in.getU32();
    std::uint32_t armed_check = 0;
    for (SiteState &state : sites_) {
        const std::uint8_t trigger = in.getU8();
        if (trigger >
            static_cast<std::uint8_t>(FaultSpec::Trigger::OneShot))
            throw serde::Error("fault injector: bad trigger");
        state.spec.trigger =
            static_cast<FaultSpec::Trigger>(trigger);
        state.spec.p = in.getDouble();
        state.spec.n = in.getU64();
        state.sinceArmed = in.getU64();
        state.rng.setRawState(in.getRngState());
        state.stats.evaluations = in.getU64();
        state.stats.fires = in.getU64();
        if (state.spec.trigger != FaultSpec::Trigger::Off)
            ++armed_check;
    }
    if (armed != armed_check)
        throw serde::Error("fault injector: armed count mismatch");
    armedCount_ = armed;
}

std::uint64_t
FaultInjector::totalFires() const
{
    std::uint64_t total = 0;
    for (const SiteState &state : sites_)
        total += state.stats.fires;
    return total;
}

const char *
FaultInjector::siteName(FaultSite site)
{
    return siteNames[index(site)];
}

bool
FaultInjector::siteFromName(const std::string &name, FaultSite *out)
{
    for (unsigned i = 0; i < numFaultSites; ++i) {
        if (name == siteNames[i]) {
            *out = static_cast<FaultSite>(i);
            return true;
        }
    }
    return false;
}

void
FaultInjector::regStats(StatGroup group) const
{
    for (unsigned i = 0; i < numFaultSites; ++i) {
        const SiteStats &stats = sites_[i].stats;
        const StatGroup site = group.group(siteNames[i]);
        site.gauge(
            "evaluations",
            [&stats] { return double(stats.evaluations); },
            "times the site was probed");
        site.gauge(
            "fires", [&stats] { return double(stats.fires); },
            "times the site injected a failure");
    }
}

namespace
{

/** Per-thread override installed by FaultInjectorScope. */
thread_local FaultInjector *tlsInjector = nullptr;

} // namespace

FaultInjectorScope::FaultInjectorScope(FaultInjector &injector)
    : prev_(tlsInjector)
{
    tlsInjector = &injector;
}

FaultInjectorScope::~FaultInjectorScope()
{
    tlsInjector = prev_;
}

FaultInjector &
faultInjector()
{
    if (tlsInjector != nullptr)
        return *tlsInjector;
    static FaultInjector *injector = [] {
        const sim::EnvConfig env = sim::EnvConfig::fromEnv();
        auto *inj = new FaultInjector(env.hasFaultSeed
                                          ? env.faultSeed
                                          : FaultInjector::defaultSeed);
        if (!env.faultSpec.empty())
            inj->configure(env.faultSpec.c_str());
        return inj;
    }();
    return *injector;
}

} // namespace ctg
