/**
 * @file
 * Checkpoint/restore suite: serde container unit tests, CTG_* env
 * parser strictness, fault-site table hygiene, snapshot round-trip
 * property tests (churn → checkpoint → restore → audit →
 * bit-identical continuation at several thread counts), and a
 * restore-path chaos family where every snapshot-I/O fault site must
 * surface as a *detected* failure that degrades to a cold start.
 *
 * Own binary: these tests mutate the process-wide fault injector and
 * CTG_* environment variables, so they must not share a process with
 * the main suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base/env_config.hh"
#include "base/serde.hh"
#include "base/units.hh"
#include "fleet/fleet.hh"
#include "fleet/server.hh"
#include "mem/auditor.hh"
#include "sim/fault_injector.hh"
#include "sim/snapshot.hh"

namespace ctg
{
namespace
{

std::uint64_t
bits(double v)
{
    std::uint64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

/** Flatten a scan to bit patterns so "bit-identical" is literal. */
std::vector<std::uint64_t>
scanBits(const ServerScan &scan)
{
    std::vector<std::uint64_t> out;
    for (const double v : scan.freeContiguity)
        out.push_back(bits(v));
    for (const double v : scan.unmovableBlocks)
        out.push_back(bits(v));
    for (const double v : scan.potentialContiguity)
        out.push_back(bits(v));
    out.push_back(bits(scan.unmovablePageRatio));
    for (const std::uint64_t v : scan.bySource)
        out.push_back(v);
    out.push_back(scan.freePages);
    out.push_back(scan.free2mBlocks);
    out.push_back(bits(scan.unmovableRegionFreeShare));
    out.push_back(bits(scan.uptimeSec));
    return out;
}

std::vector<std::uint64_t>
scansBits(const std::vector<ServerScan> &scans)
{
    std::vector<std::uint64_t> out;
    for (const ServerScan &scan : scans) {
        const std::vector<std::uint64_t> one = scanBits(scan);
        out.insert(out.end(), one.begin(), one.end());
    }
    return out;
}

/** Fresh scratch directory under the test temp root. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "ctgsnap_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// ---------------------------------------------------------------
// serde container
// ---------------------------------------------------------------

TEST(SerdeTest, PrimitivesRoundTripBitExactly)
{
    serde::Writer w;
    w.putU8(0xab);
    w.putU16(0xbeef);
    w.putU32(0xdeadbeef);
    w.putU64(0x0123456789abcdefULL);
    w.putBool(true);
    w.putBool(false);
    w.putDouble(-0.0);
    w.putDouble(1.0 / 3.0);
    w.putString("contiguitas");
    w.putRngState({1, 2, 3, 0xffffffffffffffffULL});
    w.putPodVector(std::vector<std::uint64_t>{5, 6, 7});

    serde::Reader r(w.bytes());
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_EQ(r.getU16(), 0xbeef);
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefULL);
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(bits(r.getDouble()), bits(-0.0));
    EXPECT_EQ(bits(r.getDouble()), bits(1.0 / 3.0));
    EXPECT_EQ(r.getString(), "contiguitas");
    const auto state = r.getRngState();
    EXPECT_EQ(state[3], 0xffffffffffffffffULL);
    EXPECT_EQ(r.getPodVector<std::uint64_t>(),
              (std::vector<std::uint64_t>{5, 6, 7}));
    EXPECT_TRUE(r.atEnd());
}

TEST(SerdeTest, TruncatedInputThrows)
{
    serde::Writer w;
    w.putU64(1);
    serde::Reader r(w.bytes().data(), 4);
    EXPECT_THROW(r.getU64(), serde::Error);
}

TEST(SerdeTest, BoolByteOutOfRangeThrows)
{
    const std::uint8_t byte = 2;
    serde::Reader r(&byte, 1);
    EXPECT_THROW(r.getBool(), serde::Error);
}

TEST(SerdeTest, PodVectorCountBeyondPayloadThrows)
{
    serde::Writer w;
    w.putU64(1u << 20); // claims a million elements, provides none
    serde::Reader r(w.bytes());
    EXPECT_THROW(r.getPodVector<std::uint64_t>(), serde::Error);
}

TEST(SerdeTest, SectionRoundTripAndCrcDetection)
{
    serde::Writer w;
    w.beginSection(7);
    w.putU64(42);
    w.putString("payload");
    w.endSection();
    w.beginSection(9);
    w.endSection();

    {
        serde::Reader r(w.bytes());
        serde::Reader::Section s = r.nextSection();
        EXPECT_EQ(s.id, 7u);
        EXPECT_EQ(s.payload.getU64(), 42u);
        EXPECT_EQ(s.payload.getString(), "payload");
        EXPECT_TRUE(s.payload.atEnd());
        serde::Reader::Section s2 = r.nextSection();
        EXPECT_EQ(s2.id, 9u);
        EXPECT_TRUE(s2.payload.atEnd());
        EXPECT_TRUE(r.atEnd());
    }

    // Any flipped payload bit must be a detected CRC mismatch.
    std::vector<std::uint8_t> corrupt = w.bytes();
    corrupt[16 + 4] ^= 0x01; // inside the first section's payload
    serde::Reader r(corrupt);
    EXPECT_THROW(r.nextSection(), serde::Error);
}

TEST(SerdeTest, SectionTruncationThrows)
{
    serde::Writer w;
    w.beginSection(1);
    w.putU64(1);
    w.endSection();
    std::vector<std::uint8_t> torn = w.bytes();
    torn.resize(torn.size() / 2);
    serde::Reader r(torn);
    EXPECT_THROW(r.nextSection(), serde::Error);
}

// ---------------------------------------------------------------
// CTG_* environment parser strictness
// ---------------------------------------------------------------

/** Scoped environment override. */
class EnvVar
{
  public:
    EnvVar(const char *name, const char *value) : name_(name)
    {
        setenv(name, value, 1);
    }
    ~EnvVar() { unsetenv(name_); }

  private:
    const char *name_;
};

TEST(EnvStrictTest, ThreadsParserRejectsMalformed)
{
    {
        const EnvVar v("CTG_THREADS", "4");
        EXPECT_EQ(sim::EnvConfig::fromEnv().threads, 4u);
    }
    for (const char *bad : {"abc", "4x", "", "0", "-2"}) {
        const EnvVar v("CTG_THREADS", bad);
        EXPECT_EQ(sim::EnvConfig::fromEnv().threads, 0u)
            << "CTG_THREADS='" << bad << "'";
    }
}

TEST(EnvStrictTest, Fig11PopulationParserRejectsMalformed)
{
    {
        const EnvVar v("CTG_FIG11_POP", "12");
        EXPECT_EQ(sim::EnvConfig::fromEnv().fig11Population, 12u);
    }
    for (const char *bad : {"dozen", "12q", "0", ""}) {
        const EnvVar v("CTG_FIG11_POP", bad);
        EXPECT_EQ(sim::EnvConfig::fromEnv().fig11Population, 8u)
            << "CTG_FIG11_POP='" << bad << "'";
    }
}

TEST(EnvStrictTest, FaultSeedParserRejectsMalformed)
{
    {
        const EnvVar v("CTG_FAULTS_SEED", "0x123");
        const sim::EnvConfig config = sim::EnvConfig::fromEnv();
        EXPECT_TRUE(config.hasFaultSeed);
        EXPECT_EQ(config.faultSeed, 0x123u);
    }
    for (const char *bad : {"12nope", "seed"}) {
        const EnvVar v("CTG_FAULTS_SEED", bad);
        EXPECT_FALSE(sim::EnvConfig::fromEnv().hasFaultSeed)
            << "CTG_FAULTS_SEED='" << bad << "'";
    }
}

TEST(EnvStrictTest, CheckpointAndRestoreDirsPassThrough)
{
    EXPECT_TRUE(sim::EnvConfig::fromEnv().checkpointDir.empty());
    EXPECT_TRUE(sim::EnvConfig::fromEnv().restoreDir.empty());
    const EnvVar c("CTG_CHECKPOINT", "/tmp/ck");
    const EnvVar r("CTG_RESTORE", "/tmp/rs");
    const sim::EnvConfig config = sim::EnvConfig::fromEnv();
    EXPECT_EQ(config.checkpointDir, "/tmp/ck");
    EXPECT_EQ(config.restoreDir, "/tmp/rs");
}

TEST(EnvStrictTest, TraceWithoutSpansPathWarns)
{
    // CTG_TRACE only restricts what CTG_TRACE_SPANS records.
    {
        const EnvVar t("CTG_TRACE", "Region");
        const EnvVar s("CTG_TRACE_SPANS", "/tmp/unused.json");
        testing::internal::CaptureStderr();
        const sim::EnvConfig config = sim::EnvConfig::fromEnv();
        EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
        EXPECT_EQ(config.traceSpec, "Region");
    }
    // Alone it would silently do nothing, so it warns, naming both.
    const EnvVar t("CTG_TRACE", "Region");
    testing::internal::CaptureStderr();
    const sim::EnvConfig config = sim::EnvConfig::fromEnv();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(config.traceSpec, "Region");
    EXPECT_TRUE(config.traceSpansPath.empty());
    EXPECT_NE(err.find("CTG_TRACE='Region'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("CTG_TRACE_SPANS"), std::string::npos) << err;
}

// ---------------------------------------------------------------
// Fault-site table hygiene
// ---------------------------------------------------------------

TEST(FaultSiteTableTest, EverySiteRoundTripsThroughSpecParsing)
{
    for (unsigned i = 0; i < numFaultSites; ++i) {
        const auto site = static_cast<FaultSite>(i);
        const char *name = FaultInjector::siteName(site);
        ASSERT_NE(name, nullptr);
        ASSERT_GT(std::strlen(name), 0u);

        FaultSite parsed;
        ASSERT_TRUE(FaultInjector::siteFromName(name, &parsed))
            << name;
        EXPECT_EQ(parsed, site);

        // The CTG_FAULTS spec syntax must reach the same site.
        FaultInjector inj(1);
        EXPECT_TRUE(inj.configure(std::string(name) + ":once"))
            << name;
        EXPECT_TRUE(inj.armed(site)) << name;
    }
}

TEST(FaultSiteTableTest, SiteNamesAreUnique)
{
    for (unsigned i = 0; i < numFaultSites; ++i)
        for (unsigned j = i + 1; j < numFaultSites; ++j)
            EXPECT_STRNE(
                FaultInjector::siteName(static_cast<FaultSite>(i)),
                FaultInjector::siteName(static_cast<FaultSite>(j)));
}

TEST(FaultSiteTableTest, RestoredInjectorContinuesFiringPattern)
{
    FaultInjector a(0x5eed);
    a.arm(FaultSite::BuddyAllocFail, FaultSpec::chance(0.3));
    a.arm(FaultSite::ChwMidcopyAbort, FaultSpec::everyNth(7));
    a.arm(FaultSite::RegionEvacFail, FaultSpec::oneShot(40));
    for (int i = 0; i < 25; ++i) {
        a.shouldFail(FaultSite::BuddyAllocFail);
        a.shouldFail(FaultSite::ChwMidcopyAbort);
        a.shouldFail(FaultSite::RegionEvacFail);
    }

    serde::Writer w;
    a.saveTo(w);
    FaultInjector b(0);
    serde::Reader r(w.bytes());
    b.loadFrom(r);
    EXPECT_TRUE(r.atEnd());

    for (int i = 0; i < 200; ++i) {
        for (const FaultSite site :
             {FaultSite::BuddyAllocFail, FaultSite::ChwMidcopyAbort,
              FaultSite::RegionEvacFail,
              FaultSite::MigrateDstFail}) {
            EXPECT_EQ(a.shouldFail(site), b.shouldFail(site));
        }
    }
    EXPECT_EQ(a.totalFires(), b.totalFires());
}

TEST(FaultSiteTableTest, LoadRejectsAlienSiteCount)
{
    FaultInjector a(1);
    serde::Writer w;
    a.saveTo(w);
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes[0] ^= 0x40; // site count field
    FaultInjector b(0);
    serde::Reader r(bytes);
    EXPECT_THROW(b.loadFrom(r), serde::Error);
}

// ---------------------------------------------------------------
// Snapshot container + manifest
// ---------------------------------------------------------------

TEST(SnapshotContainerTest, HeaderVersionSkewIsDetected)
{
    serde::Writer w;
    snap::beginImage(w);
    {
        serde::Reader r(w.bytes());
        EXPECT_NO_THROW(snap::openImage(r));
    }
    std::vector<std::uint8_t> skewed = w.bytes();
    skewed[4] += 1;
    serde::Reader r(skewed);
    EXPECT_THROW(snap::openImage(r), serde::Error);

    std::vector<std::uint8_t> alien = w.bytes();
    alien[0] = 'X';
    serde::Reader r2(alien);
    EXPECT_THROW(snap::openImage(r2), serde::Error);
}

TEST(SnapshotContainerTest, ManifestRoundTripAndValidation)
{
    faultInjector().reset();
    const std::string dir = scratchDir("manifest");
    const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};

    snap::Manifest manifest;
    manifest.fleetFingerprint = 0xfeedface12345678ULL;
    snap::ManifestEntry entry;
    entry.server = 3;
    entry.file = snap::snapshotFileName(3);
    entry.bytes = bytes.size();
    entry.crc = serde::crc32(bytes.data(), bytes.size());
    manifest.entries.push_back(entry);
    ASSERT_TRUE(snap::writeManifest(dir, manifest));

    const snap::Manifest loaded =
        snap::loadManifest(dir, manifest.fleetFingerprint);
    ASSERT_EQ(loaded.entries.size(), 1u);
    const snap::ManifestEntry *found = loaded.find(3);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->file, entry.file);
    EXPECT_EQ(found->bytes, entry.bytes);
    EXPECT_EQ(found->crc, entry.crc);
    EXPECT_EQ(loaded.find(0), nullptr);
    EXPECT_NO_THROW(snap::validateAgainstManifest(*found, bytes));

    // Wrong fleet fingerprint: refused up front.
    EXPECT_THROW(snap::loadManifest(dir, 0x1), serde::Error);

    // Disagreeing bytes: detected.
    std::vector<std::uint8_t> other = bytes;
    other[0] ^= 0xff;
    EXPECT_THROW(snap::validateAgainstManifest(*found, other),
                 serde::Error);
    other = bytes;
    other.push_back(0);
    EXPECT_THROW(snap::validateAgainstManifest(*found, other),
                 serde::Error);
}

TEST(SnapshotContainerTest, MalformedManifestThrows)
{
    const std::string dir = scratchDir("badmanifest");
    auto writeText = [&dir](const std::string &text) {
        std::ofstream out(dir + "/" + snap::manifestFileName());
        out << text;
    };
    EXPECT_THROW(snap::loadManifest(dir, 0), serde::Error); // absent
    writeText("not a manifest\n");
    EXPECT_THROW(snap::loadManifest(dir, 0), serde::Error);
    writeText("ctgsnap-manifest 99\nfleet 0\nend\n");
    EXPECT_THROW(snap::loadManifest(dir, 0), serde::Error);
    writeText("ctgsnap-manifest 1\nfleet 0\n"); // no end line
    EXPECT_THROW(snap::loadManifest(dir, 0), serde::Error);
    writeText("ctgsnap-manifest 1\nfleet 0\n"
              "entry 1 a.ctgsnap 10 0000000a\n"
              "entry 1 b.ctgsnap 10 0000000a\nend\n");
    EXPECT_THROW(snap::loadManifest(dir, 0), serde::Error);
}

// ---------------------------------------------------------------
// Server round trip
// ---------------------------------------------------------------

Server::Config
smallServer(bool contiguitas, bool prefragment)
{
    Server::Config config;
    config.memBytes = 256_MiB;
    config.policy.name = contiguitas ? "contiguitas" : "vanilla";
    config.kind = WorkloadKind::Web;
    config.intensity = 1.1;
    config.prefragment = prefragment;
    config.uptimeSec = 5.0;
    config.extraUptimeSec = 3.0;
    config.stepSec = 1.0;
    config.seed = 0x5eedf00d;
    return config;
}

/** Reset the process injector around every case (several of these
 * tests arm sites on it). */
class SnapshotRoundTrip : public ::testing::Test
{
  protected:
    SnapshotRoundTrip() { faultInjector().reset(); }
    ~SnapshotRoundTrip() override { faultInjector().reset(); }
};

/** churn → checkpoint → restore → audit → bit-identical
 * continuation, against a straight-through run of the same config
 * under the same forked injector stream. */
void
expectServerRoundTrip(const Server::Config &config, bool withFaults)
{
    FaultInjector base(0xabcde);
    if (withFaults) {
        for (unsigned i = 0; i < numFaultSites; ++i)
            base.arm(static_cast<FaultSite>(i),
                     FaultSpec::chance(0.02));
    }

    std::vector<std::uint64_t> straightBits;
    {
        FaultInjector fi = base.forkForTask(0);
        const FaultInjectorScope scope(fi);
        Server server(config);
        straightBits = scanBits(server.run());
    }

    std::vector<std::uint8_t> image;
    std::vector<std::uint64_t> checkpointBits;
    {
        FaultInjector fi = base.forkForTask(0);
        const FaultInjectorScope scope(fi);
        Server server(config);
        server.runToCheckpoint();
        image = encodeSnapshot(server, fi);
        checkpointBits = scanBits(server.resume());
    }
    EXPECT_EQ(checkpointBits, straightBits);

    {
        FaultInjector fi = base.forkForTask(0);
        const FaultInjectorScope scope(fi);
        const std::unique_ptr<Server> server =
            decodeSnapshot(config, image, &fi);
        // The restored machine passed decodeSnapshot's audit gate;
        // cross-check once more from the outside.
        const AuditReport report =
            server->kernel().makeAuditor()->audit();
        EXPECT_TRUE(report.ok()) << report.summary();
        EXPECT_EQ(scanBits(server->resume()), straightBits);
    }
}

TEST_F(SnapshotRoundTrip, VanillaServerResumesBitIdentically)
{
    expectServerRoundTrip(smallServer(false, false), false);
}

TEST_F(SnapshotRoundTrip, ContiguitasServerResumesBitIdentically)
{
    expectServerRoundTrip(smallServer(true, false), false);
}

TEST_F(SnapshotRoundTrip, PrefragmentedServerResumesBitIdentically)
{
    expectServerRoundTrip(smallServer(false, true), false);
}

TEST_F(SnapshotRoundTrip,
       ContiguitasPrefragmentedResumesBitIdentically)
{
    expectServerRoundTrip(smallServer(true, true), false);
}

TEST_F(SnapshotRoundTrip, EveryFaultSiteArmedResumesBitIdentically)
{
    expectServerRoundTrip(smallServer(true, true), true);
}

/** The scale tier's 64 MiB machines: the half-memory cap puts the
 * Contiguitas boundary below the default 64 MiB floor, and restore
 * must accept the boundary the live server started from. */
TEST_F(SnapshotRoundTrip, ScaleTierContiguitasResumesBitIdentically)
{
    for (const bool prefragment : {false, true}) {
        SCOPED_TRACE(prefragment ? "prefragmented" : "plain");
        Server::Config config = smallServer(true, prefragment);
        config.memBytes = 64_MiB;
        expectServerRoundTrip(config, false);
    }
}

TEST_F(SnapshotRoundTrip, FingerprintMismatchIsRefused)
{
    const Server::Config config = smallServer(false, false);
    FaultInjector fi(1);
    const FaultInjectorScope scope(fi);
    Server server(config);
    server.runToCheckpoint();
    const std::vector<std::uint8_t> image =
        encodeSnapshot(server, fi);

    Server::Config other = config;
    other.seed ^= 1;
    EXPECT_THROW(decodeSnapshot(other, image, nullptr),
                 serde::Error);
    other = config;
    other.intensity += 0.1;
    EXPECT_THROW(decodeSnapshot(other, image, nullptr),
                 serde::Error);
    // The matching config still restores.
    EXPECT_NO_THROW(decodeSnapshot(config, image, nullptr));
}

TEST_F(SnapshotRoundTrip, CorruptedImageIsRefusedNotCrashed)
{
    const Server::Config config = smallServer(true, false);
    FaultInjector fi(1);
    const FaultInjectorScope scope(fi);
    Server server(config);
    server.runToCheckpoint();
    const std::vector<std::uint8_t> image =
        encodeSnapshot(server, fi);

    // Truncation at several depths.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{17},
          image.size() / 2, image.size() - 1}) {
        std::vector<std::uint8_t> torn(image.begin(),
                                       image.begin() + keep);
        EXPECT_THROW(decodeSnapshot(config, torn, nullptr),
                     serde::Error)
            << "kept " << keep;
    }

    // Single flipped bits sprinkled across the image: every one
    // must be a detected error (CRC, framing or validation), never
    // a crash or a silently wrong machine.
    const std::size_t stride =
        std::max<std::size_t>(1, image.size() / 257);
    for (std::size_t pos = 0; pos < image.size(); pos += stride) {
        std::vector<std::uint8_t> flipped = image;
        flipped[pos] ^= 0x04;
        try {
            const std::unique_ptr<Server> restored =
                decodeSnapshot(config, flipped, nullptr);
            // Flips in ignored bits (e.g. section reserved words)
            // may legitimately decode; the restored state must then
            // still be the checkpointed one — re-encode and compare.
            EXPECT_EQ(encodeSnapshot(*restored, fi), image)
                << "undetected corruption at byte " << pos;
        } catch (const serde::Error &) {
            // Detected: the contract.
        }
    }
}

// ---------------------------------------------------------------
// Fleet round trip + chaos
// ---------------------------------------------------------------

Fleet::Config
smallFleet(const std::string &checkpointDir,
           const std::string &restoreDir)
{
    Fleet::Config config;
    config.servers = 6;
    config.memBytes = 256_MiB;
    config.policy.name = "contiguitas";
    config.minUptimeSec = 3.0;
    config.maxUptimeSec = 6.0;
    config.prefragmentFrac = 0.3;
    config.extraUptimeSec = 2.0;
    config.seed = 0xdef1ee7;
    config.threads = 1;
    config.checkpointDir = checkpointDir;
    config.restoreDir = restoreDir;
    return config;
}

struct FleetRun
{
    std::vector<std::uint64_t> scans;
    std::vector<std::uint64_t> faultCounts;
};

FleetRun
runFleet(const Fleet::Config &config, const std::string &faultSpec)
{
    faultInjector().reset(0xd15ea5e);
    if (!faultSpec.empty())
        faultInjector().configure(faultSpec);
    Fleet fleet(config);
    FleetRun run;
    run.scans = scansBits(fleet.run());
    for (unsigned i = 0; i < numFaultSites; ++i) {
        const FaultInjector::SiteStats &stats =
            faultInjector().siteStats(static_cast<FaultSite>(i));
        run.faultCounts.push_back(stats.evaluations);
        run.faultCounts.push_back(stats.fires);
    }
    faultInjector().reset();
    return run;
}

class SnapshotFleetTest : public ::testing::Test
{
  protected:
    SnapshotFleetTest() { faultInjector().reset(); }
    ~SnapshotFleetTest() override { faultInjector().reset(); }
};

TEST_F(SnapshotFleetTest, CheckpointAndRestoreMatchStraightThrough)
{
    const std::string dir = scratchDir("fleet_roundtrip");
    const FleetRun straight = runFleet(smallFleet("", ""), "");
    const FleetRun checkpoint = runFleet(smallFleet(dir, ""), "");
    EXPECT_EQ(checkpoint.scans, straight.scans);

    // The checkpoint directory now holds a manifest + one snapshot
    // per server.
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + snap::manifestFileName()));
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_TRUE(std::filesystem::exists(
            dir + "/" + snap::snapshotFileName(i)));

    // A clean warm start is fully bit-identical — scans AND fault
    // counters (the restored injector carries the checkpoint-side
    // probe counts).
    const FleetRun restored = runFleet(smallFleet("", dir), "");
    EXPECT_EQ(restored.scans, straight.scans);
    EXPECT_EQ(restored.faultCounts, straight.faultCounts);
}

TEST_F(SnapshotFleetTest, RestoreIsBitIdenticalAtEveryThreadCount)
{
    const std::string dir = scratchDir("fleet_threads");
    const FleetRun straight = runFleet(smallFleet("", ""), "");
    runFleet(smallFleet(dir, ""), "");

    std::vector<FleetRun> runs;
    for (const unsigned threads : {1u, 4u, 8u}) {
        Fleet::Config config = smallFleet("", dir);
        config.threads = threads;
        runs.push_back(runFleet(config, ""));
        EXPECT_EQ(runs.back().scans, straight.scans)
            << "threads=" << threads;
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].scans, runs[0].scans);
        EXPECT_EQ(runs[i].faultCounts, runs[0].faultCounts);
    }
}

TEST_F(SnapshotFleetTest,
       EveryFaultSiteArmedStaysBitIdenticalAcrossThreadCounts)
{
    // Arm all 13 sites — simulation faults and snapshot-I/O faults
    // — during checkpoint, restore and straight-through runs. Some
    // snapshots are corrupted at write time, some restores fail and
    // cold-start; the scans must not care, at any thread count.
    // p0.02 matches the parallel-fleet chaos suite (higher rates can
    // fire a boot-time allocation fault, which is fatal by design).
    std::string spec;
    for (unsigned i = 0; i < numFaultSites; ++i) {
        if (!spec.empty())
            spec += ",";
        spec += std::string(FaultInjector::siteName(
                    static_cast<FaultSite>(i))) +
                ":p0.02";
    }

    const std::string dir = scratchDir("fleet_chaos_all");
    const FleetRun straight = runFleet(smallFleet("", ""), spec);
    const FleetRun checkpoint = runFleet(smallFleet(dir, ""), spec);
    EXPECT_EQ(checkpoint.scans, straight.scans);

    std::vector<FleetRun> runs;
    for (const unsigned threads : {1u, 4u, 8u}) {
        Fleet::Config config = smallFleet("", dir);
        config.threads = threads;
        runs.push_back(runFleet(config, spec));
        EXPECT_EQ(runs.back().scans, straight.scans)
            << "threads=" << threads;
    }
    for (std::size_t i = 1; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].faultCounts, runs[0].faultCounts);
}

/** One corruption kind: checkpoint under `writeSpec`, restore under
 * `restoreSpec`; every affected server must detect the damage and
 * cold-start into exactly the straight-through results. */
void
expectDetectedAndColdStarted(const std::string &name,
                             const std::string &writeSpec,
                             const std::string &restoreSpec,
                             FaultSite site)
{
    const std::string dir = scratchDir("fleet_" + name);
    const FleetRun straight = runFleet(smallFleet("", ""), "");
    const FleetRun checkpoint =
        runFleet(smallFleet(dir, ""), writeSpec);
    EXPECT_EQ(checkpoint.scans, straight.scans) << name;

    // Write-side sites must actually have fired during checkpoint.
    if (!writeSpec.empty()) {
        const unsigned i = static_cast<unsigned>(site);
        EXPECT_GT(checkpoint.faultCounts[2 * i + 1], 0u) << name;
    }

    const FleetRun restored =
        runFleet(smallFleet("", dir), restoreSpec);
    EXPECT_EQ(restored.scans, straight.scans) << name;
    if (!restoreSpec.empty()) {
        const unsigned i = static_cast<unsigned>(site);
        EXPECT_GT(restored.faultCounts[2 * i + 1], 0u) << name;
    }
}

TEST_F(SnapshotFleetTest, TornWriteIsDetectedAndColdStarts)
{
    expectDetectedAndColdStarted("torn", "snap.torn_write:p1", "",
                                 FaultSite::SnapTornWrite);
}

TEST_F(SnapshotFleetTest, BitFlipIsDetectedAndColdStarts)
{
    expectDetectedAndColdStarted("flip", "snap.bit_flip:p1", "",
                                 FaultSite::SnapBitFlip);
}

TEST_F(SnapshotFleetTest, VersionSkewIsDetectedAndColdStarts)
{
    expectDetectedAndColdStarted("skew", "snap.version_skew:p1", "",
                                 FaultSite::SnapVersionSkew);
}

TEST_F(SnapshotFleetTest, ManifestSkewIsDetectedAndColdStarts)
{
    expectDetectedAndColdStarted("manifest",
                                 "snap.manifest_skew:p1", "",
                                 FaultSite::SnapManifestSkew);
}

TEST_F(SnapshotFleetTest, ReadFailureIsDetectedAndColdStarts)
{
    expectDetectedAndColdStarted("readfail", "",
                                 "snap.read_fail:p1",
                                 FaultSite::SnapReadFail);
}

TEST_F(SnapshotFleetTest, MissingRestoreDirectoryColdStarts)
{
    const FleetRun straight = runFleet(smallFleet("", ""), "");
    const FleetRun restored = runFleet(
        smallFleet("", ::testing::TempDir() + "ctgsnap_absent"),
        "");
    EXPECT_EQ(restored.scans, straight.scans);
}

TEST_F(SnapshotFleetTest, HandEditedSnapshotFileColdStarts)
{
    const std::string dir = scratchDir("fleet_handedit");
    const FleetRun straight = runFleet(smallFleet("", ""), "");
    runFleet(smallFleet(dir, ""), "");

    // Vandalize one snapshot in the middle (manifest untouched).
    const std::string victim =
        dir + "/" + snap::snapshotFileName(2);
    std::fstream file(victim,
                      std::ios::in | std::ios::out |
                          std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(200, std::ios::beg);
    const char garbage = 0x5a;
    file.write(&garbage, 1);
    file.close();

    const FleetRun restored = runFleet(smallFleet("", dir), "");
    EXPECT_EQ(restored.scans, straight.scans);
}

// ---------------------------------------------------------------
// Registry-selected restore: the image names its policy
// ---------------------------------------------------------------

TEST_F(SnapshotFleetTest,
       EveryRegistryPolicyRoundTripsAtEveryThreadCount)
{
    // The Server section leads with the policy's registry name;
    // restore must select the factory from that name, for every
    // registered policy, bit-identically at 1/4/8 threads.
    for (const PolicyRegistry::Entry &entry :
         PolicyRegistry::instance().entries()) {
        const std::string dir =
            scratchDir("fleet_policy_" + entry.name);
        Fleet::Config base = smallFleet("", "");
        base.servers = 3;
        base.memBytes = 128_MiB;
        base.policy = {};
        ASSERT_TRUE(parsePolicySpec(entry.name, &base.policy));

        Fleet::Config checkpoint = base;
        checkpoint.checkpointDir = dir;
        const FleetRun straight = runFleet(base, "");
        EXPECT_EQ(runFleet(checkpoint, "").scans, straight.scans)
            << entry.name;

        for (const unsigned threads : {1u, 4u, 8u}) {
            Fleet::Config restore = base;
            restore.restoreDir = dir;
            restore.threads = threads;
            EXPECT_EQ(runFleet(restore, "").scans, straight.scans)
                << entry.name << " threads=" << threads;
        }
    }
}

TEST_F(SnapshotRoundTrip, UnknownPolicyNameImageIsRefused)
{
    // A snapshot taken under a policy this build no longer knows
    // (fork drift, renamed entry) must be refused as serde::Error —
    // a detected failure the fleet degrades to a cold start — never
    // a crash or a silently wrong machine.
    PolicyRegistry &reg = PolicyRegistry::instance();
    PolicyRegistry::Entry base;
    ASSERT_TRUE(reg.find("contiguitas", &base));
    PolicyRegistry::Entry ephemeral = base;
    ephemeral.name = "test-ephemeral";
    ephemeral.description = "registered only for this test";
    reg.add(ephemeral);

    Server::Config config = smallServer(false, false);
    config.policy.name = "test-ephemeral";
    FaultInjector fi(1);
    const FaultInjectorScope scope(fi);
    Server server(config);
    server.runToCheckpoint();
    const std::vector<std::uint8_t> image =
        encodeSnapshot(server, fi);

    reg.remove("test-ephemeral");
    try {
        decodeSnapshot(config, image, nullptr);
        FAIL() << "image with unregistered policy decoded";
    } catch (const serde::Error &err) {
        EXPECT_NE(std::string(err.what()).find("test-ephemeral"),
                  std::string::npos)
            << err.what();
    }

    // Re-registering the name makes the same image loadable again.
    reg.add(ephemeral);
    EXPECT_NO_THROW(decodeSnapshot(config, image, nullptr));
    reg.remove("test-ephemeral");
}

} // namespace
} // namespace ctg
