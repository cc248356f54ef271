/**
 * @file
 * Scale-tier suite for the struct-of-arrays frame table and the
 * 10^5-server fleet path. Differentially verifies the packed SoA
 * layout against the old array-of-structs semantics (PageFrame is
 * kept as the materialized reference value type), pins the
 * bytes/frame budget the fleet-scale bench reports, and runs the
 * fig11-shaped scale tier through the three hard contracts:
 * bit-identical at any CTG_THREADS, bit-identical snapshot
 * round-trips, and auditor-clean with every fault site armed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/serde.hh"
#include "base/span_trace.hh"
#include "base/units.hh"
#include "bench/bench_util.hh"
#include "fleet/fleet.hh"
#include "mem/auditor.hh"
#include "mem/buddy.hh"
#include "mem/physmem.hh"
#include "sim/fault_injector.hh"
#include "sim/snapshot.hh"
#include "workloads/profile.hh"

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

// ---------------------------------------------------------------
// SoA / AoS differential equivalence
// ---------------------------------------------------------------

/** The packed-word fields of a materialized frame (the part a
 * shadow PageFrame can predict without knowing block geometry). */
void
expectWordFieldsEqual(const PageFrame &want, const PageFrame &got,
                      Pfn pfn)
{
    EXPECT_EQ(want.flags, got.flags) << "pfn " << pfn;
    EXPECT_EQ(want.order, got.order) << "pfn " << pfn;
    EXPECT_EQ(want.migrateType, got.migrateType) << "pfn " << pfn;
    EXPECT_EQ(want.source, got.source) << "pfn " << pfn;
}

TEST(FrameTableEquivalence, ProxySettersMatchPageFrameReference)
{
    // Drive the FrameRef proxy and a shadow array-of-structs
    // PageFrame vector through the same randomized setter sequence;
    // after every op the materialized word fields must agree
    // everywhere. This is the field-for-field proof that the packed
    // 16-bit meta word reproduces the old per-frame struct.
    constexpr Pfn n = 256;
    FrameArray soa(n);
    std::vector<PageFrame> aos(n);
    Rng rng(0x50a7e57);

    for (int op = 0; op < 5000; ++op) {
        const Pfn pfn = rng.below(n);
        auto f = soa.frame(pfn);
        PageFrame &s = aos[pfn];
        switch (rng.below(9)) {
          case 0: {
            const bool v = rng.chance(0.5);
            f.setFree(v);
            s.setFree(v);
            break;
          }
          case 1: {
            const bool v = rng.chance(0.5);
            f.setHead(v);
            s.setHead(v);
            break;
          }
          case 2: {
            const bool v = rng.chance(0.5);
            f.setPinned(v);
            s.setPinned(v);
            break;
          }
          case 3: {
            const bool v = rng.chance(0.5);
            f.setMigrating(v);
            s.setMigrating(v);
            break;
          }
          case 4: {
            const unsigned order = rng.chance(0.1)
                                       ? gigaOrder
                                       : rng.below(maxOrder + 1);
            f.setOrder(order);
            s.order = static_cast<std::uint8_t>(order);
            break;
          }
          case 5: {
            const auto mt = static_cast<MigrateType>(
                rng.below(numMigrateTypes));
            f.setMigrateType(mt);
            s.migrateType = mt;
            break;
          }
          case 6: {
            const auto src = static_cast<AllocSource>(
                rng.below(numAllocSources));
            f.setSource(src);
            s.source = src;
            break;
          }
          case 7: {
            const unsigned order = rng.below(maxOrder + 1);
            const auto mt = static_cast<MigrateType>(
                rng.below(numMigrateTypes));
            const auto src = static_cast<AllocSource>(
                rng.below(numAllocSources));
            const bool head = rng.chance(0.5);
            f.stampAllocated(order, mt, src, head);
            s = PageFrame{};
            s.setHead(head);
            s.order = static_cast<std::uint8_t>(order);
            s.migrateType = mt;
            s.source = src;
            break;
          }
          case 8:
            f.reset();
            s = PageFrame{};
            break;
        }
        expectWordFieldsEqual(s, soa.get(pfn), pfn);
        EXPECT_EQ(s.isUnmovableAllocation(),
                  soa.frame(pfn).isUnmovableAllocation());
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at op " << op;
    }
    // Full-array sweep: nothing outside the touched frames drifted.
    for (Pfn pfn = 0; pfn < n; ++pfn)
        expectWordFieldsEqual(aos[pfn], soa.get(pfn), pfn);
}

TEST(FrameTableEquivalence, AllocationStampsMatchAosSemantics)
{
    // Replay exactly what the old AoS markAllocated loop stored and
    // check every field materializes identically: the owner handle
    // (now overlaid on the head's link slots) must read back on
    // *every* member frame, not just the head.
    FrameArray fa(1024);
    const struct
    {
        Pfn head;
        unsigned order;
        MigrateType mt;
        AllocSource src;
        std::uint64_t owner;
    } blocks[] = {
        {0, 3, MigrateType::Movable, AllocSource::User,
         0xfeedfacecafef00dULL},
        {16, 0, MigrateType::Unmovable, AllocSource::Slab,
         0xffffffffffffffffULL},
        {512, 9, MigrateType::Reclaimable, AllocSource::Networking,
         1},
    };
    for (const auto &b : blocks) {
        for (Pfn pfn = b.head; pfn < b.head + (Pfn{1} << b.order);
             ++pfn)
            fa.frame(pfn).stampAllocated(b.order, b.mt, b.src,
                                         pfn == b.head);
        fa.frame(b.head).setOwner(b.owner);
    }

    for (const auto &b : blocks) {
        for (Pfn pfn = b.head; pfn < b.head + (Pfn{1} << b.order);
             ++pfn) {
            const PageFrame got = fa.get(pfn);
            EXPECT_FALSE(got.isFree()) << "pfn " << pfn;
            EXPECT_EQ(got.isHead(), pfn == b.head) << "pfn " << pfn;
            EXPECT_EQ(got.order, b.order) << "pfn " << pfn;
            EXPECT_EQ(got.migrateType, b.mt) << "pfn " << pfn;
            EXPECT_EQ(got.source, b.src) << "pfn " << pfn;
            EXPECT_EQ(got.owner, b.owner) << "pfn " << pfn;
        }
    }

    // Freeing (reset) zeroes the word.
    // The link slots keep stale bits until the buddy relinks the
    // frame into a free list — same as the old layout's stale links
    // — so owner() is only defined again once FlagFree is set, at
    // which point it must read 0 exactly as the AoS reset did.
    for (const auto &b : blocks)
        for (Pfn pfn = b.head; pfn < b.head + (Pfn{1} << b.order);
             ++pfn)
            fa.frame(pfn).reset();
    for (const auto &b : blocks) {
        EXPECT_EQ(fa.get(b.head).flags, 0);
        fa.frame(b.head).setFree(true);
        EXPECT_EQ(fa.get(b.head).owner, 0u);
    }
}

/** One live allocation the property test tracks. */
struct Held
{
    Pfn head;
    unsigned order;
    MigrateType mt;
    AllocSource src;
    std::uint64_t owner;
    bool pinned = false;
};

void
expectBlockMatches(const PhysMem &mem, const Held &h)
{
    for (Pfn pfn = h.head; pfn < h.head + (Pfn{1} << h.order);
         ++pfn) {
        const PageFrame got = mem.frames().get(pfn);
        ASSERT_FALSE(got.isFree()) << "pfn " << pfn;
        EXPECT_EQ(got.isHead(), pfn == h.head) << "pfn " << pfn;
        EXPECT_EQ(got.isPinned(), h.pinned) << "pfn " << pfn;
        EXPECT_EQ(got.order, h.order) << "pfn " << pfn;
        EXPECT_EQ(got.migrateType, h.mt) << "pfn " << pfn;
        EXPECT_EQ(got.source, h.src) << "pfn " << pfn;
        EXPECT_EQ(got.owner, h.owner) << "pfn " << pfn;
    }
}

TEST(FrameTableEquivalence, BuddyDrivenRandomizedProperty)
{
    // The real allocator, random alloc/free/pin churn, and the old
    // AoS contract checked from the outside: every tracked live
    // block must materialize exactly the fields the old layout
    // stored, and every free frame must read owner 0.
    faultInjector().reset();
    PhysMem mem(64_MiB);
    BuddyAllocator alloc(mem, 0, mem.numFrames(), "soa_prop");
    MemAuditor auditor(mem);
    auditor.addAllocator(&alloc);

    Rng rng(0xd1ffe7e57);
    std::vector<Held> held;
    for (int op = 0; op < 4000; ++op) {
        const double roll = rng.uniform();
        if (roll < 0.55) {
            Held h;
            h.order = static_cast<unsigned>(rng.below(4));
            h.mt = static_cast<MigrateType>(rng.below(3));
            h.src = static_cast<AllocSource>(
                rng.below(numAllocSources));
            h.owner = rng.next() | 1; // nonzero: 0 means "free"
            h.head = alloc.allocPages(h.order, h.mt, h.src, h.owner);
            if (h.head != invalidPfn)
                held.push_back(h);
        } else if (roll < 0.85 && !held.empty()) {
            const std::size_t pick = rng.below(held.size());
            const Held h = held[pick];
            if (h.pinned)
                mem.setBlockPinned(h.head, false);
            alloc.freePages(h.head);
            held[pick] = held.back();
            held.pop_back();
        } else if (!held.empty()) {
            const std::size_t pick = rng.below(held.size());
            held[pick].pinned = !held[pick].pinned;
            mem.setBlockPinned(held[pick].head,
                               held[pick].pinned);
        }

        if (op % 250 == 0 || op == 3999) {
            alloc.checkInvariants();
            const AuditReport report = auditor.audit();
            ASSERT_TRUE(report.ok()) << report.summary();
            for (const Held &h : held)
                expectBlockMatches(mem, h);
            if (::testing::Test::HasFailure())
                FAIL() << "diverged at op " << op;
        }
    }

    // Drain everything: the table must read as all-free with no
    // residual owner handles.
    for (const Held &h : held) {
        if (h.pinned)
            mem.setBlockPinned(h.head, false);
        alloc.freePages(h.head);
    }
    EXPECT_EQ(alloc.freePageCount(), mem.numFrames());
    for (Pfn pfn = 0; pfn < mem.numFrames(); ++pfn) {
        const PageFrame got = mem.frames().get(pfn);
        ASSERT_TRUE(got.isFree()) << "pfn " << pfn;
        ASSERT_EQ(got.owner, 0u) << "pfn " << pfn;
        ASSERT_FALSE(got.isPinned()) << "pfn " << pfn;
    }
    alloc.checkInvariants();
}

TEST(FrameTableEquivalence, GiganticAllocationStampsEveryFrame)
{
    // A gigantic block is 2^18 frames sharing one owner handle; the
    // overlay must resolve through the gigaOrder-aligned head for
    // members arbitrarily far away.
    PhysMem mem(1_GiB);
    BuddyAllocator alloc(mem, 0, mem.numFrames(), "giga");
    const Pfn head = alloc.allocGigantic(
        MigrateType::Movable, AllocSource::User,
        0xabcdef0123456789ULL);
    ASSERT_NE(head, invalidPfn);
    const Pfn probes[] = {head, head + 1, head + 511,
                          head + pagesPerGiga / 2,
                          head + pagesPerGiga - 1};
    for (const Pfn pfn : probes) {
        const PageFrame got = mem.frames().get(pfn);
        EXPECT_FALSE(got.isFree()) << "pfn " << pfn;
        EXPECT_EQ(got.order, gigaOrder) << "pfn " << pfn;
        EXPECT_EQ(got.owner, 0xabcdef0123456789ULL) << "pfn " << pfn;
        EXPECT_EQ(got.isHead(), pfn == head) << "pfn " << pfn;
    }
}

TEST(FrameTableEquivalence, DetachAttachKeepsFramesEquivalent)
{
    // Region-resizing handoff: detached frames stay free (but
    // unlisted), re-attached frames come back allocatable, and the
    // materialized view never shows a phantom owner.
    PhysMem mem(64_MiB);
    BuddyAllocator alloc(mem, 0, mem.numFrames(), "resize");
    const Pfn cut = mem.numFrames() / 2;
    alloc.detachRange(cut, mem.numFrames());
    for (Pfn pfn = cut; pfn < mem.numFrames(); pfn += 117) {
        const PageFrame got = mem.frames().get(pfn);
        EXPECT_TRUE(got.isFree()) << "pfn " << pfn;
        EXPECT_EQ(got.owner, 0u) << "pfn " << pfn;
    }
    alloc.attachRange(cut, mem.numFrames(),
                      MigrateType::Unmovable);
    EXPECT_EQ(alloc.freePageCount(), mem.numFrames());
    alloc.checkInvariants();
    const Pfn head = alloc.allocPages(0, MigrateType::Unmovable,
                                      AllocSource::Slab, 0x77);
    ASSERT_NE(head, invalidPfn);
    EXPECT_EQ(mem.frames().get(head).owner, 0x77u);
    MemAuditor auditor(mem);
    auditor.addAllocator(&alloc);
    const AuditReport report = auditor.audit();
    EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------
// Bench CLI parser
// ---------------------------------------------------------------

TEST(BenchCli, BothFlagSpellingsParse)
{
    bench::jsonOutPath().clear();
    std::string servers;
    char prog[] = "fleet_scale";
    char a1[] = "--servers";
    char a2[] = "123";
    char a3[] = "--json=/tmp/out.json";
    char *argv[] = {prog, a1, a2, a3};
    bench::parseArgs(4, argv,
                     {{"servers", &servers, "population size"}});
    EXPECT_EQ(servers, "123");
    EXPECT_EQ(bench::jsonOutPath(), "/tmp/out.json");
    EXPECT_EQ(bench::flagU64(servers, "servers"), 123u);
    bench::jsonOutPath().clear();
}

TEST(BenchCli, UnknownFlagExitsWithUsage)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    char prog[] = "fleet_scale";
    char bogus[] = "--bogus-flag";
    char *argv[] = {prog, bogus};
    EXPECT_EXIT(bench::parseArgs(2, argv),
                ::testing::ExitedWithCode(2),
                "unknown bench argument '--bogus-flag'");
}

TEST(BenchCli, MissingValueExitsWithUsage)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string servers;
    char prog[] = "fleet_scale";
    char flag[] = "--servers";
    char *argv[] = {prog, flag};
    EXPECT_EXIT(
        bench::parseArgs(2, argv,
                         {{"servers", &servers, "population size"}}),
        ::testing::ExitedWithCode(2),
        "missing value for '--servers'");
}

TEST(BenchCli, NonIntegerValueExitsWithUsage)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(bench::flagU64("notanumber", "servers"),
                ::testing::ExitedWithCode(2),
                "flag --servers wants an integer, got 'notanumber'");
}

// ---------------------------------------------------------------
// Footprint budget
// ---------------------------------------------------------------

TEST(FrameTableFootprint, FixedCostIsTenBytesPerFrame)
{
    // 2 (meta) + 4 + 4 (links). This is the whole table the
    // fleet-scale bench builds on; a change here is a
    // capacity-planning event, not noise.
    const FrameArray fa(4096);
    EXPECT_EQ(fa.bytesUsed(), 4096u * 10u);
}

TEST(FrameTableFootprint, RepresentativeServerStaysUnderBudget)
{
    // The fleet-scale acceptance: a churned, pre-fragmented scale-
    // tier server (the worst case the bench measures) holds exactly
    // the 10 bytes/frame it started with — no allocation-driven
    // state grows with the workload, 4x under the 40 bytes/frame
    // array-of-structs table the roadmap retired.
    faultInjector().reset();
    Server::Config config;
    config.memBytes = 64_MiB;
    config.kind = WorkloadKind::Web;
    config.prefragment = true;
    config.uptimeSec = 4.0;
    config.seed = 0xb06e7;
    Server server(config);
    server.run();
    const FrameArray &frames = server.kernel().mem().frames();
    EXPECT_EQ(frames.bytesUsed(),
              10u * server.kernel().mem().numFrames());
}

TEST(FrameTableFootprint, ContigIndexStaysUnderTwoBytesPerFrame)
{
    // The index is four 1-bit planes plus a source byte per frame and
    // a pageblock-rooted tree: about 1.6 bytes/frame. Checked on the
    // scale-tier shape and on a machine whose size is not a power of
    // two (partial top node). Every part is sized at construction and
    // never grows, so an unused machine shows the steady footprint.
    for (const std::uint64_t bytes : {64_MiB, 1_GiB + 2_MiB}) {
        const PhysMem mem(bytes);
        const double perFrame =
            static_cast<double>(mem.contigIndex().bytesUsed()) /
            static_cast<double>(mem.numFrames());
        EXPECT_LE(perFrame, 2.0) << bytes << " bytes";
        EXPECT_GE(perFrame, 1.5) << bytes << " bytes"; // planes + src
    }
}

// ---------------------------------------------------------------
// Snapshot frame-table validation (hostile images)
// ---------------------------------------------------------------

/** Pack one meta word the way the frame table does. */
std::uint16_t
packMeta(std::uint8_t flags, unsigned order, MigrateType mt,
         AllocSource src)
{
    return static_cast<std::uint16_t>(
        flags |
        (static_cast<std::uint16_t>(mt) << FrameArray::metaMtShift) |
        (static_cast<std::uint16_t>(src)
         << FrameArray::metaSrcShift) |
        (order << FrameArray::metaOrderShift));
}

/** A hand-buildable image of a 64-frame table. */
struct RawTable
{
    std::vector<std::uint16_t> meta;
    std::vector<std::uint32_t> next;
    std::vector<std::uint32_t> prev;

    RawTable()
        : meta(64, packMeta(PageFrame::FlagFree, 0,
                            MigrateType::Movable,
                            AllocSource::User)),
          next(64, FrameArray::nil), prev(64, FrameArray::nil)
    {
        // Frame 0: a free order-2 list head. Frames 8..9: an
        // allocated order-1 block whose head carries an overlaid
        // owner handle.
        meta[0] = packMeta(PageFrame::FlagFree | PageFrame::FlagHead,
                           2, MigrateType::Movable,
                           AllocSource::User);
        meta[8] = packMeta(PageFrame::FlagHead, 1,
                           MigrateType::Unmovable, AllocSource::Slab);
        meta[9] = packMeta(0, 1, MigrateType::Unmovable,
                           AllocSource::Slab);
        next[8] = 0xdeadbeef; // owner low half — NOT a link
        prev[8] = 0xfeedface; // owner high half — NOT a link
    }

    std::vector<std::uint8_t>
    serialize() const
    {
        serde::Writer out;
        out.putPodVector(meta);
        out.putPodVector(next);
        out.putPodVector(prev);
        return out.bytes();
    }
};

void
expectLoadThrows(const RawTable &raw, const char *why)
{
    const std::vector<std::uint8_t> bytes = raw.serialize();
    serde::Reader in(bytes);
    FrameArray fa(64);
    EXPECT_THROW(fa.loadFrom(in), serde::Error) << why;
}

TEST(FrameTableRestore, WellFormedImageRoundTripsByteExactly)
{
    const RawTable raw;
    const std::vector<std::uint8_t> bytes = raw.serialize();
    serde::Reader in(bytes);
    FrameArray fa(64);
    ASSERT_NO_THROW(fa.loadFrom(in));
    // The restored table materializes the allocated head with its
    // overlaid owner...
    const PageFrame head = fa.get(8);
    EXPECT_EQ(head.owner, 0xfeedface00000000ULL | 0xdeadbeefULL);
    EXPECT_EQ(fa.get(9).owner, head.owner);
    // ...and re-serializes to the identical image (bitwise-stable
    // columns).
    serde::Writer out;
    fa.saveTo(out);
    EXPECT_EQ(out.bytes(), bytes);
}

TEST(FrameTableRestore, TraversableLinkOutOfRangeIsRefused)
{
    // Free-list member links must be validated before the buddy
    // restore walks them: index 64 is one past the table.
    RawTable raw;
    raw.next[0] = 64;
    expectLoadThrows(raw, "free head next out of range");
    RawTable raw2;
    raw2.prev[0] = 0xfffffffe; // large but != nil
    expectLoadThrows(raw2, "free head prev out of range");
}

TEST(FrameTableRestore, AllocatedHeadLinksAreNotValidatedAsLinks)
{
    // The same huge values on an *allocated* head are owner-handle
    // bits, not links — they must load fine. (A link-validation
    // pass that forgot the overlay would reject every snapshot with
    // a large owner handle.)
    RawTable raw;
    raw.next[8] = 0xfffffffe;
    raw.prev[8] = 0xfffffffe;
    const std::vector<std::uint8_t> bytes = raw.serialize();
    serde::Reader in(bytes);
    FrameArray fa(64);
    ASSERT_NO_THROW(fa.loadFrom(in));
    EXPECT_EQ(fa.get(8).owner, 0xfffffffefffffffeULL);
}

TEST(FrameTableRestore, HostileMetaWordsAreRefused)
{
    {
        RawTable raw;
        raw.meta[3] = packMeta(PageFrame::FlagFree, maxOrder + 1,
                               MigrateType::Movable,
                               AllocSource::User);
        expectLoadThrows(raw, "order beyond maxOrder");
    }
    {
        RawTable raw;
        raw.meta[3] |= FrameArray::metaSpareMask;
        expectLoadThrows(raw, "spare bits set");
    }
    {
        RawTable raw;
        raw.meta[3] = static_cast<std::uint16_t>(
            PageFrame::FlagFree |
            (7u << FrameArray::metaSrcShift)); // src 7 >= 7
        expectLoadThrows(raw, "alloc source out of range");
    }
    {
        RawTable raw;
        raw.meta.resize(63); // column length mismatch
        expectLoadThrows(raw, "size mismatch");
    }
}

/** Checkpoint image of a churned, prefragmented scale-tier server,
 * encoded with `faults` as its injector. */
std::vector<std::uint8_t>
churnedServerImage(const Server::Config &config, FaultInjector &faults)
{
    const FaultInjectorScope scope(faults);
    Server server(config);
    server.runToCheckpoint();
    return encodeSnapshot(server, faults);
}

Server::Config
churnedServerConfig()
{
    Server::Config config;
    config.memBytes = 64_MiB;
    config.kind = WorkloadKind::Web;
    config.prefragment = true;
    config.uptimeSec = 3.0;
    config.extraUptimeSec = 1.0;
    config.seed = 0xf0a4;
    return config;
}

/** The u32 format version in an image header (little-endian). */
std::uint32_t
imageVersion(const std::vector<std::uint8_t> &image)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(image[4 + i]) << (8 * i);
    return v;
}

TEST(FrameTableRestore, FormatFourServerImageRoundTripsByteExactly)
{
    // Format 4 is the frame table as its three columns, with no
    // allocation-second table and no PhysMem clock. A whole server
    // image decodes and re-encodes to the same bytes.
    faultInjector().reset();
    const Server::Config config = churnedServerConfig();
    FaultInjector faults(1);
    const std::vector<std::uint8_t> image =
        churnedServerImage(config, faults);
    ASSERT_GE(image.size(), 8u);
    EXPECT_EQ(snap::formatVersion, 4u);
    EXPECT_EQ(imageVersion(image), 4u);
    const std::unique_ptr<Server> restored =
        decodeSnapshot(config, image, nullptr);
    EXPECT_EQ(encodeSnapshot(*restored, faults), image);
}

TEST(FrameTableRestore, FormatThreeImageIsRefusedWithTheVersionError)
{
    // A format-3 frame table carries the side table and clock this
    // build no longer reads; the header check refuses it before any
    // payload is parsed, so the restore cold-starts.
    faultInjector().reset();
    const Server::Config config = churnedServerConfig();
    FaultInjector faults(1);
    std::vector<std::uint8_t> image =
        churnedServerImage(config, faults);
    ASSERT_GE(image.size(), 8u);
    image[4] = 3;
    image[5] = image[6] = image[7] = 0;
    ASSERT_EQ(imageVersion(image), 3u);
    try {
        decodeSnapshot(config, image, nullptr);
        ADD_FAILURE() << "a format-3 image was accepted";
    } catch (const serde::Error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "format version 3 (this build speaks 4)"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------
// Scale tier: thread identity, snapshots, faults
// ---------------------------------------------------------------

/** Fig11-shaped population at the scale tier (the bench's shape,
 * sized for a unit test). */
Fleet::Config
scaleTierFleet(bool contiguitas, unsigned servers)
{
    Fleet::Config config;
    config.servers = servers;
    config.memBytes = 64_MiB;
    config.policy.name = contiguitas ? "contiguitas" : "vanilla";
    config.minUptimeSec = 2.0;
    config.maxUptimeSec = 5.0;
    config.minIntensity = 0.7;
    config.maxIntensity = 1.3;
    config.prefragmentFrac = 0.25;
    config.seed = 0x5ca1e ^ (contiguitas ? 1 : 0);
    return config;
}

/** Streamed CDFs of the scan metrics these tests read. */
struct ScanHistograms
{
    OnlineHistogram freeContiguity2m;
    OnlineHistogram unmovableBlocks2m;
    OnlineHistogram uptimeSec;
};

/** Run `fleet` through the per-server callback, folding every scan
 * into `hists`; returns the scans in callback order. */
std::vector<ServerScan>
runIntoHistograms(Fleet &fleet, ScanHistograms &hists)
{
    std::vector<ServerScan> scans;
    fleet.run([&](unsigned, const ServerScan &scan) {
        hists.freeContiguity2m.add(scan.freeContiguity[0]);
        hists.unmovableBlocks2m.add(scan.unmovableBlocks[0]);
        hists.uptimeSec.add(scan.uptimeSec);
        scans.push_back(scan);
    });
    return scans;
}

class FleetScaleTier : public ::testing::Test
{
  protected:
    FleetScaleTier() { faultInjector().reset(); }
    ~FleetScaleTier() override { faultInjector().reset(); }
};

/** Everything observable about a span event except wallUs (wall
 * clock is explicitly non-deterministic) — names and arg keys by
 * string value. */
std::string
eventRecord(const spans::Event &e)
{
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%u|%u|%s|%llu|%llu|%llu|%llu|%u|%u",
                  static_cast<unsigned>(e.phase),
                  static_cast<unsigned>(e.flag), e.name,
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.parent),
                  static_cast<unsigned long long>(e.ts),
                  static_cast<unsigned long long>(e.tick), e.stream,
                  static_cast<unsigned>(e.nargs));
    out += buf;
    for (unsigned i = 0; i < e.nargs; ++i) {
        std::snprintf(buf, sizeof(buf), "|%s=%lld", e.args[i].key,
                      static_cast<long long>(e.args[i].value));
        out += buf;
    }
    return out;
}

/** Per-server span events of the last run, in collection order
 * (stream 0 — the main thread's fleet phase spans — excluded, since
 * their `threads` args name the run configuration). */
std::vector<std::string>
serverSpanRecords()
{
    std::vector<std::string> out;
    for (const spans::Event &e : spans::collectedEvents())
        if (e.stream != 0)
            out.push_back(eventRecord(e));
    return out;
}

TEST_F(FleetScaleTier, BitIdenticalAcrossThreadCounts)
{
    // Scans, streamed quantiles and the per-server span streams must
    // not move a bit at any thread count.
    for (const bool contiguitas : {false, true}) {
        std::vector<std::uint64_t> baseline;
        std::vector<std::uint64_t> baselineQuantiles;
        std::vector<std::string> baselineSpans;
        for (const unsigned threads : {1u, 4u, 8u}) {
            spans::resetForTest();
            spans::enableAll();
            Fleet::Config config = scaleTierFleet(contiguitas, 24);
            config.threads = threads;
            Fleet fleet(config);
            ScanHistograms hists;
            const auto scans =
                scansBits(runIntoHistograms(fleet, hists));
            std::vector<std::uint64_t> quantiles;
            for (const double f : {0.0, 0.25, 0.5, 0.9, 1.0}) {
                quantiles.push_back(
                    bits(hists.freeContiguity2m.quantile(f)));
                quantiles.push_back(
                    bits(hists.unmovableBlocks2m.quantile(f)));
                quantiles.push_back(
                    bits(hists.uptimeSec.quantile(f)));
            }
            const std::vector<std::string> spanRecords =
                serverSpanRecords();
            spans::resetForTest();
            if (baseline.empty()) {
                baseline = scans;
                baselineQuantiles = quantiles;
                baselineSpans = spanRecords;
                EXPECT_FALSE(baseline.empty());
                EXPECT_FALSE(baselineSpans.empty());
            } else {
                EXPECT_EQ(scans, baseline)
                    << "scan drift at " << threads << " threads, ctg="
                    << contiguitas;
                EXPECT_EQ(quantiles, baselineQuantiles)
                    << "streamed quantile drift at " << threads
                    << " threads";
                EXPECT_EQ(spanRecords, baselineSpans)
                    << "span drift at " << threads << " threads, ctg="
                    << contiguitas;
            }
        }
    }
}

TEST_F(FleetScaleTier, ScanCallbackStreamsServerOrderAcrossMergeWindows)
{
    // 200 servers are more than three merge windows at one thread
    // (Fleet::kMergeWindowPerThread = 64), two at two threads and one
    // at four. At every thread count the callback must see each
    // server exactly once, in index order, with the scans run()
    // returns.
    const unsigned servers = 200;
    ASSERT_GT(servers, 3 * Fleet::kMergeWindowPerThread);
    Fleet::Config config = scaleTierFleet(true, servers);
    config.threads = 1;
    Fleet reference(config);
    const auto expected = scansBits(reference.run());

    for (const unsigned threads : {1u, 2u, 4u}) {
        config.threads = threads;
        Fleet fleet(config);
        std::vector<unsigned> order;
        std::vector<ServerScan> scans;
        fleet.run([&](unsigned server, const ServerScan &scan) {
            order.push_back(server);
            scans.push_back(scan);
        });
        ASSERT_EQ(order.size(), servers) << threads << " threads";
        for (unsigned i = 0; i < servers; ++i)
            EXPECT_EQ(order[i], i) << threads << " threads";
        EXPECT_EQ(scansBits(scans), expected)
            << "callback scans drift at " << threads << " threads";
    }
}

TEST_F(FleetScaleTier, EveryFaultSiteArmedStaysIdenticalAndAudited)
{
    // All 13 fault sites armed over the scale-tier population: the
    // runs must stay bit-identical across thread counts and the
    // fault evaluation/fire counters must match exactly.
    // The injector stream is pinned: boot-time allocations (kernel
    // text, NIC rings) fatal on an injected failure by design, so
    // like the other chaos suites this uses a seed whose fire
    // pattern lets every server boot. Forked per-task streams make
    // the pattern identical at every thread count either way.
    const auto runWithFaults = [](unsigned threads) {
        faultInjector().reset(0xbadc0de);
        for (unsigned i = 0; i < numFaultSites; ++i)
            faultInjector().arm(static_cast<FaultSite>(i),
                                FaultSpec::chance(0.02));
        Fleet::Config config = scaleTierFleet(true, 16);
        config.threads = threads;
        Fleet fleet(config);
        std::vector<std::uint64_t> record = scansBits(fleet.run());
        for (unsigned i = 0; i < numFaultSites; ++i) {
            const auto &s = faultInjector().siteStats(
                static_cast<FaultSite>(i));
            record.push_back(s.evaluations);
            record.push_back(s.fires);
        }
        faultInjector().reset();
        return record;
    };
    const auto baseline = runWithFaults(1);
    EXPECT_EQ(runWithFaults(4), baseline);
    EXPECT_EQ(runWithFaults(8), baseline);
}

TEST_F(FleetScaleTier, KiloServerSnapshotRoundTrip)
{
    // The 1k-server tier: checkpoint every server at its uptime
    // boundary, restore the whole population, and require the
    // restored run to be bit-identical to the straight-through run.
    // Small machines and short uptimes keep this inside unit-test
    // runtime while the population size stays at the tier the
    // fleet-scale work targets.
    const std::string dir =
        ::testing::TempDir() + "ctgsnap_fleet_scale_kilo";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    Fleet::Config config = scaleTierFleet(true, 1000);
    config.memBytes = 32_MiB;
    config.minUptimeSec = 1.0;
    config.maxUptimeSec = 2.0;
    config.extraUptimeSec = 1.0;

    Fleet straight(config);
    const auto straightBits = scansBits(straight.run());

    Fleet::Config ckptConfig = config;
    ckptConfig.checkpointDir = dir;
    Fleet checkpoint(ckptConfig);
    EXPECT_EQ(scansBits(checkpoint.run()), straightBits);
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + snap::manifestFileName()));

    Fleet::Config restoreConfig = config;
    restoreConfig.restoreDir = dir;
    Fleet restored(restoreConfig);
    EXPECT_EQ(scansBits(restored.run()), straightBits);

    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------
// Coarse (scale) stepping
// ---------------------------------------------------------------

TEST_F(FleetScaleTier, CoarseStepIsDeterministicAndFingerprinted)
{
    // Coarse stepping deliberately changes results (bigger workload
    // segments between scan points), so it must be deterministic
    // run-to-run, it must actually differ from fine stepping, and
    // both fingerprints must carry it — a restore across stepping
    // modes has to be refused, not silently mixed.
    Fleet::Config fine = scaleTierFleet(true, 8);
    fine.coarseStep = false;
    Fleet::Config coarse = fine;
    coarse.coarseStep = true;

    Fleet coarseA(coarse);
    const auto coarseBits = scansBits(coarseA.run());
    Fleet coarseB(coarse);
    EXPECT_EQ(scansBits(coarseB.run()), coarseBits);

    Fleet fineFleet(fine);
    EXPECT_NE(scansBits(fineFleet.run()), coarseBits);

    EXPECT_NE(fleetConfigFingerprint(fine),
              fleetConfigFingerprint(coarse));
    Server::Config sfine;
    sfine.coarseStep = false;
    Server::Config scoarse;
    scoarse.coarseStep = true;
    EXPECT_NE(serverConfigFingerprint(sfine),
              serverConfigFingerprint(scoarse));
}

TEST_F(FleetScaleTier, CoarseStepPreservesConfinementAndCdfShape)
{
    // The fig11 regression under coarsening: Contiguitas must still
    // confine unmovables (more free 2M contiguity, fewer unmovable
    // blocks than stock Linux), and the scan CDFs must keep their
    // shape — monotone quantiles with real spread, not a collapsed
    // point mass.
    const auto runSystem = [](bool contiguitas) {
        Fleet::Config config = scaleTierFleet(contiguitas, 24);
        config.coarseStep = true;
        Fleet fleet(config);
        ScanHistograms hists;
        runIntoHistograms(fleet, hists);
        return hists;
    };
    const ScanHistograms vanilla = runSystem(false);
    const ScanHistograms ctg = runSystem(true);

    EXPECT_GT(ctg.freeContiguity2m.mean(),
              vanilla.freeContiguity2m.mean());
    EXPECT_GT(ctg.freeContiguity2m.quantile(0.5),
              vanilla.freeContiguity2m.quantile(0.5));
    EXPECT_LT(ctg.unmovableBlocks2m.mean(),
              vanilla.unmovableBlocks2m.mean());

    for (const ScanHistograms *s : {&vanilla, &ctg}) {
        double prev = s->freeContiguity2m.quantile(0.0);
        for (const double f : {0.25, 0.5, 0.75, 1.0}) {
            const double q = s->freeContiguity2m.quantile(f);
            EXPECT_GE(q, prev);
            prev = q;
        }
        EXPECT_GT(s->freeContiguity2m.quantile(1.0),
                  s->freeContiguity2m.quantile(0.0))
            << "coarse stepping collapsed the population spread";
    }
}

TEST_F(FleetScaleTier, PeakRssGaugeReportsProcessFootprint)
{
    Fleet::Config config = scaleTierFleet(false, 4);
    StatRegistry registry;
    Fleet fleet(config);
    fleet.attachTelemetry(registry);
    fleet.run();
    const Stat *rss = registry.find("fleet.peak_rss_mb");
    ASSERT_NE(rss, nullptr);
    // getrusage is available on every platform CI runs; a zero
    // reading would mean the gauge went dead.
    EXPECT_GT(rss->value(), 0.0);
}

} // namespace
} // namespace ctg
