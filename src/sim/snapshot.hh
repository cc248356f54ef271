/**
 * @file
 * Versioned, integrity-checked snapshot container format.
 *
 * A snapshot image is a small header (magic + format version)
 * followed by length-framed, CRC-trailed serde sections and a
 * terminating End section:
 *
 *   u32 magic 'CTGS' | u32 formatVersion
 *   section Meta     — config fingerprint + identifying fields
 *   section Server   — complete server state (kernel, fragmenter,
 *                      workload), one payload so the whole machine
 *                      state sits under a single CRC
 *   section Faults   — fault-injector streams, specs and counters
 *   section End      — empty terminator
 *
 * This layer owns the container, the files and the manifest — what
 * goes *inside* the Server section is the Server's business
 * (fleet/server.cc), which keeps the sim library independent of the
 * fleet layer.
 *
 * Durability contract: images are written atomically (temp file in
 * the same directory + rename), so a crashed checkpointer leaves
 * either the previous snapshot or none — never a half-written one
 * under the final name. Every read-side failure (truncation, CRC
 * mismatch, version skew, manifest disagreement) surfaces as
 * serde::Error, which restore paths catch to fall back to a cold
 * start. Nothing here panics on bad input.
 *
 * Chaos hooks: writeImageFile probes the snap.torn_write,
 * snap.bit_flip and snap.version_skew fault sites and corrupts the
 * written bytes accordingly (the returned manifest CRC always
 * describes the *intended* bytes, so every corruption is detectable);
 * readImageFile probes snap.read_fail; writeManifest probes
 * snap.manifest_skew per entry. See DESIGN.md §14.
 */

#ifndef CTG_SIM_SNAPSHOT_HH
#define CTG_SIM_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/serde.hh"

namespace ctg
{
namespace snap
{

/** 'CTGS' little-endian. */
constexpr std::uint32_t fileMagic = 0x53475443;

/** Bump whenever the container layout or any serialized struct
 * changes. There is no cross-version compatibility shim: a version
 * mismatch is a detected error and the restore cold-starts.
 * Version 2: struct-of-arrays frame table (packed meta column,
 * owner handles overlaid on allocated heads' link slots, sorted
 * allocation-second side table).
 * Version 3: the Server section leads with the placement policy's
 * registry name, and the config fingerprint covers the full
 * PolicyConfig instead of a contiguitas on/off bit.
 * Version 4: the allocation-second side table and the PhysMem clock
 * are gone; the frame table is its three columns only. */
constexpr std::uint32_t formatVersion = 4;

/** Section ids inside a snapshot image. */
enum SectionId : std::uint32_t
{
    SecMeta = 1,
    SecServer = 2,
    SecFaults = 3,
    SecEnd = 0xE7D,
};

/**
 * Order-insensitive config fingerprint accumulator (splitmix-style
 * mixing, fixed little-endian semantics). Checkpoint and restore
 * sides hash their configs the same way; a mismatch means the
 * snapshot describes a different machine and must not be loaded.
 */
class Fingerprint
{
  public:
    void mixU64(std::uint64_t v);
    void mixU32(std::uint32_t v) { mixU64(v); }
    void mixBool(bool v) { mixU64(v ? 1 : 0); }
    void mixDouble(double v);

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0x5eedc0de00000001ULL;
};

/** Append the image header (magic + formatVersion). */
void beginImage(serde::Writer &out);

/** Validate the image header; throws serde::Error on bad magic or a
 * version this build does not speak. Leaves `in` at the first
 * section. */
void openImage(serde::Reader &in);

/**
 * Write a snapshot image atomically: the bytes go to a temp file in
 * the target directory, then rename over `path`. Probes the
 * snap.torn_write (truncate the temp before renaming), snap.bit_flip
 * (flip one payload bit) and snap.version_skew (stamp an alien
 * format version) fault sites on the ambient injector; a fired site
 * corrupts the written file but the function still succeeds — the
 * corruption must be *detected at restore*, which is what the chaos
 * suite asserts.
 * @return false on a real I/O failure (after warning).
 */
bool writeImageFile(const std::string &path,
                    const std::vector<std::uint8_t> &bytes);

/** Read a whole snapshot image. Probes snap.read_fail; throws
 * serde::Error on a fired site or any I/O failure. */
std::vector<std::uint8_t> readImageFile(const std::string &path);

/** One manifest line: which file holds a server's snapshot and what
 * the intended bytes look like. */
struct ManifestEntry
{
    unsigned server = 0;
    std::string file;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
};

/** Checkpoint-directory manifest: the set of per-server snapshot
 * files one fleet run wrote, keyed by a fleet-config fingerprint. */
struct Manifest
{
    std::uint64_t fleetFingerprint = 0;
    std::vector<ManifestEntry> entries;

    /** Entry for a server index, or nullptr. */
    const ManifestEntry *find(unsigned server) const;
};

/** Canonical file names inside a checkpoint directory. */
std::string snapshotFileName(unsigned server);
std::string manifestFileName();

/**
 * Write `dir`/MANIFEST atomically (text format, one line per entry —
 * see tools/validate_snapshot.py). Probes snap.manifest_skew once
 * per entry; a fired site records a wrong CRC for that entry, which
 * restore must detect via validateAgainstManifest.
 * @return false on a real I/O failure (after warning).
 */
bool writeManifest(const std::string &dir, const Manifest &manifest);

/** Parse `dir`/MANIFEST and check its fleet fingerprint. Throws
 * serde::Error on I/O failure, malformed text, duplicate server
 * entries or a fingerprint mismatch. */
Manifest loadManifest(const std::string &dir,
                      std::uint64_t expectFleetFingerprint);

/** Cross-check loaded image bytes against their manifest entry
 * (size + CRC). Throws serde::Error on disagreement — the
 * manifest-skew / mixed-up-directory detection point. */
void validateAgainstManifest(const ManifestEntry &entry,
                             const std::vector<std::uint8_t> &bytes);

} // namespace snap
} // namespace ctg

#endif // CTG_SIM_SNAPSHOT_HH
