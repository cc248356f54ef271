#!/usr/bin/env python3
"""Validate a checkpoint directory written by a CTG_CHECKPOINT run.

Checks, for `MANIFEST` and every snapshot image it references:

  * the manifest parses (header, version, fingerprint line, entries,
    required trailing `end` line, no duplicate servers);
  * each referenced file exists, with exactly the byte count and
    CRC-32 the manifest records;
  * each image opens (magic + format version) and its section chain
    is well-formed: framed lengths stay in bounds, every section
    payload matches its trailing CRC-32, and the chain terminates
    with the End section (id 0xE7D) exactly at end-of-file;
  * the section sequence is Meta, Server, Faults, End.

This is the out-of-process cross-check for the snapshot subsystem
(src/sim/snapshot.*): it shares no code with the simulator, so a
serializer bug that also fools the in-process reader still trips it.
Stdlib only. Exit status: 0 = valid, 1 = validation failure,
2 = usage error.

Usage: tools/validate_snapshot.py <checkpoint-dir>
"""

import os
import struct
import sys
import zlib

FILE_MAGIC = 0x53475443  # 'CTGS' little-endian
# Images and the manifest both carry snap::formatVersion
# (src/sim/snapshot.hh); the fleet_study_checkpoint_roundtrip ctest
# (tools/check_fleet_checkpoint.py) fails when the two drift apart.
FORMAT_VERSION = 4
SEC_META = 1
SEC_SERVER = 2
SEC_FAULTS = 3
SEC_END = 0xE7D
EXPECTED_SECTIONS = [SEC_META, SEC_SERVER, SEC_FAULTS, SEC_END]

MANIFEST_NAME = "MANIFEST"
MANIFEST_HEADER = "ctgsnap-manifest"
MANIFEST_VERSION = FORMAT_VERSION


class ValidationError(Exception):
    pass


def parse_manifest(path):
    """Return (fleet_fingerprint, [(server, file, bytes, crc)])."""
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise ValidationError(f"cannot read manifest: {e}")

    if not lines:
        raise ValidationError("manifest is empty")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MANIFEST_HEADER:
        raise ValidationError(f"bad manifest header {lines[0]!r}")
    if int(head[1]) != MANIFEST_VERSION:
        raise ValidationError(
            f"unsupported manifest version {head[1]}")
    if len(lines) < 2 or not lines[1].startswith("fleet "):
        raise ValidationError("missing fleet fingerprint line")
    fingerprint = int(lines[1].split()[1], 16)

    entries = []
    seen = set()
    terminated = False
    for line in lines[2:]:
        if terminated:
            raise ValidationError(f"line after 'end': {line!r}")
        if line == "end":
            terminated = True
            continue
        fields = line.split()
        if len(fields) != 5 or fields[0] != "entry":
            raise ValidationError(f"bad manifest line {line!r}")
        server = int(fields[1])
        if server in seen:
            raise ValidationError(f"duplicate server {server}")
        seen.add(server)
        entries.append(
            (server, fields[2], int(fields[3]), int(fields[4], 16)))
    if not terminated:
        raise ValidationError("manifest missing 'end' line "
                              "(truncated write?)")
    return fingerprint, entries


def validate_image(path, want_bytes, want_crc):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise ValidationError(f"cannot read image: {e}")

    if len(data) != want_bytes:
        raise ValidationError(
            f"size {len(data)} != manifest {want_bytes}")
    crc = zlib.crc32(data) & 0xFFFFFFFF
    if crc != want_crc:
        raise ValidationError(
            f"whole-file crc {crc:08x} != manifest {want_crc:08x}")

    if len(data) < 8:
        raise ValidationError("image shorter than its header")
    magic, version = struct.unpack_from("<II", data, 0)
    if magic != FILE_MAGIC:
        raise ValidationError(f"bad magic {magic:#x}")
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format version {version}")

    pos = 8
    section_ids = []
    while True:
        if len(data) - pos < 16:
            raise ValidationError(
                f"truncated section header at offset {pos}")
        sec_id, _reserved, payload_len = struct.unpack_from(
            "<IIQ", data, pos)
        pos += 16
        if payload_len > len(data) - pos - 4:
            raise ValidationError(
                f"section {sec_id:#x} at offset {pos - 16} claims "
                f"{payload_len} payload bytes beyond end of file")
        payload = data[pos:pos + payload_len]
        pos += payload_len
        (sec_crc,) = struct.unpack_from("<I", data, pos)
        pos += 4
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if actual != sec_crc:
            raise ValidationError(
                f"section {sec_id:#x} crc {actual:08x} != "
                f"recorded {sec_crc:08x}")
        section_ids.append(sec_id)
        if sec_id == SEC_END:
            break
    if pos != len(data):
        raise ValidationError(
            f"{len(data) - pos} trailing bytes after End section")
    if section_ids != EXPECTED_SECTIONS:
        raise ValidationError(
            f"section sequence {section_ids} != "
            f"{EXPECTED_SECTIONS}")


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    directory = argv[1]
    manifest_path = os.path.join(directory, MANIFEST_NAME)

    try:
        fingerprint, entries = parse_manifest(manifest_path)
    except ValidationError as e:
        print(f"FAIL {manifest_path}: {e}")
        return 1

    print(f"manifest: fleet fingerprint {fingerprint:016x}, "
          f"{len(entries)} snapshot(s)")
    failures = 0
    for server, name, size, crc in entries:
        path = os.path.join(directory, name)
        try:
            validate_image(path, size, crc)
            print(f"  OK   server {server}: {name} ({size} bytes)")
        except ValidationError as e:
            print(f"  FAIL server {server}: {name}: {e}")
            failures += 1

    if failures:
        print(f"{failures} snapshot(s) failed validation")
        return 1
    print("all snapshots valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
