"""Cache pack/merge: move ``ResultCache`` contents between fleet workers.

Each shard of a fleet (:mod:`repro.campaign.shard`) runs against its own
cache directory; this module turns those directories into portable,
byte-reproducible archives and merges any number of archives back into
one combined cache that is key-for-key identical to what a single worker
would have produced:

* :func:`pack_cache` walks a cache root (both the ``flow`` and ``stage``
  slots), validates every entry (undecodable JSON, a key that does not
  match its filename, or an unknown schema is **skipped and counted**,
  never shipped), and writes a deterministic ``.tar.gz`` — fixed
  metadata, sorted members, zeroed gzip timestamp — whose first member
  is a ``MANIFEST.json`` listing every entry's path, slot, key, raw
  SHA-256 (transport integrity) and **payload digest**;
* :func:`merge_cache` imports archives into a destination cache with
  conflict detection and idempotent re-merge.

**The payload digest and the conflict rule.**  A cache entry embeds the
cold run's telemetry (``stats``: wall seconds per stage), which is
measurement, not result — two workers computing the same key produce
bit-identical *networks* but different timings.  The entry's *payload*
is therefore the document minus ``stats``: schema, key, code salt,
CompactAig network, node counts — every field the determinism contract
covers.  Merge compares payloads:

* same key, **same payload** → idempotent duplicate (the existing entry
  wins; re-merging an archive is a no-op);
* same key, **different payload** → :class:`CacheMergeConflict`, a hard
  error: content-addressed entries must agree, so a payload mismatch
  means a broken determinism contract or a corrupted fleet — silently
  picking a winner would hide exactly the bug the fleet exists to catch.

Counter propagation: a shard whose cache degraded mid-run
(``ResultCache.store`` counts ``store_failures`` on a full disk or
revoked permission) looks healthy from its archive alone — the entries
that failed to commit simply are not there.  The pack manifest therefore
carries the run's per-slot cache counters (pass ``slot_stats`` from the
campaign report), and :func:`merge_cache` sums ``store_failures`` across
all manifests so the merge job's log shows the degradation instead of a
silently thinner cache.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import io
import json
import os
import posixpath
import tarfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.cache import (
    CACHE_SCHEMA,
    CODE_VERSION,
    STAGE_SCHEMA,
    atomic_write_text,
    canonical_digest,
)

#: Bump when the archive/manifest layout changes.
PACK_SCHEMA = "repro.campaign/cache-pack-v1"
#: First member of every archive.
MANIFEST_NAME = "MANIFEST.json"

_ENTRY_SCHEMAS = (CACHE_SCHEMA, STAGE_SCHEMA)


class CacheMergeConflict(RuntimeError):
    """Same key, different payload: the content-address contract broke."""

    def __init__(self, key: str, slot: str, archive: str,
                 existing: str) -> None:
        self.key = key
        self.slot = slot
        self.archive = archive
        self.existing = existing
        super().__init__(
            f"cache entry {slot}/{key} from {archive} disagrees with the "
            f"existing entry at {existing}: same content-addressed key, "
            f"different result payload — refusing to pick a winner")


def entry_payload_digest(raw: bytes) -> Optional[str]:
    """Digest of an entry's deterministic payload, or ``None`` if corrupt.

    The payload is the entry document minus the volatile ``stats``
    telemetry (wall times); see the module docstring for why identity is
    defined over it.  ``None`` means the bytes do not decode to a known
    entry schema at all.
    """
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("schema") not in _ENTRY_SCHEMAS:
        return None
    if not isinstance(data.get("key"), str):
        return None
    payload = {name: value for name, value in data.items()
               if name != "stats"}
    return canonical_digest(payload)


def _entry_slot(relpath: str) -> str:
    return "stage" if relpath.split("/", 1)[0] == "stage" else "flow"


def _collect_entries(cache_dir: str) -> List[str]:
    """Relative POSIX paths of every ``.json`` entry under *cache_dir*."""
    root = os.path.abspath(cache_dir)
    entries: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if not name.endswith(".json"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            entries.append(rel.replace(os.sep, "/"))
    entries.sort()
    return entries


def pack_cache(cache_dir: str, archive_path: str,
               slot_stats: Optional[Dict[str, Dict[str, int]]] = None,
               ) -> Dict[str, Any]:
    """Export *cache_dir* to *archive_path*; returns the manifest document.

    *slot_stats* is the producing run's per-slot cache counter snapshot
    (``CampaignReport.cache_slots``); embedding it lets the merge side
    surface ``store_failures`` of shards whose cache silently degraded.
    The archive is byte-reproducible: packing the same directory twice
    yields identical files, so artifact stores dedup and re-packs never
    churn.
    """
    root = os.path.abspath(cache_dir)
    entries: List[Dict[str, Any]] = []
    corrupt_skipped = 0
    payloads: List[Tuple[str, bytes]] = []
    for rel in _collect_entries(root):
        with open(os.path.join(root, rel.replace("/", os.sep)),
                  "rb") as handle:
            raw = handle.read()
        key = posixpath.basename(rel)[:-len(".json")]
        payload = entry_payload_digest(raw)
        if payload is None or json.loads(raw)["key"] != key:
            corrupt_skipped += 1
            continue
        entries.append({
            "path": rel,
            "slot": _entry_slot(rel),
            "key": key,
            "sha256": hashlib.sha256(raw).hexdigest(),
            "payload": payload,
            "bytes": len(raw),
        })
        payloads.append((rel, raw))
    manifest: Dict[str, Any] = {
        "schema": PACK_SCHEMA,
        "code": CODE_VERSION,
        "entries": entries,
        "slot_stats": slot_stats,
        "corrupt_skipped": corrupt_skipped,
    }
    manifest_raw = json.dumps(manifest, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")

    def _member(name: str, size: int) -> tarfile.TarInfo:
        info = tarfile.TarInfo(name=name)
        info.size = size
        info.mtime = 0          # reproducible: no wall clock in the archive
        info.mode = 0o644
        info.uid = info.gid = 0
        info.uname = info.gname = ""
        return info

    with open(archive_path, "wb") as out:
        # GzipFile over our own handle with an empty filename and zeroed
        # mtime: nothing environment-dependent in the gzip header, so
        # identical content packs to identical bytes.
        with gzip.GzipFile(filename="", fileobj=out, mode="wb",
                           mtime=0) as gz:
            with tarfile.open(fileobj=gz, mode="w") as tar:
                tar.addfile(_member(MANIFEST_NAME, len(manifest_raw)),
                            io.BytesIO(manifest_raw))
                for rel, raw in payloads:
                    tar.addfile(_member(rel, len(raw)), io.BytesIO(raw))
    return manifest


@dataclasses.dataclass
class MergeReport:
    """Outcome of merging one or more cache archives."""

    into: str
    archives: List[str] = dataclasses.field(default_factory=list)
    imported: int = 0            #: entries written into the destination
    duplicates: int = 0          #: same key, same payload — idempotent skips
    corrupt_skipped: int = 0     #: transport/decode failures at merge time
    packed_corrupt: int = 0      #: entries the pack side already skipped
    #: per-slot entries imported (``{"flow": n, "stage": n}``)
    imported_by_slot: Dict[str, int] = dataclasses.field(
        default_factory=lambda: {"flow": 0, "stage": 0})
    #: summed per-slot ``store_failures`` from the shard manifests — a
    #: nonzero value means some shard computed results it could not cache
    store_failures: Dict[str, int] = dataclasses.field(
        default_factory=lambda: {"flow": 0, "stage": 0})

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        lines = [
            f"merged {len(self.archives)} archive(s) into {self.into}: "
            f"{self.imported} imported "
            f"(flow={self.imported_by_slot['flow']} "
            f"stage={self.imported_by_slot['stage']}), "
            f"{self.duplicates} duplicate(s), "
            f"{self.corrupt_skipped} corrupt skipped"]
        if self.packed_corrupt:
            lines.append(f"  note: {self.packed_corrupt} corrupt entr(ies) "
                         f"were already skipped at pack time")
        failures = sum(self.store_failures.values())
        if failures:
            lines.append(
                f"  WARNING: shards recorded {failures} cache store "
                f"failure(s) (flow={self.store_failures['flow']} "
                f"stage={self.store_failures['stage']}) — results were "
                f"computed but never cached; the merged cache is thinner "
                f"than a healthy fleet's")
        return "\n".join(lines)


def _safe_relpath(path: str) -> str:
    """Reject absolute or parent-escaping member paths (tar hardening)."""
    normalized = posixpath.normpath(path)
    if normalized.startswith(("/", "../")) or normalized == ".." \
            or "\\" in path:
        raise ValueError(f"unsafe archive member path {path!r}")
    return normalized


def merge_cache(archives: Sequence[str], into_dir: str) -> MergeReport:
    """Import every archive into *into_dir*; returns the merge report.

    Raises :class:`CacheMergeConflict` when an incoming entry's payload
    disagrees with an existing entry under the same key (hard error —
    see the module docstring), and ``ValueError`` on an archive without
    a valid manifest.  Entries whose bytes do not match their manifest
    digest, or that no longer decode, are skipped and counted.  Merging
    is idempotent: re-merging an already-merged archive only increments
    ``duplicates``.
    """
    root = os.path.abspath(into_dir)
    os.makedirs(root, exist_ok=True)
    report = MergeReport(into=root)
    for archive in archives:
        report.archives.append(archive)
        with tarfile.open(archive, mode="r:gz") as tar:
            try:
                member = tar.extractfile(MANIFEST_NAME)
            except KeyError:
                member = None
            if member is None:
                raise ValueError(f"{archive}: no {MANIFEST_NAME}")
            try:
                manifest = json.loads(member.read().decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise ValueError(
                    f"{archive}: unreadable {MANIFEST_NAME}: {exc}") from exc
            if manifest.get("schema") != PACK_SCHEMA:
                raise ValueError(
                    f"{archive}: unknown manifest schema "
                    f"{manifest.get('schema')!r}")
            report.packed_corrupt += int(manifest.get("corrupt_skipped", 0))
            for slot, stats in (manifest.get("slot_stats") or {}).items():
                if slot in report.store_failures and isinstance(stats, dict):
                    report.store_failures[slot] += \
                        int(stats.get("store_failures", 0))
            for entry in manifest.get("entries", []):
                rel = _safe_relpath(str(entry["path"]))
                slot = str(entry.get("slot") or _entry_slot(rel))
                key = str(entry.get("key", ""))
                try:
                    extracted = tar.extractfile(rel)
                except KeyError:
                    extracted = None
                if extracted is None:
                    report.corrupt_skipped += 1
                    continue
                raw = extracted.read()
                if hashlib.sha256(raw).hexdigest() != entry.get("sha256"):
                    report.corrupt_skipped += 1
                    continue
                payload = entry_payload_digest(raw)
                if payload is None:
                    report.corrupt_skipped += 1
                    continue
                dest = os.path.join(root, rel.replace("/", os.sep))
                if os.path.exists(dest):
                    with open(dest, "rb") as handle:
                        existing = handle.read()
                    existing_payload = entry_payload_digest(existing)
                    if existing_payload == payload:
                        report.duplicates += 1
                        continue
                    if existing_payload is None:
                        # A corrupt destination entry would miss forever
                        # anyway (the cache self-heals on lookup); the
                        # verified incoming entry replaces it.
                        report.corrupt_skipped += 1
                    else:
                        raise CacheMergeConflict(key=key, slot=slot,
                                                 archive=archive,
                                                 existing=dest)
                os.makedirs(os.path.dirname(dest), exist_ok=True)
                atomic_write_text(dest, raw.decode("utf-8"))
                report.imported += 1
                if slot in report.imported_by_slot:
                    report.imported_by_slot[slot] += 1
    return report


def cache_inventory(cache_dir: str) -> Dict[str, Dict[str, str]]:
    """``{"flow"|"stage": {key: payload digest}}`` of a cache directory.

    The fleet verifier's comparison primitive: two caches with equal
    inventories hold the same keys with bit-identical payloads (corrupt
    entries are excluded — they read as misses anyway).
    """
    root = os.path.abspath(cache_dir)
    inventory: Dict[str, Dict[str, str]] = {"flow": {}, "stage": {}}
    for rel in _collect_entries(root):
        with open(os.path.join(root, rel.replace("/", os.sep)),
                  "rb") as handle:
            raw = handle.read()
        payload = entry_payload_digest(raw)
        if payload is None:
            continue
        key = posixpath.basename(rel)[:-len(".json")]
        inventory[_entry_slot(rel)][key] = payload
    return inventory
