"""Persistent, content-addressed simulation result cache.

Every (workload, scale, seed, scheduler, GPU config, measure_error) cell
maps to a deterministic cache key: the SHA-256 of a canonical JSON
rendering of *all* configuration contents plus :data:`CACHE_FORMAT_VERSION`.
Results are stored as JSON blobs under
``.repro-cache/<first-two-hex>/<key>.json``; a hit skips simulation
entirely — across processes and sessions.

A blob is one JSON object: ``format_version``, ``workload``, ``scheme``,
the optional ``meta`` sidecar, ``report_sha256`` and, last, ``report``.
The ``report`` member is written once as the compact JSON bytes of
:func:`encode_report`, and ``report_sha256`` is the SHA-256 of exactly
those bytes, so :meth:`ResultCache.load_bytes` can hand the report to a
response or a warehouse row as stored, checked but never decoded. Every
read checks the digest: a current-format blob whose bytes do not match
it, or that has none, is quarantined. Only this module knows the
layout.

Invalidation is structural: changing any field of
:class:`~repro.config.scheduler.SchedulerConfig` or
:class:`~repro.config.gpu.GPUConfig` (including nested timing, energy,
mapping, and L2 sub-configs), the workload scale/seed, or the cache format
version yields a different key, so stale hits are impossible by
construction.

Controls:

* ``REPRO_NO_CACHE=1`` disables both lookups and stores;
* ``REPRO_CACHE_DIR`` relocates the cache root (default ``.repro-cache``);
* ``repro-harness cache clear`` wipes it from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.config.gpu import GPUConfig
from repro.sim.report import SimReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.spec import SimSpec

#: Bump whenever the on-disk blob layout or simulator semantics change in
#: a way that invalidates previously stored results.
#: v2: BusUtilizationTracker serialises retained intervals + cursor index
#: (telemetry-safe windowed queries), and reports carry an optional
#: ``timeline`` section.
#: v3: keys carry the DRAM device name and the scheduler fingerprint
#: gained the composable-pipeline fields (``arbiter`` registry names,
#: ``hit_streak_cap``); v2 entries are plain misses.
#: v4: keys embed the *entire* ``SimSpec.to_dict()`` payload (closing
#: the silent-stale-cache class: every present and future spec field —
#: including the new ``ecc``/``faults`` sections and the previously
#: uncovered ``record_activations``/``telemetry`` flags — is hashed
#: automatically); v3 entries are plain misses.
CACHE_FORMAT_VERSION = 4

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_ENV_DISABLE = "REPRO_NO_CACHE"
_ENV_DIR = "REPRO_CACHE_DIR"

#: The bytes around a blob's digest: ``,"report_sha256":"<64 hex>"``
#: then ``,"report":<report bytes>}`` closes the blob.
_DIGEST_OPEN = b',"report_sha256":"'
_REPORT_OPEN = b'","report":'
_DIGEST_HEX = 64


def encode_report(report: SimReport) -> bytes:
    """The compact JSON bytes of ``report``: the one encoding a blob
    stores, the service serves, and the warehouse keeps."""
    return json.dumps(
        report.to_dict(), separators=(",", ":")
    ).encode("utf-8")


def _split_blob(raw: bytes) -> tuple[dict, Optional[bytes]]:
    """``(head, report bytes)`` of a blob with a digest, ``(blob,
    None)`` of one without, so its format version can be read; raises
    ``ValueError`` for a damaged blob.

    The head is every member but ``report``. The report bytes are
    returned only once they match ``report_sha256``.
    """
    at = raw.find(_DIGEST_OPEN)
    if at < 0:
        blob = json.loads(raw)
        if not isinstance(blob, dict):
            raise ValueError("cache blob is not a JSON object")
        return blob, None
    start = at + len(_DIGEST_OPEN) + _DIGEST_HEX
    digest = raw[at + len(_DIGEST_OPEN):start]
    if raw[start:start + len(_REPORT_OPEN)] != _REPORT_OPEN \
            or not raw.endswith(b"}"):
        raise ValueError("cache blob is torn")
    data = raw[start + len(_REPORT_OPEN):-1]
    if hashlib.sha256(data).hexdigest().encode("ascii") != digest:
        raise ValueError("cache blob report does not match its digest")
    head = json.loads(raw[:start] + b'"}')
    if not isinstance(head, dict):
        raise ValueError("cache blob head is not a JSON object")
    return head, data


def cache_key(
    *,
    app: str,
    scale: float,
    seed: int,
    spec: "SimSpec",
    version: int = CACHE_FORMAT_VERSION,
) -> str:
    """Content hash identifying one simulation cell.

    The key embeds ``spec.to_dict()`` wholesale, so every
    :class:`~repro.sim.spec.SimSpec` field (present and future) is
    covered by construction; a field omitted from ``to_dict`` is the
    only way to miss, and ``tests/test_spec.py`` audits exactly that.

    A spec with ``config=None`` hashes identically to one with the
    default :class:`GPUConfig` (that is what the simulator instantiates
    for it). ``spec.device`` is the named DRAM device overlaying the
    config (None = config-embedded timings); it is part of the key even
    though a named device also changes the resolved config, so
    ``--device gddr5`` and the bare default stay distinguishable in the
    cache.
    """
    spec_payload = spec.to_dict()
    if spec_payload.get("config") is None:
        # Preserve the documented equivalence: config=None keys the
        # same as an explicit default GPUConfig.
        from repro.config.codec import encode

        spec_payload["config"] = encode(GPUConfig())
    payload = {
        "version": version,
        "app": app,
        "scale": scale,
        "seed": seed,
        "spec": spec_payload,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cache_disabled_by_env() -> bool:
    """Whether ``REPRO_NO_CACHE`` requests bypassing the disk cache."""
    return os.environ.get(_ENV_DISABLE, "").strip() not in ("", "0")


class ResultCache:
    """Content-addressed store of :class:`SimReport` blobs on disk.

    Instantiating the cache does not touch the filesystem; directories
    are created lazily on the first store.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        enabled: Optional[bool] = None,
    ) -> None:
        if root is None:
            root = os.environ.get(_ENV_DIR) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        if enabled is None:
            enabled = not cache_disabled_by_env()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt blobs discarded by lookups and walks (self-healing
        #: events).
        self.quarantined = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Blob path for a cache key (two-level fan-out by key prefix)."""
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Unlink a malformed blob so it cannot poison future runs.

        A corrupt entry (torn write survived a crash, disk error, or an
        injected ``corrupt`` fault) would otherwise turn *every*
        subsequent run of its cell into a hard failure; deleting it
        converts the damage into one extra simulation.
        """
        try:
            path.unlink()
        except OSError:
            pass
        self.quarantined += 1

    def _read(self, path: Path) -> Optional[tuple[dict, bytes]]:
        """``(head, checked report bytes)`` of the blob at ``path``;
        None when it is missing, of another format version (then kept:
        healthy, just written by a different build, whatever its
        layout) or damaged (then quarantined). A current-format blob
        without its digest counts as damaged."""
        try:
            head, data = _split_blob(path.read_bytes())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._quarantine(path)
            return None
        if head.get("format_version") != CACHE_FORMAT_VERSION:
            return None
        if data is None:
            self._quarantine(path)
            return None
        return head, data

    def _decode(self, key: str, data: bytes) -> Optional[SimReport]:
        """The report of checked bytes; None, and the blob quarantined,
        when :meth:`SimReport.from_dict` rejects it."""
        try:
            return SimReport.from_dict(json.loads(data))
        except (KeyError, TypeError, ValueError, AttributeError):
            self._quarantine(self.path_for(key))
            return None

    def _count(self, result) -> None:
        """Count one lookup as a hit or, when it found nothing, a miss."""
        if result is None:
            self.misses += 1
        else:
            self.hits += 1

    def load(self, key: str) -> Optional[SimReport]:
        """Return the cached report for ``key``, or None on a miss.

        Malformed blobs self-heal: undecodable JSON, non-dict documents,
        a missing digest, report bytes that do not match it, or payloads
        :meth:`SimReport.from_dict` rejects are unlinked and counted in
        :attr:`quarantined`, then reported as a plain miss. A
        format-version mismatch is a miss but is *kept* on disk — the
        blob is healthy, just written by a different build.
        """
        if not self.enabled:
            return None
        found = self._read(self.path_for(key))
        report = None if found is None else self._decode(key, found[1])
        self._count(report)
        return report

    def load_bytes(self, key: str) -> Optional[bytes]:
        """The report bytes cached for ``key`` (see
        :func:`encode_report`), or None on a miss.

        The bytes are returned as read and checked against their
        digest, never decoded. Quarantine and miss rules are those of
        :meth:`load`.
        """
        if not self.enabled:
            return None
        found = self._read(self.path_for(key))
        data = None if found is None else found[1]
        self._count(data)
        return data

    def store(
        self,
        key: str,
        report: SimReport,
        *,
        meta: Optional[dict] = None,
    ) -> Optional[Path]:
        """Persist ``report`` under ``key``; returns the blob path.

        The report is encoded once, by :func:`encode_report`, and the
        blob is written to a temp file and atomically renamed so a
        concurrent reader never sees a torn write.

        ``meta`` is an optional JSON-serializable sidecar recorded next
        to the report (``{"app", "scale", "seed", "spec"}`` from the
        runner). The content key is a one-way hash, so without it the
        warehouse ingest could not recover which seed or device produced
        a blob.
        """
        if not self.enabled:
            return None
        data = encode_report(report)
        head = {
            "format_version": CACHE_FORMAT_VERSION,
            "workload": report.workload,
            "scheme": report.scheme,
        }
        if meta is not None:
            head["meta"] = meta
        head["report_sha256"] = hashlib.sha256(data).hexdigest()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                # Written in pieces: the head without its closing brace,
                # then the report bytes as the last member.
                fh.write(json.dumps(head, separators=(",", ":"))
                         .encode("utf-8")[:-1])
                fh.write(b',"report":')
                fh.write(data)
                fh.write(b"}")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """All blob paths currently in the cache.

        Tolerates another process mutating the cache concurrently (e.g.
        ``repro-harness cache clear`` mid-sweep): shard directories or
        blobs vanishing between listing steps are simply skipped, as are
        in-flight ``.tmp-*`` files from concurrent writers.
        """
        found: list[Path] = []
        try:
            shards = list(self.root.iterdir())
        except OSError:
            return []
        for shard in shards:
            try:
                found.extend(
                    p for p in shard.iterdir()
                    if p.suffix == ".json" and not p.name.startswith(".")
                )
            except (NotADirectoryError, OSError):
                continue
        return sorted(found)

    def _walk(self):
        """Yield ``(key, head, report bytes, stat)`` per healthy
        current-format blob, reading and checking each once. Damaged
        blobs are quarantined and version mismatches skipped, as in
        :meth:`load`."""
        for path in self.entries():
            found = self._read(path)
            if found is None:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently cleared
            yield path.stem, *found, stat

    def iter_blobs(self):
        """Lazily yield ``(key, head, mtime, size_bytes)`` tuples.

        The head is every blob member but the report: ``format_version``,
        ``workload``, ``scheme``, ``meta`` and ``report_sha256``. One
        blob is resident at a time, so a multi-thousand-entry cache can
        be traversed in constant memory; ``cache info --json`` rides
        this walk. Corrupt blobs are quarantined exactly as in
        :meth:`load`; format-version mismatches are skipped but kept on
        disk (healthy, just written by a different build). Session
        hit/miss counters are *not* touched: a traversal is not a
        lookup.
        """
        for key, head, _data, stat in self._walk():
            yield key, head, stat.st_mtime, stat.st_size

    def iter_reports(self):
        """Lazily yield ``(key, head, report_bytes, mtime)`` tuples: the
        walk of :meth:`iter_blobs` plus each report's compact JSON bytes
        as stored and checked, for the warehouse ingest."""
        for key, head, data, stat in self._walk():
            yield key, head, data, stat.st_mtime

    def info(self, *, deep: bool = False) -> dict:
        """Machine-readable snapshot of the cache (one atomic listing).

        ``entries`` and ``size_bytes`` are derived from a *single*
        traversal, so they describe the same instant even when another
        process is storing or clearing concurrently; a blob deleted
        between listing and ``stat`` counts in ``entries`` with zero
        bytes. Session counters (hits/misses/stores/quarantined)
        describe this process's cache object, not the directory.

        ``deep=True`` rides the same :meth:`iter_blobs` walk the
        warehouse ingest uses and additionally reports per-workload and
        per-scheme entry counts (``workloads``/``schemes`` maps, sorted
        keys); entries written under a different format version are
        excluded, so deep counts reflect what ingest would see.
        """
        total = 0
        count = 0
        if deep:
            workloads: dict[str, int] = {}
            schemes: dict[str, int] = {}
            for _key, blob, _mtime, size in self.iter_blobs():
                count += 1
                total += size
                workload = str(blob.get("workload", "?"))
                scheme = str(blob.get("scheme", "?"))
                workloads[workload] = workloads.get(workload, 0) + 1
                schemes[scheme] = schemes.get(scheme, 0) + 1
        else:
            for path in self.entries():
                count += 1
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
        doc = {
            "root": str(self.root),
            "enabled": self.enabled,
            "format_version": CACHE_FORMAT_VERSION,
            "entries": count,
            "size_bytes": total,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
        }
        if deep:
            doc["workloads"] = dict(sorted(workloads.items()))
            doc["schemes"] = dict(sorted(schemes.items()))
        return doc

    def clear(self) -> int:
        """Delete every cached blob; returns the number removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        # Prune now-empty shard directories (ignore stray files).
        if self.root.is_dir():
            for shard in self.root.iterdir():
                if shard.is_dir():
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
        return removed
