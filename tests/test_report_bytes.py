"""One encoding of each report, from the cache blob to the HTTP response.

``ResultCache.store`` writes a report's compact JSON bytes once, as the
blob's last member beside their SHA-256; the daemon splices those bytes
into its responses and the warehouse keeps them as its ``report``
column. Pinned here:

1. **Layout** — a blob is still one JSON document with the old keys,
   the format version is still 4, and ``load_bytes`` returns exactly
   the stored bytes.
2. **The digest bites** — a blob whose report has one digit changed
   (still valid JSON that ``SimReport.from_dict`` accepts), a truncated
   tail or a tampered digest is quarantined by ``load``, by
   ``load_bytes`` and by the warehouse ingest, and re-simulated over
   HTTP.
3. **Old blobs still work** — a blob in the pre-digest layout is
   served and ingested, and the ingested column is byte-identical to
   the re-encoding older builds stored.
4. **One splice** — a cache hit, a tier job, a coalesced follower and
   a journal-recovered job all get the reference report as ``result``;
   a hit decodes and encodes no report, and a hit job holds no result
   once answered.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3

import pytest

from repro.analytics.warehouse import Warehouse
from repro.dram.request import reset_request_ids
from repro.harness import cache as cache_mod
from repro.harness.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    encode_report,
)
from repro.harness.faults import FaultPlan
from repro.harness.runner import CellSpec
from repro.harness.schemes import scheme_def
from repro.service import server as server_mod
from repro.service.client import ServiceClient
from repro.service.server import ServiceDaemon
from repro.sim.report import SimReport
from repro.sim.spec import SimSpec
from repro.sim.system import simulate_spec
from repro.telemetry.hub import SERVICE_SIMULATIONS
from repro.workloads.registry import get_workload

APP = "synthetic"
SCALE = 0.05
SEED = 7
WAIT = 180.0


def _spec(**kwargs) -> SimSpec:
    return SimSpec(scheduler=scheme_def("dyn-dms").build(), **kwargs)


def _cell(spec: SimSpec) -> CellSpec:
    return CellSpec(app=APP, scale=SCALE, seed=SEED, spec=spec)


def _simulate(spec: SimSpec) -> SimReport:
    reset_request_ids()
    return simulate_spec(get_workload(APP, scale=SCALE, seed=SEED), spec)


def _reference(report: SimReport) -> dict:
    """The document a response must carry for ``report``."""
    return json.loads(json.dumps(report.to_dict()))


def _metrics(report: SimReport) -> dict:
    """The figures of the SSE terminal frame."""
    return {
        "ipc": report.ipc,
        "activations": report.activations,
        "row_energy_nj": report.row_energy_nj,
        "coverage": report.coverage,
        "elapsed_mem_cycles": report.elapsed_mem_cycles,
    }


@pytest.fixture(scope="module")
def simulated() -> tuple[SimSpec, SimReport]:
    spec = _spec()
    return spec, _simulate(spec)


def _store(root, spec: SimSpec, report: SimReport):
    """A cache under ``root`` holding ``report``; returns (cache, path)."""
    cache = ResultCache(root, enabled=True)
    cell = _cell(spec)
    path = cache.store(cell.key, report, meta=cell.cache_meta)
    return cache, path


def _store_parent_layout(root, spec: SimSpec, report: SimReport):
    """The blob as builds before the digest wrote it, byte for byte."""
    cache = ResultCache(root, enabled=True)
    cell = _cell(spec)
    path = cache.path_for(cell.key)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = {
        "format_version": CACHE_FORMAT_VERSION,
        "workload": report.workload,
        "scheme": report.scheme,
        "report": report.to_dict(),
        "meta": cell.cache_meta,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, separators=(",", ":"))
    return cache, path


# ----------------------------------------------------------------------
# Corruptions a digest must catch
# ----------------------------------------------------------------------
def _one_digit(raw: bytes) -> bytes:
    """Change the last digit of the report's ``activations``: still
    valid JSON, still a report ``SimReport.from_dict`` accepts."""
    report_at = raw.index(b',"report":')
    at = raw.index(b'"activations":', report_at) + len(b'"activations":')
    end = at
    while raw[end:end + 1].isdigit():
        end += 1
    digit = raw[end - 1:end]
    other = b"1" if digit != b"1" else b"2"
    return raw[:end - 1] + other + raw[end:]


def _truncated(raw: bytes) -> bytes:
    return raw[:-100]


def _tampered_digest(raw: bytes) -> bytes:
    at = raw.index(b'"report_sha256":"') + len(b'"report_sha256":"')
    first = raw[at:at + 1]
    return raw[:at] + (b"0" if first != b"0" else b"1") + raw[at + 1:]


CORRUPTIONS = [
    pytest.param(_one_digit, id="one-digit"),
    pytest.param(_truncated, id="truncated-tail"),
    pytest.param(_tampered_digest, id="tampered-digest"),
]


def _ingest(cache: ResultCache, db) -> list[dict]:
    with Warehouse(db) as warehouse:
        warehouse.ingest_cache(cache)
        keys = [row["content_key"] for row in warehouse.rows()]
        return [warehouse.row(key) for key in keys]


def _report_column(db, key: str) -> str:
    with sqlite3.connect(str(db)) as conn:
        (column,) = conn.execute(
            "SELECT report FROM experiments WHERE content_key = ?", (key,)
        ).fetchone()
    return column


# ----------------------------------------------------------------------
# 1. Layout
# ----------------------------------------------------------------------
class TestBlobLayout:
    def test_blob_is_one_json_document_with_the_report_last(
        self, simulated, tmp_path
    ):
        spec, report = simulated
        cache, path = _store(tmp_path, spec, report)
        raw = path.read_bytes()
        blob = json.loads(raw)
        assert list(blob) == [
            "format_version", "workload", "scheme", "meta",
            "report_sha256", "report",
        ]
        assert blob["format_version"] == CACHE_FORMAT_VERSION == 4
        data = encode_report(report)
        assert raw.endswith(b',"report":' + data + b"}")
        assert blob["report_sha256"] == hashlib.sha256(data).hexdigest()
        assert blob["report"] == _reference(report)

    def test_load_bytes_returns_the_stored_bytes(self, simulated, tmp_path):
        spec, report = simulated
        cache, _ = _store(tmp_path, spec, report)
        data = cache.load_bytes(_cell(spec).key)
        assert data == encode_report(report)
        assert cache.hits == 1
        assert cache.load(_cell(spec).key).to_dict() == report.to_dict()

    def test_version_mismatch_in_place_is_a_miss_that_keeps_the_blob(
        self, simulated, tmp_path
    ):
        spec, report = simulated
        cache, path = _store(tmp_path, spec, report)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(
            b'"format_version":4', b'"format_version":5', 1
        ))
        key = _cell(spec).key
        assert cache.load_bytes(key) is None
        assert cache.load(key) is None
        assert cache.quarantined == 0
        assert path.exists()


# ----------------------------------------------------------------------
# 2. The digest bites
# ----------------------------------------------------------------------
class TestDigestQuarantine:
    def test_one_digit_blob_is_still_a_valid_report(
        self, simulated, tmp_path
    ):
        # What a build without the digest would have served.
        spec, report = simulated
        _, path = _store(tmp_path, spec, report)
        mutated = json.loads(_one_digit(path.read_bytes()))
        decoded = SimReport.from_dict(mutated["report"])
        assert decoded.activations != report.activations

    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    @pytest.mark.parametrize("reader", ["load", "load_bytes"])
    def test_lookup_quarantines(self, simulated, tmp_path, corrupt, reader):
        spec, report = simulated
        cache, path = _store(tmp_path, spec, report)
        path.write_bytes(corrupt(path.read_bytes()))
        assert getattr(cache, reader)(_cell(spec).key) is None
        assert cache.quarantined == 1
        assert cache.misses == 1
        assert not path.exists()

    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_ingest_quarantines(self, simulated, tmp_path, corrupt):
        spec, report = simulated
        cache, path = _store(tmp_path / "cache", spec, report)
        path.write_bytes(corrupt(path.read_bytes()))
        assert _ingest(cache, tmp_path / "wh.sqlite") == []
        assert cache.quarantined == 1
        assert not path.exists()


# ----------------------------------------------------------------------
# 3. Pre-digest blobs, and the ingested column
# ----------------------------------------------------------------------
def _parent_column(path) -> str:
    """The ``report`` column a build without the digest ingested."""
    blob = json.loads(path.read_text(encoding="utf-8"))
    return json.dumps(blob["report"], separators=(",", ":"))


class TestStoredBytesIngest:
    @pytest.mark.parametrize("layout", [_store, _store_parent_layout],
                             ids=["digest", "pre-digest"])
    def test_column_is_byte_identical_to_the_parents(
        self, simulated, tmp_path, layout
    ):
        spec, report = simulated
        cache, path = layout(tmp_path / "cache", spec, report)
        db = tmp_path / "wh.sqlite"
        (row,) = _ingest(cache, db)
        column = _report_column(db, _cell(spec).key)
        assert column == _parent_column(path)
        assert column.encode("utf-8") == encode_report(report)
        assert row["seed"] == SEED and row["scheme"] == report.scheme
        assert row["activations"] == report.activations
        assert cache.quarantined == 0

    def test_pre_digest_blob_is_served(self, simulated, tmp_path):
        spec, report = simulated
        cache, path = _store_parent_layout(tmp_path, spec, report)
        key = _cell(spec).key
        assert cache.load(key).to_dict() == report.to_dict()
        assert cache.load_bytes(key) == encode_report(report)
        assert cache.quarantined == 0
        assert path.exists()


# ----------------------------------------------------------------------
# 4. The service: one splice per job response
# ----------------------------------------------------------------------
def _daemon(tmp_path, **kwargs) -> ServiceDaemon:
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault(
        "cache", ResultCache(tmp_path / "cache", enabled=True)
    )
    kwargs.setdefault("journal_path", tmp_path / "journal.jsonl")
    kwargs.setdefault("retry_backoff", 0.01)
    kwargs.setdefault("verbose", False)
    return ServiceDaemon(**kwargs)


def _simulations(daemon: ServiceDaemon) -> float:
    return daemon.hub.snapshot()["counters"].get(SERVICE_SIMULATIONS, 0.0)


def _terminal(client: ServiceClient, job_id: str) -> tuple[str, dict]:
    for event, data in client.events(job_id, timeout=WAIT):
        if event in ("done", "failed", "cancelled"):
            return event, data
    raise AssertionError(f"no terminal frame for {job_id}")


def _submit(client: ServiceClient, spec: SimSpec) -> dict:
    return client.submit(APP, spec=spec, scale=SCALE, seed=SEED)


def test_every_kind_of_job_serves_the_reference_result(
    simulated, tmp_path
):
    spec, report = simulated
    expected, metrics = _reference(report), _metrics(report)
    # Dispatch 0 sleeps a second before simulating, so an identical
    # submission meanwhile coalesces onto it.
    daemon = _daemon(tmp_path, chaos=FaultPlan.parse("hang@0:1"))
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        tier = _submit(client, spec)
        follower = _submit(client, spec)
        assert (tier["outcome"], follower["outcome"]) == \
            ("queued", "coalesced")
        for job in (tier, follower):
            assert client.wait(job["id"], timeout=WAIT)["state"] == "done"

        hit = _submit(client, spec)
        assert hit["outcome"] == "cached"
        assert hit["result"] == expected

        for job in (tier, follower, hit):
            assert client.job(job["id"])["result"] == expected
            event, data = _terminal(client, job["id"])
            assert event == "done"
            assert data["metrics"] == metrics
        assert _simulations(daemon) == 1
    finally:
        daemon.stop()

    recovered = _daemon(tmp_path)
    recovered.start_in_thread()
    try:
        client = ServiceClient(port=recovered.port)
        doc = client.job(tier["id"])
        assert doc["recovered"] is True
        assert doc["result"] == expected
        event, data = _terminal(client, tier["id"])
        assert data["metrics"] == metrics
        assert _simulations(recovered) == 0
    finally:
        recovered.stop()


def test_a_hit_decodes_and_encodes_no_report(
    simulated, tmp_path, monkeypatch
):
    spec, report = simulated
    _store(tmp_path / "cache", spec, report)
    calls: list[str] = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return wrapper

    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        monkeypatch.setattr(SimReport, "from_dict", staticmethod(
            counted("from_dict", SimReport.from_dict)))
        monkeypatch.setattr(SimReport, "to_dict",
                            counted("to_dict", SimReport.to_dict))
        for module in (cache_mod, server_mod):
            monkeypatch.setattr(module, "encode_report", counted(
                "encode_report", module.encode_report))
        job = _submit(client, spec)
        doc = client.job(job["id"])
        monkeypatch.undo()
        assert job["outcome"] == "cached"
        assert job["result"] == doc["result"] == _reference(report)
        assert calls == []
    finally:
        daemon.stop()


def test_hit_jobs_retain_no_result(simulated, tmp_path):
    spec, report = simulated
    _store(tmp_path / "cache", spec, report)
    daemon = _daemon(tmp_path, journal_fsync="batch")
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        jobs = [_submit(client, spec) for _ in range(200)]
        assert {job["outcome"] for job in jobs} == {"cached"}
        assert len(daemon.jobs) == 200
        for job in daemon.jobs.values():
            assert not any(
                isinstance(value, (bytes, SimReport))
                for value in vars(job).values()
            ), job.id
        first = client.job(jobs[0]["id"])
        assert first["result"] == _reference(report)
        assert daemon.jobs[jobs[0]["id"]].result is None
    finally:
        daemon.stop()


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_corrupt_blob_is_quarantined_and_resimulated_over_http(
    simulated, tmp_path, corrupt
):
    spec, report = simulated
    cache, path = _store(tmp_path / "cache", spec, report)
    path.write_bytes(corrupt(path.read_bytes()))
    daemon = _daemon(tmp_path, cache=cache)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        job = _submit(client, spec)
        assert job["outcome"] == "queued"
        doc = client.wait(job["id"], timeout=WAIT)
        assert doc["result"] == _reference(report)
        assert cache.quarantined == 1
        assert _simulations(daemon) == 1
        assert cache.load_bytes(_cell(spec).key) == encode_report(report)
    finally:
        daemon.stop()


def test_pre_digest_blob_is_served_over_http(simulated, tmp_path):
    spec, report = simulated
    cache, path = _store_parent_layout(tmp_path / "cache", spec, report)
    daemon = _daemon(tmp_path, cache=cache)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        job = _submit(client, spec)
        assert job["outcome"] == "cached"
        assert job["result"] == _reference(report)
        assert client.job(job["id"])["result"] == _reference(report)
        assert cache.quarantined == 0 and path.exists()
        assert _simulations(daemon) == 0
    finally:
        daemon.stop()
