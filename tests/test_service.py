"""End-to-end tests for the simulation-as-a-service daemon.

The invariants pinned down here, against a real in-process daemon
(asyncio loop in a background thread, HTTP over localhost):

1. **Coalescing is exact** — 8 concurrent submissions of the same
   SimSpec run exactly one simulation and all 8 clients receive
   byte-identical ``SimReport.to_dict()`` payloads.
2. **The cache outlives the daemon** — a warm resubmission after a
   restart is answered from the persistent cache without simulating.
3. **SSE carries the controller state** — a dyn-dms telemetry job
   streams at least one window sample with its per-channel Dyn-DMS
   ``X`` trajectory, followed by a terminal frame.
4. **Backpressure is a protocol, not a crash** — a full queue is a 429
   with a Retry-After hint; a malformed spec is a 400 naming the
   offending key path.
5. **The journal resurrects queued work** — non-terminal jobs from a
   killed daemon re-enter the queue on restart and still finish.
"""

from __future__ import annotations

import concurrent.futures
import json
import socket

import pytest

from repro.errors import ConfigError, ServiceBusyError, ServiceError
from repro.harness.cache import ResultCache
from repro.harness.schemes import scheme_def
from repro.service.client import ServiceClient
from repro.service.jobs import (
    Job,
    JobState,
    job_content_key,
    new_job_id,
    replay_journal,
)
from repro.service.queue import JobQueue
from repro.service.server import ServiceDaemon
from repro.sim.spec import SimSpec
from repro.telemetry.hub import SERVICE_SIMULATIONS

SCALE = 0.05
WAIT = 120.0


def _daemon(tmp_path, **kwargs) -> ServiceDaemon:
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault(
        "cache", ResultCache(tmp_path / "cache", enabled=True)
    )
    kwargs.setdefault("journal_path", tmp_path / "journal.jsonl")
    kwargs.setdefault("retry_backoff", 0.01)
    kwargs.setdefault("verbose", False)
    return ServiceDaemon(**kwargs)


def _simulations(daemon: ServiceDaemon) -> float:
    return daemon.hub.snapshot()["counters"].get(SERVICE_SIMULATIONS, 0.0)


# ----------------------------------------------------------------------
# The headline acceptance path.


def test_coalescing_runs_one_simulation_for_eight_clients(tmp_path):
    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        spec = SimSpec(scheduler=scheme_def("frfcfs").build())

        def submit_and_wait(_):
            client = ServiceClient(port=daemon.port)
            job = client.submit(
                "synthetic", spec=spec, scale=SCALE, seed=11
            )
            doc = client.wait(job["id"], timeout=WAIT)
            assert doc["state"] == "done", doc.get("error")
            return job["outcome"], json.dumps(
                doc["result"], sort_keys=True
            )

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(submit_and_wait, range(8)))

        payloads = {payload for _, payload in results}
        assert len(payloads) == 1  # byte-identical result documents
        assert _simulations(daemon) == 1
        outcomes = sorted(outcome for outcome, _ in results)
        # Exactly one primary actually entered the queue; every
        # duplicate either coalesced onto it or (if it finished first)
        # hit the cache. Never a second simulation.
        assert outcomes.count("queued") <= 1
        assert all(
            o in ("queued", "coalesced", "cached") for o in outcomes
        )
    finally:
        daemon.stop()


def test_warm_restart_serves_from_persistent_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    first = _daemon(tmp_path, cache=ResultCache(cache_dir, enabled=True))
    first.start_in_thread()
    try:
        client = ServiceClient(port=first.port)
        job = client.submit("synthetic", scale=SCALE, seed=5)
        report = client.wait_for_report(job["id"], timeout=WAIT)
        assert _simulations(first) == 1
    finally:
        first.stop()

    second = _daemon(
        tmp_path,
        cache=ResultCache(cache_dir, enabled=True),
        journal_path=tmp_path / "journal2.jsonl",
    )
    second.start_in_thread()
    try:
        client = ServiceClient(port=second.port)
        job = client.submit("synthetic", scale=SCALE, seed=5)
        assert job["outcome"] == "cached"
        assert job["state"] == "done"
        warm = client.wait_for_report(job["id"], timeout=WAIT)
        assert warm.to_dict() == report.to_dict()
        assert _simulations(second) == 0  # never touched a worker
    finally:
        second.stop()


def test_sse_streams_dyn_dms_window_trajectory(tmp_path):
    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        spec = SimSpec(
            scheduler=scheme_def("dyn-dms").build(), telemetry=True
        )
        job = client.submit("synthetic", spec=spec, scale=0.3, seed=3)
        windows = []
        terminal = None
        for event, data in client.events(job["id"], timeout=WAIT):
            if event == "window":
                windows.append(data)
            elif event in ("done", "failed", "cancelled"):
                terminal = (event, data)
        assert terminal is not None and terminal[0] == "done"
        assert len(windows) >= 1
        sample = windows[0]
        # The Fig. 10 observables ride in every window frame.
        assert "bwutil" in sample and "activations" in sample
        assert "drops" in sample
        assert isinstance(sample["dms_x"], list) and sample["dms_x"]
        assert isinstance(sample["th_rbl"], list) and sample["th_rbl"]
        # Terminal frame carries the summary metrics.
        assert terminal[1]["metrics"]["ipc"] > 0
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# Protocol edges: backpressure, validation, cancellation.


def test_full_queue_answers_429_with_retry_after(tmp_path):
    daemon = _daemon(tmp_path, workers=0, queue_size=2)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        for seed in (1, 2):
            client.submit("synthetic", scale=SCALE, seed=seed)
        with pytest.raises(ServiceBusyError) as excinfo:
            client.submit("synthetic", scale=SCALE, seed=3)
        assert excinfo.value.retry_after >= 1.0
    finally:
        daemon.stop(drain=False)


def test_malformed_spec_is_400_naming_the_key_path(tmp_path):
    daemon = _daemon(tmp_path, workers=0)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        with pytest.raises(ConfigError, match=r"scheduler\.dms\.bogus"):
            client.submit(
                "synthetic",
                spec={"scheduler": {"dms": {"bogus": 1}}},
            )
        with pytest.raises(ConfigError, match="unknown workload"):
            client.submit("no-such-app")
    finally:
        daemon.stop(drain=False)


@pytest.mark.parametrize("length", ["-5", "abc"])
def test_malformed_content_length_is_400_naming_the_header(
    tmp_path, length
):
    daemon = _daemon(tmp_path, workers=0)
    daemon.start_in_thread()
    try:
        request = (
            "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        with socket.create_connection(
            (daemon.host, daemon.port), timeout=WAIT
        ) as sock:
            sock.sendall(request.encode("latin-1"))
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert "Content-Length" in json.loads(body)["error"]
    finally:
        daemon.stop(drain=False)


def test_cancel_queued_job_and_reject_double_cancel(tmp_path):
    daemon = _daemon(tmp_path, workers=0, queue_size=4)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        job = client.submit("synthetic", scale=SCALE, seed=21)
        doc = client.cancel(job["id"])
        assert doc["state"] == "cancelled"
        with pytest.raises(ServiceError):
            client.cancel(job["id"])  # already terminal -> 409
    finally:
        daemon.stop(drain=False)


def test_unknown_job_is_404(tmp_path):
    daemon = _daemon(tmp_path, workers=0)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        with pytest.raises(ServiceError, match="404"):
            client.job("jdeadbeef0000")
    finally:
        daemon.stop(drain=False)


def test_healthz_and_stats_shapes(tmp_path):
    daemon = _daemon(tmp_path, workers=1)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        health = client.healthz()
        assert health["ok"] is True and health["serving"] is True
        job = client.submit("synthetic", scale=SCALE, seed=31)
        client.wait(job["id"], timeout=WAIT)
        stats = client.stats()
        assert stats["jobs"]["done"] >= 1
        assert stats["queue"]["workers"] == 1
        assert stats["cache"]["entries"] >= 1
        assert stats["service"]["counters"]["service.jobs.submitted"] >= 1
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# Journal recovery.


def test_restart_recovers_queued_jobs_from_journal(tmp_path):
    journal = tmp_path / "journal.jsonl"
    cache_dir = tmp_path / "cache"
    first = _daemon(
        tmp_path,
        workers=0,
        cache=ResultCache(cache_dir, enabled=True),
        journal_path=journal,
    )
    first.start_in_thread()
    try:
        client = ServiceClient(port=first.port)
        job_id = client.submit("synthetic", scale=SCALE, seed=41)["id"]
    finally:
        first.stop(drain=False)  # dies with the job still queued

    second = _daemon(
        tmp_path,
        workers=1,
        cache=ResultCache(cache_dir, enabled=True),
        journal_path=journal,
    )
    second.start_in_thread()
    try:
        client = ServiceClient(port=second.port)
        doc = client.wait(job_id, timeout=WAIT)
        assert doc["state"] == "done"
        assert doc["recovered"] is True
    finally:
        second.stop()


def test_replay_journal_tolerates_torn_tail(tmp_path):
    journal = tmp_path / "journal.jsonl"
    spec = SimSpec()
    job = Job(
        id=new_job_id(),
        app="synthetic",
        scale=SCALE,
        seed=1,
        spec=spec,
        key=job_content_key("synthetic", SCALE, 1, spec),
    )
    from repro.service.jobs import JobJournal

    log = JobJournal(journal)
    log.record_submit(job)
    job.transition(JobState.RUNNING)
    log.record_state(job)
    log.close()
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"torn": ')  # crash mid-write
    jobs = replay_journal(journal)
    assert len(jobs) == 1
    # Non-terminal state resets to QUEUED for re-execution.
    assert jobs[0].state is JobState.QUEUED
    assert jobs[0].recovered is True


# ----------------------------------------------------------------------
# Multi-tenant jobs: priority maps to the tenant service contract.


def test_priority_sets_tenant_contract_end_to_end(tmp_path):
    """A job's HTTP ``priority`` becomes the default tenant class, and
    the simulated mix honours the resulting contract: the same
    class-less two-tenant payload yields AMS drops as a background
    (``approx-batch``) job but none as a high-priority (``latency``)
    one, and an explicit class always survives the defaulting."""
    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        from repro.config.codec import encode

        scheme = scheme_def("static-dms+static-ams").build()
        spec_doc = {
            "scheduler": encode(scheme),
            "tenants": {
                "arbiter": "shared-frfcfs",
                "tenants": [
                    {"name": "a", "workload": "blackscholes",
                     "scale": SCALE},
                    {"name": "b", "workload": "MVT", "scale": SCALE,
                     "tenant_class": "approx-batch"},
                ],
            },
        }

        def run(priority: int) -> dict:
            job = client.submit(
                "blackscholes", spec=spec_doc, seed=11,
                priority=priority,
            )
            doc = client.wait(job["id"], timeout=WAIT)
            assert doc["state"] == "done", doc.get("error")
            return doc["result"]

        background = run(priority=0)
        foreground = run(priority=2)

        bg = {t["name"]: t for t in background["tenants"]["tenants"]}
        fg = {t["name"]: t for t in foreground["tenants"]["tenants"]}
        # priority 0 -> both default to approx-batch, drops allowed.
        assert bg["a"]["tenant_class"] == "approx-batch"
        assert sum(t["requests_dropped"] for t in bg.values()) > 0
        # priority 2 -> class-less tenant becomes latency: no drops in
        # its stream; the explicit approx-batch choice is preserved.
        assert fg["a"]["tenant_class"] == "latency"
        assert fg["a"]["requests_dropped"] == 0
        assert fg["b"]["tenant_class"] == "approx-batch"
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# Queue unit behaviour (no HTTP, no simulations).


def _job(seed: int, priority: int = 0) -> Job:
    spec = SimSpec()
    return Job(
        id=new_job_id(),
        app="synthetic",
        scale=SCALE,
        seed=seed,
        spec=spec,
        key=job_content_key("synthetic", SCALE, seed, spec),
        priority=priority,
    )


def test_queue_orders_by_priority_then_fifo():
    import asyncio

    async def scenario():
        queue = JobQueue(maxsize=8, cache=ResultCache(enabled=False))
        low = _job(1, priority=0)
        high = _job(2, priority=5)
        low2 = _job(3, priority=0)
        for job in (low, high, low2):
            await queue.admit(job)
        order = [await queue.get() for _ in range(3)]
        return [j.id for j in order], [low.id, high.id, low2.id]

    order, (low_id, high_id, low2_id) = asyncio.run(scenario())
    assert order == [high_id, low_id, low2_id]


def test_queue_promotes_follower_when_primary_cancelled():
    import asyncio

    async def scenario():
        queue = JobQueue(maxsize=8, cache=ResultCache(enabled=False))
        primary = _job(7)
        duplicate = _job(7)
        assert (await queue.admit(primary)) == "queued"
        assert (await queue.admit(duplicate)) == "coalesced"
        assert duplicate.coalesced_into == primary.id
        await queue.cancel(primary)
        # The duplicate took over as the new primary for the key.
        promoted = await queue.get()
        return primary, duplicate, promoted

    import asyncio

    primary, duplicate, promoted = asyncio.run(scenario())
    assert primary.state is JobState.CANCELLED
    assert promoted.id == duplicate.id
    assert duplicate.coalesced_into is None
