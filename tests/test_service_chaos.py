"""Chaos-mode end-to-end tests of the resilient service tier.

Every recovery path of the daemon is exercised against a *real*
in-process daemon with a *real* process-based worker tier, using the
deterministic FaultPlan grammar (``kind@cell[/stride][:seconds][xN]``)
threaded into the tier's worker processes:

1. **Kill a worker mid-job** — the job retries on a fresh worker and
   its report is byte-identical to an undisturbed run; neighbouring
   jobs and the daemon itself never notice.
2. **Chaos load test** — with ``exit@0/5`` (every 5th dispatch kills
   its worker) a stream of jobs completes 100%, with one respawn per
   injected kill and zero daemon restarts.
3. **Circuit breaker** — a poison spec (kills its worker on every
   dispatch) trips the breaker within ``threshold`` submissions; the
   next submission is a structured 422 that never reaches the tier.
4. **Crash-safe SSE** — a reconnect with ``Last-Event-ID`` replays
   exactly the missed events, a reconnect past the bounded ring's
   tail gets an explicit ``gap`` event, and ``repro-harness watch``
   reconnects after a dropped stream.
5. **Load shedding** — with every worker busy and the queue past its
   watermark, submissions shed with 429 + Retry-After.
6. **Deadlines and retries** — a hung attempt is killed at
   ``cell_timeout`` and retried byte-identically (or, with no retries
   left, fails as a fatal ``CellTimeoutError``), and a telemetry job
   takes the same kill, retry and failure paths on the tier, streaming
   each window once.
"""

from __future__ import annotations

import concurrent.futures
import json
import time

import pytest

from repro.errors import CircuitOpenError, ServiceBusyError
from repro.harness import cli
from repro.harness.cache import ResultCache
from repro.harness.faults import FaultPlan
from repro.harness.runner import Runner
from repro.harness.schemes import scheme_def
from repro.service.client import ServiceClient
from repro.service.server import ServiceDaemon
from repro.sim.spec import SimSpec
from repro.telemetry.hub import (
    SERVICE_SHED,
    SERVICE_TIER_RESPAWNS,
    SERVICE_TIER_TIMEOUTS,
)

SCALE = 0.05
WAIT = 180.0


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


def _spec(scheme: str = "dyn-dms", **kwargs) -> SimSpec:
    return SimSpec(scheduler=scheme_def(scheme).build(), **kwargs)


def _run_one(daemon: ServiceDaemon, spec: SimSpec) -> dict:
    """Start ``daemon``, run one synthetic job of ``spec`` to its end,
    stop the daemon and return the job's status document."""
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        job = client.submit("synthetic", spec=spec, scale=SCALE)
        return client.wait(job["id"], timeout=WAIT)
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# 1 + 2: worker kills, retries, and the chaos load test
# ----------------------------------------------------------------------
def test_killed_worker_fails_only_its_own_job(tmp_path):
    """Chaos kills the worker of dispatch 0 mid-job; that job retries
    on a fresh worker and completes byte-identically, the concurrent
    neighbour job and its SSE watcher never notice, and the daemon
    serves throughout."""
    reference = _daemon(
        tmp_path / "ref", cache=ResultCache(tmp_path / "ref" / "cache")
    )
    reference.start_in_thread()
    try:
        ref_client = ServiceClient(port=reference.port)
        job = ref_client.submit("synthetic", spec=_spec(), scale=SCALE)
        undisturbed = json.dumps(
            ref_client.wait(job["id"], timeout=WAIT)["result"],
            sort_keys=True,
        )
    finally:
        reference.stop()

    daemon = _daemon(tmp_path, chaos=FaultPlan.parse("exit@0"))
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        victim = client.submit("synthetic", spec=_spec(), scale=SCALE)
        neighbour = client.submit(
            "synthetic", spec=_spec("frfcfs"), scale=SCALE
        )
        watched = list(client.events(neighbour["id"], timeout=WAIT))

        victim_doc = client.wait(victim["id"], timeout=WAIT)
        neighbour_doc = client.wait(neighbour["id"], timeout=WAIT)

        assert victim_doc["state"] == "done", victim_doc.get("error")
        assert victim_doc["attempts"] == 2  # one kill, one clean retry
        assert json.dumps(
            victim_doc["result"], sort_keys=True
        ) == undisturbed
        assert neighbour_doc["state"] == "done"
        assert neighbour_doc["attempts"] == 1  # never disturbed
        assert watched[-1][0] == "done"

        counters = daemon.hub.snapshot()["counters"]
        assert counters.get(SERVICE_TIER_RESPAWNS, 0) == 1
        health = client.healthz()
        assert health["ok"] is True
        assert health["tier"]["state"] == "ok"
        assert health["tier"]["respawns"] == 1
        assert all(w["alive"] for w in health["tier"]["workers"])
    finally:
        daemon.stop()


def test_chaos_load_every_5th_dispatch_killed(tmp_path):
    """15 concurrent jobs under ``exit@0/5`` (dispatches 0, 5, 10 kill
    their workers): 100% completion, one respawn per kill, the daemon
    never restarts, and every report matches a clean re-run from the
    shared cache."""
    daemon = _daemon(
        tmp_path, workers=4, chaos=FaultPlan.parse("exit@0/5"),
        retries=1, queue_size=64,
    )
    daemon.start_in_thread()
    started_at = daemon._started_at
    try:
        def submit_and_wait(seed):
            client = ServiceClient(port=daemon.port)
            job = client.submit(
                "synthetic", spec=_spec(), scale=SCALE, seed=seed,
                retry_busy=5,
            )
            doc = client.wait(job["id"], timeout=WAIT)
            return seed, doc

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = dict(pool.map(submit_and_wait, range(15)))

        done = [doc for doc in results.values()
                if doc["state"] == "done"]
        assert len(done) == 15  # >= 99% acceptance: here, all of them
        assert daemon._started_at == started_at  # no daemon restart
        counters = daemon.hub.snapshot()["counters"]
        assert counters.get(SERVICE_TIER_RESPAWNS, 0) == 3

        # Every report is byte-identical to an undisturbed run: the
        # cache now holds the chaos run's reports, so a clean daemon
        # re-serving them must agree with a fresh simulation.
        clean = _daemon(
            tmp_path / "clean",
            cache=ResultCache(tmp_path / "clean" / "cache"),
            workers=4,
        )
        clean.start_in_thread()
        try:
            client = ServiceClient(port=clean.port)

            def rerun(seed):
                job = client.submit(
                    "synthetic", spec=_spec(), scale=SCALE, seed=seed,
                    retry_busy=5,
                )
                return seed, client.wait(job["id"], timeout=WAIT)

            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                fresh = dict(pool.map(rerun, range(15)))
            for seed in range(15):
                assert json.dumps(
                    results[seed]["result"], sort_keys=True
                ) == json.dumps(
                    fresh[seed]["result"], sort_keys=True
                ), f"seed {seed} diverged after chaos retry"
        finally:
            clean.stop()
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# 3: circuit breaker end to end
# ----------------------------------------------------------------------
def test_breaker_quarantines_poison_spec_within_three_failures(tmp_path):
    daemon = _daemon(
        tmp_path, workers=1,
        chaos=FaultPlan.parse("exit@0/1x99"),  # every dispatch dies
        retries=0, breaker_threshold=3, breaker_cooldown=300.0,
    )
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        for _ in range(3):
            job = client.submit("synthetic", spec=_spec(), scale=SCALE)
            doc = client.wait(job["id"], timeout=WAIT)
            assert doc["state"] == "failed"
            assert doc["error"]["error_type"] == "WorkerCrashError"

        with pytest.raises(CircuitOpenError) as exc_info:
            client.submit("synthetic", spec=_spec(), scale=SCALE)
        assert exc_info.value.retry_after > 0
        assert exc_info.value.last_error["error_type"] == \
            "WorkerCrashError"

        health = client.healthz()
        assert health["breaker_open_keys"] == 1
        stats = client.stats()
        assert stats["breaker"]["opened_total"] == 1
        assert stats["breaker"]["rejected_total"] == 1
        # A *different* spec still executes: the quarantine is per key.
        other = client.submit(
            "synthetic", spec=_spec("frfcfs"), scale=SCALE
        )
        # (dispatch ordinal 3 is also chaos-killed, retries=0 -> failed;
        # what matters is that it was admitted, not 422-rejected.)
        assert client.wait(other["id"], timeout=WAIT)["state"] in (
            "done", "failed"
        )
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# 4: crash-safe SSE reconnect
# ----------------------------------------------------------------------
def test_sse_reconnect_with_last_event_id_replays_the_tail(tmp_path):
    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        job = client.submit(
            "synthetic", spec=_spec(telemetry=True), scale=SCALE
        )
        client.wait(job["id"], timeout=WAIT)

        # First watcher drains the whole ring (windows + states +
        # terminal), establishing what a complete stream looks like.
        full = list(client.events(job["id"], timeout=WAIT))
        ids = [data["event_id"] for _, data in full
               if isinstance(data, dict)]
        assert ids == sorted(ids)  # monotonically increasing
        assert len(ids) == len(set(ids))  # no duplicates
        assert full[-1][0] == "done"
        assert len(full) >= 3  # at least one window + states + done

        # A "dropped" watcher that saw the first two events reconnects
        # with Last-Event-ID and receives exactly the rest.
        resume_from = ids[1]
        tail = list(client.events(
            job["id"], timeout=WAIT, last_event_id=resume_from
        ))
        tail_ids = [data["event_id"] for _, data in tail
                    if isinstance(data, dict)]
        assert tail_ids == [i for i in ids if i > resume_from]

        # A reconnect that saw everything gets an empty, clean close.
        nothing = list(client.events(
            job["id"], timeout=WAIT, last_event_id=ids[-1]
        ))
        assert nothing == []
    finally:
        daemon.stop()


@pytest.mark.parametrize("drop", ["reset", "eof"])
def test_watch_command_survives_a_dropped_stream(
    tmp_path, monkeypatch, capsys, drop
):
    """The first SSE stream of ``repro-harness watch`` dies after two
    frames, by a connection reset or by an early end; the command
    reconnects and prints every frame exactly once."""
    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        # At scale 1.0 the job is still running at its third frame.
        job = client.submit(
            "synthetic", spec=_spec(telemetry=True), scale=1.0, seed=3
        )
        argv = ["watch", job["id"], "--port", str(daemon.port)]
        real_events = ServiceClient.events
        streams = []

        def events(self, *args, **kwargs):
            streams.append(kwargs.get("last_event_id"))
            for n, frame in enumerate(real_events(self, *args, **kwargs)):
                if len(streams) == 1 and n == 2:
                    if drop == "reset":
                        raise ConnectionResetError("stream dropped")
                    return
                yield frame

        monkeypatch.setattr(ServiceClient, "events", events)
        assert cli.main(argv) == cli.EXIT_OK
        watched = capsys.readouterr().out
        assert len(streams) == 2 and streams[1] is not None
        # The job's event ring now holds its whole history: a second,
        # undisturbed watch replays it from the first frame.
        monkeypatch.setattr(ServiceClient, "events", real_events)
        assert cli.main(argv) == cli.EXIT_OK
        assert watched == capsys.readouterr().out
        assert watched.splitlines()[-1].startswith("done: ")
    finally:
        daemon.stop()


def test_sse_reconnect_past_the_ring_tail_reports_a_gap(tmp_path):
    daemon = _daemon(tmp_path, sse_ring_events=4)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        job = client.submit(
            "synthetic", spec=_spec(telemetry=True), scale=SCALE
        )
        client.wait(job["id"], timeout=WAIT)
        full = list(client.events(job["id"], timeout=WAIT))
        last_id = max(
            data["event_id"] for _, data in full
            if isinstance(data, dict)
        )
        assert last_id > 4  # the run outgrew the 4-slot ring
        replay = list(client.events(
            job["id"], timeout=WAIT, last_event_id=1
        ))
        assert replay[0][0] == "gap"
        assert replay[0][1]["missed"] > 0
        assert replay[-1][0] == "done"
    finally:
        daemon.stop()


def test_one_running_job_fans_out_to_many_watchers(tmp_path):
    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        job = client.submit(
            "synthetic", spec=_spec(telemetry=True), scale=SCALE
        )

        def watch(_):
            watcher = ServiceClient(port=daemon.port)
            return [
                (event, data.get("event_id"))
                for event, data in watcher.events(
                    job["id"], timeout=WAIT
                )
                if isinstance(data, dict)
            ]

        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            streams = list(pool.map(watch, range(4)))
        # Every watcher read the same ring: same ids, same order, one
        # terminal frame each — N watchers, one event history.
        assert all(s == streams[0] for s in streams[1:])
        assert streams[0][-1][0] == "done"
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# 5: load shedding
# ----------------------------------------------------------------------
def test_saturated_tier_sheds_with_retry_after(tmp_path):
    daemon = _daemon(
        tmp_path, workers=1, queue_size=4, shed_watermark=0.5,
        chaos=FaultPlan.parse("hang@0:3"),  # dispatch 0 occupies the
        retries=0,                          # lone worker for 3 s
    )
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        hung = client.submit("synthetic", spec=_spec(), scale=SCALE)
        # Wait until the hung job actually occupies the worker.
        for _ in range(200):
            if client.job(hung["id"])["state"] == "running":
                break
            time.sleep(0.02)
        # Fill the queue past the watermark (0.5 * 4 = 2 entries).
        queued = [
            client.submit(
                "synthetic", spec=_spec(), scale=SCALE, seed=100 + i
            )
            for i in range(2)
        ]
        with pytest.raises(ServiceBusyError) as exc_info:
            client.submit(
                "synthetic", spec=_spec(), scale=SCALE, seed=999
            )
        assert exc_info.value.retry_after >= 1.0
        counters = daemon.hub.snapshot()["counters"]
        assert counters.get(SERVICE_SHED, 0) >= 1
        # The shed was advisory, not fatal: everything queued finishes.
        for job in (hung, *queued):
            assert client.wait(job["id"], timeout=WAIT)["state"] == \
                "done"
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# 6: per-attempt deadlines and retries on the tier, telemetry jobs too
# ----------------------------------------------------------------------
#: Far above a clean synthetic job at ``SCALE``, far below the hang.
CELL_TIMEOUT = 3.0


def test_hung_job_is_killed_at_its_deadline_and_retried(tmp_path):
    """Dispatch 0 hangs for 300 s; the tier kills its worker at the
    deadline and the retry finishes byte-identically to an undisturbed
    run, with one timeout and one respawn counted."""
    reference = _run_one(
        _daemon(tmp_path / "ref",
                cache=ResultCache(tmp_path / "ref" / "cache")),
        _spec(),
    )
    daemon = _daemon(
        tmp_path, cell_timeout=CELL_TIMEOUT,
        chaos=FaultPlan.parse("hang@0:300"),
    )
    doc = _run_one(daemon, _spec())
    assert doc["state"] == "done", doc.get("error")
    assert doc["attempts"] == 2  # one kill, one clean retry
    assert json.dumps(doc["result"], sort_keys=True) == json.dumps(
        reference["result"], sort_keys=True
    )
    counters = daemon.hub.snapshot()["counters"]
    assert counters.get(SERVICE_TIER_TIMEOUTS, 0) == 1
    assert counters.get(SERVICE_TIER_RESPAWNS, 0) == 1


def test_hung_job_without_retries_fails_as_a_fatal_timeout(tmp_path):
    daemon = _daemon(
        tmp_path, cell_timeout=CELL_TIMEOUT, retries=0,
        chaos=FaultPlan.parse("hang@0:300"),
    )
    doc = _run_one(daemon, _spec())
    assert doc["state"] == "failed"
    assert doc["error"]["error_type"] == "CellTimeoutError"
    assert doc["error"]["attempts"] == 1
    entry = daemon.breaker.entry(doc["key"])
    assert (entry.failures, entry.fatal_failures) == (1, 1)


def test_a_timeout_records_the_same_failure_on_every_path(tmp_path):
    """A pooled runner cell and a tier job that each hang past their
    deadline are quarantined with one and the same record shape."""
    spec = _spec()
    runner = Runner(
        scale=SCALE, cache=None, verbose=False, retries=0,
        cell_timeout=CELL_TIMEOUT, keep_going=True,
        faults=FaultPlan.parse("hang@0:300"),
    )
    try:
        result = runner.run_matrix(
            ("synthetic",), {spec.scheduler.name: spec.scheduler}
        )
    finally:
        runner.close()
    (pooled,) = [failure.to_dict() for failure in result.failures]
    tier = _run_one(
        _daemon(tmp_path, cell_timeout=CELL_TIMEOUT, retries=0,
                chaos=FaultPlan.parse("hang@0:300")),
        spec,
    )["error"]
    for failure in (pooled, tier):
        assert failure["error_type"] == "CellTimeoutError"
        assert "wall-clock timeout" in failure["message"]
        assert "CellTimeoutError" in failure["traceback"]
    assert pooled["message"] == tier["message"]


def _watched_run(daemon: ServiceDaemon, spec: SimSpec) -> dict:
    """Start ``daemon``, run one synthetic job of ``spec`` watched over
    SSE from submission to its end, stop the daemon; returns the job's
    document, its window frames, the tier's healthz and the counters."""
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        job = client.submit("synthetic", spec=spec, scale=SCALE)
        windows = [
            {k: v for k, v in data.items() if k != "event_id"}
            for event, data in client.events(job["id"], timeout=WAIT)
            if event == "window"
        ]
        return {
            "doc": client.job(job["id"]),
            "windows": windows,
            "tier": client.healthz()["tier"],
            "counters": daemon.hub.snapshot()["counters"],
        }
    finally:
        daemon.stop()


def test_hung_telemetry_job_is_killed_and_streams_each_window_once(
    tmp_path,
):
    """A telemetry job runs on the tier like any other: dispatch 0
    hangs, is killed at its deadline and finishes on attempt 2 with the
    window frames and report of an undisturbed daemon, each window
    sent exactly once."""
    spec = _spec(telemetry=True)
    reference = _watched_run(
        _daemon(tmp_path / "ref",
                cache=ResultCache(tmp_path / "ref" / "cache")),
        spec,
    )
    run = _watched_run(
        _daemon(tmp_path, cell_timeout=CELL_TIMEOUT, retries=1,
                chaos=FaultPlan.parse("hang@0:300")),
        spec,
    )
    doc = run["doc"]
    assert doc["state"] == "done", doc.get("error")
    assert doc["attempts"] == 2  # one kill, one clean retry
    assert run["counters"].get(SERVICE_TIER_TIMEOUTS, 0) == 1
    assert run["counters"].get(SERVICE_TIER_RESPAWNS, 0) == 1
    assert run["tier"]["dispatches"] == 1
    assert doc["result"] == reference["doc"]["result"]
    assert run["windows"] == reference["windows"]
    assert run["windows"] == doc["result"]["timeline"]["samples"]
    assert [w["index"] for w in run["windows"]] == list(
        range(len(run["windows"]))
    )


def test_telemetry_job_killed_mid_run_streams_no_window_twice(tmp_path):
    """Both attempts outlive their deadline after streaming windows (the
    run takes ~2 s, so each is killed part-way); the retry replays the
    first attempt's windows, and the stream still carries each once."""
    daemon = _daemon(tmp_path, cell_timeout=0.5, retries=1)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        job = client.submit(
            "synthetic", spec=_spec(telemetry=True), scale=6.0, seed=3
        )
        indices = [
            data["index"]
            for event, data in client.events(job["id"], timeout=WAIT)
            if event == "window"
        ]
        doc = client.job(job["id"])
    finally:
        daemon.stop()
    assert doc["state"] == "failed" and doc["attempts"] == 2
    assert doc["error"]["error_type"] == "CellTimeoutError"
    assert indices == list(range(len(indices)))


def test_telemetry_job_retries_a_failed_simulation(tmp_path):
    doc = _run_one(
        _daemon(tmp_path, chaos=FaultPlan.parse("crash@0")),
        _spec(telemetry=True),
    )
    assert doc["state"] == "done", doc.get("error")
    assert doc["attempts"] == 2
    assert doc["result"]["timeline"]


def test_telemetry_job_fails_after_its_retries(tmp_path):
    doc = _run_one(
        _daemon(tmp_path, retries=2, chaos=FaultPlan.parse("crash@0x3")),
        _spec(telemetry=True),
    )
    assert doc["state"] == "failed"
    assert doc["attempts"] == doc["error"]["attempts"] == 3
    assert doc["error"]["error_type"] == "ChaosCrash"
    assert "ChaosCrash" in doc["error"]["traceback"]
