"""Unit tests for the resilient service tier's building blocks.

Covers, without a running daemon:

* the per-content-key circuit breaker state machine (closed -> open ->
  half-open probe -> closed/reopen) under an injectable clock;
* the bounded SSE event ring: monotonic ids, idempotent publication,
  eviction accounting for ``Last-Event-ID`` replay;
* the WarmPool supervision surface the tier relies on: heartbeat
  ping/pong, per-worker state introspection, stale-worker reaping, and
  idempotent close();
* journal hardening: torn-line recovery and the invariant that
  cancelled jobs stay cancelled across a restart;
* the client's jittered, capped Retry-After backoff.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.harness.pool import WarmPool
from repro.harness.schemes import scheme_def
from repro.service.breaker import (
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    RejectedByBreaker,
)
from repro.service.client import MAX_RETRY_SLEEP, ServiceClient
from repro.service.jobs import (
    Job,
    JobJournal,
    JobState,
    job_content_key,
    new_job_id,
    replay_journal,
)
from repro.service.stream import EventRing
from repro.sim.spec import SimSpec


def _job(**overrides) -> Job:
    spec = overrides.pop("spec", SimSpec())
    app = overrides.pop("app", "synthetic")
    scale = overrides.pop("scale", 0.05)
    seed = overrides.pop("seed", 7)
    job = Job(
        id=new_job_id(),
        app=app,
        scale=scale,
        seed=seed,
        spec=spec,
        key=job_content_key(app, scale, seed, spec),
    )
    for name, value in overrides.items():
        setattr(job, name, value)
    return job


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = {"now": 0.0}
        kwargs.setdefault("threshold", 3)
        kwargs.setdefault("cooldown", 60.0)
        breaker = CircuitBreaker(clock=lambda: clock["now"], **kwargs)
        return breaker, clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self._breaker()
        assert not breaker.record_failure("k", {"error_type": "X"})
        assert not breaker.record_failure("k", {"error_type": "X"})
        assert breaker.record_failure("k", {"error_type": "X"})
        assert breaker.entry("k").state == STATE_OPEN
        assert breaker.opened_total == 1
        with pytest.raises(RejectedByBreaker) as exc_info:
            breaker.check("k")
        assert exc_info.value.retry_after == pytest.approx(60.0)
        assert breaker.rejected_total == 1

    def test_success_resets_the_count(self):
        breaker, _ = self._breaker()
        breaker.record_failure("k", None)
        breaker.record_failure("k", None)
        breaker.record_success("k")
        assert not breaker.record_failure("k", None)
        assert breaker.entry("k").failures == 1

    def test_half_open_probe_after_cooldown(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure("k", None, fatal=True)
        clock["now"] = 61.0
        # First submission after the cooldown is the probe...
        assert breaker.check("k") is True
        assert breaker.entry("k").state == STATE_HALF_OPEN
        # ...concurrent submissions are still rejected...
        with pytest.raises(RejectedByBreaker):
            breaker.check("k")
        # ...and its success closes the circuit completely.
        breaker.record_success("k")
        assert breaker.entry("k") is None
        assert breaker.check("k") is False

    def test_failed_probe_reopens_for_a_full_cooldown(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure("k", None)
        clock["now"] = 61.0
        assert breaker.check("k") is True
        assert breaker.record_failure("k", None)  # probe failed: re-trip
        entry = breaker.entry("k")
        assert entry.state == STATE_OPEN
        assert entry.opened_at == pytest.approx(61.0)
        with pytest.raises(RejectedByBreaker):
            breaker.check("k")

    def test_abandoned_probe_frees_the_slot(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure("k", None)
        clock["now"] = 61.0
        assert breaker.check("k") is True
        breaker.abandon_trial("k")  # probe was shed/cancelled
        assert breaker.check("k") is True  # next submission probes

    def test_fatal_failures_are_counted_separately(self):
        breaker, _ = self._breaker()
        breaker.record_failure("k", None, fatal=True)
        breaker.record_failure("k", None, fatal=False)
        entry = breaker.entry("k")
        assert entry.failures == 2
        assert entry.fatal_failures == 1

    def test_snapshot_lists_only_non_closed_entries(self):
        breaker, _ = self._breaker(threshold=1)
        breaker.record_failure("bad", {"error_type": "Boom",
                                       "message": "x"})
        breaker.record_failure("meh", None)
        breaker.record_success("meh")
        snapshot = breaker.snapshot()
        assert list(snapshot["open"]) == ["bad"]
        assert snapshot["open"]["bad"]["last_error"]["error_type"] == \
            "Boom"
        assert breaker.open_keys == ["bad"]

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0)


# ----------------------------------------------------------------------
# SSE event ring
# ----------------------------------------------------------------------
class TestEventRing:
    def test_ids_are_monotonic_from_one(self):
        ring = EventRing(maxlen=8)
        ids = [ring.append("e", {"n": n}) for n in range(3)]
        assert ids == [1, 2, 3]
        assert ring.first_id == 1
        assert ring.last_id == 3

    def test_since_replays_exactly_the_missed_window(self):
        ring = EventRing(maxlen=8)
        for n in range(5):
            ring.append("e", {"n": n})
        replay = ring.since(2)
        assert [event_id for event_id, _, _ in replay] == [3, 4, 5]
        assert ring.since(5) == []

    def test_bounded_eviction_is_accounted_for_gap_reporting(self):
        ring = EventRing(maxlen=3)
        for n in range(6):
            ring.append("e", {"n": n})
        assert ring.dropped == 3
        assert ring.first_id == 4
        # A cursor that saw event 1 can no longer replay 2 and 3.
        assert ring.lost_before(1) == 2
        assert ring.lost_before(3) == 0
        assert [e for e, _, _ in ring.since(1)] == [4, 5, 6]

    def test_sync_is_idempotent_across_watchers(self):
        ring = EventRing()
        job = _job()
        ring.sync(job)
        ring.sync(job)  # a second watcher polls the same ring
        # One queued-state event, nothing duplicated.
        events = ring.since(0)
        assert [name for _, name, _ in events] == ["state"]
        job.transition(JobState.RUNNING)
        job.transition(JobState.DONE)
        for _ in range(3):
            ring.sync(job)
        names = [name for _, name, _ in ring.since(0)]
        assert names == ["state", "state", "done"]
        assert ring.terminal_published

    def test_maxlen_validation(self):
        with pytest.raises(ValueError):
            EventRing(maxlen=0)


# ----------------------------------------------------------------------
# WarmPool supervision surface
# ----------------------------------------------------------------------
class TestWarmPoolSupervision:
    def test_ping_refreshes_heartbeats(self):
        pool = WarmPool(1)
        try:
            deadline = time.time() + 30.0
            pool._workers[0].last_pong = time.time() - 99.0
            while time.time() < deadline:
                pool.ping()
                time.sleep(0.05)
                state = pool.worker_states()[0]
                if state["heartbeat_age_seconds"] < 10.0:
                    break
            else:
                pytest.fail("pong never refreshed the heartbeat")
            assert state["mode"] == "process"
            assert state["alive"] is True
            assert state["pid"] == pool._workers[0].proc.pid
        finally:
            pool.close()

    def test_reap_stale_respawns_only_silent_idle_workers(self):
        pool = WarmPool(2)
        try:
            fresh_pid = pool._workers[1].proc.pid
            pool._workers[0].last_pong = time.time() - 100.0
            assert pool.reap_stale(50.0) == 1
            assert pool.respawns == 1
            assert pool._workers[1].proc.pid == fresh_pid
            # The respawned slot still serves work.
            spec = SimSpec(scheduler=scheme_def("frfcfs").build())
            from repro.harness.runner import CellSpec

            cell = CellSpec(app="synthetic", scale=0.05, seed=7, spec=spec)
            futures = [
                pool.submit_many([(cell, None, i, 1)])[0]
                for i in range(2)
            ]
            for future in futures:
                report, _ = future.result(timeout=60)
                assert report.elapsed_mem_cycles > 0
        finally:
            pool.close()

    def test_windows_and_reports_cross_the_pipe_as_objects(
        self, monkeypatch
    ):
        from repro.config import codec
        from repro.dram.request import reset_request_ids
        from repro.harness.runner import CellSpec
        from repro.sim.report import SimReport
        from repro.sim.system import simulate_spec
        from repro.telemetry.series import WindowSample

        cell = CellSpec(
            app="synthetic", scale=0.05, seed=7,
            spec=SimSpec(scheduler=scheme_def("dyn-dms").build(),
                         telemetry=True),
        )
        reset_request_ids()
        expected = simulate_spec(cell.workload(), cell.spec)

        def broken(*args, **kwargs):
            raise AssertionError("a pipe payload went through the codec")

        monkeypatch.setattr(codec, "decode", broken)
        monkeypatch.setattr(SimReport, "from_dict", staticmethod(broken))
        monkeypatch.setattr(WindowSample, "from_dict", staticmethod(broken))
        windows: list = []
        pool = WarmPool(1)
        try:
            (future,) = pool.submit_many([(cell, None, 0, 1)], windows.append)
            report, _ = future.result(timeout=60)
        finally:
            pool.close()
        assert report == expected
        assert windows and windows == expected.timeline.samples

    def test_reap_stale_never_touches_busy_workers(self):
        pool = WarmPool(1)
        try:
            worker = pool._workers[0]
            worker.last_pong = time.time() - 100.0
            worker.inflight[999] = object()  # simulate a long job
            assert pool.reap_stale(50.0) == 0
            assert pool.respawns == 0
            worker.inflight.clear()
        finally:
            pool.close()

    def test_close_is_idempotent(self):
        pool = WarmPool(1)
        pool.close()
        pool.close()  # second close must be a no-op, not a crash
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.submit_many([(None, None, 0, 1)])


# ----------------------------------------------------------------------
# Journal hardening
# ----------------------------------------------------------------------
class TestJournalHardening:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit(_job(seed=1))
        journal.record_submit(_job(seed=2))
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "submit", "id": "jdeadbeef", "ap')
        recovered = replay_journal(path)
        assert len(recovered) == 2

    def test_cancelled_jobs_are_not_requeued_on_restart(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        cancelled = _job(seed=1)
        interrupted = _job(seed=2)
        journal.record_submit(cancelled)
        journal.record_submit(interrupted)
        cancelled.transition(JobState.CANCELLED)
        journal.record_state(cancelled)
        interrupted.transition(JobState.RUNNING)
        journal.record_state(interrupted)
        journal.close()
        by_seed = {job.seed: job for job in replay_journal(path)}
        # CANCELLED is terminal: it must never come back to the queue.
        assert by_seed[1].state is JobState.CANCELLED
        # An interrupted RUNNING job does re-queue for a fresh attempt.
        assert by_seed[2].state is JobState.QUEUED


# ----------------------------------------------------------------------
# Client backoff
# ----------------------------------------------------------------------
class TestClientBackoff:
    def test_busy_delay_is_jittered_within_the_hint(self):
        client = ServiceClient(rng=random.Random(42))
        for _ in range(50):
            delay = client._busy_delay(8.0)
            assert 4.0 <= delay <= 8.0

    def test_busy_delay_is_capped(self):
        client = ServiceClient(rng=random.Random(7))
        assert client._busy_delay(10_000.0) == MAX_RETRY_SLEEP

    def test_busy_delay_is_deterministic_with_seeded_rng(self):
        a = ServiceClient(rng=random.Random(3))
        b = ServiceClient(rng=random.Random(3))
        assert [a._busy_delay(4.0) for _ in range(5)] == \
            [b._busy_delay(4.0) for _ in range(5)]

    def test_retry_busy_sleeps_the_jittered_hint(self):
        sleeps: list[float] = []
        client = ServiceClient(
            rng=random.Random(1), sleep=sleeps.append
        )
        responses = iter([
            (429, {"Retry-After": "4"}, {"error": "full",
                                         "retry_after": 4.0}),
            (503, {}, {"error": "tier down", "retry_after": 2.0}),
            (202, {}, {"outcome": "queued", "job": {"id": "j1"}}),
        ])
        client._request = lambda *a, **k: next(responses)
        job = client.submit("synthetic", retry_busy=3)
        assert job["id"] == "j1"
        assert len(sleeps) == 2
        assert 2.0 <= sleeps[0] <= 4.0
        assert 1.0 <= sleeps[1] <= 2.0
