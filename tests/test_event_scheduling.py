"""Property suites for the engine's timer wheel and the warm pool.

Two families:

* **Wheel vs. heap equivalence** — the bucketed timer wheel is the
  engine's scheduler purely as an optimization; a single global binary
  heap (:class:`HeapScheduler`, below) is the reference. Hypothesis
  drives both through identical schedules (fractional times,
  past-clamped times, overflow beyond the wheel horizon, nested pushes
  from callbacks, cancellation — including cancellation *during* the
  run — plus ``until`` cutoffs and the ``max_events`` guard) and asserts
  the execution logs are identical event for event.
* **Warm-pool determinism** — a matrix simulated serially and over warm
  worker processes must produce field-identical reports (the codec
  round trip is load-bearing here).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import WHEEL_HORIZON, Entry, Event


class HeapScheduler:
    """Single global binary heap ordered by ``(time, seq)``: the obvious
    scheduler, kept here as the wheel's differential oracle. Same
    interface and tombstone cancellation as
    :class:`~repro.sim.events.WheelScheduler`."""

    __slots__ = ("_heap", "_entries", "live")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        #: handle (seq) -> live entry, for O(1) tombstone cancellation.
        self._entries: dict[int, Entry] = {}
        #: Live (scheduled, uncancelled, unexecuted) entry count.
        self.live = 0

    def push(self, time: float, seq: int, fn: Event) -> None:
        entry = [time, seq, fn]
        self._entries[seq] = entry
        heappush(self._heap, entry)
        self.live += 1

    def cancel(self, seq: int) -> bool:
        entry = self._entries.pop(seq, None)
        if entry is None:
            return False
        entry[2] = None
        self.live -= 1
        return True

    def head(self) -> Optional[Entry]:
        heap = self._heap
        while heap:
            if heap[0][2] is None:
                heappop(heap)
            else:
                return heap[0]
        return None

    def drain(
        self,
        engine,
        until: Optional[float],
        max_events: Optional[int],
    ) -> tuple[int, bool]:
        """Run the event loop; returns ``(processed, hit_max_events)``.

        Semantically identical to repeated head/pop_head calls — same
        ``(time, seq)`` order, same ``until`` cutoff *before* the pop —
        with the backend internals inlined into the loop.
        """
        heap = self._heap
        entries = self._entries
        processed = 0
        while heap:
            entry = heap[0]
            fn = entry[2]
            if fn is None:
                heappop(heap)
                continue
            time = entry[0]
            if until is not None and time > until:
                break
            heappop(heap)
            del entries[entry[1]]
            self.live -= 1
            engine.now = time
            fn()
            processed += 1
            if max_events is not None and processed >= max_events:
                return processed, True
        return processed, False



def _engine(backend: str) -> Engine:
    """An engine on the wheel (``"wheel"``) or the oracle (``"heap"``)."""
    return Engine(HeapScheduler()) if backend == "heap" else Engine()


# Times span the wheel generously: fractional sub-cycle offsets (the
# core-to-memory clock ratio makes most real event times non-integral),
# plus values far beyond the horizon to force the overflow heap and the
# batch-advance path.
_times = st.one_of(
    st.integers(0, 50).map(float),
    st.floats(min_value=0.0, max_value=3.0 * WHEEL_HORIZON,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=40.0,
              allow_nan=False, allow_infinity=False),
)

_delays = st.floats(min_value=0.0, max_value=2.0 * WHEEL_HORIZON,
                    allow_nan=False, allow_infinity=False)


@st.composite
def _schedules(draw):
    """A schedule: initial events with nested pushes and cancellations.

    Each event is ``(time, nested_delays, cancel_target)``: when it
    runs, it schedules a follow-up per nested delay and (optionally)
    cancels the initial event ``cancel_target`` — which may already
    have run or been cancelled, both no-ops that must stay no-ops on
    either backend.
    """
    n = draw(st.integers(min_value=1, max_value=30))
    events = []
    for _ in range(n):
        time = draw(_times)
        nested = draw(st.lists(_delays, max_size=2))
        cancel_target = draw(
            st.one_of(st.none(), st.integers(0, n - 1))
        )
        events.append((time, nested, cancel_target))
    pre_cancels = draw(
        st.lists(st.integers(0, n - 1), max_size=n, unique=True)
    )
    return events, pre_cancels


def _execute(backend, events, pre_cancels, *, until=None, max_events=None):
    """Run one schedule on ``backend``; returns every observable."""
    engine = _engine(backend)
    log: list[tuple[float, object]] = []
    handles: list[int] = []

    def make_callback(label, nested, cancel_target):
        def callback() -> None:
            log.append((engine.now, label))
            if cancel_target is not None and cancel_target < len(handles):
                engine.cancel(handles[cancel_target])
            for j, delay in enumerate(nested):
                engine.after(delay, make_callback((label, j), (), None))
        return callback

    for i, (time, nested, cancel_target) in enumerate(events):
        handles.append(
            engine.at(time, make_callback(i, nested, cancel_target))
        )
    for idx in pre_cancels:
        engine.cancel(handles[idx])
    overflowed = False
    try:
        engine.run(until=until, max_events=max_events)
    except SimulationError:
        overflowed = True
    return (
        log, overflowed, engine.events_processed,
        engine.live_event_count, engine.now,
    )


class TestWheelHeapEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(_schedules())
    def test_full_drain_order_identical(self, schedule) -> None:
        events, pre_cancels = schedule
        assert (
            _execute("wheel", events, pre_cancels)
            == _execute("heap", events, pre_cancels)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        _schedules(),
        st.floats(min_value=0.0, max_value=2.0 * WHEEL_HORIZON,
                  allow_nan=False),
    )
    def test_until_cutoff_identical(self, schedule, until) -> None:
        events, pre_cancels = schedule
        assert (
            _execute("wheel", events, pre_cancels, until=until)
            == _execute("heap", events, pre_cancels, until=until)
        )

    @settings(max_examples=100, deadline=None)
    @given(_schedules(), st.integers(min_value=1, max_value=20))
    def test_max_events_guard_identical(self, schedule, cap) -> None:
        events, pre_cancels = schedule
        assert (
            _execute("wheel", events, pre_cancels, max_events=cap)
            == _execute("heap", events, pre_cancels, max_events=cap)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        _schedules(),
        st.floats(min_value=0.0, max_value=WHEEL_HORIZON,
                  allow_nan=False),
    )
    def test_resumed_run_identical(self, schedule, until) -> None:
        """``run(until=...)`` then ``run()`` — the two-phase drive the
        telemetry windows use — stays equivalent across backends."""
        events, pre_cancels = schedule

        def two_phase(backend):
            engine = _engine(backend)
            log: list[tuple[float, int]] = []
            for i, (time, _, _) in enumerate(events):
                engine.at(time, lambda i=i: log.append((engine.now, i)))
            for idx in pre_cancels:
                engine.cancel(idx)
            engine.run(until=until)
            midpoint = list(log)
            engine.run()
            return midpoint, log, engine.now, engine.events_processed

        assert two_phase("wheel") == two_phase("heap")


class TestWarmPoolDeterminism:
    def test_serial_pooled_field_identical(self) -> None:
        """One matrix, two execution modes, byte-identical reports."""
        from repro.harness.runner import Runner
        from repro.harness.schemes import dms_only, evaluation_schemes

        apps = ["SCP", "GEMM"]
        schemes = {
            "Baseline": evaluation_schemes()["Baseline"],
            "DMS(128)": dms_only(128),
        }

        def run(**kwargs):
            runner = Runner(
                scale=0.1, seed=7, cache=None, verbose=False, **kwargs
            )
            result = runner.run_matrix(apps, schemes)
            runner.close()
            return {
                cell: report.to_dict() for cell, report in result.items()
            }

        serial = run(jobs=1)
        pooled = run(jobs=4)
        assert serial == pooled

    def test_pool_survives_across_matrices(self) -> None:
        """The second matrix on one runner reuses the warm workers."""
        from repro.harness.runner import Runner
        from repro.harness.schemes import dms_only, evaluation_schemes

        runner = Runner(scale=0.1, seed=7, cache=None, verbose=False,
                        jobs=2)
        runner.prewarm()
        pool = runner._pool
        assert pool is not None and not pool.closed
        first = runner.run_matrix(
            ["SCP", "GEMM"],
            {"Baseline": evaluation_schemes()["Baseline"]},
        )
        second = runner.run_matrix(
            ["SCP", "GEMM"], {"DMS(128)": dms_only(128)}
        )
        assert runner._pool is pool  # no teardown between matrices
        assert first and second
        runner.close()
        assert pool.closed
