"""Property suites for the engine's event order and the warm pool.

Two families:

* **Engine vs. naive oracle** — the engine's one contract is the event
  order ``(time, insertion seq)``. :class:`NaiveEngine`, below, spells
  that order out with no heap: each step scans every live event for
  the smallest ``(time, seq)``. Hypothesis drives both through
  identical schedules (fractional times, past-clamped times, nested
  pushes from callbacks, cancellation — including cancellation
  *during* the run and of handles that already ran or were already
  cancelled — plus the ``max_events`` guard) and asserts every
  observable is identical event for event.
* **Warm-pool determinism** — a matrix simulated serially and over warm
  worker processes must produce field-identical reports (the codec
  round trip is load-bearing here).
"""

from __future__ import annotations

from typing import Callable, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine

Event = Callable[[], None]


class NaiveEngine:
    """The engine's API over a plain ``seq -> (time, fn)`` dict; ``run``
    scans it for the smallest ``(time, seq)`` on every step. Shares no
    code with :class:`~repro.sim.engine.Engine`."""

    def __init__(self) -> None:
        self._events: dict[int, tuple[float, Event]] = {}
        self._seq = 0
        self.now: float = 0.0
        self.events_processed = 0
        self.events_cancelled = 0

    def at(self, time: float, fn: Event) -> int:
        seq = self._seq
        self._seq += 1
        self._events[seq] = (max(time, self.now), fn)
        return seq

    def after(self, delay: float, fn: Event) -> int:
        assert delay >= 0
        return self.at(self.now + delay, fn)

    def cancel(self, handle: int) -> None:
        if self._events.pop(handle, None) is not None:
            self.events_cancelled += 1

    @property
    def live_event_count(self) -> int:
        return len(self._events)

    def run(self, max_events: Optional[int] = None) -> None:
        events = self._events
        while events:
            seq = min(events, key=lambda s: (events[s][0], s))
            self.now, fn = events.pop(seq)
            fn()
            self.events_processed += 1
            if max_events is not None and self.events_processed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")


#: Upper bound of the drawn times and delays: wide enough that a
#: schedule mixes dense same-cycle ties with sparse far-future events.
_SPAN = 1000.0

# Fractional sub-cycle offsets matter: the core-to-memory clock ratio
# makes most real event times non-integral. Small integers force ties.
_times = st.one_of(
    st.integers(0, 50).map(float),
    st.floats(min_value=0.0, max_value=_SPAN,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=40.0,
              allow_nan=False, allow_infinity=False),
)

_delays = st.floats(min_value=0.0, max_value=_SPAN,
                    allow_nan=False, allow_infinity=False)


@st.composite
def _schedules(draw):
    """A schedule: initial events with nested pushes and cancellations.

    Each event is ``(time, nested, cancel_target)``: when it runs, it
    schedules a follow-up per nested ``("after", delay)`` or ``("at",
    time)`` — an absolute time that is often already past and clamps to
    ``now`` — and (optionally) cancels the initial event
    ``cancel_target``, which may already have run or been cancelled,
    both no-ops that must stay no-ops.
    """
    n = draw(st.integers(min_value=1, max_value=30))
    events = []
    for _ in range(n):
        time = draw(_times)
        nested = draw(st.lists(
            st.one_of(st.tuples(st.just("after"), _delays),
                      st.tuples(st.just("at"), _times)),
            max_size=2,
        ))
        cancel_target = draw(
            st.one_of(st.none(), st.integers(0, n - 1))
        )
        events.append((time, nested, cancel_target))
    pre_cancels = draw(
        st.lists(st.integers(0, n - 1), max_size=n, unique=True)
    )
    return events, pre_cancels


def _execute(make_engine, events, pre_cancels, *, max_events=None):
    """Run one schedule on a fresh engine; returns every observable."""
    engine = make_engine()
    log: list[tuple[float, object]] = []
    handles: list[int] = []

    def make_callback(label, nested, cancel_target):
        def callback() -> None:
            log.append((engine.now, label))
            if cancel_target is not None and cancel_target < len(handles):
                engine.cancel(handles[cancel_target])
            for j, (method, when) in enumerate(nested):
                getattr(engine, method)(
                    when, make_callback((label, j), (), None)
                )
        return callback

    for i, (time, nested, cancel_target) in enumerate(events):
        handles.append(
            engine.at(time, make_callback(i, nested, cancel_target))
        )
    for idx in pre_cancels:
        engine.cancel(handles[idx])
    overflowed = False
    try:
        engine.run(max_events=max_events)
    except SimulationError:
        overflowed = True
    return (
        log, overflowed, engine.events_processed,
        engine.events_cancelled, engine.live_event_count, engine.now,
    )


class TestWheelHeapEquivalence:
    """The engine's heap against :class:`NaiveEngine`."""

    @settings(max_examples=200, deadline=None)
    @given(_schedules())
    def test_full_drain_order_identical(self, schedule) -> None:
        events, pre_cancels = schedule
        assert (
            _execute(Engine, events, pre_cancels)
            == _execute(NaiveEngine, events, pre_cancels)
        )

    @settings(max_examples=100, deadline=None)
    @given(_schedules(), st.integers(min_value=1, max_value=20))
    def test_max_events_guard_identical(self, schedule, cap) -> None:
        events, pre_cancels = schedule
        assert (
            _execute(Engine, events, pre_cancels, max_events=cap)
            == _execute(NaiveEngine, events, pre_cancels, max_events=cap)
        )


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
        first = runner.run_matrix(
            ["SCP", "GEMM"],
            {"Baseline": evaluation_schemes()["Baseline"]},
        )
        pool = runner._pool
        assert pool is not None and not pool.closed
        second = runner.run_matrix(
            ["SCP", "GEMM"], {"DMS(128)": dms_only(128)}
        )
        assert runner._pool is pool  # no teardown between matrices
        assert first and second
        runner.close()
        assert pool.closed
