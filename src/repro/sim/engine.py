"""Discrete-event simulation engine.

Events execute in strict ``(time, insertion sequence)`` order; all times
are in *memory clock cycles* (see DESIGN.md §5). Insertion order breaks
ties, making runs fully deterministic.

The ordering structure is the bucketed timer wheel of
:mod:`repro.sim.events`. It uses tombstone cancellation: :meth:`Engine.at`
returns an opaque handle that :meth:`Engine.cancel` invalidates in O(1)
by blanking the entry's slot; a tombstoned entry is discarded unexecuted
— and uncounted — when it surfaces, so superseded wake-ups cost one pop
instead of a full callback, and :attr:`live_event_count` stays exact.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import WheelScheduler

Event = Callable[[], None]


class Engine:
    """Deterministic event-driven simulation core.

    ``scheduler`` replaces the timer wheel with any object offering its
    ``push``/``cancel``/``head``/``drain``/``live`` interface (the tests
    inject a plain binary heap as the wheel's differential oracle).
    """

    def __init__(self, scheduler=None) -> None:
        self._sched = scheduler if scheduler is not None else WheelScheduler()
        self._push = self._sched.push  # hoisted: one call per event
        self._seq = 0
        self.now: float = 0.0
        self.events_processed = 0
        self.events_cancelled = 0
        #: Optional callable returning extra context (e.g. per-bank
        #: pending-request counts) appended to the ``max_events``
        #: overflow error, so a deadlock is debuggable from the failure
        #: manifest alone. The engine itself knows nothing about DRAM;
        #: :class:`~repro.sim.system.GPUSystem` installs its snapshot.
        self.diagnostics: Optional[Callable[[], str]] = None

    def at(self, time: float, fn: Event) -> int:
        """Schedule ``fn`` to run at absolute ``time`` (clamped to now).

        Returns a handle accepted by :meth:`cancel`.
        """
        if time < self.now:
            time = self.now
        seq = self._seq
        self._seq = seq + 1
        self._push(time, seq, fn)
        return seq

    def after(self, delay: float, fn: Event) -> int:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        # ``at`` inlined: ``now + delay`` never needs its clamp.
        seq = self._seq
        self._seq = seq + 1
        self._push(self.now + delay, seq, fn)
        return seq

    def cancel(self, handle: int) -> None:
        """Invalidate a scheduled event; it is dropped when it surfaces.

        Cancelling a handle that already executed (or was never issued)
        is harmless and leaves the live-event count untouched.
        """
        self._sched.cancel(handle)
        self.events_cancelled += 1

    @property
    def idle(self) -> bool:
        """True when no live events remain."""
        return self._sched.head() is None

    @property
    def live_event_count(self) -> int:
        """Number of scheduled-but-unexecuted events, cancellations
        excluded. Telemetry's window recorder uses this to decide
        whether re-arming itself would keep an otherwise-drained
        schedule alive."""
        return self._sched.live

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (monotonic, includes cancelled).

        ``events_processed`` is folded in from a hot-loop local only
        when :meth:`run` returns, so this is the counter to sample for
        *live* activity telemetry — reading it costs nothing on the
        event loop.
        """
        return self._seq

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when idle."""
        entry = self._sched.head()
        return entry[0] if entry is not None else None

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Process events until the schedule drains, ``until`` is passed,
        or ``max_events`` have run (a deadlock/runaway guard).

        The loop itself lives in the scheduler's ``drain`` (which
        inlines its own structures); this wrapper folds the processed
        count in and raises the livelock guard.
        """
        processed, overflowed = self._sched.drain(self, until, max_events)
        self.events_processed += processed
        if overflowed:
            raise SimulationError(self._overflow_message(max_events))
        if until is not None and self.now < until:
            self.now = until

    def _overflow_message(self, max_events: int) -> str:
        """Diagnostic snapshot for the ``max_events`` livelock guard."""
        detail = (
            f"exceeded max_events={max_events}; possible simulation "
            f"livelock (cycle={self.now:.0f}, "
            f"live_events={self._sched.live}, "
            f"total_processed={self.events_processed})"
        )
        if self.diagnostics is not None:
            # A broken diagnostics probe must never mask the real error.
            try:
                detail += "; " + self.diagnostics()
            except Exception as exc:
                detail += f"; (diagnostics probe failed: {exc!r})"
        return detail
