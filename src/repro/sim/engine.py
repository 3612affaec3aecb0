"""Discrete-event simulation engine.

Events execute in strict ``(time, insertion sequence)`` order; all times
are in *memory clock cycles* (see DESIGN.md §5). Insertion order breaks
ties, making runs fully deterministic.

The order is one binary heap (:mod:`heapq`) of ``(time, seq)`` keys;
``seq`` is unique, so the heap defines the total order directly. The
callbacks live beside it in a ``seq -> fn`` dict of the live events,
which makes cancellation an O(1) tombstone: :meth:`Engine.at` returns
``seq`` as a handle, :meth:`Engine.cancel` drops its callback, and the
key left in the heap is popped unexecuted — and uncounted — when it
surfaces. Superseded wake-ups thus cost one pop instead of a callback,
and :attr:`live_event_count` is the dict's exact size.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from repro.errors import SimulationError

Event = Callable[[], None]

_INF = float("inf")


class Engine:
    """Deterministic event-driven simulation core."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int]] = []
        #: seq -> callback of every scheduled, uncancelled, unexecuted
        #: event; a heap key whose seq is missing here is a tombstone.
        self._pending: dict[int, Event] = {}
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
        elif not time < _INF:  # a NaN breaks the heap order, inf the clock
            raise SimulationError(f"non-finite event time: {time!r}")
        seq = self._seq
        self._seq = seq + 1
        self._pending[seq] = fn
        heappush(self._heap, (time, seq))
        return seq

    def after(self, delay: float, fn: Event) -> int:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if not 0 <= delay < _INF:
            raise SimulationError(
                f"negative delay: {delay}" if delay < 0
                else f"non-finite event delay: {delay!r}"
            )
        # ``at`` inlined: ``now + delay`` never needs its clamp.
        seq = self._seq
        self._seq = seq + 1
        self._pending[seq] = fn
        heappush(self._heap, (self.now + delay, seq))
        return seq

    def cancel(self, handle: int) -> None:
        """Invalidate a scheduled event; it is dropped when it surfaces.

        Cancelling a handle that already executed, was already
        cancelled or was never issued is harmless: it changes neither
        the live-event count nor ``events_cancelled``.
        """
        if self._pending.pop(handle, None) is not None:
            self.events_cancelled += 1

    @property
    def live_event_count(self) -> int:
        """Number of scheduled-but-unexecuted events, cancellations
        excluded. Telemetry's window recorder uses this to decide
        whether re-arming itself would keep an otherwise-drained
        schedule alive."""
        return len(self._pending)

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (monotonic, includes cancelled).

        ``events_processed`` is folded in from a hot-loop local only
        when :meth:`run` returns, so this is the counter to sample for
        *live* activity telemetry — reading it costs nothing on the
        event loop.
        """
        return self._seq

    def run(self, max_events: Optional[int] = None) -> None:
        """Process events until the schedule drains, or raise once
        ``max_events`` have run (a deadlock/runaway guard)."""
        heap = self._heap
        take = self._pending.pop
        processed = 0
        while heap:
            time, seq = heappop(heap)
            fn = take(seq, None)
            if fn is None:  # tombstone
                continue
            self.now = time
            fn()
            processed += 1
            if max_events is not None and processed >= max_events:
                self.events_processed += processed
                raise SimulationError(self._overflow_message(max_events))
        self.events_processed += processed

    def _overflow_message(self, max_events: int) -> str:
        """Diagnostic snapshot for the ``max_events`` livelock guard."""
        detail = (
            f"exceeded max_events={max_events}; possible simulation "
            f"livelock (cycle={self.now:.0f}, "
            f"live_events={len(self._pending)}, "
            f"total_processed={self.events_processed})"
        )
        if self.diagnostics is not None:
            # A broken diagnostics probe must never mask the real error.
            try:
                detail += "; " + self.diagnostics()
            except Exception as exc:
                detail += f"; (diagnostics probe failed: {exc!r})"
        return detail
