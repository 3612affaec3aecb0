"""Event scheduling for the simulation engine: a bucketed timer wheel.

:class:`WheelScheduler` keeps a ring of ``horizon`` one-cycle buckets
indexed by the quantized event time (``int(time) & mask``), each bucket
a tiny binary heap ordered by the exact ``(time, seq)`` key, plus an
overflow heap for events beyond the horizon. Popping scans forward from
the cursor bucket, which *batch-advances* the wheel across empty cycles
instead of sifting a global heap per event; almost every DRAM timing
event lands within a few dozen cycles of ``now``, so the scan is short
and each bucket heap holds a handful of entries (see DESIGN.md §5). The
Hypothesis suite in ``tests/test_event_scheduling.py`` checks it
executes any schedule in the same order as a single global ``heapq``.

Cancellation is an O(1) *slot tombstone*: ``cancel`` looks the handle
up in the live-entry table, blanks the entry's callback in place, and
drops it from the table — no heap surgery, no set scan when events
surface, and the live count stays exact (cancelling an already-executed
handle is a no-op). Tombstoned slots are discarded unexecuted when they
reach the head.

Entries are mutable 3-lists ``[time, seq, fn]`` so the tombstone can be
written in place; list comparison never reaches the callback slot
because ``seq`` is unique.

:meth:`WheelScheduler.head` prunes tombstones and returns the next live
entry without removing it, for idle/peek queries. The engine's run loop
goes through :meth:`WheelScheduler.drain`, which inlines the wheel's
structures: the dispatch overhead of a head/pop call pair per event is
measurable at the simulator's event rates.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from repro.errors import SimulationError

Event = Callable[[], None]

#: Entry = [time, seq, fn]; ``fn is None`` marks a tombstone.
Entry = list

#: Default wheel horizon (buckets / cycles). Power of two. Must cover
#: the common DRAM timing windows (tRC=40, data bursts, interconnect
#: hops); longer-range events (tREFI, profiling windows) overflow to a
#: heap and are folded back in as the cursor advances.
WHEEL_HORIZON = 512


class WheelScheduler:
    """Bucketed timer wheel keyed by quantized cycle (see module doc)."""

    __slots__ = (
        "_buckets", "_mask", "_horizon", "_base", "_overflow",
        "_entries", "_in_wheel", "live",
    )

    def __init__(self, horizon: int = WHEEL_HORIZON) -> None:
        if horizon <= 0 or horizon & (horizon - 1):
            raise SimulationError(
                f"wheel horizon must be a power of two, got {horizon}"
            )
        self._buckets: list[list[Entry]] = [[] for _ in range(horizon)]
        self._mask = horizon - 1
        self._horizon = horizon
        #: Quantized cycle of the cursor bucket; buckets cover
        #: ``[base, base + horizon)``.
        self._base = 0
        self._overflow: list[Entry] = []
        self._entries: dict[int, Entry] = {}
        #: Entries (live + tombstoned) currently in wheel buckets.
        self._in_wheel = 0
        self.live = 0

    def push(self, time: float, seq: int, fn: Event) -> None:
        entry = [time, seq, fn]
        self._entries[seq] = entry
        self.live += 1
        base = self._base
        if time - base < self._horizon:
            q = int(time)
            if q < base:  # clamped-to-now events land on the cursor
                q = base
            heappush(self._buckets[q & self._mask], entry)
            self._in_wheel += 1
        else:
            if time != time or time == float("inf"):
                raise SimulationError(f"non-finite event time: {time!r}")
            heappush(self._overflow, entry)

    def cancel(self, seq: int) -> bool:
        entry = self._entries.pop(seq, None)
        if entry is None:
            return False
        entry[2] = None
        self.live -= 1
        return True

    def head(self) -> Optional[Entry]:
        if self.live == 0:
            return None
        buckets = self._buckets
        mask = self._mask
        horizon = self._horizon
        overflow = self._overflow
        base = self._base
        while True:
            # Fold overflow entries that the advancing cursor has
            # brought inside the horizon back into the wheel.
            while overflow and overflow[0][0] - base < horizon:
                entry = heappop(overflow)
                if entry[2] is None:
                    continue
                q = int(entry[0])
                if q < base:
                    q = base
                heappush(buckets[q & mask], entry)
                self._in_wheel += 1
            bucket = buckets[base & mask]
            while bucket:
                if bucket[0][2] is None:
                    heappop(bucket)
                    self._in_wheel -= 1
                else:
                    self._base = base
                    return bucket[0]
            if not bucket:
                if self._in_wheel == 0:
                    if not overflow:
                        self._base = base
                        return None  # only tombstones remained
                    # Batch-advance: jump the cursor straight to the
                    # earliest overflow entry instead of stepping.
                    q = int(overflow[0][0])
                    if q > base:
                        base = q
                        continue
                base += 1

    def drain(
        self,
        engine,
        until: Optional[float],
        max_events: Optional[int],
    ) -> tuple[int, bool]:
        """Run the event loop; returns ``(processed, hit_max_events)``.

        The head/pop protocol inlined: fold eligible overflow entries,
        advance the cursor over empty/tombstoned buckets, execute the
        cursor bucket's heap in exact ``(time, seq)`` order. ``_base``
        is written back before every callback — the callback may push,
        and a push quantizes against the *current* cursor.
        """
        buckets = self._buckets
        mask = self._mask
        horizon = self._horizon
        overflow = self._overflow
        entries = self._entries
        processed = 0
        while self.live:
            base = self._base
            while overflow and overflow[0][0] - base < horizon:
                entry = heappop(overflow)
                if entry[2] is None:
                    continue
                q = int(entry[0])
                if q < base:
                    q = base
                heappush(buckets[q & mask], entry)
                self._in_wheel += 1
            bucket = buckets[base & mask]
            if not bucket:
                if self._in_wheel == 0:
                    if not overflow:
                        break
                    # Batch-advance: jump the cursor straight to the
                    # earliest overflow entry instead of stepping.
                    q = int(overflow[0][0])
                    if q > base:
                        self._base = q
                        continue
                self._base = base + 1
                continue
            # Execute this bucket's events in (time, seq) order; the
            # cursor cannot move while its bucket has live entries (a
            # push during a callback lands at or after the cursor).
            while bucket:
                entry = bucket[0]
                fn = entry[2]
                if fn is None:
                    heappop(bucket)
                    self._in_wheel -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    return processed, False
                heappop(bucket)
                self._in_wheel -= 1
                del entries[entry[1]]
                self.live -= 1
                engine.now = time
                fn()
                processed += 1
                if max_events is not None and processed >= max_events:
                    return processed, True
        return processed, False
