"""Miss-status holding registers (MSHRs) for the L2 slices.

An MSHR tracks one outstanding line fill and the set of consumers waiting
for it. Requests to a line that already has an MSHR merge instead of
generating a second DRAM request (Table I: "inter-warp merging enabled").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError


@dataclass(slots=True)
class MSHREntry:
    """One outstanding fill and its waiters (opaque consumer tokens)."""

    line_addr: int
    waiters: list[Any] = field(default_factory=list)


class MSHRFile:
    """A fixed-capacity file of MSHR entries, keyed by line address."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError("MSHR capacity must be positive")
        self.capacity = capacity
        self._entries: dict[int, MSHREntry] = {}
        self.peak_occupancy = 0
        self.merges = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        """True when no new line miss can be tracked."""
        return len(self._entries) >= self.capacity

    def lookup(self, line_addr: int) -> MSHREntry | None:
        """The entry for ``line_addr``, if a fill is outstanding."""
        return self._entries.get(line_addr)

    def allocate(self, line_addr: int, waiter: Any) -> MSHREntry:
        """Start tracking a new outstanding fill.

        Raises :class:`SimulationError` if the file is full or the line
        already has an entry (callers must merge via :meth:`merge`).
        """
        if line_addr in self._entries:
            raise SimulationError(
                f"MSHR already allocated for line {line_addr:#x}"
            )
        if self.full:
            raise SimulationError("MSHR file is full")
        entry = MSHREntry(line_addr, [waiter])
        self._entries[line_addr] = entry
        occupancy = len(self._entries)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        return entry

    def merge(self, line_addr: int, waiter: Any) -> MSHREntry:
        """Attach ``waiter`` to the outstanding fill for ``line_addr``."""
        entry = self._entries.get(line_addr)
        if entry is None:
            raise SimulationError(
                f"no outstanding fill for line {line_addr:#x}"
            )
        entry.waiters.append(waiter)
        self.merges += 1
        return entry

    def complete(self, line_addr: int) -> list[Any]:
        """Retire the fill for ``line_addr`` and return its waiters."""
        entry = self._entries.pop(line_addr, None)
        if entry is None:
            raise SimulationError(
                f"completing a fill with no MSHR: line {line_addr:#x}"
            )
        return entry.waiters
