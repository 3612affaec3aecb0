"""Set-associative write-back L2 cache slice (one per memory partition).

Geometry follows Table I: 128 KB, 8-way, 128-byte lines per memory
channel. Policy choices (documented in DESIGN.md §5):

* write-back, write-allocate;
* a *fully written* line allocates without fetching from DRAM (GPU
  coalesced stores write whole 128-byte sectors), so streaming stores do
  not generate read traffic;
* LRU replacement;
* misses to a line with an outstanding fill merge in the MSHR file.

The cache is indexed by *line address* (byte address // line size). The
set index uses the low bits of the line address **after removing the
channel interleaving**, supplied by the caller as ``local_line_id`` — but
for simplicity and because each slice only ever sees its own channel's
addresses, we hash the global line address directly; the distribution
across sets is equivalent.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

from repro.cache.mshr import MSHRFile
from repro.config.gpu import L2Config


class _DirtyFill:
    """Sentinel waiter marking that a pending fill must install dirty
    (a store merged into the outstanding read)."""

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "<DIRTY_FILL>"


#: Pass as ``waiter`` for a partial-store miss: on fill, the line installs
#: dirty and the sentinel is filtered out of the returned waiter list.
DIRTY_FILL = _DirtyFill()


class L2Outcome(enum.Enum):
    """Result of an L2 access."""

    HIT = "hit"
    MISS = "miss"  # new fill required -> caller sends a DRAM read
    MISS_MERGED = "merged"  # fill already outstanding -> wait
    MISS_NO_FETCH = "no_fetch"  # full-line store allocate, no DRAM read
    STALL = "stall"  # MSHR file full -> caller must retry


@dataclass(frozen=True, slots=True)
class L2AccessResult:
    """Outcome of :meth:`L2Cache.access` plus any side effects."""

    outcome: L2Outcome
    #: Line address of a dirty eviction (a DRAM write-back), if any.
    writeback_line: Optional[int] = None


# Every outcome without a write-back is one shared immutable result, so
# an access allocates a result only when it evicts a dirty line.
_HIT = L2AccessResult(L2Outcome.HIT)
_MISS = L2AccessResult(L2Outcome.MISS)
_MISS_MERGED = L2AccessResult(L2Outcome.MISS_MERGED)
_MISS_NO_FETCH = L2AccessResult(L2Outcome.MISS_NO_FETCH)
_STALL = L2AccessResult(L2Outcome.STALL)


class L2Cache:
    """One L2 slice."""

    def __init__(self, config: L2Config) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.associativity
        self.line_bytes = config.line_bytes
        # Per-set LRU: OrderedDict maps a resident line address to its
        # dirty flag, most-recently-used at the end.
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.mshrs = MSHRFile(config.mshr_entries)
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.fills = 0

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        """Line address (byte address with the offset bits dropped)."""
        return addr // self.line_bytes

    def set_of(self, line_addr: int) -> int:
        """Set index of a line address."""
        return line_addr % self.num_sets

    # ------------------------------------------------------------------
    # Main access path
    # ------------------------------------------------------------------
    def access(
        self,
        addr: int,
        *,
        is_write: bool,
        full_line: bool = False,
        waiter: Any = None,
    ) -> L2AccessResult:
        """Perform one access; returns the outcome and any write-back.

        ``waiter`` is an opaque token recorded in the MSHR on a miss and
        handed back by :meth:`fill`.
        """
        line = self.line_of(addr)
        way = self._sets[self.set_of(line)]
        if line in way:
            way.move_to_end(line)
            if is_write:
                way[line] = True
            self.hits += 1
            return _HIT

        self.misses += 1
        mshrs = self.mshrs
        if mshrs.lookup(line) is not None:
            mshrs.merge(line, waiter)
            return _MISS_MERGED

        if is_write and full_line:
            # Allocate directly; no fetch needed for a fully written line.
            writeback = self._insert(line, dirty=True)
            if writeback is None:
                return _MISS_NO_FETCH
            return L2AccessResult(L2Outcome.MISS_NO_FETCH, writeback)

        if mshrs.full:
            return _STALL
        mshrs.allocate(line, waiter)
        return _MISS

    def fill(
        self, addr: int, *, mark_dirty: bool = False
    ) -> tuple[list[Any], Optional[int]]:
        """Complete an outstanding fill.

        Returns ``(waiters, writeback_line)`` where ``writeback_line`` is
        the line address of a dirty victim to send to DRAM, if any. A
        :data:`DIRTY_FILL` sentinel among the waiters forces a dirty
        install and is filtered from the returned list.
        """
        line = self.line_of(addr)
        waiters = self.mshrs.complete(line)
        if DIRTY_FILL in waiters:
            mark_dirty = True
            waiters = [w for w in waiters if w is not DIRTY_FILL]
        writeback = self._insert(line, dirty=mark_dirty)
        self.fills += 1
        return waiters, writeback

    def cancel_fill(self, addr: int) -> list[Any]:
        """Retire an outstanding fill *without* installing the line.

        Used for AMS-dropped requests: the paper's VP answers the waiting
        cores directly and only DRAM-served data ever fills the L2.
        """
        line = self.line_of(addr)
        waiters = self.mshrs.complete(line)
        return [w for w in waiters if w is not DIRTY_FILL]

    def _insert(self, line: int, *, dirty: bool) -> Optional[int]:
        way = self._sets[self.set_of(line)]
        writeback = None
        if len(way) >= self.assoc:
            victim, victim_dirty = way.popitem(last=False)
            if victim_dirty:
                self.writebacks += 1
                writeback = victim
        way[line] = dirty
        return writeback

    # ------------------------------------------------------------------
    # Queries used by the value-prediction unit
    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        """Whether the line holding ``addr`` is resident."""
        line = self.line_of(addr)
        return line in self._sets[self.set_of(line)]

    def find_nearest_resident(
        self, addr: int, radius_sets: int
    ) -> Optional[int]:
        """Nearest-address resident line within ``radius_sets`` of home.

        Implements the paper's VP search (Section IV-D): look in the home
        set and ``radius_sets`` sets on each side, exploiting the existing
        associative search within each set, and return the line address
        with the smallest absolute address distance to ``addr``'s line.
        Returns ``None`` when no candidate is resident.
        """
        target = self.line_of(addr)
        home = self.set_of(target)
        best: Optional[int] = None
        best_dist = float("inf")
        for delta in range(-radius_sets, radius_sets + 1):
            way = self._sets[(home + delta) % self.num_sets]
            for line in way:
                dist = abs(line - target)
                if dist < best_dist:
                    best, best_dist = line, dist
        return best

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of resident lines across all sets."""
        return sum(len(way) for way in self._sets)
