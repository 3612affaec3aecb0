"""The FR-FCFS pending request queue of one memory controller.

Table I: 128 entries, unified for reads and writes. The queue maintains
three indexes so every scheduler query is O(1) or O(pending-per-row):

* global FIFO order (for FCFS age),
* per-bank FIFO order (FR-FCFS picks the oldest request per bank),
* per-(bank, row) membership (row-hit detection and pending-RBL counts).

Requests arriving while the queue is full wait in an unbounded ingress
FIFO; the scheduler cannot see them (this is exactly the visibility limit
studied in the paper's Fig. 2/13) and they are admitted in arrival order
as entries free up, receiving their ``enqueue_time`` — the DMS ageing
reference — at admission, per Section IV-A.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Deque, Iterable, Optional

from repro.dram.request import MemoryRequest
from repro.errors import SchedulingError


class PendingQueue:
    """Indexed pending queue for one channel."""

    def __init__(self, capacity: int, num_banks: int) -> None:
        if capacity <= 0:
            raise SchedulingError("queue capacity must be positive")
        self.capacity = capacity
        self.num_banks = num_banks
        # Python dicts preserve insertion order: each dict below is a FIFO
        # with O(1) membership and removal.
        self._fifo: dict[int, MemoryRequest] = {}
        self._by_bank: list[dict[int, MemoryRequest]] = [
            {} for _ in range(num_banks)
        ]
        self._by_row: dict[tuple[int, int], dict[int, MemoryRequest]] = {}
        # Live index of non-empty per-bank buckets, kept sorted so the
        # scheduler scan visits banks in ascending index order (the
        # deterministic tie-break order) without touching empty buckets.
        self._pending_banks: list[int] = []
        self._ingress: Deque[MemoryRequest] = deque()
        self.peak_occupancy = 0
        self.total_admitted = 0
        self.total_deferred = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def full(self) -> bool:
        """Whether the visible queue has no free entry."""
        return len(self._fifo) >= self.capacity

    @property
    def ingress_backlog(self) -> int:
        """Requests waiting (invisible to the scheduler) for a free entry."""
        return len(self._ingress)

    @property
    def empty(self) -> bool:
        """True when neither the queue nor the ingress FIFO holds requests."""
        return not self._fifo and not self._ingress

    # ------------------------------------------------------------------
    def offer(self, request: MemoryRequest, now: float) -> bool:
        """Present an arriving request; returns True if admitted now."""
        if self.full:
            self._ingress.append(request)
            self.total_deferred += 1
            return False
        self._admit(request, now)
        return True

    def _admit(self, request: MemoryRequest, now: float) -> None:
        request.enqueue_time = now
        rid = request.rid
        if rid in self._fifo:
            raise SchedulingError(f"request {rid} enqueued twice")
        self._fifo[rid] = request
        bank_bucket = self._by_bank[request.bank]
        if not bank_bucket:
            insort(self._pending_banks, request.bank)
        bank_bucket[rid] = request
        self._by_row.setdefault(request.bank_row, {})[rid] = request
        self.total_admitted += 1
        if len(self._fifo) > self.peak_occupancy:
            self.peak_occupancy = len(self._fifo)

    def remove(self, request: MemoryRequest, now: float) -> None:
        """Remove a request (issued to DRAM or dropped by AMS)."""
        rid = request.rid
        if rid not in self._fifo:
            raise SchedulingError(f"request {rid} not in pending queue")
        del self._fifo[rid]
        bank_bucket = self._by_bank[request.bank]
        del bank_bucket[rid]
        if not bank_bucket:
            self._pending_banks.remove(request.bank)
        row_bucket = self._by_row[request.bank_row]
        del row_bucket[rid]
        if not row_bucket:
            del self._by_row[request.bank_row]
        # Admit deferred arrivals into the freed entry.
        while self._ingress and not self.full:
            self._admit(self._ingress.popleft(), now)

    # ------------------------------------------------------------------
    # Scheduler queries
    # ------------------------------------------------------------------
    def oldest(self) -> Optional[MemoryRequest]:
        """The oldest visible request (global FCFS head)."""
        return next(iter(self._fifo.values()), None)

    def oldest_for_bank(self, bank: int) -> Optional[MemoryRequest]:
        """The oldest visible request destined to ``bank``."""
        return next(iter(self._by_bank[bank].values()), None)

    def hits_for(self, bank: int, row: int) -> list[MemoryRequest]:
        """Visible requests that would hit the open ``row`` of ``bank``,
        in FIFO order."""
        return list(self._by_row.get((bank, row), {}).values())

    def oldest_hit_for(self, bank: int, row: int) -> Optional[MemoryRequest]:
        """Oldest visible request hitting the open ``row`` of ``bank``."""
        bucket = self._by_row.get((bank, row))
        if not bucket:
            return None
        return next(iter(bucket.values()))

    def row_pending_count(self, bank: int, row: int) -> int:
        """Number of visible requests destined to ``(bank, row)``.

        This is the RBL the scheduler *observes* for a prospective
        activation — the quantity AMS compares against Th_RBL.
        """
        return len(self._by_row.get((bank, row), {}))

    def row_all_reads(self, bank: int, row: int) -> bool:
        """True when every visible request to ``(bank, row)`` is a read.

        AMS only drops rows whose pending requests are all global reads
        (Section IV-C: writes must not be approximated away).
        """
        bucket = self._by_row.get((bank, row))
        if not bucket:
            return False
        return all(not r.is_write for r in bucket.values())

    def row_all_approximable(self, bank: int, row: int) -> bool:
        """True when every visible request to ``(bank, row)`` carries the
        programmer's approximable annotation."""
        bucket = self._by_row.get((bank, row))
        if not bucket:
            return False
        return all(r.approximable for r in bucket.values())

    def pending_per_bank(self) -> dict[int, int]:
        """Visible pending-request count per bank (non-empty banks only).

        A diagnostics snapshot — used by the engine's livelock report —
        not a hot-path query; it copies nothing but the counts.
        """
        return {
            bank: len(bucket)
            for bank, bucket in enumerate(self._by_bank)
            if bucket
        }

    def banks_with_pending(self) -> Iterable[int]:
        """Indices of banks with at least one visible request, ascending.

        Returns the live internal index (no per-call scan or copy);
        callers must treat it as read-only and must not remove requests
        while iterating it.
        """
        return self._pending_banks

    def check_invariants(self) -> None:
        """Validate index consistency (used by property-based tests)."""
        count_bank = sum(len(b) for b in self._by_bank)
        count_row = sum(len(b) for b in self._by_row.values())
        if not (len(self._fifo) == count_bank == count_row):
            raise SchedulingError(
                "index desync: "
                f"fifo={len(self._fifo)} bank={count_bank} row={count_row}"
            )
        live = [b for b, bucket in enumerate(self._by_bank) if bucket]
        if live != self._pending_banks:
            raise SchedulingError(
                f"pending-bank index desync: {self._pending_banks} != {live}"
            )
        for (bank, row), bucket in self._by_row.items():
            for req in bucket.values():
                if req.bank != bank or req.row != row:
                    raise SchedulingError("row index holds mismatched request")
                if req.rid not in self._fifo:
                    raise SchedulingError("row index holds unknown request")
