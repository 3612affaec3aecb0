"""Per-content-key circuit breaker for the service worker tier.

A *poison spec* — one whose simulation deterministically crashes, kills
its worker process, or times out on every attempt — would otherwise
burn the whole tier: every resubmission re-runs it (failures are never
cached), each run consumes ``1 + retries`` attempts, and worker-killing
specs force a process respawn per attempt.  The breaker quarantines
such specs at admission instead, following the classic three-state
design:

* **closed** (default) — submissions pass through.  Terminal failures
  of the key are counted; :attr:`~CircuitBreaker.threshold` consecutive
  failures trip the breaker.
* **open** — submissions for the key are rejected immediately with a
  structured HTTP 422 (``error_type: "CircuitOpen"``), carrying the
  failure count, the last recorded error, and a ``Retry-After`` equal
  to the remaining cooldown.  The worker tier never sees the spec.
* **half-open** — after :attr:`~CircuitBreaker.cooldown` seconds, one
  trial submission is admitted.  Success closes the circuit (the spec
  was a transient victim, e.g. of a chaos window); failure reopens it
  for a full cooldown.  Concurrent submissions during the trial are
  still rejected, so a recovering key costs at most one probe.

Any terminal failure counts — worker-killing ones (``exit``/hang) are
simply the expensive case the breaker exists for.  A success through
any path (including a cache hit racing in from another daemon) resets
the key.  The clock is injectable so tests can step time
deterministically instead of sleeping through cooldowns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Breaker states (stringly typed: they travel in JSON documents).
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


@dataclass
class BreakerEntry:
    """Failure-tracking state of one content key."""

    state: str = STATE_CLOSED
    #: Consecutive terminal failures since the last success.
    failures: int = 0
    #: Of those, failures that killed or hung a worker process.
    fatal_failures: int = 0
    #: Clock reading when the breaker last opened.
    opened_at: float = 0.0
    #: Structured record (``CellFailure.to_dict()``) of the last failure.
    last_error: Optional[dict] = None
    #: A half-open probe is currently executing.
    trial_pending: bool = False

    def to_dict(self) -> dict:
        doc = {
            "state": self.state,
            "failures": self.failures,
            "fatal_failures": self.fatal_failures,
        }
        if self.last_error is not None:
            doc["last_error"] = {
                "error_type": self.last_error.get("error_type"),
                "message": self.last_error.get("message"),
            }
        return doc


class RejectedByBreaker(Exception):
    """Internal signal: admission must answer 422 for this key."""

    def __init__(self, key: str, entry: BreakerEntry, retry_after: float):
        super().__init__(
            f"circuit open for spec {key[:16]}…: "
            f"{entry.failures} consecutive failure(s)"
        )
        self.key = key
        self.entry = entry
        self.retry_after = retry_after


class CircuitBreaker:
    """Content-key keyed breaker map with deterministic time injection."""

    def __init__(
        self,
        *,
        threshold: int = 3,
        cooldown: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("breaker cooldown must be >= 0")
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self._entries: dict[str, BreakerEntry] = {}
        #: Lifetime count of circuits tripped (for /v1/stats).
        self.opened_total = 0
        #: Lifetime count of submissions rejected while open.
        self.rejected_total = 0

    # ------------------------------------------------------------------
    def entry(self, key: str) -> Optional[BreakerEntry]:
        """The tracked entry for ``key`` (None when never failed)."""
        return self._entries.get(key)

    def check(self, key: str) -> bool:
        """Admission gate: raises :class:`RejectedByBreaker` when the
        circuit is open (or a half-open trial is already in flight);
        otherwise marks a half-open trial when one is due.  Returns True
        when this submission *is* the half-open probe (callers that then
        fail to enqueue it must :meth:`abandon_trial`).
        """
        entry = self._entries.get(key)
        if entry is None or entry.state == STATE_CLOSED:
            return False
        now = self.clock()
        remaining = entry.opened_at + self.cooldown - now
        if entry.state == STATE_OPEN and remaining <= 0:
            entry.state = STATE_HALF_OPEN
            entry.trial_pending = False
        if entry.state == STATE_HALF_OPEN:
            if entry.trial_pending:
                self.rejected_total += 1
                raise RejectedByBreaker(
                    key, entry, max(1.0, self.cooldown)
                )
            entry.trial_pending = True  # this submission is the probe
            return True
        self.rejected_total += 1
        raise RejectedByBreaker(key, entry, max(1.0, remaining))

    def abandon_trial(self, key: str) -> None:
        """Give up a half-open probe that never ran (queue full or
        cancelled) so the next submission can take its place."""
        entry = self._entries.get(key)
        if entry is not None and entry.state == STATE_HALF_OPEN:
            entry.trial_pending = False

    # ------------------------------------------------------------------
    def record_failure(
        self, key: str, error: Optional[dict], *, fatal: bool = False
    ) -> bool:
        """Count one terminal failure; returns True when this trips
        (or re-trips) the circuit open."""
        entry = self._entries.setdefault(key, BreakerEntry())
        entry.failures += 1
        if fatal:
            entry.fatal_failures += 1
        entry.last_error = error
        entry.trial_pending = False
        if entry.state == STATE_HALF_OPEN or (
            entry.state == STATE_CLOSED
            and entry.failures >= self.threshold
        ):
            entry.state = STATE_OPEN
            entry.opened_at = self.clock()
            self.opened_total += 1
            return True
        if entry.state == STATE_OPEN:
            entry.opened_at = self.clock()
        return False

    def record_success(self, key: str) -> None:
        """A simulation for ``key`` completed: forget its history."""
        self._entries.pop(key, None)

    # ------------------------------------------------------------------
    @property
    def open_keys(self) -> list[str]:
        """Keys currently quarantined (open or probing half-open)."""
        return [
            key for key, entry in self._entries.items()
            if entry.state != STATE_CLOSED
        ]

    def snapshot(self) -> dict:
        """Stats document: totals plus every non-closed entry."""
        return {
            "threshold": self.threshold,
            "cooldown_seconds": self.cooldown,
            "opened_total": self.opened_total,
            "rejected_total": self.rejected_total,
            "open": {
                key: entry.to_dict()
                for key, entry in self._entries.items()
                if entry.state != STATE_CLOSED
            },
        }


__all__ = [
    "BreakerEntry",
    "CircuitBreaker",
    "RejectedByBreaker",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
]
