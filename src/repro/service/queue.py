"""Bounded priority job queue with coalescing and cache-first admission.

Admission order for every submission (:meth:`JobQueue.admit`):

1. **Cache first** — the job's content key is probed against the shared
   :class:`~repro.harness.cache.ResultCache`; a warm hit completes the
   job immediately without ever touching the worker pool. The probe
   reads the report's stored bytes and checks their digest inline (a
   fraction of a millisecond) and never decodes them.
2. **Coalesce** — if an identical spec (same content key) is already
   queued or running, the new job attaches to it as a *follower*: one
   simulation, N answers. This is what makes a thundering herd of
   identical sweep cells cost one cell. Only this module attaches,
   detaches (:meth:`JobQueue.cancel`) and promotes followers, and each
   follower names the job that runs its simulation.
3. **Enqueue** — otherwise the job enters the bounded priority heap
   (higher :attr:`~repro.service.jobs.Job.priority` first, FIFO within a
   priority). A full heap raises :class:`QueueFullError`, which the HTTP
   layer maps to ``429 Too Many Requests`` plus a ``Retry-After`` hint
   derived from observed job durations — backpressure, not buffering.

All methods must run on the daemon's event loop (single-threaded
admission makes the coalescing index race-free by construction); the
simulations themselves, telemetry jobs included, run on the worker
tier.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Optional

from repro.errors import JobStateError, ServiceBusyError
from repro.harness.cache import ResultCache
from repro.service.jobs import Job, JobState
from repro.telemetry.hub import (
    NULL_HUB,
    SERVICE_CACHE_HITS,
    SERVICE_COALESCED,
    SERVICE_REJECTED,
)

#: Admission outcomes returned by :meth:`JobQueue.admit`.
ADMIT_CACHED = "cached"
ADMIT_COALESCED = "coalesced"
ADMIT_QUEUED = "queued"


class QueueFullError(ServiceBusyError):
    """The bounded job queue rejected a submission (maps to HTTP 429)."""


class JobQueue:
    """Priority heap + coalescing index + cache-first admission."""

    def __init__(
        self,
        *,
        maxsize: int = 64,
        cache: Optional[ResultCache] = None,
        metrics=NULL_HUB,
    ) -> None:
        if maxsize < 1:
            raise ValueError("queue maxsize must be >= 1")
        self.maxsize = maxsize
        self.cache = cache
        self.metrics = metrics
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = 0
        self._cond = asyncio.Condition()
        self._closed = False
        #: key -> primary job currently queued or running.
        self._inflight: dict[str, Job] = {}
        #: EWMA of observed simulation durations (Retry-After hint).
        self._avg_duration = 2.0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Queued (not yet running) jobs, cancelled entries excluded."""
        return sum(
            1 for _, _, job in self._heap if job.state is JobState.QUEUED
        )

    @property
    def inflight_keys(self) -> int:
        """Distinct content keys currently queued or running."""
        return len(self._inflight)

    def note_duration(self, seconds: float) -> None:
        """Feed one observed job duration into the Retry-After EWMA."""
        self._avg_duration = 0.8 * self._avg_duration + 0.2 * max(
            seconds, 0.0
        )

    def retry_after_hint(self) -> float:
        """Suggested client backoff when the queue is full: roughly one
        queue-drain time, clamped to a polite [1s, 60s]."""
        return min(60.0, max(1.0, self._avg_duration * (len(self) + 1)))

    # ------------------------------------------------------------------
    async def admit(self, job: Job) -> str:
        """Admit a submission; returns one of the ``ADMIT_*`` outcomes.

        Cache-hit jobs come back already ``done`` with the report's
        bytes in :attr:`~repro.service.jobs.Job.result`, for the
        response to splice in;
        coalesced jobs stay ``queued`` with
        :attr:`~repro.service.jobs.Job.coalesced_into` set; otherwise the
        job enters the heap. Raises :class:`QueueFullError` with a
        ``retry_after`` hint when the bounded heap is full.
        """
        if self.cache is not None:
            result = self.cache.load_bytes(job.key)
            if result is not None:
                job.cached = True
                job.result = result
                job.transition(JobState.DONE)
                self.metrics.inc(SERVICE_CACHE_HITS)
                return ADMIT_CACHED
        primary = self._inflight.get(job.key)
        if primary is not None and not primary.terminal:
            job.coalesced_into = primary.id
            primary.followers.append(job)
            self.metrics.inc(SERVICE_COALESCED)
            return ADMIT_COALESCED
        if len(self) >= self.maxsize:
            self.metrics.inc(SERVICE_REJECTED)
            raise QueueFullError(
                f"job queue full ({self.maxsize} queued)",
                retry_after=self.retry_after_hint(),
            )
        async with self._cond:
            self._seq += 1
            heapq.heappush(self._heap, (-job.priority, self._seq, job))
            self._inflight[job.key] = job
            self._cond.notify()
        return ADMIT_QUEUED

    # ------------------------------------------------------------------
    async def get(self) -> Optional[Job]:
        """Pop the highest-priority queued job; ``None`` once closed.

        Entries cancelled while queued are discarded lazily here.
        """
        async with self._cond:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    if job.state is JobState.QUEUED:
                        return job
                if self._closed:
                    return None
                await self._cond.wait()

    def release(self, job: Job) -> None:
        """Drop a finished primary from the coalescing index.

        Called by the daemon *after* the job (and its followers) reached
        a terminal state, so later identical submissions re-probe the
        cache instead of attaching to a corpse.
        """
        current = self._inflight.get(job.key)
        if current is job:
            del self._inflight[job.key]

    # ------------------------------------------------------------------
    async def cancel(self, job: Job) -> Optional[Job]:
        """Cancel a *queued* job; returns a promoted follower, if any.

        A cancelled follower leaves its primary's follower list. A
        queued primary with followers does not waste their wait: the
        oldest follower is promoted to primary (re-enqueued under its
        own priority) and inherits the remaining followers, whose
        :attr:`~repro.service.jobs.Job.coalesced_into` is re-pointed at
        it, so every follower stays one hop from the job that runs.
        Running or terminal jobs are the daemon's problem, not the
        queue's.
        """
        if job.state is not JobState.QUEUED:
            raise JobStateError(
                f"job {job.id} is {job.state.value}; only queued jobs "
                "can be cancelled"
            )
        job.transition(JobState.CANCELLED)
        primary = self._inflight.get(job.key)
        if job.coalesced_into is not None:
            if primary is not None and job in primary.followers:
                primary.followers.remove(job)
            return None
        promoted: Optional[Job] = None
        if primary is job:
            del self._inflight[job.key]
            if job.followers:
                promoted = job.followers.pop(0)
                promoted.coalesced_into = None
                promoted.followers = job.followers
                job.followers = []
                for follower in promoted.followers:
                    follower.coalesced_into = promoted.id
                async with self._cond:
                    self._seq += 1
                    heapq.heappush(
                        self._heap,
                        (-promoted.priority, self._seq, promoted),
                    )
                    self._inflight[promoted.key] = promoted
                    self._cond.notify()
        return promoted

    async def close(self) -> None:
        """Stop handing out jobs: every blocked/future ``get`` yields
        ``None``. Already-queued entries stay in the heap (the daemon
        decides whether to drain them before calling this)."""
        async with self._cond:
            self._closed = True
            self._cond.notify_all()
