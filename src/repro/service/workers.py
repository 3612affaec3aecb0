"""The supervised worker tier: N simulator processes behind the queue.

Jobs run in *separate processes* owned by a persistent
:class:`~repro.harness.pool.WarmPool`, so a wedged simulation or a
crash in C-level code (or an ``os._exit``) fails only its own job: the
worker respawns in place while the daemon — and every other in-flight
job and SSE watcher — keeps serving.  Each job, telemetry or not, is
one cell run by :func:`~repro.harness.pool.run_cells`, the coroutine
that also supervises the runner's ``--jobs N`` sweeps, and its attempts
are charged to one :class:`~repro.harness.faults.CellAttempts` record.
A telemetry job's worker streams each window over the pool pipe as it
closes, into :attr:`~repro.service.jobs.Job.windows`, which the job's
SSE ring publishes.

Supervision layers, mirroring the staged design the paper's serving
argument rests on (admission / arbitration / execution failing
independently):

* **per-attempt deadlines** — ``deadline`` bounds each attempt's
  wall-clock time; a breach kills exactly the hosting worker (the pool
  respawns the slot) and charges the attempt as a
  :class:`~repro.errors.CellTimeoutError`;
* **crash isolation + retry** — a worker death surfaces as
  :class:`~repro.errors.WorkerCrashError` on that job only; bounded
  retries with the harness's deterministic backoff re-dispatch onto a
  fresh worker, and because every attempt re-seeds request ids, a
  report produced after N crashes is byte-identical to a first-try run;
* **heartbeats** — a background task pings idle workers and respawns
  any that go silent (busy workers are covered by deadlines, so the
  heartbeat never misfires on a long simulation);
* **deterministic chaos** — the tier threads the same
  :class:`~repro.harness.faults.FaultPlan` grammar the harness uses
  into worker processes, keyed by tier-wide dispatch ordinal (retries
  keep their ordinal and advance the attempt), so ``exit@0/5`` rehearses
  "every 5th job kills its worker" exactly.

Failures that exhaust their retries raise :class:`TierExecutionFailed`
carrying the structured :class:`~repro.harness.faults.CellFailure` and
a ``fatal`` flag (some attempt killed or hung its worker) — the daemon
feeds that flag into the per-key circuit breaker.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Optional

from repro.errors import CellTimeoutError, WorkerCrashError
from repro.harness.faults import CellAttempts, FaultPlan
from repro.harness.pool import WarmPool, run_cells
from repro.sim.report import SimReport
from repro.telemetry.hub import (
    NULL_HUB,
    SERVICE_TIER_CRASHES,
    SERVICE_TIER_RESPAWNS,
    SERVICE_TIER_STALE_RESPAWNS,
    SERVICE_TIER_TIMEOUTS,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.service.jobs import Job
    from repro.telemetry.series import WindowSample

#: Heartbeat period (seconds) of the tier's background supervisor task.
DEFAULT_HEARTBEAT_SECONDS = 2.0

#: An idle worker silent for this many heartbeat periods is respawned.
STALE_HEARTBEATS = 5


class TierUnavailable(Exception):
    """The failure of a job that found the tier paused or closed."""


class TierExecutionFailed(Exception):
    """A job exhausted its retries on the tier.

    ``failure`` is the structured post-mortem; ``fatal`` is True when
    at least one attempt killed or hung its worker process (the signal
    the circuit breaker weighs).
    """

    def __init__(self, record: CellAttempts) -> None:
        self.failure = record.failure()
        self.fatal = record.fatal
        super().__init__(self.failure.summary())


class WorkerTier:
    """Supervised pool of simulator processes feeding off the queue."""

    def __init__(
        self,
        size: int,
        *,
        retries: int = 1,
        retry_backoff: float = 0.05,
        deadline: Optional[float] = None,
        chaos: Optional[FaultPlan] = None,
        metrics=NULL_HUB,
    ) -> None:
        if size < 1:
            raise ValueError("worker tier needs >= 1 worker")
        self.size = size
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.deadline = deadline
        self.chaos = chaos
        self.metrics = metrics
        self.pool = WarmPool(size, on_rebuild=self._on_rebuild)
        #: Tier-wide dispatch ordinal: jobs in first-dispatch order.
        #: This is the ``cell`` a chaos plan addresses.
        self._dispatches = 0
        self._paused = False
        self._heartbeat_task: Optional[asyncio.Task] = None
        #: Jobs currently executing (id -> Job), for healthz.
        self.inflight: dict[str, "Job"] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the heartbeat supervisor on the running event loop."""
        if self._heartbeat_task is None:
            self._heartbeat_task = asyncio.get_running_loop().create_task(
                self._heartbeat_loop()
            )

    async def close(self) -> None:
        """Stop the heartbeat and tear the pool down (idempotent)."""
        task, self._heartbeat_task = self._heartbeat_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.pool.close)

    def pause(self) -> None:
        """Take the execution tier down (degraded-mode switch)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    @property
    def available(self) -> bool:
        """Whether the tier accepts work right now."""
        return not self._paused and not self.pool.closed

    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        stale_after = DEFAULT_HEARTBEAT_SECONDS * STALE_HEARTBEATS
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(DEFAULT_HEARTBEAT_SECONDS)
            try:
                self.pool.ping()
                respawned = await loop.run_in_executor(
                    None, self.pool.reap_stale, stale_after
                )
                if respawned:
                    self.metrics.inc(
                        SERVICE_TIER_STALE_RESPAWNS, respawned
                    )
            except Exception:
                # The heartbeat is advisory; never let it die silently
                # into a cancelled task over a transient pipe error.
                continue

    def _on_rebuild(self) -> None:
        self.metrics.inc(SERVICE_TIER_RESPAWNS)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """Per-worker tier state for ``/v1/healthz``."""
        states = self.pool.worker_states()
        alive = sum(1 for s in states if s.get("alive"))
        if not self.available:
            state = "down"
        elif alive < self.size:
            state = "degraded"
        else:
            state = "ok"
        return {
            "state": state,
            "size": self.size,
            "alive": alive,
            "busy": len(self.inflight),
            "dispatches": self._dispatches,
            "respawns": self.pool.respawns,
            "workers": states,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def execute(self, job: "Job") -> SimReport:
        """Run one job on the tier; returns its report or raises
        :class:`TierExecutionFailed` after ``1 + retries`` attempts.

        The job's :attr:`~repro.service.jobs.Job.attempts` counter is
        kept live so status documents show retry progress mid-flight,
        and its :attr:`~repro.service.jobs.Job.windows` list grows as
        the worker streams telemetry windows.
        """
        record = CellAttempts(
            cell=job.cell, key=job.key, label=job.spec.scheduler.name,
            retries=self.retries, backoff=self.retry_backoff,
            index=self._dispatches,
        )
        if not self.available:
            record.error = TierUnavailable(
                "execution tier is paused or closed"
            )
            raise TierExecutionFailed(record)
        self._dispatches += 1
        reports: list[SimReport] = []

        def charge(record: CellAttempts, exc: BaseException,
                   elapsed: float) -> bool:
            if isinstance(exc, CellTimeoutError):
                self.metrics.inc(SERVICE_TIER_TIMEOUTS)
            elif isinstance(exc, WorkerCrashError):
                self.metrics.inc(SERVICE_TIER_CRASHES)
            return record.fail(exc, elapsed)

        def dispatched(record: CellAttempts) -> None:
            job.attempts = record.attempts + 1

        def window(sample: WindowSample) -> None:
            # A retry replays the same deterministic prefix: keep each
            # window once.
            if sample.index == len(job.windows):
                job.windows.append(sample)

        self.inflight[job.id] = job
        try:
            await run_cells(
                self.pool, [record], faults=self.chaos,
                timeout=self.deadline, charge=charge,
                finish=lambda record, report, _: reports.append(report),
                on_dispatch=dispatched, on_window=window,
            )
        finally:
            self.inflight.pop(job.id, None)
        if not reports:
            raise TierExecutionFailed(record)
        return reports[0]


__all__ = [
    "DEFAULT_HEARTBEAT_SECONDS",
    "TierExecutionFailed",
    "WorkerTier",
]
