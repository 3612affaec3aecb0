"""The supervised worker tier: N simulator processes behind the queue.

PR 5 executed every job on a thread inside the daemon process — one
wedged simulation blocked a worker thread forever, a crash in C-level
code (or an ``os._exit``) took the whole daemon down, and there was no
per-worker visibility.  :class:`WorkerTier` lifts the PR 3/PR 6
supervision machinery into the daemon: jobs run in *separate
processes* owned by a persistent :class:`~repro.harness.pool.WarmPool`,
so a dying worker fails only its own in-flight job and respawns in
place while the daemon — and every other in-flight job and SSE
watcher — keeps serving.

Supervision layers, mirroring the staged design the paper's serving
argument rests on (admission / arbitration / execution failing
independently):

* **per-attempt deadlines** — ``deadline`` bounds each attempt's
  wall-clock time; a breach kills exactly the hosting worker (the pool
  respawns the slot) and charges the attempt as a
  :class:`~repro.errors.CellTimeoutError`;
* **crash isolation + retry** — a worker death surfaces as
  :class:`~repro.errors.WorkerCrashError` on that job only; bounded
  retries with the PR 3 deterministic backoff re-dispatch onto a fresh
  worker, and because every attempt re-seeds request ids, a report
  produced after N crashes is byte-identical to a first-try run;
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
a ``fatal`` flag (worker-killing vs plain exception) — the daemon feeds
that flag into the per-key circuit breaker.
"""

from __future__ import annotations

import asyncio
import time
import traceback as traceback_mod
from typing import TYPE_CHECKING, Optional

from repro.errors import CellTimeoutError, WorkerCrashError
from repro.harness.faults import CellFailure, FaultPlan
from repro.harness.pool import WarmPool
from repro.sim.report import SimReport
from repro.telemetry.hub import (
    NULL_HUB,
    SERVICE_TIER_CRASHES,
    SERVICE_TIER_RESPAWNS,
    SERVICE_TIER_STALE_RESPAWNS,
    SERVICE_TIER_TIMEOUTS,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.service.jobs import Job

#: Heartbeat period (seconds) of the tier's background supervisor task.
DEFAULT_HEARTBEAT_SECONDS = 2.0

#: An idle worker silent for this many heartbeat periods is respawned.
STALE_HEARTBEATS = 5


class TierExecutionFailed(Exception):
    """A job exhausted its retries on the tier.

    ``failure`` is the structured post-mortem; ``fatal`` is True when
    at least one attempt killed or hung its worker process (the signal
    the circuit breaker weighs).
    """

    def __init__(self, failure: CellFailure, *, fatal: bool) -> None:
        super().__init__(failure.summary())
        self.failure = failure
        self.fatal = fatal


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
        heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
        metrics=NULL_HUB,
    ) -> None:
        if size < 1:
            raise ValueError("worker tier needs >= 1 worker")
        self.size = size
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.deadline = deadline
        self.chaos = chaos
        self.heartbeat_seconds = heartbeat_seconds
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
        stale_after = self.heartbeat_seconds * STALE_HEARTBEATS
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.heartbeat_seconds)
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
        kept live so status documents show retry progress mid-flight.
        """
        if not self.available:
            raise TierExecutionFailed(
                CellFailure(
                    app=job.app,
                    label=job.spec.scheduler.name,
                    key=job.key,
                    error_type="TierUnavailable",
                    message="execution tier is paused or closed",
                    traceback="",
                    attempts=0,
                    elapsed=0.0,
                ),
                fatal=False,
            )
        cell = job.cell
        ordinal = self._dispatches
        self._dispatches += 1
        loop = asyncio.get_running_loop()
        self.inflight[job.id] = job
        elapsed_total = 0.0
        fatal_seen = False
        last_exc: Optional[BaseException] = None
        last_tb = ""
        try:
            for attempt in range(1, self.retries + 2):
                job.attempts = attempt
                started = time.monotonic()
                future = self.pool.submit(
                    (job.key, cell, self.chaos, ordinal, attempt)
                )
                try:
                    _, report, _ = await asyncio.wait_for(
                        asyncio.wrap_future(future),
                        timeout=self.deadline,
                    )
                except asyncio.TimeoutError:
                    # wait_for cancelled the wrapper; detach and kill
                    # exactly the hosting worker (it respawns in place).
                    await loop.run_in_executor(
                        None, self.pool.kill_owner, future
                    )
                    fatal_seen = True
                    last_exc = CellTimeoutError(
                        f"{job.app}/{job.spec.scheduler.name} exceeded "
                        f"the {self.deadline:.1f}s per-attempt deadline"
                    )
                    last_tb = ""
                    self.metrics.inc(SERVICE_TIER_TIMEOUTS)
                except WorkerCrashError as exc:
                    fatal_seen = True
                    last_exc = exc
                    last_tb = "".join(traceback_mod.format_exception(
                        type(exc), exc, exc.__traceback__
                    ))
                    self.metrics.inc(SERVICE_TIER_CRASHES)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    last_exc = exc
                    last_tb = "".join(traceback_mod.format_exception(
                        type(exc), exc, exc.__traceback__
                    ))
                else:
                    return report
                elapsed_total += time.monotonic() - started
                if attempt <= self.retries:
                    # PR 3 deterministic jitter-free exponential backoff.
                    await asyncio.sleep(
                        self.retry_backoff * (2.0 ** (attempt - 1))
                    )
            raise TierExecutionFailed(
                CellFailure(
                    app=job.app,
                    label=job.spec.scheduler.name,
                    key=job.key,
                    error_type=type(last_exc).__name__,
                    message=str(last_exc),
                    traceback=last_tb,
                    attempts=self.retries + 1,
                    elapsed=elapsed_total,
                ),
                fatal=fatal_seen,
            )
        finally:
            self.inflight.pop(job.id, None)


__all__ = [
    "DEFAULT_HEARTBEAT_SECONDS",
    "TierExecutionFailed",
    "WorkerTier",
]
