"""Experiment runner: simulate (workload x scheme) matrices fast — and
survive partial failure while doing it.

Three layers keep repeated figure reproductions cheap:

1. **In-process memoization** — results are keyed by the *content* of the
   cell (workload, scale, seed, full scheduler + GPU config,
   measure_error), so two experiments that request the same baseline
   under different labels share one simulation.
2. **Persistent disk cache** (:mod:`repro.harness.cache`) — the same
   content key addresses a JSON blob under ``.repro-cache/``; a warm
   cache replays a whole matrix with zero simulations, across processes
   and sessions. ``REPRO_NO_CACHE=1`` bypasses it.
3. **Parallel execution** — ``Runner(jobs=N)`` fans the independent
   cells of :meth:`Runner.run_matrix` out over a persistent
   :class:`~repro.harness.pool.WarmPool`: workers import the simulation
   stack once, receive cells *batched* over the codec wire format, and
   survive across ``run_matrix`` calls (so a benchmark loop pays the
   spawn cost once — :meth:`Runner.prewarm` pays it ahead of timing).
   Cells are deduplicated by content key before dispatch, and every
   cell (serial or parallel) resets the request-id counter first, so
   serial, parallel, and cached runs produce field-identical reports.

Every cell is described by one :class:`~repro.sim.spec.SimSpec`: the
runner's ``spec`` with the cell's scheme and ``measure_error`` put in.
:class:`CellSpec` is the only place a spec becomes a cell, and
:meth:`Runner.run` is a one-cell :meth:`Runner.run_matrix`, so a single
cell gets the same caching, retries, chaos and timeouts as a sweep.

On top of those sits the **fault-tolerance layer** (DESIGN goal: a
single crashed or hung worker must not throw away a whole sweep):

* every cell gets up to ``1 + retries`` attempts, retried after a
  deterministic (jitter-free) exponential backoff of
  ``retry_backoff * 2**(attempt-1)`` seconds;
* ``cell_timeout`` bounds each attempt's wall-clock time — the pool
  kills *exactly* the worker hosting the expired cell and respawns it;
  innocent in-flight cells keep running undisturbed (the seed executor
  could only tear down the whole pool);
* a dead worker fails its own in-flight cells with a
  :class:`~repro.errors.WorkerCrashError` attempt each and its slot is
  respawned automatically (counted in ``harness.pool_rebuilds``);
  other workers are untouched;
* cells that exhaust their retries are quarantined into structured
  :class:`~repro.harness.faults.CellFailure` records. With
  ``keep_going`` the matrix still returns every healthy cell (a
  :class:`MatrixResult` carrying the failure manifest); without it the
  run raises :class:`~repro.errors.CellFailedError` at the end of the
  sweep;
* the whole layer is exercised by deterministic fault injection
  (:class:`~repro.harness.faults.FaultPlan`, ``REPRO_CHAOS``) threaded
  through :func:`_simulate_cell` into the worker processes, and audited
  by :class:`~repro.telemetry.hub.MetricsHub` counters
  (``harness.retries``, ``harness.timeouts``, ``harness.pool_rebuilds``,
  ``harness.cells.quarantined``, ...).
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import time
import traceback as traceback_mod
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field, replace
from typing import Deque, Iterable, Optional

from repro.config.scheduler import SchedulerConfig
from repro.dram.request import reset_request_ids
from repro.errors import CellFailedError, CellTimeoutError, WorkerCrashError
from repro.harness.cache import ResultCache, cache_key
from repro.harness.faults import CellFailure, FaultPlan, corrupt_blob
from repro.harness.pool import WarmPool
from repro.sim.report import SimReport
from repro.sim.spec import SimSpec
from repro.sim.system import GPUSystem, simulate_spec
from repro.telemetry.hub import (
    DEFAULT_WINDOW_CYCLES,
    HARNESS_CHAOS_CORRUPTED,
    HARNESS_FAILED_ATTEMPTS,
    HARNESS_POOL_REBUILDS,
    HARNESS_QUARANTINED,
    HARNESS_RETRIES,
    HARNESS_SIMULATED,
    HARNESS_TIMEOUTS,
    HARNESS_WORKER_CRASHES,
    MetricsHub,
)
from repro.workloads.registry import get_workload

#: Stack frames kept per cell by the ``--profile`` capture (sorted by
#: cumulative time; enough to see the scheduler/engine split without
#: drowning the report).
PROFILE_TOP_N = 30


@dataclass(frozen=True)
class CellSpec:
    """Everything needed to simulate one matrix cell in any process:
    the workload coordinates plus the :class:`~repro.sim.spec.SimSpec`
    it simulates under.

    ``measure_error`` is kept only when the scheme has AMS on: with AMS
    off nothing is ever dropped, so the replay is a no-op, and stripping
    the flag lets such a cell share its report and key with the plain
    run. This is the one place that rule lives.
    """

    app: str
    scale: float
    seed: int
    spec: SimSpec

    def __post_init__(self) -> None:
        spec = self.spec
        if spec.measure_error and spec.scheduler.ams.mode.value == "off":
            object.__setattr__(
                self, "spec", replace(spec, measure_error=False)
            )

    @property
    def key(self) -> str:
        """Content-addressed cache key of this cell."""
        return cache_key(
            app=self.app, scale=self.scale, seed=self.seed, spec=self.spec
        )

    @property
    def cache_meta(self) -> dict:
        """Sidecar metadata stored next to the report blob.

        The cache key is a one-way hash, so this is the only record of
        which (app, scale, seed, spec) produced a blob — the results
        warehouse ingests it to fill its seed/device/ecc columns.
        """
        return {
            "app": self.app,
            "scale": self.scale,
            "seed": self.seed,
            "spec": self.spec.to_dict(),
        }

    def workload(self):
        """The workload this cell simulates: the tenant mix when the
        spec names one (``app`` then only labels the cell)."""
        if self.spec.tenants is not None:
            from repro.workloads.tenant_mix import TenantMix

            return TenantMix(
                self.spec.tenants, scale=self.scale, seed=self.seed
            )
        return get_workload(self.app, scale=self.scale, seed=self.seed)


def _simulate_cell(
    cell: CellSpec,
    *,
    faults: Optional[FaultPlan] = None,
    cell_index: Optional[int] = None,
    attempt: int = 1,
    in_worker: bool = False,
) -> tuple[SimReport, float]:
    """Simulate one cell from scratch; returns (report, elapsed seconds).

    Runs identically in the parent process and in pool workers: the
    global request-id counter is re-seeded so request/drop ids — and
    therefore the full report — depend only on the cell itself, not on
    what simulated before it in the same process.

    When a :class:`FaultPlan` is threaded through (chaos testing), its
    crash/exit/hang faults fire here — before any simulation state is
    touched — so an injected failure is indistinguishable from a real
    one to the supervising runner.
    """
    if faults is not None and cell_index is not None:
        faults.fire_pre_simulation(cell_index, attempt, in_worker=in_worker)
    reset_request_ids()
    workload = cell.workload()
    start = time.perf_counter()
    report = simulate_spec(workload, cell.spec)
    return report, time.perf_counter() - start


@dataclass
class _CellTask:
    """Mutable supervision state of one deduplicated matrix cell."""

    key: str
    cell: CellSpec
    label: str
    index: int
    #: Completed (failed) attempts so far; the next attempt is +1.
    attempts: int = 0
    #: Monotonic time before which the task must not be (re)dispatched.
    next_ready: float = 0.0
    #: Wall-clock seconds burned across all failed attempts.
    elapsed: float = 0.0
    last_error: Optional[BaseException] = None
    last_traceback: str = ""

    def record_error(self, exc: BaseException, elapsed: float) -> None:
        self.attempts += 1
        self.elapsed += elapsed
        self.last_error = exc
        self.last_traceback = "".join(
            traceback_mod.format_exception(type(exc), exc, exc.__traceback__)
        )

    def to_failure(self) -> CellFailure:
        exc = self.last_error
        return CellFailure(
            app=self.cell.app,
            label=self.label,
            key=self.key,
            error_type=type(exc).__name__ if exc is not None else "Unknown",
            message=str(exc) if exc is not None else "",
            traceback=self.last_traceback,
            attempts=self.attempts,
            elapsed=self.elapsed,
        )


class MatrixResult(dict):
    """``run_matrix`` result: a cell->report mapping plus failures.

    Behaves exactly like the plain dict it used to be for healthy
    matrices. Under ``keep_going`` quarantined cells are *absent* from
    the mapping and described in :attr:`failures`; indexing a failed
    cell raises :class:`~repro.errors.CellFailedError` (so experiment
    code fails loudly and specifically, not with a bare ``KeyError``),
    while ``.get()`` still returns ``None`` for callers that probe.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Quarantined cells of this call, in dispatch order.
        self.failures: list[CellFailure] = []
        #: (app, label) -> CellFailure for every missing cell.
        self.failed_cells: dict[tuple[str, str], CellFailure] = {}

    @property
    def ok(self) -> bool:
        """True when every requested cell produced a report."""
        return not self.failures

    def __missing__(self, cell):
        failure = self.failed_cells.get(cell)
        if failure is not None:
            raise CellFailedError(
                f"matrix cell {cell} was quarantined: {failure.summary()}",
                failures=[failure],
            )
        raise KeyError(cell)


@dataclass
class Runner:
    """Runs simulations with memoization, disk caching, parallelism, and
    supervised fault tolerance.

    ``spec`` describes how every cell simulates (device, GPU config,
    ECC, fault model, tenant mix, flags); each cell is that spec with
    its scheme and ``measure_error`` put in (see :meth:`cell`).
    ``jobs`` controls matrix fan-out (1 = serial in-process; N > 1 uses a
    persistent :class:`~repro.harness.pool.WarmPool` of N workers that
    survives across ``run_matrix`` calls — :meth:`prewarm` spins it up
    ahead of time). ``profile=True`` wraps every in-process cell in
    :mod:`cProfile` and collects the top cumulative frames into
    :attr:`profiles` (forces serial execution — a worker process cannot
    be profiled from the parent). ``cache=None`` disables the persistent
    disk layer; the default honours ``REPRO_NO_CACHE``/``REPRO_CACHE_DIR``.

    Fault-tolerance knobs (see the module docstring):

    * ``retries`` — extra attempts per failing cell (total ``1+retries``);
    * ``retry_backoff`` — base of the deterministic exponential backoff;
    * ``cell_timeout`` — per-attempt wall-clock bound in seconds.
      Setting it forces matrix cells through the supervised pool even at
      ``jobs=1`` (an in-process cell cannot be preempted);
    * ``keep_going`` — return partial :class:`MatrixResult` instead of
      raising :class:`~repro.errors.CellFailedError`;
    * ``faults`` — chaos plan (defaults to ``$REPRO_CHAOS``).

    A sub-sweep that changes only some fields (another queue size, a
    tenant's solo baseline) runs on ``dataclasses.replace(runner,
    **changes)``: it inherits every field it does not override and
    shares the cache, metrics, failure manifest and profiles by
    reference, so its quarantined cells and retry counters surface in
    the parent's manifest (and the CLI's exit code). The memo, the
    worker pool and ``simulations_run`` are each runner's own.
    """

    scale: float = 1.0
    seed: int = 7
    #: How every cell simulates; cells replace scheme and measure_error.
    spec: SimSpec = field(default_factory=SimSpec)
    verbose: bool = True
    jobs: int = 1
    #: Capture a cProfile per simulated cell (serial runs only).
    profile: bool = False
    cache: Optional[ResultCache] = field(default_factory=ResultCache)
    retries: int = 1
    retry_backoff: float = 0.05
    cell_timeout: Optional[float] = None
    keep_going: bool = False
    faults: Optional[FaultPlan] = field(default_factory=FaultPlan.from_env)
    metrics: MetricsHub = field(default_factory=MetricsHub)
    #: Every quarantined cell over this runner's life (the manifest the
    #: CLI serializes). Derived runners share the parent's list.
    failures: list[CellFailure] = field(default_factory=list)
    #: ``--profile`` captures: {"app", "label", "stats"} per cell.
    profiles: list[dict] = field(default_factory=list)
    #: Cells simulated (not served from memo/disk) over this runner's life.
    simulations_run: int = field(default=0, init=False)
    _memo: dict[str, SimReport] = field(default_factory=dict, init=False)
    _pool: Optional[WarmPool] = field(default=None, init=False, repr=False)

    # ------------------------------------------------------------------
    def cell(
        self, app: str, scheme: SchedulerConfig, measure_error: bool = False
    ) -> CellSpec:
        """The cell simulating ``app`` under ``scheme`` with this
        runner's spec."""
        return CellSpec(
            app=app,
            scale=self.scale,
            seed=self.seed,
            spec=replace(
                self.spec, scheduler=scheme, measure_error=measure_error
            ),
        )

    def _log(self, app: str, label: str, detail: str) -> None:
        if self.verbose:
            print(f"  [{app} / {label}] {detail}", file=sys.stderr)

    # ------------------------------------------------------------------
    # Warm worker pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self, workers: int) -> WarmPool:
        """The persistent pool, (re)built only when it must grow — a
        larger pool than requested is reused as-is, since idle warm
        workers are cheaper than a rebuild."""
        pool = self._pool
        if pool is not None and (pool.closed or pool.size < workers):
            pool.close()
            pool = None
        if pool is None:
            inc = self.metrics.inc
            pool = WarmPool(
                workers, on_rebuild=lambda: inc(HARNESS_POOL_REBUILDS)
            )
            self._pool = pool
            # The pool outlives individual matrices by design; tie its
            # lifetime to the runner's so an abandoned runner does not
            # leak worker processes.
            weakref.finalize(self, pool.close)
        return pool

    def prewarm(self, jobs: Optional[int] = None) -> None:
        """Spawn the worker pool ahead of ``run_matrix`` so the first
        timed sweep does not pay process start-up and import costs."""
        jobs = self.jobs if jobs is None else jobs
        if jobs > 1 or self.cell_timeout is not None:
            self._ensure_pool(max(1, jobs))

    def close(self) -> None:
        """Shut the warm pool down (idempotent). The runner stays
        usable — the next pooled matrix simply rebuilds the pool."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    def _simulate_inline(
        self, task: _CellTask
    ) -> tuple[SimReport, float]:
        """In-process simulation of the task's next attempt, optionally
        under the profiler."""
        profiler = cProfile.Profile() if self.profile else None
        if profiler is not None:
            profiler.enable()
        try:
            return _simulate_cell(
                task.cell, faults=self.faults, cell_index=task.index,
                attempt=task.attempts + 1,
            )
        finally:
            if profiler is not None:
                profiler.disable()
                buffer = io.StringIO()
                stats = pstats.Stats(profiler, stream=buffer)
                stats.sort_stats("cumulative").print_stats(PROFILE_TOP_N)
                self.profiles.append(
                    {"app": task.cell.app, "label": task.label,
                     "stats": buffer.getvalue()}
                )

    def _finish(
        self, task: _CellTask, report: SimReport, elapsed: float
    ) -> None:
        """Account, log, memoize, and persist one freshly simulated cell."""
        cell, label = task.cell, task.label
        self.simulations_run += 1
        self.metrics.inc(HARNESS_SIMULATED)
        self._log(
            cell.app, label,
            f"{elapsed:.1f}s, acts={report.activations}, "
            f"ipc={report.ipc:.2f}",
        )
        self._memo[task.key] = report
        if self.cache is not None:
            path = self.cache.store(task.key, report, meta=cell.cache_meta)
            if (
                path is not None
                and self.faults is not None
                and self.faults.should_corrupt(task.index)
            ):
                corrupt_blob(path)
                self.metrics.inc(HARNESS_CHAOS_CORRUPTED)
                self._log(cell.app, label, "chaos: corrupted cache blob")

    # ------------------------------------------------------------------
    def run(
        self,
        app: str,
        scheme: SchedulerConfig,
        *,
        label: Optional[str] = None,
        measure_error: bool = False,
    ) -> SimReport:
        """Simulate one (app, scheme) cell: a one-cell :meth:`run_matrix`,
        so it gets every cache layer, retries, chaos and timeouts."""
        label = label or scheme.name
        result = self.run_matrix(
            [app], {label: scheme}, measure_error=measure_error
        )
        return result[app, label]

    # ------------------------------------------------------------------
    def run_traced(
        self,
        app: str,
        scheme: SchedulerConfig,
        *,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
        log_commands: bool = True,
    ) -> tuple[SimReport, GPUSystem, MetricsHub]:
        """Simulate one cell with full observability attached.

        Returns ``(report, system, hub)``: the report carries the
        windowed ``timeline``, the system retains the per-channel DRAM
        command logs (for the Chrome trace exporter), and the hub holds
        the named counters/gauges. Traced runs always simulate from
        scratch — command logs live on the system, not in the report,
        so neither the memo nor the disk cache can serve them — but the
        report itself is still deterministic and field-identical (minus
        ``timeline``) to an untraced run of the same cell.
        """
        cell = self.cell(app, scheme)
        reset_request_ids()
        workload = cell.workload()
        hub = MetricsHub(window_cycles=window_cycles)
        system = GPUSystem.from_spec(
            cell.spec, log_commands=log_commands, telemetry=hub
        )
        start = time.perf_counter()
        report = system.run(
            workload.warp_streams(system.config),
            workload_name=workload.name,
            stream_tenants=getattr(workload, "stream_tenants", None),
        )
        self.simulations_run += 1
        self._log(
            app, scheme.name,
            f"traced in {time.perf_counter() - start:.1f}s, "
            f"{len(report.timeline or [])} windows",
        )
        return report, system, hub

    # ------------------------------------------------------------------
    def run_matrix(
        self,
        apps: Iterable[str],
        schemes: dict[str, SchedulerConfig],
        *,
        measure_error: bool = False,
        jobs: Optional[int] = None,
        keep_going: Optional[bool] = None,
    ) -> MatrixResult:
        """Simulate every (app, scheme) pair.

        Cells sharing a content key (e.g. a baseline reused by several
        experiments) are deduplicated before dispatch and simulated once.
        With ``jobs > 1`` the deduplicated cells run concurrently in a
        process pool; results are identical to a serial run — including
        after retries, timeouts, and pool rebuilds, because every
        attempt re-seeds the request-id counter and simulates from
        scratch.

        A cell that fails all ``1 + retries`` attempts is quarantined
        for the rest of the runner's life: a later request for it (say,
        a figure reading its sweep cell by cell) reports the recorded
        failure instead of simulating again. With ``keep_going``
        (argument overrides the runner default) the returned
        :class:`MatrixResult` carries every healthy cell plus the
        failure manifest; otherwise the sweep still *completes* the
        remaining cells and then raises
        :class:`~repro.errors.CellFailedError`.
        """
        jobs = self.jobs if jobs is None else jobs
        keep_going = self.keep_going if keep_going is None else keep_going
        cells: dict[tuple[str, str], str] = {}
        specs: dict[str, tuple[CellSpec, str]] = {}
        for app in apps:
            for label, scheme in schemes.items():
                cell = self.cell(app, scheme, measure_error)
                key = cell.key
                cells[(app, label)] = key
                # First label wins for logging; the report is identical.
                specs.setdefault(key, (cell, label))
        failed = {f.key: f for f in self.failures}
        todo: dict[str, tuple[CellSpec, str]] = {}
        for key, (cell, label) in specs.items():
            if key in self._memo or key in failed:
                continue
            if self.cache is not None:
                cached = self.cache.load(key)
                if cached is not None:
                    self._log(cell.app, label, "disk cache hit")
                    self._memo[key] = cached
                    continue
            todo[key] = (cell, label)
        if todo:
            tasks = [
                _CellTask(key=key, cell=cell, label=label, index=i)
                for i, (key, (cell, label)) in enumerate(todo.items())
            ]
            use_pool = (
                not self.profile  # workers cannot be profiled from here
                and (
                    (jobs > 1 and len(tasks) > 1)
                    or self.cell_timeout is not None
                )
            )
            if use_pool:
                new = self._run_supervised(tasks, max(jobs, 1))
            else:
                new = self._run_serial(tasks)
            self.failures.extend(new)
            failed.update((f.key, f) for f in new)
        result = MatrixResult()
        for cell, key in cells.items():
            if key in self._memo:
                result[cell] = self._memo[key]
            elif key in failed:
                result.failed_cells[cell] = failed[key]
        result.failures = list(
            {f.key: f for f in result.failed_cells.values()}.values()
        )
        if result.failures and not keep_going:
            raise CellFailedError(
                f"{len(result.failures)} matrix cell(s) failed after "
                "retries: "
                + "; ".join(f.summary() for f in result.failures),
                failures=result.failures,
            )
        return result

    # ------------------------------------------------------------------
    # Attempt bookkeeping shared by the serial and pooled paths
    # ------------------------------------------------------------------
    def _backoff_delay(self, task: _CellTask) -> float:
        """Deterministic exponential backoff — no jitter, by design:
        reproducibility of a chaos run matters more here than the
        thundering-herd protection jitter buys on shared services."""
        return self.retry_backoff * (2.0 ** (task.attempts - 1))

    def _charge_attempt(
        self,
        task: _CellTask,
        exc: BaseException,
        elapsed: float,
        failures: list[CellFailure],
    ) -> bool:
        """Record a failed attempt; returns True when the cell should be
        retried (False = quarantined into ``failures``)."""
        task.record_error(exc, elapsed)
        self.metrics.inc(HARNESS_FAILED_ATTEMPTS)
        if isinstance(exc, CellTimeoutError):
            self.metrics.inc(HARNESS_TIMEOUTS)
        if isinstance(exc, WorkerCrashError):
            self.metrics.inc(HARNESS_WORKER_CRASHES)
        if task.attempts > self.retries:
            failure = task.to_failure()
            failures.append(failure)
            self.metrics.inc(HARNESS_QUARANTINED)
            self._log(
                task.cell.app, task.label,
                f"quarantined: {failure.error_type}: {failure.message}",
            )
            return False
        self.metrics.inc(HARNESS_RETRIES)
        self._log(
            task.cell.app, task.label,
            f"attempt {task.attempts} failed ({type(exc).__name__}: {exc}); "
            f"retrying in {self._backoff_delay(task):.2f}s",
        )
        return True

    def _run_serial(self, tasks: list[_CellTask]) -> list[CellFailure]:
        """In-process execution with retries (no preemption, no timeout)."""
        failures: list[CellFailure] = []
        for task in tasks:
            while True:
                start = time.perf_counter()
                try:
                    report, elapsed = self._simulate_inline(task)
                except Exception as exc:
                    wasted = time.perf_counter() - start
                    if not self._charge_attempt(
                        task, exc, wasted, failures
                    ):
                        break
                    time.sleep(self._backoff_delay(task))
                else:
                    self._finish(task, report, elapsed)
                    break
        return failures

    # ------------------------------------------------------------------
    # Supervised warm-worker pool
    # ------------------------------------------------------------------
    def _run_supervised(
        self, tasks: list[_CellTask], jobs: int
    ) -> list[CellFailure]:
        """Fan cells out over the persistent, self-healing warm pool.

        Two dispatch regimes:

        * no ``cell_timeout`` — the whole queue is dispatched at once,
          batched one pipe message per worker, and results stream back
          as they complete;
        * with a ``cell_timeout`` — at most ``workers`` cells are in
          flight, each on its own worker (the pool assigns
          least-loaded), so every submitted future is actually
          *running* and ``submit time + cell_timeout`` is an accurate
          kill deadline. A breached deadline kills exactly the worker
          hosting the expired cell; innocent in-flight neighbours keep
          running undisturbed.

        A worker that dies fails only its own in-flight futures (as
        :class:`~repro.errors.WorkerCrashError` attempts, charged here
        through the ordinary retry path) and its slot respawns inside
        the pool — there is no whole-pool teardown to recover from.
        """
        failures: list[CellFailure] = []
        workers = max(1, min(jobs, len(tasks)))
        pool = self._ensure_pool(workers)
        queue: Deque[_CellTask] = deque(tasks)
        running: dict = {}  # future -> (task, submit_time, deadline)
        limit = workers if self.cell_timeout is not None else len(tasks)

        def submit_ready(now: float) -> None:
            batch: list[_CellTask] = []
            scanned = 0
            while (
                queue
                and len(running) + len(batch) < limit
                and scanned < len(queue)
            ):
                task = queue.popleft()
                if task.next_ready > now:
                    queue.append(task)
                    scanned += 1
                    continue
                batch.append(task)
            if not batch:
                return
            futures = pool.submit_many([
                (
                    task.key, task.cell, self.faults,
                    task.index, task.attempts + 1,
                )
                for task in batch
            ])
            deadline = (
                now + self.cell_timeout
                if self.cell_timeout is not None else None
            )
            for task, future in zip(batch, futures):
                running[future] = (task, now, deadline)

        def requeue(task: _CellTask, delay: float) -> None:
            task.next_ready = time.monotonic() + delay
            queue.append(task)

        def fail_attempt(
            task: _CellTask, exc: BaseException, elapsed: float
        ) -> None:
            if self._charge_attempt(task, exc, elapsed, failures):
                requeue(task, self._backoff_delay(task))

        while queue or running:
            now = time.monotonic()
            submit_ready(now)
            if not running:
                # Nothing in flight: sleep until the earliest retry.
                wake = min(task.next_ready for task in queue)
                time.sleep(max(0.0, wake - now))
                continue
            wait_for: list[float] = []
            deadlines = [
                dl for (_, _, dl) in running.values() if dl is not None
            ]
            if deadlines:
                wait_for.append(min(deadlines) - now)
            if queue and len(running) < limit:
                wait_for.append(
                    min(t.next_ready for t in queue) - now
                )
            timeout = max(0.0, min(wait_for)) if wait_for else None
            done, _ = wait(
                set(running), timeout=timeout,
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()
            for future in done:
                task, submitted, _ = running.pop(future)
                try:
                    _, report, elapsed = future.result()
                except Exception as exc:
                    # Includes WorkerCrashError set by the pool when a
                    # worker died: only that worker's cells land here,
                    # and its slot has already respawned.
                    fail_attempt(task, exc, now - submitted)
                else:
                    self._finish(task, report, elapsed)
            if not done:
                expired = [
                    (future, task, submitted)
                    for future, (task, submitted, dl) in running.items()
                    if dl is not None and dl <= now and not future.done()
                ]
                for future, task, submitted in expired:
                    del running[future]
                    # Surgical kill: only the hung cell's worker dies
                    # (and respawns); the future was detached above, so
                    # the one charged attempt is the timeout below.
                    pool.kill_owner(future)
                    fail_attempt(
                        task,
                        CellTimeoutError(
                            f"{task.cell.app}/{task.label} exceeded "
                            f"the {self.cell_timeout:.1f}s per-cell "
                            "wall-clock timeout"
                        ),
                        now - submitted,
                    )
        return failures
