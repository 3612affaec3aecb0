"""Experiment runner: simulate (workload x scheme) matrices fast — and
survive partial failure while doing it.

Three layers keep repeated figure reproductions cheap:

1. **In-process memoization** — results are keyed by the *content* of the
   cell (workload, scale, seed, full scheduler + GPU config,
   measure_error), so two experiments that request the same baseline
   under different labels share one simulation. Within one serial call
   (or one worker batch) consecutive cells of one app also share one
   workload: its trace is built once and its exact output computed once
   (see :func:`_simulate_cell`).
2. **Persistent disk cache** (:mod:`repro.harness.cache`) — the same
   content key addresses a JSON blob under ``.repro-cache/``; a warm
   cache replays a whole matrix with zero simulations, across processes
   and sessions. ``REPRO_NO_CACHE=1`` bypasses it.
3. **Parallel execution** — ``Runner(jobs=N)`` fans the independent
   cells of :meth:`Runner.run_matrix` out over a persistent
   :class:`~repro.harness.pool.WarmPool`: workers import the simulation
   stack once, receive cells *batched* as pickled objects, and survive
   across ``run_matrix`` calls (so a benchmark loop pays the spawn
   cost once). Cells are deduplicated by content key before
   dispatch, and every cell (serial or parallel) resets the request-id
   counter first, so serial, parallel, and cached runs produce
   field-identical reports.

Every cell is described by one :class:`~repro.sim.spec.SimSpec`: the
runner's ``spec`` with the cell's scheme and ``measure_error`` put in.
:class:`CellSpec` is the only place a spec becomes a cell, and
:meth:`Runner.run` is a one-cell :meth:`Runner.run_matrix`, so a single
cell gets the same caching, retries, chaos and timeouts as a sweep.

On top of those sits the **fault-tolerance layer** (DESIGN goal: a
single crashed or hung worker must not throw away a whole sweep):

* every cell gets up to ``1 + retries`` attempts, retried after a
  deterministic (jitter-free) exponential backoff of
  ``retry_backoff * 2**(attempt-1)`` seconds. One
  :class:`~repro.harness.faults.CellAttempts` record per cell keeps
  that rule, in the serial loop and in the pool alike;
* pooled cells run under :func:`~repro.harness.pool.run_cells`, the
  same coroutine the service tier runs its jobs through;
* ``cell_timeout`` bounds each attempt's wall-clock time — the pool
  kills *exactly* the worker hosting the expired cell and respawns it;
  innocent in-flight cells keep running undisturbed;
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
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from repro.config.scheduler import SchedulerConfig
from repro.dram.request import reset_request_ids
from repro.errors import CellFailedError, CellTimeoutError, WorkerCrashError
from repro.harness.cache import ResultCache, cache_key
from repro.harness.faults import (
    CellAttempts,
    CellFailure,
    FaultPlan,
    corrupt_blob,
)
from repro.harness.pool import WarmPool, run_cells
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
    workloads: dict,
    faults: Optional[FaultPlan] = None,
    cell_index: Optional[int] = None,
    attempt: int = 1,
    in_worker: bool = False,
    on_window: Optional[Callable] = None,
) -> tuple[SimReport, float]:
    """Simulate one cell; returns (report, elapsed seconds).

    Runs identically in the parent process and in pool workers: the
    global request-id counter is re-seeded so request/drop ids — and
    therefore the full report — depend only on the cell itself, not on
    what simulated before it in the same process.

    ``workloads`` is a one-entry memo owned by the caller (one
    :meth:`Runner._run_serial` call, or one batch message in a pool
    worker): consecutive cells of one (app, scale, seed, tenants) share
    one workload, and with it one trace and one ``run_exact`` output.
    The previous entry is dropped before a new one is built. No run
    changes a workload: the simulator only iterates the trace, and the
    replay perturbs copies of the arrays.

    When a :class:`FaultPlan` is threaded through (chaos testing), its
    crash/exit/hang faults fire here — before any simulation state is
    touched — so an injected failure is indistinguishable from a real
    one to the supervising runner.

    ``on_window`` sees each telemetry window of a ``spec.telemetry``
    cell as it closes (a pool worker streams them to its parent).
    """
    if faults is not None and cell_index is not None:
        faults.fire_pre_simulation(cell_index, attempt, in_worker=in_worker)
    reset_request_ids()
    key = (cell.app, cell.scale, cell.seed, cell.spec.tenants)
    if key not in workloads:
        workloads.clear()
        workloads[key] = cell.workload()
    hub = None
    if on_window is not None and cell.spec.telemetry:
        hub = MetricsHub()
        hub.on_window = on_window
    start = time.perf_counter()
    report = simulate_spec(workloads[key], cell.spec, telemetry=hub)
    return report, time.perf_counter() - start


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
    survives across ``run_matrix`` calls). ``profile=True`` wraps every
    in-process cell in :mod:`cProfile` and collects the top cumulative
    frames into :attr:`profiles` (forces serial execution — a worker
    process cannot be profiled from the parent). ``cache=None`` disables
    the persistent disk layer; the default honours
    ``REPRO_NO_CACHE``/``REPRO_CACHE_DIR``.

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

    def close(self) -> None:
        """Shut the warm pool down (idempotent). The runner stays
        usable — the next pooled matrix simply rebuilds the pool."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    def _simulate_inline(
        self, record: CellAttempts, workloads: dict
    ) -> tuple[SimReport, float]:
        """In-process simulation of the cell's next attempt, optionally
        under the profiler."""
        profiler = cProfile.Profile() if self.profile else None
        if profiler is not None:
            profiler.enable()
        try:
            return _simulate_cell(
                record.cell, workloads=workloads, faults=self.faults,
                cell_index=record.index, attempt=record.attempts + 1,
            )
        finally:
            if profiler is not None:
                profiler.disable()
                buffer = io.StringIO()
                stats = pstats.Stats(profiler, stream=buffer)
                stats.sort_stats("cumulative").print_stats(PROFILE_TOP_N)
                self.profiles.append(
                    {"app": record.cell.app, "label": record.label,
                     "stats": buffer.getvalue()}
                )

    def _finish(
        self, record: CellAttempts, report: SimReport, elapsed: float
    ) -> None:
        """Account, log, memoize, and persist one freshly simulated cell."""
        cell, label = record.cell, record.label
        self.simulations_run += 1
        self.metrics.inc(HARNESS_SIMULATED)
        self._log(
            cell.app, label,
            f"{elapsed:.1f}s, acts={report.activations}, "
            f"ipc={report.ipc:.2f}",
        )
        self._memo[record.key] = report
        if self.cache is not None:
            path = self.cache.store(record.key, report, meta=cell.cache_meta)
            if (
                path is not None
                and self.faults is not None
                and self.faults.should_corrupt(record.index)
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
            workload.trace(system.config),
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
        attempt re-seeds the request-id counter and builds a fresh
        system, and no run changes the workload it shares.

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
            records = [
                CellAttempts(
                    cell=cell, key=key, label=label, index=i,
                    retries=self.retries, backoff=self.retry_backoff,
                )
                for i, (key, (cell, label)) in enumerate(todo.items())
            ]
            use_pool = (
                not self.profile  # workers cannot be profiled from here
                and (
                    (jobs > 1 and len(records) > 1)
                    or self.cell_timeout is not None
                )
            )
            if use_pool:
                self._run_supervised(records, max(jobs, 1))
            else:
                self._run_serial(records)
            failed = {f.key: f for f in self.failures}
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
    def _charge(
        self, record: CellAttempts, exc: BaseException, elapsed: float
    ) -> bool:
        """Charge a failed attempt; returns True when the cell is
        retried, False when it is quarantined into :attr:`failures`."""
        retry = record.fail(exc, elapsed)
        self.metrics.inc(HARNESS_FAILED_ATTEMPTS)
        if isinstance(exc, CellTimeoutError):
            self.metrics.inc(HARNESS_TIMEOUTS)
        if isinstance(exc, WorkerCrashError):
            self.metrics.inc(HARNESS_WORKER_CRASHES)
        if not retry:
            self.failures.append(record.failure())
            self.metrics.inc(HARNESS_QUARANTINED)
            self._log(
                record.cell.app, record.label,
                f"quarantined: {type(exc).__name__}: {exc}",
            )
            return False
        self.metrics.inc(HARNESS_RETRIES)
        self._log(
            record.cell.app, record.label,
            f"attempt {record.attempts} failed ({type(exc).__name__}: "
            f"{exc}); retrying in {record.delay():.2f}s",
        )
        return True

    def _run_serial(self, records: list[CellAttempts]) -> None:
        """In-process execution with retries (no preemption, no timeout).

        The cells arrive app by app, so the workload memo of this call
        serves each app's schemes from one workload."""
        workloads: dict = {}
        for record in records:
            while True:
                start = time.perf_counter()
                try:
                    report, elapsed = self._simulate_inline(
                        record, workloads
                    )
                except Exception as exc:
                    wasted = time.perf_counter() - start
                    if not self._charge(record, exc, wasted):
                        break
                    time.sleep(record.delay())
                else:
                    self._finish(record, report, elapsed)
                    break

    def _run_supervised(
        self, records: list[CellAttempts], jobs: int
    ) -> None:
        """Fan cells out over the persistent, self-healing warm pool.

        :func:`~repro.harness.pool.run_cells` supervises them, the same
        coroutine the service tier runs its jobs through: without a
        ``cell_timeout`` every cell goes out at once, batched one pipe
        message per worker; with one, each in-flight cell has a worker
        of its own and a breached deadline kills exactly that worker.
        Failed attempts are charged through :meth:`_charge`, successes
        through :meth:`_finish`, each as it arrives.
        """
        import asyncio  # not at module level: see run_cells

        pool = self._ensure_pool(max(1, min(jobs, len(records))))
        asyncio.run(run_cells(
            pool, records, faults=self.faults, timeout=self.cell_timeout,
            charge=self._charge, finish=self._finish,
        ))
