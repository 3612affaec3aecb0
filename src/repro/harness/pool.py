"""Persistent warm-worker pool for matrix execution.

The seed harness paid the full worker start-up price on every
``run_matrix`` call: a fresh :class:`~concurrent.futures.ProcessPoolExecutor`,
one pickled ``(CellSpec, FaultPlan)`` round trip per cell, and the whole
pool torn down at the end of the sweep.  :class:`WarmPool` replaces that
with workers that outlive individual matrices:

* **Warm workers** — each worker process imports the simulation stack
  once, at start-up, then sits on a duplex pipe waiting for cells.  The
  pool itself is owned by the :class:`~repro.harness.runner.Runner` and
  reused across ``run_matrix`` calls, so a benchmark loop or a sweep of
  sweeps pays the spawn/import cost once.
* **Batched dispatch** — :meth:`submit_many` groups cells into one
  message per worker; the worker streams one result message back per
  cell as it completes, so batching costs no latency at the tail.
* **Pickled objects** — both ends run the same code, so a cell, its
  :class:`~repro.harness.faults.FaultPlan`, each telemetry window and
  the finished :class:`~repro.sim.report.SimReport` cross the pipe as
  the objects themselves, pickled, and so does a failing cell's
  exception, so the supervisor sees its real type (e.g. ``ChaosCrash``).
* **Live telemetry** — while a ``spec.telemetry`` cell runs, its
  worker sends each window as the sampler closes it, a ``win`` message
  ahead of the cell's ``ok`` or ``err``; the collector hands it to the
  ``on_window`` sink the cell was submitted with.
* **Surgical supervision** — the pool knows which worker runs which
  future.  A dead worker fails only *its* in-flight futures (with
  :class:`~repro.errors.WorkerCrashError`) and is respawned alone;
  :meth:`kill_owner` lets the runner kill exactly the worker hosting a
  timed-out cell.  The seed executor could only declare the whole pool
  broken.  Every respawn notifies ``on_rebuild`` (the runner wires this
  to the ``harness.pool_rebuilds`` metric).

The pool resolves plain :class:`concurrent.futures.Future` objects.
:func:`run_cells` is the one supervisor on top of it: it runs a list of
cells until each succeeds or exhausts its retries, and both the
runner's ``--jobs N`` sweeps and the service tier's jobs go through it.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from concurrent.futures import Future
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import CellTimeoutError, WorkerCrashError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.harness.faults import CellAttempts, FaultPlan
    from repro.sim.report import SimReport
    from repro.telemetry.series import WindowSample

#: A work item: ``(CellSpec, FaultPlan | None, cell index, attempt)``.
WorkItem = tuple


class _RemoteTraceback(Exception):
    """Carrier for a worker-side traceback text.

    Attached as ``__cause__`` of the re-raised worker exception (the
    same trick ``concurrent.futures.process`` uses), so the supervisor's
    ``traceback.format_exception`` output contains the *worker's* frames
    — chaos tests grep that text for the injected exception.
    """

    def __init__(self, tb: str) -> None:
        super().__init__()
        self.tb = tb

    def __str__(self) -> str:
        return self.tb


def _worker_main(conn) -> None:
    """Worker process body: drain batches from ``conn`` until EOF/None.

    The simulation stack is imported up front — that is the "warm" in
    warm pool.  Under the fork start method the import is free (copy-on-
    write from the parent); under spawn it is paid once per worker
    instead of once per cell.

    Each cell ends in ``("ok", task, report, secs)`` or ``("err", task,
    exc, traceback)``; a telemetry cell sends ``("win", task, sample)``
    for each window before that.  Chaos faults fire inside
    ``_simulate_cell`` with ``in_worker=True``, so an injected ``exit``
    genuinely kills this process.  Besides cell batches the pipe
    carries ``("ping", seq)`` heartbeat probes, answered with
    ``("pong", seq, pid)``.  A worker only reads the pipe
    between batches, so a pong certifies *idle* liveness; a worker busy
    simulating answers late, which is exactly why busy workers are
    supervised by per-job deadlines instead.
    """
    import os as os_mod

    # Pre-imports the whole simulation stack.
    from repro.harness.runner import _simulate_cell

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        if isinstance(msg, tuple) and msg and msg[0] == "ping":
            try:
                conn.send(("pong", msg[1], os_mod.getpid()))
            except (OSError, ValueError):
                return
            continue
        # One batch message shares a workload memo; an idle worker
        # keeps no workload alive.
        workloads: dict = {}
        for task_id, (cell, faults, index, attempt) in msg:
            def on_window(sample, task_id=task_id) -> None:
                conn.send(("win", task_id, sample))

            try:
                report, elapsed = _simulate_cell(
                    cell, workloads=workloads, faults=faults,
                    cell_index=index, attempt=attempt, in_worker=True,
                    on_window=on_window,
                )
                conn.send(("ok", task_id, report, elapsed))
            except Exception as exc:
                tb = traceback.format_exc()
                try:
                    conn.send(("err", task_id, exc, tb))
                except Exception:
                    # The exception itself would not pickle; degrade to
                    # a plain carrier keeping the original type's name.
                    conn.send((
                        "err", task_id,
                        RuntimeError(f"{type(exc).__name__}: {exc}"), tb,
                    ))
        workloads.clear()


class _CellFuture(Future):
    """A cell's future, with the sink of its streamed telemetry windows."""

    def __init__(self, on_window: Optional[Callable]) -> None:
        super().__init__()
        self.on_window = on_window


class _ProcessWorker:
    """Parent-side handle of one worker process."""

    __slots__ = (
        "conn", "proc", "inflight", "dead",
        "spawned_at", "last_pong", "tasks_done", "crashes_seen",
    )

    def __init__(self, conn, proc) -> None:
        self.conn = conn
        self.proc = proc
        #: task_id -> Future of every cell dispatched but unresolved.
        self.inflight: dict[int, Future] = {}
        self.dead = False
        self.spawned_at = time.time()
        #: Wall time of the last heartbeat answer (spawn counts as one).
        self.last_pong = self.spawned_at
        #: Cells this worker resolved (ok or err) over its lifetime.
        self.tasks_done = 0
        #: Failed cells resolved by this worker (chaos/errors).
        self.crashes_seen = 0


class WarmPool:
    """A self-healing pool of persistent simulation workers."""

    def __init__(
        self,
        workers: int,
        *,
        on_rebuild: Optional[Callable[[], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"pool needs >= 1 worker, got {workers}")
        self.size = workers
        self.closed = False
        self._on_rebuild = on_rebuild
        self._lock = threading.Lock()
        self._next_id = 0
        self._ping_seq = 0
        #: Workers respawned in place over the pool's lifetime.
        self.respawns = 0
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers = [self._spawn() for _ in range(workers)]
        self._collector = threading.Thread(
            target=self._collect_loop,
            name="repro-warm-collector", daemon=True,
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def submit_many(
        self,
        items: list[WorkItem],
        on_window: Optional[Callable[["WindowSample"], None]] = None,
    ) -> list[Future]:
        """Dispatch cells batched per worker, one pipe message each; each
        future resolves to ``(report, seconds)``.

        Assignment is least-loaded: while the supervising runner keeps
        at most ``size`` cells in flight (the timeout mode), every cell
        is guaranteed its own worker — which is what makes the runner's
        ``submit time + timeout`` deadline accurate and its kill
        surgical. ``on_window`` receives, on the collector thread, each
        telemetry window these cells' workers stream while their
        futures are pending.
        """
        futures: list[Future] = []
        batches: dict[int, list[tuple[int, WorkItem]]] = {}
        with self._lock:
            if self.closed:
                raise RuntimeError("warm pool is shut down")
            workers = self._workers
            for item in items:
                task_id = self._next_id
                self._next_id += 1
                future = _CellFuture(on_window)
                target = min(
                    range(len(workers)),
                    key=lambda i: (len(workers[i].inflight), i),
                )
                workers[target].inflight[task_id] = future
                batches.setdefault(target, []).append((task_id, item))
                futures.append(future)
        for target, batch in batches.items():
            worker = workers[target]
            try:
                worker.conn.send(batch)
            except (OSError, ValueError):
                self._worker_died(worker)
        return futures

    # ------------------------------------------------------------------
    # Supervision hooks
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(future: Future, *, result=None, exc=None) -> None:
        """Resolve a future, tolerating one already cancelled/resolved.

        The service tier awaits pool futures through ``asyncio.wait_for``,
        whose timeout path *cancels* the (still pending) future before
        the supervisor gets to :meth:`kill_owner`.  A result racing in
        from the collector thread must not kill the collector with an
        ``InvalidStateError``.
        """
        try:
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)
        except Exception:
            pass  # cancelled or already resolved: the waiter moved on

    def ping(self) -> int:
        """Send one heartbeat probe to every live worker.

        Returns the number of probes sent.  Answers arrive on the
        collector thread and update each worker's ``last_pong``; read
        them back through :meth:`worker_states`.  A worker that is busy
        simulating answers only after finishing its current batch — the
        heartbeat certifies *idle* liveness, per-job deadlines cover
        busy workers.
        """
        with self._lock:
            if self.closed:
                return 0
            self._ping_seq += 1
            seq = self._ping_seq
            targets = [w for w in self._workers if not w.dead]
        sent = 0
        for worker in targets:
            try:
                worker.conn.send(("ping", seq))
                sent += 1
            except (OSError, ValueError):
                self._worker_died(worker)
        return sent

    def worker_states(self) -> list[dict]:
        """Introspection snapshot of every worker slot (for healthz): pid,
        in-flight load, heartbeat age, and lifetime counters."""
        now = time.time()
        with self._lock:
            workers = list(self._workers)
        return [
            {
                "mode": "process",
                "pid": w.proc.pid,
                "alive": (not w.dead) and w.proc.is_alive(),
                "busy": len(w.inflight) > 0,
                "inflight": len(w.inflight),
                "heartbeat_age_seconds": max(0.0, now - w.last_pong),
                "uptime_seconds": max(0.0, now - w.spawned_at),
                "tasks_done": w.tasks_done,
                "tasks_failed": w.crashes_seen,
            }
            for w in workers
        ]

    def reap_stale(self, max_age: float) -> int:
        """Kill and respawn *idle* workers whose heartbeat went silent.

        A worker with cells in flight is never touched here (its
        supervisor's per-job deadline covers it); an idle worker that
        has not answered a ping — nor delivered any message — for
        ``max_age`` seconds is wedged and gets its slot respawned.
        Returns the number of workers replaced.
        """
        now = time.time()
        stale: list[_ProcessWorker] = []
        with self._lock:
            if self.closed:
                return 0
            for i, worker in enumerate(self._workers):
                if (
                    not worker.dead
                    and not worker.inflight
                    and now - worker.last_pong > max_age
                ):
                    worker.dead = True
                    stale.append(worker)
                    self._workers[i] = self._spawn()
        for worker in stale:
            self._reap(worker, terminate=True)
            self._note_rebuild()
        return len(stale)

    def kill_owner(self, future: Future) -> bool:
        """Kill and respawn the worker hosting ``future`` (timed out).

        The future itself is detached *without* being resolved — the
        caller has already charged it a timeout.  Any other in-flight
        future on the same worker (none in timeout mode, where the
        runner keeps one cell per worker) fails with
        :class:`WorkerCrashError`.  Returns False when no live worker
        hosts the future.
        """
        with self._lock:
            owner = None
            for worker in self._workers:
                if worker.dead:
                    continue
                if any(f is future for f in worker.inflight.values()):
                    owner = worker
                    break
            if owner is None:
                return False
            owner.dead = True
            victims = [
                f for f in owner.inflight.values() if f is not future
            ]
            owner.inflight = {}
            self._workers[self._workers.index(owner)] = self._spawn()
        self._reap(owner, terminate=True)
        for victim in victims:
            self._resolve(victim, exc=WorkerCrashError(
                "warm-pool worker killed while a neighbouring cell "
                "was in flight"
            ))
        self._note_rebuild()
        return True

    def close(self) -> None:
        """Stop every worker; idempotent — safe to call any number of
        times, from user code and the runner's ``weakref.finalize``
        both.  The first call tears the pool down (failing in-flight
        cells with :class:`WorkerCrashError`); later calls see the
        ``closed`` flag under the lock and return without touching the
        already-reaped pipes or processes."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            workers = list(self._workers)
            self._workers = []
        victims: list[Future] = []
        for worker in workers:
            victims.extend(worker.inflight.values())
            worker.inflight = {}
            worker.dead = True
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
            self._reap(worker, terminate=True)
        for victim in victims:
            self._resolve(victim, exc=WorkerCrashError(
                "warm pool shut down with cells in flight"
            ))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _spawn(self) -> _ProcessWorker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn,),
            name="repro-warm-worker", daemon=True,
        )
        proc.start()
        child_conn.close()
        return _ProcessWorker(parent_conn, proc)

    def _reap(self, worker: _ProcessWorker, *, terminate: bool) -> None:
        if terminate:
            try:
                worker.proc.terminate()
            except Exception:
                pass
        try:
            worker.proc.join(timeout=2.0)
        except Exception:
            pass
        try:
            worker.conn.close()
        except OSError:
            pass

    def _note_rebuild(self) -> None:
        self.respawns += 1
        if self._on_rebuild is not None:
            try:
                self._on_rebuild()
            except Exception:
                pass

    def _worker_died(self, worker: _ProcessWorker) -> None:
        """A worker's pipe hit EOF: fail its cells, respawn its slot."""
        with self._lock:
            if worker.dead or self.closed:
                return
            worker.dead = True
            victims = list(worker.inflight.values())
            worker.inflight = {}
            self._workers[self._workers.index(worker)] = self._spawn()
        self._reap(worker, terminate=True)
        for victim in victims:
            self._resolve(victim, exc=WorkerCrashError(
                "warm-pool worker died while a cell was in flight"
            ))
        self._note_rebuild()

    def _collect_loop(self) -> None:
        """Collector thread: resolve futures as result messages arrive."""
        while True:
            with self._lock:
                if self.closed:
                    return
                live = {
                    w.conn: w for w in self._workers if not w.dead
                }
            if not live:
                time.sleep(0.01)
                continue
            try:
                ready = mp_connection.wait(list(live), timeout=0.2)
            except OSError:
                continue
            for conn in ready:
                worker = live[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._worker_died(worker)
                    continue
                self._deliver(worker, msg)

    def _deliver(self, worker: _ProcessWorker, msg: tuple) -> None:
        kind = msg[0]
        # Any message off the pipe proves the worker alive — refresh the
        # heartbeat so a long simulation is not misread as a wedge.
        worker.last_pong = time.time()
        if kind == "pong":
            return
        task_id = msg[1]
        with self._lock:
            if kind == "win":
                # Under the lock, so no window reaches the sink of a
                # future that kill_owner/close has detached.
                future = worker.inflight.get(task_id)
                if future is not None and future.on_window is not None:
                    future.on_window(msg[2])
                return
            future = worker.inflight.pop(task_id, None)
        if future is None:  # detached by kill_owner/close
            return
        worker.tasks_done += 1
        if kind == "ok":
            _, _, report, elapsed = msg
            self._resolve(future, result=(report, elapsed))
        else:
            worker.crashes_seen += 1
            _, _, exc, tb = msg
            exc.__cause__ = _RemoteTraceback(tb)
            self._resolve(future, exc=exc)


async def run_cells(
    pool: WarmPool,
    cells: list["CellAttempts"],
    *,
    faults: Optional["FaultPlan"] = None,
    timeout: Optional[float] = None,
    charge: Callable[["CellAttempts", BaseException, float], bool],
    finish: Callable[["CellAttempts", "SimReport", float], None],
    on_dispatch: Optional[Callable[["CellAttempts"], None]] = None,
    on_window: Optional[Callable[["WindowSample"], None]] = None,
) -> None:
    """Run ``cells`` on ``pool`` until each succeeds or is quarantined.

    Each success goes to ``finish(record, report, seconds)`` as it
    arrives; each failed attempt to ``charge(record, error, seconds)``,
    which logs it on the record and returns whether to retry it after
    ``record.delay()``. ``on_dispatch`` sees every attempt as it is sent,
    and ``on_window`` each telemetry window an attempt streams, on the
    pool's collector thread (the service tier runs one cell a call); a
    retried attempt streams its windows again from the first.

    * With no ``timeout`` every first attempt goes out in one
      :meth:`WarmPool.submit_many`, one message per worker, so the
      cells one worker receives share its workload memo.
    * With a ``timeout`` at most ``pool.size`` cells are in flight,
      each on its own worker (the pool assigns least-loaded), so
      dispatch time + ``timeout`` is an accurate deadline. A cell whose
      time runs out is charged a :class:`~repro.errors.CellTimeoutError`
      and :meth:`WarmPool.kill_owner` kills exactly its worker.

    A worker that dies fails only its own cells, as
    :class:`~repro.errors.WorkerCrashError` attempts, and its slot
    respawns inside the pool.
    """
    # Imported here, not with the module: asyncio loads ssl, which costs
    # a serial sweep (which never runs this) ~3 MB and ~45 ms of start-up.
    import asyncio

    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(pool.size) if timeout is not None else None

    def submit(batch: list["CellAttempts"]) -> list[Future]:
        for record in batch:
            if on_dispatch is not None:
                on_dispatch(record)
        return pool.submit_many([
            (record.cell, faults, record.index, record.attempts + 1)
            for record in batch
        ], on_window)

    sent = time.monotonic()
    first = submit(cells) if slots is None else None

    async def supervise(n: int, record: "CellAttempts") -> None:
        future = first[n] if first is not None else None
        started = sent
        while True:
            if slots is not None:
                await slots.acquire()
            try:
                if future is None:
                    started = time.monotonic()
                    future = submit([record])[0]
                try:
                    report, elapsed = await asyncio.wait_for(
                        asyncio.wrap_future(future), timeout
                    )
                except asyncio.TimeoutError:
                    # wait_for cancelled the future; the pool detaches
                    # it and respawns the one worker that hosted it.
                    await loop.run_in_executor(
                        None, pool.kill_owner, future
                    )
                    error: BaseException = CellTimeoutError(
                        f"{record.cell.app}/{record.label} exceeded the "
                        f"{timeout:.1f}s per-cell wall-clock timeout"
                    )
                except Exception as exc:
                    error = exc
                else:
                    finish(record, report, elapsed)
                    return
            finally:
                if slots is not None:
                    slots.release()
            if not charge(record, error, time.monotonic() - started):
                return
            await asyncio.sleep(record.delay())
            future = None

    await asyncio.gather(
        *(supervise(n, record) for n, record in enumerate(cells))
    )


__all__ = ["WarmPool", "WorkItem", "run_cells"]
