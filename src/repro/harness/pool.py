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
* **Codec wire format** — cells travel as the JSON-shaped dicts of
  :mod:`repro.config.codec` (the same encoding the disk cache and the
  service API use), and reports come back as ``SimReport.to_dict()``
  payloads.  Nothing on the hot path depends on pickling repro classes;
  only a *failing* cell's exception object rides the pipe's native
  pickle so the supervisor sees the real type (e.g. ``ChaosCrash``).
* **Surgical supervision** — the pool knows which worker runs which
  future.  A dead worker fails only *its* in-flight futures (with
  :class:`~repro.errors.WorkerCrashError`) and is respawned alone;
  :meth:`kill_owner` lets the runner kill exactly the worker hosting a
  timed-out cell.  The seed executor could only declare the whole pool
  broken.  Every respawn notifies ``on_rebuild`` (the runner wires this
  to the ``harness.pool_rebuilds`` metric).

The pool resolves plain :class:`concurrent.futures.Future` objects, so
the supervising runner keeps using ``concurrent.futures.wait``.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from concurrent.futures import Future
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Optional

from repro.errors import WorkerCrashError

#: A work item, exactly the tuple the seed pool entry point took:
#: ``(cache key, CellSpec, FaultPlan | None, cell index, attempt)``.
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


def _encode_item(item: WorkItem) -> dict:
    """Work item -> codec-shaped wire payload."""
    from repro.config import codec

    key, spec, faults, index, attempt = item
    return {
        "key": key,
        "cell": codec.encode(spec),
        "faults": codec.encode(faults) if faults is not None else None,
        "index": index,
        "attempt": attempt,
    }


def _run_payload(payload: dict, workloads: dict) -> tuple[str, dict, float]:
    """Decode and simulate one cell; returns (key, report dict, secs).

    Runs inside a worker process, with ``workloads`` the one-entry
    workload memo of the batch. Chaos faults fire inside
    ``_simulate_cell`` with ``in_worker=True``, so an injected ``exit``
    genuinely kills this process.
    """
    from repro.config import codec
    from repro.harness import runner as runner_mod
    from repro.harness.faults import FaultPlan

    spec = codec.decode(runner_mod.CellSpec, payload["cell"])
    faults = (
        codec.decode(FaultPlan, payload["faults"])
        if payload["faults"] is not None
        else None
    )
    report, elapsed = runner_mod._simulate_cell(
        spec,
        workloads=workloads,
        faults=faults,
        cell_index=payload["index"],
        attempt=payload["attempt"],
        in_worker=True,
    )
    return payload["key"], report.to_dict(), elapsed


def _worker_main(conn) -> None:
    """Worker process body: drain batches from ``conn`` until EOF/None.

    The simulation stack is imported up front — that is the "warm" in
    warm pool.  Under the fork start method the import is free (copy-on-
    write from the parent); under spawn it is paid once per worker
    instead of once per cell.

    Besides cell batches the pipe carries ``("ping", seq)`` heartbeat
    probes, answered with ``("pong", seq, pid)``.  A worker only reads
    the pipe between batches, so a pong certifies *idle* liveness; a
    worker busy simulating answers late, which is exactly why busy
    workers are supervised by per-job deadlines instead.
    """
    import os as os_mod

    import repro.harness.runner  # noqa: F401  (pre-import the stack)
    import repro.sim.system  # noqa: F401

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
        for task_id, payload in msg:
            try:
                key, report_dict, elapsed = _run_payload(payload, workloads)
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
            else:
                conn.send(("ok", task_id, key, report_dict, elapsed))
        workloads.clear()


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
    def submit(self, item: WorkItem) -> Future:
        """Dispatch one cell; the future resolves to (key, report, s)."""
        return self.submit_many([item])[0]

    def submit_many(self, items: list[WorkItem]) -> list[Future]:
        """Dispatch cells batched per worker, one pipe message each.

        Assignment is least-loaded: while the supervising runner keeps
        at most ``size`` cells in flight (the timeout mode), every cell
        is guaranteed its own worker — which is what makes the runner's
        ``submit time + timeout`` deadline accurate and its kill
        surgical.
        """
        futures: list[Future] = []
        batches: dict[int, list[tuple[int, dict]]] = {}
        with self._lock:
            if self.closed:
                raise RuntimeError("warm pool is shut down")
            workers = self._workers
            for item in items:
                task_id = self._next_id
                self._next_id += 1
                future: Future = Future()
                target = min(
                    range(len(workers)),
                    key=lambda i: (len(workers[i].inflight), i),
                )
                workers[target].inflight[task_id] = future
                batches.setdefault(target, []).append(
                    (task_id, _encode_item(item))
                )
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
        from repro.sim.report import SimReport

        kind = msg[0]
        # Any message off the pipe proves the worker alive — refresh the
        # heartbeat so a long simulation is not misread as a wedge.
        worker.last_pong = time.time()
        if kind == "pong":
            return
        task_id = msg[1]
        with self._lock:
            future = worker.inflight.pop(task_id, None)
        if future is None:  # detached by kill_owner/close
            return
        worker.tasks_done += 1
        if kind == "ok":
            _, _, key, report_dict, elapsed = msg
            try:
                report = SimReport.from_dict(report_dict)
            except Exception as exc:
                self._resolve(future, exc=exc)
            else:
                self._resolve(future, result=(key, report, elapsed))
        else:
            worker.crashes_seen += 1
            _, _, exc, tb = msg
            exc.__cause__ = _RemoteTraceback(tb)
            self._resolve(future, exc=exc)


__all__ = ["WarmPool", "WorkItem"]
