"""The simulation-service daemon: a stdlib-only asyncio HTTP server.

``repro-harness serve`` turns the repository into a long-lived,
multi-tenant simulation service::

    POST /v1/jobs               submit a JSON SimSpec job -> job id
    GET  /v1/jobs/<id>          status (+ full SimReport when done)
    GET  /v1/jobs/<id>/events   SSE stream: state changes + per-window
                                telemetry (BWUTIL, activations, drops,
                                live Dyn-DMS X / Dyn-AMS Th_RBL)
    POST /v1/jobs/<id>/cancel   cancel a queued job
    GET  /v1/healthz            liveness probe
    GET  /v1/stats              service counters + queue + cache snapshot
    POST /v1/shutdown           graceful drain + stop
    GET  /v1/experiments        results-warehouse rows (filterable by
                                ?app=&scheme=&device=&ecc=&seed=)
    GET  /v1/experiments/<key>  one flattened experiment + report blob
    GET  /v1/experiments/summary  seed-statistics aggregates — the same
                                ``ExperimentResults.summary()`` document
                                the ``report render`` templates consume

Execution reuses the existing harness stack end to end: admission is
cache-first against the shared :class:`~repro.harness.cache.ResultCache`,
identical in-flight specs coalesce onto one computation
(:mod:`repro.service.queue`), and every job runs on a **supervised
worker tier** (:class:`~repro.service.workers.WorkerTier`): ``workers``
persistent simulator *processes* over a
:class:`~repro.harness.pool.WarmPool`, with heartbeats, per-job
wall-clock deadlines, and in-place respawn — a crashing or hung worker
fails only its own in-flight job and never takes the daemon down.
A job whose spec asks for telemetry takes the same path: its worker
sends each :class:`~repro.telemetry.series.WindowSample` over the pool
pipe as it closes, so SSE watchers see the windows *while the
simulation is running*, and the job is killed at ``cell_timeout`` and
takes a chaos ordinal like any other.

Robustness layers around the tier:

* **circuit breaker** (:mod:`repro.service.breaker`) — a content key
  that keeps failing terminally is quarantined at admission with a
  structured HTTP 422 instead of burning workers on every retry;
* **load shedding** — when every tier worker is busy and the queue is
  past its watermark, submissions get an immediate 429 +
  ``Retry-After`` instead of unbounded queueing;
* **graceful degradation** — with the execution tier down, exact cache
  hits still serve, related specs get the last completed *stale* report
  (labeled ``degraded`` + ``X-Repro-Degraded`` header), everything else
  a 503 with a retry hint;
* **crash-safe SSE** (:mod:`repro.service.stream`) — each job owns a
  bounded event ring with monotonically increasing ids; any number of
  watchers fan out from one ring and a dropped client reconnects with
  ``Last-Event-ID`` to replay exactly what it missed.

Every submission/transition is journalled
(:class:`~repro.service.jobs.JobJournal`); a restarted daemon replays
the journal, keeps terminal jobs addressable (results re-served from
the cache by content key), and re-queues interrupted work.

A report crosses the daemon as one encoding, the compact JSON bytes of
:func:`~repro.harness.cache.encode_report`: the cache stores them, a
hit reads them back digest-checked, and :meth:`ServiceDaemon._respond`
splices them into the job document as ``"result"``. The daemon decodes
a report only for an SSE watcher's terminal frame.

The HTTP layer is deliberately minimal (HTTP/1.1, ``Connection:
close``, JSON bodies) — no framework, no new dependencies.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import traceback as traceback_mod
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.analytics.results import ExperimentResults
from repro.analytics.warehouse import (
    FILTER_COLUMNS,
    Warehouse,
    resolve_warehouse_path,
)
from repro.errors import ConfigError, JobStateError
from repro.harness.cache import ResultCache, encode_report
from repro.harness.faults import FaultPlan
from repro.service.breaker import CircuitBreaker, RejectedByBreaker
from repro.service.jobs import (
    Job,
    JobJournal,
    JobState,
    replay_journal,
)
from repro.service.queue import ADMIT_CACHED, JobQueue, QueueFullError
from repro.service.stream import DEFAULT_RING_EVENTS, EventRing, sse_frame
from repro.service.workers import TierExecutionFailed, WorkerTier
from repro.sim.report import SimReport
# Nothing here calls it since every job runs on the worker tier, but
# perfbench/daemon.py:93 wraps this module attribute (looked up with
# inspect.getattr_static) in traced runs, which fail without it.
from repro.sim.system import simulate_spec  # noqa: F401
from repro.telemetry.hub import (
    MetricsHub,
    SERVICE_BREAKER_OPENED,
    SERVICE_BREAKER_REJECTED,
    SERVICE_CANCELLED,
    SERVICE_COMPLETED,
    SERVICE_FAILED,
    SERVICE_RECOVERED,
    SERVICE_SHED,
    SERVICE_SIMULATIONS,
    SERVICE_SSE_STREAMS,
    SERVICE_STALE_SERVED,
    SERVICE_SUBMITTED,
)

#: Default TCP port (unassigned by IANA; "DRAM" on a phone keypad is
#: taken, so this is simply stable and memorable for local use).
DEFAULT_PORT = 8732

#: Default journal location, beside (not inside) the result cache.
DEFAULT_JOURNAL = ".repro-service/journal.jsonl"

#: Upper bound on request bodies (a SimSpec is a few KB; 8 MB is ample).
_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Seconds an SSE watcher sleeps between polls of its job's event ring.
SSE_POLL_SECONDS = 0.05

#: Holds a job document's ``"result"`` place while the document is
#: encoded; :meth:`ServiceDaemon._respond` swaps the report's bytes in.
_RESULT_SLOT = "\x00result\x00"
_RESULT_SLOT_JSON = json.dumps(_RESULT_SLOT).encode("utf-8")

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceDaemon:
    """One serving instance: HTTP front, bounded queue, worker tier.

    ``workers=0`` is admission-only mode (jobs queue but never run) —
    useful for tests exercising backpressure and cancellation
    deterministically.  Otherwise every job runs on the supervised
    :class:`~repro.service.workers.WorkerTier` of simulator processes;
    the daemon's executor threads only store reports and read the
    warehouse.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 2,
        queue_size: int = 64,
        cache: Optional[ResultCache] = None,
        journal_path: str | Path = DEFAULT_JOURNAL,
        journal_fsync: str = "always",
        retries: int = 1,
        retry_backoff: float = 0.05,
        cell_timeout: Optional[float] = None,
        sse_ring_events: int = DEFAULT_RING_EVENTS,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 60.0,
        shed_watermark: float = 0.75,
        chaos: Optional[FaultPlan] = None,
        warehouse_path: str | Path | None = None,
        verbose: bool = True,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if not 0.0 < shed_watermark <= 1.0:
            raise ValueError("shed_watermark must be in (0, 1]")
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_size = queue_size
        self.cache = cache if cache is not None else ResultCache()
        self.journal = JobJournal(journal_path, fsync=journal_fsync)
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.cell_timeout = cell_timeout
        self.sse_ring_events = sse_ring_events
        self.shed_watermark = shed_watermark
        self.chaos = chaos
        #: Sqlite results warehouse served read-only by the
        #: ``/v1/experiments`` routes (None = $REPRO_WAREHOUSE / the
        #: default path; the routes 404 until the file exists).
        self.warehouse_path = resolve_warehouse_path(warehouse_path)
        self.verbose = verbose
        self.hub = MetricsHub()
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown=breaker_cooldown
        )
        #: Supervised process tier (built in :meth:`_serve`); None in
        #: admission-only mode.
        self.tier: Optional[WorkerTier] = None
        #: (app, scale, seed, scheduler name, device, ecc) -> content
        #: key of the last *completed* report — the stale-serving index
        #: of degraded mode.
        self._family_index: dict[tuple, str] = {}
        #: Every job this daemon knows (live + recovered), by id.
        self.jobs: dict[str, Job] = {}
        self.queue: Optional[JobQueue] = None
        self._running: dict[str, Job] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._worker_tasks: list[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started_at = time.time()
        self._stopping = False
        self._finished = None  # asyncio.Event, created on the loop
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._thread_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Serve until shut down (blocking; the CLI entry point)."""
        asyncio.run(self._serve())

    def start_in_thread(self, timeout: float = 30.0) -> "ServiceDaemon":
        """Run the daemon in a background thread; returns once bound.

        ``port=0`` picks a free port; the resolved one is on
        :attr:`port` by the time this returns. Pair with :meth:`stop`.
        """
        if self._thread is not None:
            raise RuntimeError("daemon already started")

        def target() -> None:
            try:
                self.run()
            except BaseException as exc:  # surfaced by start/stop
                self._thread_error = exc
                self._ready.set()

        self._thread = threading.Thread(
            target=target, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service daemon did not start in time")
        if self._thread_error is not None:
            raise RuntimeError(
                f"service daemon failed to start: {self._thread_error!r}"
            )
        return self

    def stop(self, *, drain: bool = True, timeout: float = 60.0) -> None:
        """Gracefully shut down a :meth:`start_in_thread` daemon."""
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(
                    lambda: self._loop.create_task(self._shutdown(drain))
                )
            except RuntimeError:
                pass  # loop already closing
        if self._thread is not None:
            self._thread.join(timeout)

    # ------------------------------------------------------------------
    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._finished = asyncio.Event()
        self.queue = JobQueue(
            maxsize=self.queue_size, cache=self.cache, metrics=self.hub
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.workers),
            thread_name_prefix="repro-sim",
        )
        if self.workers > 0:
            self.tier = WorkerTier(
                self.workers,
                retries=self.retries,
                retry_backoff=self.retry_backoff,
                deadline=self.cell_timeout,
                chaos=self.chaos,
                metrics=self.hub,
            )
            self.tier.start()
        self.journal.open()
        await self._recover()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_tasks = [
            asyncio.create_task(self._worker()) for _ in range(self.workers)
        ]
        self._log(
            f"serving on http://{self.host}:{self.port} "
            f"(workers={self.workers}, "
            f"queue={self.queue_size}, "
            f"cache={self.cache.root if self.cache.enabled else 'off'})"
        )
        self._ready.set()
        try:
            await self._finished.wait()
        finally:
            self.journal.close()

    async def _recover(self) -> None:
        """Replay the journal: keep history, re-queue interrupted jobs."""
        recovered = replay_journal(self.journal.path)
        requeued = 0
        for job in recovered:
            self.jobs[job.id] = job
            if job.terminal:
                continue
            self.hub.inc(SERVICE_RECOVERED)
            try:
                outcome = await self.queue.admit(job)
            except QueueFullError:
                job.transition(JobState.FAILED)
                job.error = {
                    "error_type": "QueueFullError",
                    "message": "queue full during journal recovery",
                }
                self.journal.record_state(job)
                continue
            if outcome == ADMIT_CACHED:
                # The interrupted run's cell finished in some other
                # daemon/CLI process meanwhile; serve it as done, its
                # report re-read by key like every cache hit's.
                job.result = None
                self.journal.record_state(job)
                self.hub.inc(SERVICE_COMPLETED)
            else:
                requeued += 1
        if recovered:
            self._log(
                f"journal replay: {len(recovered)} job(s), "
                f"{requeued} re-queued"
            )

    async def _shutdown(self, drain: bool) -> None:
        if self._stopping:
            return
        self._stopping = True
        self._log(f"shutting down (drain={drain})")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            while len(self.queue) or self._running:
                await asyncio.sleep(0.02)
        await self.queue.close()
        if self._worker_tasks:
            await asyncio.gather(
                *self._worker_tasks, return_exceptions=True
            )
        if self.tier is not None:
            await self.tier.close()
        self._executor.shutdown(wait=drain, cancel_futures=not drain)
        self._finished.set()

    def _log(self, message: str) -> None:
        if self.verbose:
            import sys

            print(f"[repro-service] {message}", file=sys.stderr)

    # ------------------------------------------------------------------
    # Job bookkeeping
    # ------------------------------------------------------------------
    def _set_state(self, job: Job, state: JobState) -> None:
        job.transition(state)
        self.journal.record_state(job)

    def _execution_of(self, job: Job) -> Job:
        """The job actually carrying the simulation (follows coalescing)."""
        seen = set()
        while job.coalesced_into and job.id not in seen:
            seen.add(job.id)
            primary = self.jobs.get(job.coalesced_into)
            if primary is None:
                break
            job = primary
        return job

    def _finish_job(
        self,
        job: Job,
        *,
        result: Optional[bytes],
        error: Optional[dict],
    ) -> None:
        """Resolve a primary and all its followers to a terminal state;
        each member holds the one ``result`` bytes object. The primary
        drops its streamed windows: a done job's windows are its
        report's timeline."""
        members = [job, *job.followers]
        job.followers = []
        job.windows = []
        for member in members:
            if member.terminal:
                continue
            member.result = result
            member.error = error
            if result is not None:
                self._set_state(member, JobState.DONE)
                self.hub.inc(SERVICE_COMPLETED)
            else:
                self._set_state(member, JobState.FAILED)
                self.hub.inc(SERVICE_FAILED)

    @staticmethod
    def _family_of(job: Job) -> tuple:
        """Degraded-mode grouping: specs that are 'the same experiment'
        modulo tunables — the last completed member is an acceptable
        stale answer when the execution tier is down."""
        return (
            job.app,
            job.scale,
            job.seed,
            job.spec.scheduler.name,
            job.spec.device,
            job.spec.ecc,
        )

    def _note_success(self, job: Job) -> None:
        """A simulation (or cache hit) for this key completed: reset its
        breaker history and index it for degraded-mode stale serving."""
        self.breaker.record_success(job.key)
        self._family_index[self._family_of(job)] = job.key

    def _note_failure(
        self, job: Job, error: Optional[dict], *, fatal: bool
    ) -> None:
        """A job failed terminally: finish it and charge the breaker."""
        tripped = self.breaker.record_failure(
            job.key, error, fatal=fatal
        )
        if tripped:
            self.hub.inc(SERVICE_BREAKER_OPENED)
            self._log(
                f"circuit OPEN for key {job.key[:16]}… after "
                f"{self.breaker.threshold} consecutive failure(s)"
            )
        self._finish_job(job, result=None, error=error)

    async def _worker(self) -> None:
        while True:
            job = await self.queue.get()
            if job is None:
                return
            self._set_state(job, JobState.RUNNING)
            self._running[job.id] = job
            started = time.monotonic()
            try:
                report = await self.tier.execute(job)
                result = await self._loop.run_in_executor(
                    self._executor, self._store_result, job, report
                )
            except TierExecutionFailed as exc:
                self._note_failure(
                    job, exc.failure.to_dict(), fatal=exc.fatal
                )
            except Exception as exc:  # daemon bug / unexpected
                self._note_failure(
                    job,
                    {
                        "error_type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": "".join(
                            traceback_mod.format_exception(
                                type(exc), exc, exc.__traceback__
                            )
                        ),
                    },
                    fatal=False,
                )
            else:
                self._note_success(job)
                self._finish_job(job, result=result, error=None)
            finally:
                self.queue.note_duration(time.monotonic() - started)
                self._running.pop(job.id, None)
                self.queue.release(job)

    def _store_result(self, job: Job, report: SimReport) -> bytes:
        """Encode a finished report once and persist those bytes (the
        workers compute; the daemon owns the cache) — runs on an
        executor thread. Returns the bytes the job keeps."""
        self.hub.inc(SERVICE_SIMULATIONS)
        result = encode_report(report)
        if self.cache.enabled:
            self.cache.store(
                job.key, report, meta=job.cell.cache_meta, encoded=result
            )
        return result

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await self._read_request(reader, writer)
            if request is not None:
                method, path, query, body, headers = request
                await self._route(
                    method, path, query, body, headers, writer
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:
            try:
                self._respond(
                    writer,
                    500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            except Exception:
                pass
        finally:
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except (OSError, RuntimeError):
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _read_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Optional[tuple[str, str, str, bytes, dict[str, str]]]:
        try:
            request_line = await reader.readline()
        except (ValueError, ConnectionError):
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        if not length.isdecimal():
            self._respond(
                writer, 400,
                {"error": f"malformed Content-Length header: {length!r}"},
            )
            return None
        content_length = int(length)
        if content_length > _MAX_BODY_BYTES:
            self._respond(writer, 413, {"error": "request body too large"})
            return None
        body = (
            await reader.readexactly(content_length)
            if content_length else b""
        )
        split = urlsplit(target)
        return method, split.path, split.query, body, headers

    def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        headers: Optional[dict[str, str]] = None,
        result: Optional[bytes] = None,
    ) -> None:
        """Write one JSON response.

        ``result`` is a report's stored bytes. They become the last
        member, ``"result"``, of the job document (``payload`` itself or
        its ``"job"``), spliced in as they are: the report is never
        decoded or re-encoded on its way out.
        """
        if result is not None:
            payload.get("job", payload)["result"] = _RESULT_SLOT
        body = json.dumps(payload).encode("utf-8")
        if result is None:
            parts = [body]
        else:
            before, _, after = body.rpartition(_RESULT_SLOT_JSON)
            parts = [before, result, after]
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {sum(map(len, parts))}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.writelines(
            [("\r\n".join(head) + "\r\n\r\n").encode("latin-1"), *parts]
        )

    async def _route(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        headers: dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> None:
        if path == "/v1/healthz" and method == "GET":
            self._respond(writer, 200, self._healthz_doc())
            return
        if path == "/v1/stats" and method == "GET":
            self._respond(writer, 200, self.stats_doc())
            return
        if path == "/v1/jobs" and method == "POST":
            await self._handle_submit(body, writer)
            return
        if path == "/v1/shutdown" and method == "POST":
            try:
                payload = json.loads(body) if body else {}
            except json.JSONDecodeError:
                payload = {}
            drain = bool(payload.get("drain", True))
            self._respond(
                writer, 202, {"ok": True, "draining": drain}
            )
            await writer.drain()
            asyncio.ensure_future(self._shutdown(drain))
            return
        if path == "/v1/experiments" and method == "GET":
            await self._handle_experiments(query, writer)
            return
        if path.startswith("/v1/experiments/") and method == "GET":
            rest = path[len("/v1/experiments/"):]
            if rest == "summary":
                await self._handle_experiments_summary(writer)
                return
            if rest and "/" not in rest:
                await self._handle_experiment(rest, writer)
                return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events") and method == "GET":
                await self._handle_events(
                    rest[: -len("/events")], headers, writer
                )
                return
            if rest.endswith("/cancel") and method == "POST":
                await self._handle_cancel(rest[: -len("/cancel")], writer)
                return
            if "/" not in rest and method == "GET":
                self._handle_status(rest, writer)
                return
        self._respond(
            writer, 404, {"error": f"no route for {method} {path}"}
        )

    # ------------------------------------------------------------------
    def _healthz_doc(self) -> dict:
        doc = {
            "ok": True,
            "serving": not self._stopping,
            "queued": len(self.queue) if self.queue else 0,
            "running": len(self._running),
            "workers": self.workers,
            "uptime_seconds": time.time() - self._started_at,
            "breaker_open_keys": len(self.breaker.open_keys),
        }
        if self.tier is not None:
            doc["tier"] = self.tier.healthz()
            if doc["tier"]["state"] != "ok":
                doc["ok"] = doc["tier"]["state"] != "down"
        else:
            doc["tier"] = {"state": "admission-only", "size": 0}
        return doc

    def stats_doc(self) -> dict:
        """The ``/v1/stats`` document (also used by tests directly)."""
        by_state: dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
        return {
            "service": self.hub.snapshot(),
            "queue": {
                "depth": len(self.queue) if self.queue else 0,
                "maxsize": self.queue_size,
                "inflight_keys": (
                    self.queue.inflight_keys if self.queue else 0
                ),
                "running": len(self._running),
                "workers": self.workers,
            },
            "jobs": by_state,
            "cache": self.cache.info(),
            "breaker": self.breaker.snapshot(),
            "tier": (
                self.tier.healthz() if self.tier is not None else None
            ),
            "uptime_seconds": time.time() - self._started_at,
        }

    # ------------------------------------------------------------------
    # Read-only analytics routes (/v1/experiments*)
    # ------------------------------------------------------------------
    def _warehouse_missing(self, writer: asyncio.StreamWriter) -> bool:
        """404 (and True) when the warehouse file does not exist yet.

        The daemon never creates the warehouse itself — it is built by
        ``repro-harness report ingest`` — so a GET before the first
        ingest is a clean 404, not an empty implicitly-created store.
        """
        if Path(self.warehouse_path).exists():
            return False
        self._respond(
            writer,
            404,
            {
                "error": (
                    f"no warehouse at {self.warehouse_path}; run "
                    "`repro-harness report ingest` first"
                )
            },
        )
        return True

    @staticmethod
    def _experiment_filters(query: str) -> dict:
        """Query-string filters for ``GET /v1/experiments``.

        Raises ``ValueError`` on unknown parameters or a non-integer
        ``seed`` (surfaced as HTTP 400).
        """
        filters: dict = {}
        for name, values in parse_qs(
            query, keep_blank_values=False
        ).items():
            if name not in FILTER_COLUMNS:
                raise ValueError(
                    f"unknown filter {name!r} "
                    f"(known: {', '.join(FILTER_COLUMNS)})"
                )
            value = values[-1]
            if name == "seed":
                try:
                    value = int(value)
                except ValueError:
                    raise ValueError(
                        f"seed must be an integer, got {value!r}"
                    ) from None
            filters[name] = value
        return filters

    async def _handle_experiments(
        self, query: str, writer: asyncio.StreamWriter
    ) -> None:
        try:
            filters = self._experiment_filters(query)
        except ValueError as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        if self._warehouse_missing(writer):
            return

        def work() -> list[dict]:
            with Warehouse(self.warehouse_path, hub=self.hub) as wh:
                return wh.rows(**filters)

        rows = await self._loop.run_in_executor(self._executor, work)
        self._respond(
            writer, 200, {"experiments": rows, "count": len(rows)}
        )

    async def _handle_experiment(
        self, content_key: str, writer: asyncio.StreamWriter
    ) -> None:
        if self._warehouse_missing(writer):
            return

        def work() -> Optional[dict]:
            with Warehouse(self.warehouse_path, hub=self.hub) as wh:
                return wh.row(content_key)

        doc = await self._loop.run_in_executor(self._executor, work)
        if doc is None:
            self._respond(
                writer,
                404,
                {"error": f"no experiment with key {content_key!r}"},
            )
            return
        self._respond(writer, 200, doc)

    async def _handle_experiments_summary(
        self, writer: asyncio.StreamWriter
    ) -> None:
        if self._warehouse_missing(writer):
            return

        def work() -> dict:
            # The same ExperimentResults.summary() the CLI render
            # consumes — the dashboard and the report cannot disagree.
            with Warehouse(self.warehouse_path, hub=self.hub) as wh:
                return ExperimentResults(wh).summary()

        doc = await self._loop.run_in_executor(self._executor, work)
        self._respond(writer, 200, doc)

    async def _handle_submit(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            payload = json.loads(body) if body else {}
        except json.JSONDecodeError as exc:
            self._respond(
                writer, 400, {"error": f"invalid JSON body: {exc}"}
            )
            return
        try:
            job = Job.from_request(payload)
        except ConfigError as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        if self._stopping:
            self._respond(
                writer,
                429,
                {"error": "daemon is draining"},
                headers={"Retry-After": "5"},
            )
            return
        if self.tier is not None and not self.tier.available:
            await self._handle_degraded_submit(job, writer)
            return
        if self._should_shed():
            hint = max(1.0, self.queue.retry_after_hint())
            self.hub.inc(SERVICE_SHED)
            self._respond(
                writer,
                429,
                {
                    "error": "worker tier saturated; load shed",
                    "retry_after": hint,
                },
                headers={"Retry-After": f"{hint:.0f}"},
            )
            return
        try:
            was_trial = self.breaker.check(job.key)
        except RejectedByBreaker as exc:
            self.hub.inc(SERVICE_BREAKER_REJECTED)
            self._respond(
                writer,
                422,
                {
                    "error": str(exc),
                    "error_type": "CircuitOpen",
                    "key": job.key,
                    "breaker": exc.entry.to_dict(),
                    "retry_after": exc.retry_after,
                },
                headers={"Retry-After": f"{exc.retry_after:.0f}"},
            )
            return
        try:
            outcome = await self.queue.admit(job)
        except QueueFullError as exc:
            if was_trial:
                self.breaker.abandon_trial(job.key)
            self._respond(
                writer,
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:.0f}"},
            )
            return
        self.hub.inc(SERVICE_SUBMITTED)
        self.jobs[job.id] = job
        self.journal.record_submit(job)
        result = None
        if outcome == ADMIT_CACHED:
            self.journal.record_state(job)
            self.hub.inc(SERVICE_COMPLETED)
            self._note_success(job)
            status = 200
            # A hit keeps no bytes once answered: later reads of the
            # job go back to the cache by key.
            result, job.result = job.result, None
        else:
            status = 202
        self._respond(
            writer,
            status,
            {"outcome": outcome, "job": job.to_public_dict()},
            result=result,
        )

    def _should_shed(self) -> bool:
        """Load-shedding predicate: every tier worker busy *and* the
        queue past its watermark — more queueing only grows latency, so
        an immediate 429 with a truthful Retry-After is kinder than a
        deep queue slot.  Shedding happens before any cache probe: an
        overloaded daemon spares itself even the disk read."""
        if self.tier is None:
            return False
        return (
            len(self._running) >= self.workers
            and len(self.queue) >= max(
                1, int(self.shed_watermark * self.queue_size)
            )
        )

    async def _handle_degraded_submit(
        self, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """Serve what we can with the execution tier down: exact cache
        hits normally, a *stale* relative's report with a degraded
        label, else an honest 503 with a retry hint. A stale job keeps
        its relative's bytes, which its own key cannot re-read."""
        result = self.cache.load_bytes(job.key)
        stale_key = None
        if result is None:
            stale_key = self._family_index.get(self._family_of(job))
            if stale_key is not None:
                result = self.cache.load_bytes(stale_key)
        if result is None:
            self._respond(
                writer,
                503,
                {
                    "error": "execution tier unavailable and no cached "
                             "report to serve",
                    "retry_after": 5.0,
                },
                headers={"Retry-After": "5"},
            )
            return
        self.hub.inc(SERVICE_SUBMITTED)
        self.jobs[job.id] = job
        self.journal.record_submit(job)
        job.cached = True
        degraded = stale_key is not None
        job.degraded = degraded
        if degraded:
            job.result = result
        job.transition(JobState.DONE)
        self.journal.record_state(job)
        self.hub.inc(SERVICE_COMPLETED)
        headers = {}
        if degraded:
            self.hub.inc(SERVICE_STALE_SERVED)
            headers["X-Repro-Degraded"] = "stale-cache"
        self._respond(
            writer,
            200,
            {
                "outcome": "degraded" if degraded else ADMIT_CACHED,
                "job": job.to_public_dict(),
            },
            headers=headers,
            result=result,
        )

    def _result_of(self, job: Job) -> Optional[bytes]:
        """A done job's report bytes: the ones it holds, else re-read
        by key (cache hits, jobs recovered from the journal)."""
        if job.state is not JobState.DONE:
            return None
        if job.result is not None:
            return job.result
        return self.cache.load_bytes(job.key)

    def _report_of(self, job: Job) -> Optional[SimReport]:
        """A done job's decoded report, for an SSE watcher."""
        result = self._result_of(job)
        if result is None:
            return None
        return SimReport.from_dict(json.loads(result))

    def _handle_status(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            self._respond(
                writer, 404, {"error": f"unknown job {job_id!r}"}
            )
            return
        self._respond(
            writer, 200, job.to_public_dict(), result=self._result_of(job)
        )

    async def _handle_cancel(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            self._respond(
                writer, 404, {"error": f"unknown job {job_id!r}"}
            )
            return
        try:
            if job.coalesced_into is not None:
                primary = self.jobs.get(job.coalesced_into)
                if primary is not None and job in primary.followers:
                    primary.followers.remove(job)
                job.transition(JobState.CANCELLED)
                promoted = None
            else:
                promoted = await self.queue.cancel(job)
        except JobStateError as exc:
            self._respond(writer, 409, {"error": str(exc)})
            return
        self.journal.record_state(job)
        self.hub.inc(SERVICE_CANCELLED)
        # If this submission was the breaker's half-open probe, free the
        # slot so the next submission can take its place.
        self.breaker.abandon_trial(job.key)
        if promoted is not None:
            self.journal.record_state(promoted)
        self._respond(writer, 200, job.to_public_dict())

    # ------------------------------------------------------------------
    # Server-sent events (crash-safe fan-out, see repro.service.stream)
    # ------------------------------------------------------------------
    async def _handle_events(
        self,
        job_id: str,
        headers: dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            self._respond(
                writer, 404, {"error": f"unknown job {job_id!r}"}
            )
            return
        if job.ring is None:
            job.ring = EventRing(self.sse_ring_events)
        ring: EventRing = job.ring
        last_seen = 0
        raw_lei = headers.get("last-event-id", "")
        if raw_lei:
            try:
                last_seen = max(0, int(raw_lei))
            except ValueError:
                last_seen = 0
        self.hub.inc(SERVICE_SSE_STREAMS)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        gap_reported = False
        while True:
            ring.sync(
                job, self._execution_of(job),
                load_report=lambda: self._report_of(job),
            )
            if last_seen and not gap_reported:
                gap_reported = True
                lost = ring.lost_before(last_seen)
                if lost:
                    # Synthetic, id-less frame: the replay window lost
                    # its tail to the bounded ring.
                    writer.write(
                        (
                            "event: gap\ndata: "
                            + json.dumps({
                                "missed": lost,
                                "oldest_retained": ring.first_id,
                            })
                            + "\n\n"
                        ).encode("utf-8")
                    )
            for event_id, event, data in ring.since(last_seen):
                writer.write(
                    sse_frame(event_id, event, json.dumps(data))
                )
                last_seen = event_id
            await writer.drain()
            if job.terminal and ring.terminal_published \
                    and last_seen >= ring.last_id:
                return
            await asyncio.sleep(SSE_POLL_SECONDS)
