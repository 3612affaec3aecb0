"""The telemetry hub: named counters, gauges, and the window recorder.

Telemetry is *strictly opt-in*. Components receive :data:`NULL_HUB` by
default — a singleton whose methods are no-ops — so the simulator's hot
path pays nothing when observability is off. Passing a real
:class:`MetricsHub` to :class:`~repro.sim.system.GPUSystem` (or
``simulate_spec(..., telemetry=hub)``) turns on:

* named **counters** (monotonic, e.g. ``"mc0.ams.drops"``) and
  **gauges** (last-value, e.g. ``"mc0.dms.x"``) that instrumented
  components update at low-frequency points (window ticks, drops);
* the :class:`~repro.telemetry.sampler.WindowSeries` recorder, which
  probes the engine, controllers, DMS/AMS units, value predictor, and
  L2 slices every ``window_cycles`` and builds the
  :class:`~repro.telemetry.series.Timeline` attached to the report.

Every probe is **read-only**: a telemetry-on run produces a
``SimReport`` whose simulation fields are identical to the same run
with telemetry off (enforced by ``tests/test_telemetry.py``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.series import Timeline, WindowSample

#: Default window: the harness's Dyn-DMS/Dyn-AMS profiling window
#: (``repro.harness.schemes.WINDOW_CYCLES``). Every ``spec.telemetry``
#: report is recorded at it, so its cache key fixes its timeline.
DEFAULT_WINDOW_CYCLES = 1024

# ----------------------------------------------------------------------
# Canonical counter names of the harness fault-tolerance layer. The
# supervised runner increments these on its own MetricsHub so a sweep's
# health (retries, hangs, dead workers, quarantined cells) is readable
# from one snapshot() — and assertable in the chaos tests.
# ----------------------------------------------------------------------
#: Cells simulated to completion (any attempt).
HARNESS_SIMULATED = "harness.cells.simulated"
#: Individual failed attempts, before retry/quarantine triage.
HARNESS_FAILED_ATTEMPTS = "harness.cells.failed_attempts"
#: Attempts that were scheduled for a retry (with backoff).
HARNESS_RETRIES = "harness.retries"
#: Attempts that breached the per-cell wall-clock timeout.
HARNESS_TIMEOUTS = "harness.timeouts"
#: Attempts lost to a dying worker process (BrokenProcessPool).
HARNESS_WORKER_CRASHES = "harness.worker_crashes"
#: Times the process pool was killed and rebuilt.
HARNESS_POOL_REBUILDS = "harness.pool_rebuilds"
#: Cells that exhausted their retries and entered the failure manifest.
HARNESS_QUARANTINED = "harness.cells.quarantined"
#: Cache blobs deliberately garbled by the chaos plan (tests only).
HARNESS_CHAOS_CORRUPTED = "harness.chaos.corrupted_blobs"

# ----------------------------------------------------------------------
# Canonical counter names of the simulation service daemon
# (:mod:`repro.service`). The daemon increments these on its own hub;
# ``GET /v1/stats`` serves the snapshot, and the end-to-end coalescing
# test asserts on them.
# ----------------------------------------------------------------------
#: Jobs accepted by ``POST /v1/jobs`` (any admission outcome).
SERVICE_SUBMITTED = "service.jobs.submitted"
#: Submissions answered straight from the persistent result cache.
SERVICE_CACHE_HITS = "service.jobs.cache_hits"
#: Submissions coalesced onto an identical in-flight computation.
SERVICE_COALESCED = "service.jobs.coalesced"
#: Submissions rejected with 429 because the bounded queue was full.
SERVICE_REJECTED = "service.jobs.rejected"
#: Jobs (primaries + followers) that reached ``done``.
SERVICE_COMPLETED = "service.jobs.completed"
#: Jobs that reached ``failed`` after exhausting their retries.
SERVICE_FAILED = "service.jobs.failed"
#: Jobs cancelled while queued.
SERVICE_CANCELLED = "service.jobs.cancelled"
#: Non-terminal jobs re-admitted from the journal after a restart.
SERVICE_RECOVERED = "service.jobs.recovered"
#: Underlying simulations actually executed by the daemon's workers
#: (cache hits and coalesced followers never increment this).
SERVICE_SIMULATIONS = "service.simulations"
#: SSE event-stream connections served.
SERVICE_SSE_STREAMS = "service.sse.streams"
#: Submissions shed with 429 because the worker tier was saturated.
SERVICE_SHED = "service.jobs.shed"
#: Circuits tripped open by consecutive terminal failures of one key.
SERVICE_BREAKER_OPENED = "service.breaker.opened"
#: Submissions rejected with 422 while their key's circuit was open.
SERVICE_BREAKER_REJECTED = "service.breaker.rejected"
#: Worker-tier processes respawned in place (crash, hang, or wedge).
SERVICE_TIER_RESPAWNS = "service.tier.respawns"
#: Idle tier workers respawned for missing heartbeats.
SERVICE_TIER_STALE_RESPAWNS = "service.tier.stale_respawns"
#: Tier attempts that breached the per-job wall-clock deadline.
SERVICE_TIER_TIMEOUTS = "service.tier.timeouts"
#: Tier attempts lost to a dying worker process.
SERVICE_TIER_CRASHES = "service.tier.worker_crashes"

# ----------------------------------------------------------------------
# Canonical counter names of the results warehouse
# (:mod:`repro.analytics`). The warehouse and the report CLI increment
# these on whatever hub they are given; the service daemon folds them
# into its ``GET /v1/stats`` snapshot.
# ----------------------------------------------------------------------
#: Experiment rows upserted from cache blobs.
ANALYTICS_INGESTED_ROWS = "analytics.rows_ingested"
#: Failure-manifest rows upserted.
ANALYTICS_INGESTED_FAILURES = "analytics.failures_ingested"
#: Benchmark history entries upserted.
ANALYTICS_INGESTED_BENCH = "analytics.bench_ingested"
#: Warehouse queries served (CLI ``report query`` + service reads).
ANALYTICS_QUERIES = "analytics.queries"
#: Reports rendered (markdown or HTML).
ANALYTICS_RENDERS = "analytics.renders"
#: Significant regressions flagged by ``report diff``.
ANALYTICS_REGRESSIONS = "analytics.regressions"


class MetricsHub:
    """Named counters/gauges plus the per-window timeline of one run."""

    #: Real hubs record; the :class:`NullHub` advertises ``False`` so
    #: instrumentation sites can skip string formatting entirely.
    enabled = True

    def __init__(self, *, window_cycles: int = DEFAULT_WINDOW_CYCLES) -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        self.window_cycles = window_cycles
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: Filled in by the window recorder at the end of the run.
        self.timeline: Optional[Timeline] = None
        #: Called with each window as the recorder closes it (a worker
        #: of the service tier streams them to the daemon this way).
        self.on_window: Optional[Callable[[WindowSample], None]] = None
        #: Named append-only numeric series (one value per window),
        #: e.g. the per-tenant ``tenant.<name>.served`` timelines. Kept
        #: outside :class:`~repro.telemetry.series.WindowSample` — whose
        #: serialized key set is pinned — so new series never perturb
        #: existing timelines.
        self.series: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named counter (created at zero)."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest observed value."""
        self.gauges[name] = value

    def counter(self, name: str) -> float:
        """Current value of a counter (zero when never incremented)."""
        return self.counters.get(name, 0.0)

    def append_series(self, name: str, value: float) -> None:
        """Append one sample to the named series (created empty)."""
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = []
        series.append(value)

    def snapshot(self) -> dict:
        """All counters and gauges, sorted by name (for logs/tests)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }


class NullHub:
    """Disabled telemetry: every operation is a no-op.

    Shares the :class:`MetricsHub` interface so instrumented code never
    branches on ``hub is None``; the ``enabled`` flag lets rare-but-not-
    free sites (e.g. per-window gauge formatting) skip work entirely.
    """

    enabled = False
    window_cycles = 0
    timeline = None
    series: dict[str, list] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def append_series(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}}


#: The shared disabled hub handed to every component by default.
NULL_HUB = NullHub()
