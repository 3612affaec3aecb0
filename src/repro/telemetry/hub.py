"""The counter registry of the harness, the service daemon and the
warehouse.

A :class:`MetricsHub` holds named monotonic counters (the canonical
names are below); ``snapshot()`` is what ``GET /v1/stats`` serves and
what the chaos tests assert on. Components that may run without one
take :data:`NULL_HUB`, whose methods are no-ops.

The simulator keeps no counters here: its one observability record is
the per-window :class:`~repro.telemetry.series.Timeline` that
:class:`~repro.telemetry.sampler.WindowSeries` attaches to the report
of a ``spec.telemetry`` run.
"""

from __future__ import annotations

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
    """Named counters, created at zero on first increment."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named counter (created at zero)."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        """Current value of a counter (zero when never incremented)."""
        return self.counters.get(name, 0.0)

    def snapshot(self) -> dict:
        """All counters, sorted by name (for logs/tests)."""
        return {"counters": dict(sorted(self.counters.items()))}


class NullHub:
    """A hub that counts nothing: every operation is a no-op."""

    def inc(self, name: str, value: float = 1.0) -> None:
        pass

    def counter(self, name: str) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {"counters": {}}


#: The shared disabled hub: the default ``metrics=`` of the components
#: that count only when given a real hub.
NULL_HUB = NullHub()
