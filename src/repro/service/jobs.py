"""Job lifecycle state machine and the JSONL journal behind it.

A :class:`Job` is one submitted simulation request: workload coordinates
(app, scale, seed) plus a :class:`~repro.sim.spec.SimSpec`, addressed by
the same content key the persistent result cache uses. Jobs move through
a small validated state machine::

    queued -> running -> done | failed
    queued -> done                      (cache hit / coalesced follower)
    queued | running -> cancelled

Every submission and every transition is appended to a :class:`JobJournal`
— one JSON object per line, flushed and fsynced immediately — so a
daemon that crashes or restarts can :func:`replay_journal` its way
back: terminal jobs keep their state, interrupted ``queued``/``running``
jobs are re-admitted for a fresh attempt.

Neither a job nor the journal stores simulation *results*: those belong
to the :class:`~repro.harness.cache.ResultCache`, which serves a done
job's report by content key. The journal stores intent and outcome,
which keeps it small enough to replay in milliseconds even after
thousands of jobs.
"""

from __future__ import annotations

import enum
import json
import os
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ConfigError, JobStateError
from repro.harness.runner import CellSpec
from repro.sim.spec import SimSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.telemetry.series import WindowSample


class JobState(str, enum.Enum):
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States from which a job never moves again.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: Legal transitions of the state machine (see module docstring).
_ALLOWED: dict[JobState, frozenset] = {
    JobState.QUEUED: frozenset(
        {JobState.RUNNING, JobState.DONE, JobState.FAILED,
         JobState.CANCELLED}
    ),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


def new_job_id() -> str:
    """A short, collision-safe job identifier (``j`` + 12 hex chars)."""
    return "j" + uuid.uuid4().hex[:12]


def job_content_key(
    app: str, scale: float, seed: int, spec: SimSpec
) -> str:
    """The cache content key identifying a job's simulation cell — the
    key of the :class:`~repro.harness.runner.CellSpec` the worker tier
    simulates, so coalescing and cache admission agree with the CLI
    runner on every spec field."""
    return CellSpec(app=app, scale=scale, seed=seed, spec=spec).key


def _apply_priority_class(spec_payload: dict, priority: int) -> dict:
    """Default the tenant class of a raw spec payload from job priority.

    Operates on the *undecoded* JSON body: a decoded
    :class:`~repro.config.tenants.TenantSpec` defaults ``tenant_class``
    to ``"bandwidth"``, which would be indistinguishable from an
    explicit choice. Tenants that name a class keep it; tenants that
    omit it inherit the class the job's ``priority`` maps to
    (:func:`~repro.config.tenants.tenant_class_for_priority`), so the
    HTTP priority queue and the DRAM arbiter honour the same contract.
    Never mutates the caller's payload.
    """
    mix = spec_payload.get("tenants")
    if not isinstance(mix, dict):
        return spec_payload
    roster = mix.get("tenants")
    if not isinstance(roster, list) or not any(
        isinstance(t, dict) and "tenant_class" not in t for t in roster
    ):
        return spec_payload
    from repro.config.tenants import tenant_class_for_priority

    default_class = tenant_class_for_priority(priority)
    patched = dict(spec_payload)
    patched["tenants"] = dict(mix)
    patched["tenants"]["tenants"] = [
        {"tenant_class": default_class, **t} if isinstance(t, dict) else t
        for t in roster
    ]
    return patched


@dataclass
class Job:
    """One submitted simulation request and its live serving state."""

    id: str
    app: str
    scale: float
    seed: int
    spec: SimSpec
    #: Content-addressed cache key of the underlying simulation cell.
    key: str
    #: Larger = scheduled earlier; ties broken by submission order.
    priority: int = 0
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Simulation attempts consumed (retries included).
    attempts: int = 0
    #: True when admission answered this job straight from the cache.
    cached: bool = False
    #: Primary job id when this submission coalesced onto an in-flight
    #: identical spec (the primary simulates; this job shares the result).
    coalesced_into: Optional[str] = None
    #: Structured failure (CellFailure.to_dict()) for FAILED jobs.
    error: Optional[dict] = None
    #: True when this job was rebuilt from the journal of a previous
    #: daemon process rather than submitted to this one.
    recovered: bool = False
    #: Crash-safe SSE event history (lazily built by the first watcher).
    ring: Optional[Any] = None
    #: Concurrent identical submissions riding on this job's execution.
    followers: list["Job"] = field(default_factory=list)
    #: Telemetry windows the running simulation has streamed so far,
    #: appended by the worker tier's collector thread (list appends
    #: are GIL-atomic). Emptied once the job is terminal: a done job's
    #: windows are its report's timeline.
    windows: list["WindowSample"] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def from_request(
        cls,
        payload: dict[str, Any],
        *,
        job_id: Optional[str] = None,
    ) -> "Job":
        """Build a job from a ``POST /v1/jobs`` JSON body.

        Raises :class:`~repro.errors.ConfigError` on malformed payloads;
        the message names the offending key (the codec names full key
        paths for nested spec fields).
        """
        if not isinstance(payload, dict):
            raise ConfigError(
                f"job payload must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        known = {"app", "scale", "seed", "spec", "priority"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                "unknown job field(s): " + ", ".join(sorted(unknown))
            )
        app = payload.get("app")
        if not isinstance(app, str) or not app:
            raise ConfigError("job field 'app' must be a non-empty string")
        from repro.workloads.registry import list_workloads

        if app not in list_workloads():
            raise ConfigError(
                f"unknown workload {app!r} "
                f"(known: {', '.join(list_workloads())})"
            )
        scale = payload.get("scale", 1.0)
        # json.loads accepts NaN and +-Infinity, which a plain
        # ``scale <= 0`` test lets through, and integers too large for
        # ``float(scale)``.
        if not isinstance(scale, (int, float)) or isinstance(scale, bool) \
                or not 0 < scale <= sys.float_info.max:
            raise ConfigError(
                "job field 'scale' must be a positive finite number"
            )
        seed = payload.get("seed", 7)
        # numpy's default_rng refuses negative seeds on the worker.
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(
                "job field 'seed' must be a non-negative integer"
            )
        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ConfigError("job field 'priority' must be an integer")
        spec_payload = payload.get("spec")
        if spec_payload is None:
            spec_payload = {}
        elif not isinstance(spec_payload, dict):
            raise ConfigError(
                "job field 'spec' must be a JSON object or null, "
                f"got {type(spec_payload).__name__}"
            )
        spec_payload = _apply_priority_class(spec_payload, priority)
        spec = SimSpec.from_dict(spec_payload)
        spec.validate()
        return cls(
            id=job_id or new_job_id(),
            app=app,
            scale=float(scale),
            seed=seed,
            spec=spec,
            key=job_content_key(app, float(scale), seed, spec),
            priority=priority,
        )

    # ------------------------------------------------------------------
    @property
    def cell(self) -> CellSpec:
        """The simulation cell this job runs; :attr:`key` is its key."""
        return CellSpec(
            app=self.app, scale=self.scale, seed=self.seed, spec=self.spec
        )

    @property
    def terminal(self) -> bool:
        """Whether the job has reached a final state."""
        return self.state in TERMINAL_STATES

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state``; raises :class:`JobStateError` when the
        state machine forbids it (a daemon bug, surfaced loudly)."""
        if new_state not in _ALLOWED[self.state]:
            raise JobStateError(
                f"job {self.id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        now = time.time()
        if new_state is JobState.RUNNING:
            self.started_at = now
        elif new_state in TERMINAL_STATES:
            self.finished_at = now

    # ------------------------------------------------------------------
    def to_public_dict(self) -> dict:
        """The JSON document ``GET /v1/jobs/<id>`` serves, less the
        ``result`` the daemon splices in from the report's bytes."""
        return {
            "id": self.id,
            "app": self.app,
            "scale": self.scale,
            "seed": self.seed,
            "state": self.state.value,
            "priority": self.priority,
            "key": self.key,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "cached": self.cached,
            "coalesced_into": self.coalesced_into,
            "recovered": self.recovered,
            "error": self.error,
            "spec": self.spec.to_dict(),
        }


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class JobJournal:
    """Append-only JSONL record of job submissions and transitions.

    Two record shapes::

        {"type": "submit", "id": ..., "app": ..., "scale": ..., "seed":
         ..., "priority": ..., "key": ..., "spec": {...}, "at": ...}
        {"type": "state", "id": ..., "state": ..., "at": ...,
         "cached": ..., "coalesced_into": ..., "attempts": ...,
         "error": {...}|null}

    Every record is flushed and ``os.fsync``-ed as it is appended, so
    even a machine power cut loses at most the one torn trailing line
    that replay already skips.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._fh = None
        self.records_written = 0

    def open(self) -> None:
        """Open (creating parents) for appending."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        self.open()
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:  # pragma: no cover - fsync-less filesystems
            pass
        self.records_written += 1

    def record_submit(self, job: Job) -> None:
        """Journal a new submission (before it is queued)."""
        self._append(
            {
                "type": "submit",
                "id": job.id,
                "app": job.app,
                "scale": job.scale,
                "seed": job.seed,
                "priority": job.priority,
                "key": job.key,
                "spec": job.spec.to_dict(),
                "at": job.submitted_at,
            }
        )

    def record_state(self, job: Job) -> None:
        """Journal the job's current state (after a transition)."""
        self._append(
            {
                "type": "state",
                "id": job.id,
                "state": job.state.value,
                "at": time.time(),
                "cached": job.cached,
                "coalesced_into": job.coalesced_into,
                "attempts": job.attempts,
                "error": job.error,
            }
        )


def replay_journal(path: str | os.PathLike) -> list[Job]:
    """Rebuild the job table from a journal file (submission order).

    Undecodable lines (torn trailing write from a crash) and ``state``
    records for unknown ids are skipped — the journal is a recovery aid,
    not a ledger whose corruption should brick the daemon. Jobs whose
    last recorded state is non-terminal come back as ``QUEUED`` (an
    interrupted ``running`` job re-runs from scratch; simulation is
    deterministic, so the retry is free of side effects). Every replayed
    job is marked :attr:`Job.recovered`.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (FileNotFoundError, OSError):
        return []
    jobs: dict[str, Job] = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict):
            continue
        rtype = record.get("type")
        if rtype == "submit":
            try:
                spec = SimSpec.from_dict(record.get("spec") or {})
                job = Job(
                    id=str(record["id"]),
                    app=str(record["app"]),
                    scale=float(record["scale"]),
                    seed=int(record["seed"]),
                    spec=spec,
                    key=str(record["key"]),
                    priority=int(record.get("priority", 0)),
                    submitted_at=float(record.get("at", 0.0)),
                )
            except (KeyError, TypeError, ValueError, ConfigError):
                continue
            job.recovered = True
            jobs[job.id] = job
        elif rtype == "state":
            job = jobs.get(str(record.get("id")))
            if job is None:
                continue
            try:
                state = JobState(record.get("state"))
            except ValueError:
                continue
            job.state = state
            job.cached = bool(record.get("cached", False))
            raw = record.get("coalesced_into")
            job.coalesced_into = str(raw) if raw is not None else None
            job.attempts = int(record.get("attempts", 0))
            job.error = record.get("error")
            if state in TERMINAL_STATES:
                job.finished_at = float(record.get("at", 0.0))
    recovered = list(jobs.values())
    for job in recovered:
        if job.state not in TERMINAL_STATES:
            # Interrupted mid-flight: back to the queue for a fresh run.
            job.state = JobState.QUEUED
            job.started_at = None
            job.coalesced_into = None
    return recovered
