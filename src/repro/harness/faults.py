"""Deterministic chaos injection and structured failure records.

Every recovery path of the supervised runner — retry after a worker
exception, pool rebuild after a worker death, kill-and-retry after a
hang, cache self-healing after a corrupt blob — is exercised by
*injected* faults rather than trusted.  A :class:`FaultPlan` describes
exactly which matrix cells misbehave, on which attempts, and how:

============  =====================================================
kind          effect at the injection point
============  =====================================================
``crash``     raise :class:`ChaosCrash` inside ``_simulate_cell``
``exit``      ``os._exit(17)`` in a pool worker (kills the process,
              breaking the pool); raises
              :class:`~repro.errors.WorkerCrashError` when the cell
              runs in-process, where exiting would kill the harness
``hang``      ``time.sleep(seconds)`` before simulating (exceeds the
              per-cell timeout)
``corrupt``   garble the cache blob just written for the cell, so a
              later warm run must self-heal
============  =====================================================

Plans are deterministic by construction: a fault names a *cell ordinal*
(the position of the cell among the cache-missing, content-deduplicated
cells of one ``run_matrix`` call, in dispatch order — identical for
serial and pooled execution) and fires on attempts ``1..attempts``
(default 1), so a bounded retry always observes the same faults and
then a clean cell.  There is no randomness anywhere.

The service daemon reuses the same grammar for its worker tier: there
the ordinal is the tier-wide *dispatch number* (jobs in first-dispatch
order; retries keep their job's ordinal and advance only the attempt),
so a plan written for a sweep reads identically for a job stream. The
daemon takes ``crash``, ``exit`` and ``hang`` faults, which fire before
a simulation; it refuses a plan with a ``corrupt`` fault, which only the
runner's cache store acts on.

Plan syntax (``REPRO_CHAOS`` env var or ``--chaos``)::

    spec  := kind '@' cell ['/' stride] [':' seconds] ['x' attempts]
    plan  := spec (';' spec)*

Examples: ``crash@0`` (cell 0 raises once), ``hang@1:30`` (cell 1
sleeps 30 s on its first attempt), ``exit@2x2`` (cell 2 kills its
worker on attempts 1 and 2), ``crash@0;corrupt@1``.  A stride turns
one ordinal into a deterministic *rate*: ``exit@0/5`` fires on cells
0, 5, 10, ... — the "kill every 5th dispatch" load tests of the
service tier are written exactly like that.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import traceback as traceback_mod
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import CellTimeoutError, HarnessError, WorkerCrashError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.harness.runner import CellSpec

#: Environment variable holding the default fault plan.
ENV_CHAOS = "REPRO_CHAOS"

#: Exit status used by ``exit`` faults; distinctive in worker post-mortems.
CHAOS_EXIT_STATUS = 17

FAULT_KINDS = ("crash", "exit", "hang", "corrupt")


class ChaosCrash(RuntimeError):
    """The exception raised by ``crash`` faults.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the retry
    machinery must survive arbitrary third-party exceptions, so the
    injected one lives outside the package hierarchy.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: ``kind`` applied to cell ``cell``.

    The fault is active while ``attempt <= attempts``; ``seconds`` is
    the sleep duration for ``hang`` faults.  A non-zero ``stride``
    widens the match from one ordinal to the arithmetic progression
    ``cell, cell + stride, cell + 2*stride, ...`` — a deterministic
    fault *rate* for load tests.
    """

    kind: str
    cell: int
    seconds: float = 0.0
    attempts: int = 1
    #: 0 = exact-ordinal match; N > 0 = every Nth cell from ``cell`` on.
    stride: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})"
            )
        if self.cell < 0:
            raise ValueError(f"fault cell must be >= 0, got {self.cell}")
        if self.attempts < 1:
            raise ValueError(
                f"fault attempts must be >= 1, got {self.attempts}"
            )
        if self.seconds < 0:
            raise ValueError(
                f"fault seconds must be >= 0, got {self.seconds}"
            )
        if self.stride < 0:
            raise ValueError(
                f"fault stride must be >= 0, got {self.stride}"
            )

    def matches(self, cell: int) -> bool:
        """Whether this spec targets the given cell ordinal."""
        if self.stride <= 0:
            return cell == self.cell
        return cell >= self.cell and (cell - self.cell) % self.stride == 0

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``kind@cell[/stride][:seconds][xN]`` fragment."""
        spec = text.strip()
        try:
            kind, _, rest = spec.partition("@")
            if not rest:
                raise ValueError("missing '@cell'")
            attempts = 1
            if "x" in rest:
                rest, _, reps = rest.rpartition("x")
                attempts = int(reps)
            seconds = 0.0
            if ":" in rest:
                rest, _, secs = rest.partition(":")
                seconds = float(secs)
            stride = 0
            if "/" in rest:
                rest, _, step = rest.partition("/")
                stride = int(step)
                if stride < 1:
                    raise ValueError("stride must be >= 1")
            return cls(
                kind=kind.strip(), cell=int(rest),
                seconds=seconds, attempts=attempts, stride=stride,
            )
        except ValueError as exc:
            raise ValueError(f"bad fault spec {text!r}: {exc}") from None


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, picklable set of :class:`FaultSpec` injections.

    Picklability matters: the plan rides along with every work item into
    pool workers so faults fire inside the worker process, exactly where
    a real failure would.
    """

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``;``-separated plan (see module docstring)."""
        specs = tuple(
            FaultSpec.parse(part)
            for part in text.replace(",", ";").split(";")
            if part.strip()
        )
        return cls(specs=specs)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """Plan from ``$REPRO_CHAOS``, or None when unset/empty."""
        text = os.environ.get(ENV_CHAOS, "").strip()
        return cls.parse(text) if text else None

    def __bool__(self) -> bool:
        return bool(self.specs)

    # ------------------------------------------------------------------
    def active(self, cell: int, attempt: int) -> Iterator[FaultSpec]:
        """Faults that fire for this (cell ordinal, 1-based attempt)."""
        for spec in self.specs:
            if spec.matches(cell) and attempt <= spec.attempts:
                yield spec

    def fire_pre_simulation(
        self, cell: int, attempt: int, *, in_worker: bool
    ) -> None:
        """Apply crash/exit/hang faults at the top of ``_simulate_cell``."""
        for spec in self.active(cell, attempt):
            if spec.kind == "hang":
                time.sleep(spec.seconds)
            elif spec.kind == "crash":
                raise ChaosCrash(
                    f"injected crash (cell {cell}, attempt {attempt})"
                )
            elif spec.kind == "exit":
                if in_worker:
                    os._exit(CHAOS_EXIT_STATUS)
                raise WorkerCrashError(
                    f"injected worker exit (cell {cell}, attempt {attempt}) "
                    "degraded to an exception: cell ran in-process"
                )

    def should_corrupt(self, cell: int) -> bool:
        """Whether the freshly stored blob for ``cell`` must be garbled."""
        return any(
            spec.kind == "corrupt" and spec.matches(cell)
            for spec in self.specs
        )


def corrupt_blob(path: Path) -> None:
    """Deterministically garble a cache blob in place.

    The head and its ``report_sha256`` stay intact and the stored report
    bytes are replaced, so a reader passes the version check and fails
    the digest check that every read runs.
    """
    from repro.harness.cache import _REPORT_OPEN

    raw = path.read_bytes()
    at = raw.index(_REPORT_OPEN) + len(_REPORT_OPEN)
    path.write_bytes(raw[:at] + b'"chaos"}')


# ----------------------------------------------------------------------
# Structured failure records
# ----------------------------------------------------------------------
@dataclass
class CellFailure:
    """Post-mortem of one quarantined matrix cell.

    Everything needed to diagnose the failure without re-running it:
    identity (app/label/content key), the final error's type, message
    and traceback, how many attempts were made, and the wall-clock time
    burned across all of them.
    """

    app: str
    label: str
    key: str
    error_type: str
    message: str
    traceback: str
    attempts: int
    elapsed: float

    def to_dict(self) -> dict:
        """JSON-ready form for the failure manifest."""
        return dataclasses.asdict(self)

    def summary(self) -> str:
        """One-line description for logs and exception messages."""
        return (
            f"{self.app}/{self.label}: {self.error_type}: {self.message} "
            f"({self.attempts} attempt(s), {self.elapsed:.1f}s)"
        )


@dataclass
class CellAttempts:
    """The attempts of one cell under the one retry rule.

    Both paths that run a cell — the runner's serial loop and the
    pooled supervisor (:func:`repro.harness.pool.run_cells`) that the
    runner and the service tier share — charge their failed attempts
    here: a cell gets ``1 + retries`` attempts, spaced by
    :meth:`delay`, and then becomes a :class:`CellFailure`.
    """

    cell: "CellSpec"
    #: The cell's content key and the label it is logged under.
    key: str
    label: str
    retries: int
    #: Base of the deterministic exponential backoff, in seconds.
    backoff: float
    #: The ordinal a :class:`FaultPlan` addresses the cell by.
    index: int = 0
    #: Failed attempts so far; the next attempt is ``attempts + 1``.
    attempts: int = 0
    #: Wall-clock seconds burned across the failed attempts.
    elapsed: float = 0.0
    #: Some attempt killed or hung its worker process.
    fatal: bool = False
    error: Optional[BaseException] = None
    traceback: str = ""

    def fail(self, exc: BaseException, elapsed: float) -> bool:
        """Log one failed attempt; True while another one is allowed."""
        self.attempts += 1
        self.elapsed += elapsed
        self.error = exc
        self.traceback = "".join(
            traceback_mod.format_exception(type(exc), exc, exc.__traceback__)
        )
        if isinstance(exc, (WorkerCrashError, CellTimeoutError)):
            self.fatal = True
        return self.attempts <= self.retries

    def delay(self) -> float:
        """Backoff before the next attempt: ``backoff * 2**(n-1)`` after
        the n-th failure. No jitter, by design: reproducibility of a
        chaos run matters more here than the thundering-herd protection
        jitter buys on shared services."""
        return self.backoff * 2.0 ** (self.attempts - 1)

    def failure(self) -> CellFailure:
        """The quarantine record of the attempts so far."""
        return CellFailure(
            app=self.cell.app,
            label=self.label,
            key=self.key,
            error_type=type(self.error).__name__,
            message=str(self.error),
            traceback=self.traceback,
            attempts=self.attempts,
            elapsed=self.elapsed,
        )


def check_run_limits(
    *,
    jobs: int = 1,
    retries: int = 0,
    cell_timeout: Optional[float] = None,
    scale: float = 1.0,
    seed: int = 0,
) -> None:
    """The one range rule of the flags that size a run and its
    attempts: ``--jobs`` (worker processes), ``--retries`` (the extra
    attempts :class:`CellAttempts` grants), ``--cell-timeout`` (the
    per-attempt deadline), ``--scale`` (positive and finite, as
    admission requires of a job's scale) and ``--seed`` (>= 0). Raises
    :class:`ValueError` naming the flag; the CLI reports it as a usage
    error."""
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"--scale must be positive and finite, got {scale}")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"--retries must be >= 0, got {retries}")
    if cell_timeout is not None and not cell_timeout > 0:
        raise ValueError(
            f"--cell-timeout must be positive, got {cell_timeout}"
        )


def failure_manifest(failures: list[CellFailure]) -> dict:
    """The structured manifest serialized by the CLI (``--failures-out``)."""
    return {
        "failed_cells": len(failures),
        "failures": [f.to_dict() for f in failures],
    }


__all__ = [
    "CHAOS_EXIT_STATUS",
    "CellAttempts",
    "CellFailure",
    "ChaosCrash",
    "ENV_CHAOS",
    "FaultPlan",
    "FaultSpec",
    "HarnessError",
    "check_run_limits",
    "corrupt_blob",
    "failure_manifest",
]
