"""Per-window telemetry time series.

A :class:`Timeline` is the windowed trajectory of one simulation run:
one :class:`WindowSample` per scheduler window (plus a trailing partial
window covering the tail of the run). Both types are plain dataclasses
with lossless ``to_dict``/``from_dict`` round-trips, so a timeline can
ride inside :class:`~repro.sim.report.SimReport` through the persistent
result cache exactly like every other report field.

Counters (activations, drops, ...) are *deltas within the window*;
``coverage`` and the X / Th_RBL trajectories are the live values at the
window boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class WindowSample:
    """Telemetry captured for one scheduler window ``[start, end)``."""

    #: 0-based window index.
    index: int
    #: Window bounds, memory cycles.
    start: float
    end: float
    #: Data-bus busy cycles inside the window, summed over channels.
    busy_cycles: float
    #: ``busy_cycles / (window length * num channels)``.
    bwutil: float
    #: Per-channel bus utilisation inside the window.
    bwutil_per_channel: list[float]
    #: Visible pending-queue occupancy at the window boundary (all MCs).
    queue_depth: int
    #: Requests waiting in the (invisible) ingress FIFOs at the boundary.
    ingress_backlog: int
    #: Row activations issued inside the window.
    activations: int
    #: Column accesses served inside the window.
    requests_served: int
    #: Global reads that arrived inside the window.
    reads_arrived: int
    #: Requests dropped (answered by the VP unit) inside the window.
    drops: int
    #: Drops for which the VP found a donor line (vs zero-fallback).
    drops_with_donor: int
    #: Cumulative prediction coverage at the window boundary.
    coverage: float
    #: Row-buffer locality inside the window (served / activations).
    rbl: float
    #: L2 hits/misses inside the window, summed over slices.
    l2_hits: int
    l2_misses: int
    #: Engine events scheduled inside the window (activity proxy; the
    #: live run-loop counter is a hot-path local, so the scheduled count
    #: is the zero-cost observable).
    events: int
    #: Live DMS delay X per channel at the window boundary.
    dms_x: list[float]
    #: Live AMS Th_RBL per channel at the window boundary.
    th_rbl: list[int]

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (lossless)."""
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "busy_cycles": self.busy_cycles,
            "bwutil": self.bwutil,
            "bwutil_per_channel": list(self.bwutil_per_channel),
            "queue_depth": self.queue_depth,
            "ingress_backlog": self.ingress_backlog,
            "activations": self.activations,
            "requests_served": self.requests_served,
            "reads_arrived": self.reads_arrived,
            "drops": self.drops,
            "drops_with_donor": self.drops_with_donor,
            "coverage": self.coverage,
            "rbl": self.rbl,
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "events": self.events,
            "dms_x": list(self.dms_x),
            "th_rbl": list(self.th_rbl),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WindowSample":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class Timeline:
    """The full windowed telemetry series of one run."""

    #: Nominal window length, memory cycles (the last window may be short).
    window_cycles: int
    samples: list[WindowSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[WindowSample]:
        return iter(self.samples)

    # ------------------------------------------------------------------
    # Trajectory accessors (per-channel series, paper Fig. 9/11 style)
    # ------------------------------------------------------------------
    def series(self, name: str) -> list:
        """The per-window values of one scalar sample field."""
        return [getattr(s, name) for s in self.samples]

    def dms_x_trajectory(self, channel: int = 0) -> list[tuple[int, float]]:
        """(window index, X) pairs for one channel (Fig. 9 style)."""
        return [(s.index, s.dms_x[channel]) for s in self.samples]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable snapshot (lossless)."""
        return {
            "window_cycles": self.window_cycles,
            "samples": [s.to_dict() for s in self.samples],
        }

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> Optional["Timeline"]:
        """Inverse of :meth:`to_dict`; ``None`` passes through."""
        if data is None:
            return None
        return cls(
            window_cycles=data["window_cycles"],
            samples=[WindowSample.from_dict(s) for s in data["samples"]],
        )
