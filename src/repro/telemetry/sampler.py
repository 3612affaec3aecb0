"""The windowed probe that records a :class:`Timeline` from a live run.

:class:`WindowSeries` schedules itself on the simulation engine every
``hub.window_cycles`` and snapshots the whole system: per-channel bus
utilisation (via the *non-destructive*
:meth:`~repro.dram.stats.BusUtilizationTracker.busy_in` query, so the
Dyn-DMS profiler's own destructive cursor is never perturbed), pending
queue depths, activation/serve/drop counters, L2 hits/misses, engine
event throughput, and the live X / Th_RBL trajectories.

Design constraints:

* **Read-only** — sampling must never mutate simulator state, so a
  telemetry-on run is field-identical to a telemetry-off run.
* **Self-terminating** — the tick only re-arms while other live events
  remain on the heap; otherwise the recorder itself would keep the
  simulation from draining.
* **Complete** — :meth:`finalize` closes a trailing partial window that
  extends to the later of the run's end and the last data burst, so the
  per-window busy cycles sum exactly to the aggregate counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.hub import MetricsHub
from repro.telemetry.series import Timeline, WindowSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.system import GPUSystem

_EPS = 1e-9


class WindowSeries:
    """Records one :class:`Timeline` from a :class:`GPUSystem` run."""

    def __init__(self, hub: MetricsHub, system: "GPUSystem") -> None:
        self.hub = hub
        self.system = system
        self.window = float(hub.window_cycles)
        self.samples: list[WindowSample] = []
        self._last_end = 0.0
        # Cumulative-counter snapshots for windowed deltas.
        self._prev_acts = 0
        self._prev_served = 0
        self._prev_reads = 0
        self._prev_drops = 0
        self._prev_l2_hits = 0
        self._prev_l2_misses = 0
        self._prev_events = 0
        self._prev_drop_log = [0] * len(system.controllers)
        self._prev_donors = 0
        # Per-tenant cumulative snapshots (multi-tenant runs only).
        tracker = system.tenant_tracker
        self._prev_tenant_served = (
            [0] * len(tracker.requests_served)
            if tracker is not None else []
        )
        self._prev_tenant_drops = (
            [0] * len(tracker.requests_dropped)
            if tracker is not None else []
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the first window tick."""
        self.system.engine.at(self.window, self._tick)

    def _tick(self) -> None:
        engine = self.system.engine
        now = engine.now
        self._sample(self._last_end, now)
        self._last_end = now
        # Re-arm only while the simulation itself still has work; the
        # recorder must never keep the event heap alive on its own.
        if engine.live_event_count > 0:
            engine.at(now + self.window, self._tick)

    def finalize(self, elapsed: float) -> Timeline:
        """Close the trailing partial window and build the timeline.

        The tail extends past ``elapsed`` when a final write burst is
        still occupying a data bus (writes produce no reply events, so
        the engine can drain before their bursts end); including it
        keeps ``sum(window busy) == total busy`` exact.
        """
        end = max(elapsed, self._last_end)
        for channel in self.system.channels:
            end = max(end, channel.stats.bus.last_end)
        if end > self._last_end + _EPS:
            self._sample(self._last_end, end)
            self._last_end = end
        timeline = Timeline(
            window_cycles=self.hub.window_cycles, samples=self.samples
        )
        self.hub.timeline = timeline
        return timeline

    # ------------------------------------------------------------------
    def _sample(self, start: float, end: float) -> None:
        system = self.system
        span = end - start
        busy_per_channel = [
            ch.stats.bus.busy_in(start, end) for ch in system.channels
        ]
        busy = sum(busy_per_channel)
        n_channels = len(system.channels)
        stats = [ch.stats for ch in system.channels]
        acts = sum(s.activations for s in stats)
        served = sum(s.reads_served + s.writes_served for s in stats)
        reads = sum(s.reads_arrived for s in stats)
        drops = sum(s.requests_dropped for s in stats)
        l2_hits = sum(l2.hits for l2 in system.l2s)
        l2_misses = sum(l2.misses for l2 in system.l2s)
        events = system.engine.events_scheduled
        donors = self._prev_donors
        for idx, mc in enumerate(system.controllers):
            log = mc.drops
            for record in log[self._prev_drop_log[idx]:]:
                if record.donor_line_addr is not None:
                    donors += 1
            self._prev_drop_log[idx] = len(log)
        arrived_total = sum(mc.ams.reads_arrived for mc in system.controllers)
        dropped_total = sum(mc.ams.reads_dropped for mc in system.controllers)
        coverage = dropped_total / arrived_total if arrived_total else 0.0
        d_acts = acts - self._prev_acts
        d_served = served - self._prev_served
        sample = WindowSample(
            index=len(self.samples),
            start=start,
            end=end,
            busy_cycles=busy,
            bwutil=busy / (span * n_channels) if span > 0 else 0.0,
            bwutil_per_channel=[
                b / span if span > 0 else 0.0 for b in busy_per_channel
            ],
            queue_depth=sum(len(mc.queue) for mc in system.controllers),
            ingress_backlog=sum(
                mc.queue.ingress_backlog for mc in system.controllers
            ),
            activations=d_acts,
            requests_served=d_served,
            reads_arrived=reads - self._prev_reads,
            drops=drops - self._prev_drops,
            drops_with_donor=donors - self._prev_donors,
            coverage=coverage,
            rbl=d_served / d_acts if d_acts else 0.0,
            l2_hits=l2_hits - self._prev_l2_hits,
            l2_misses=l2_misses - self._prev_l2_misses,
            events=events - self._prev_events,
            dms_x=[mc.dms.current_delay for mc in system.controllers],
            th_rbl=[mc.ams.th_rbl for mc in system.controllers],
        )
        self.samples.append(sample)
        if self.hub.on_window is not None:
            self.hub.on_window(sample)
        self._prev_acts = acts
        self._prev_served = served
        self._prev_reads = reads
        self._prev_drops = drops
        self._prev_l2_hits = l2_hits
        self._prev_l2_misses = l2_misses
        self._prev_events = events
        self._prev_donors = donors
        hub = self.hub
        hub.gauge("window.bwutil", sample.bwutil)
        hub.gauge("window.queue_depth", float(sample.queue_depth))
        hub.gauge("window.coverage", coverage)
        hub.inc("window.samples")
        # Per-tenant timelines ride as hub series, not WindowSample
        # fields — the sample's serialized key set is pinned.
        tracker = system.tenant_tracker
        if tracker is not None:
            names = [t.name for t in tracker.mix.tenants]
            for tid, name in enumerate(names):
                served_now = tracker.requests_served[tid]
                drops_now = tracker.requests_dropped[tid]
                hub.append_series(
                    f"tenant.{name}.served",
                    float(served_now - self._prev_tenant_served[tid]),
                )
                hub.append_series(
                    f"tenant.{name}.drops",
                    float(drops_now - self._prev_tenant_drops[tid]),
                )
                self._prev_tenant_served[tid] = served_now
                self._prev_tenant_drops[tid] = drops_now
