"""Delayed Memory Scheduling (DMS) — paper Section IV-B.

The DMS unit gates *row activations*: before the controller may open a new
row for a bank, the oldest pending request destined to that bank must have
aged at least ``X`` cycles in the pending queue. Row hits are never
delayed.

Two variants:

* **Static-DMS** — X fixed at 128 cycles.
* **Dyn-DMS** — a profiling state machine on 4096-cycle windows. Each
  phase (32 windows) starts by sampling the *baseline* DRAM bandwidth
  utilisation with delay 0 (and AMS halted), then walks the delay in
  ±128-cycle steps until BWUTIL falls below 95 % of that baseline,
  settling on the largest delay that kept BWUTIL above the threshold.
  The settled delay seeds the next phase's search.
"""

from __future__ import annotations

import enum

from repro.config.scheduler import DMSConfig, DMSMode


class _DynState(enum.Enum):
    WARMUP = "warmup"  # discard the first window (traffic ramp-up)
    BASELINE = "baseline"  # sampling BWUTIL with delay 0, AMS halted
    SEARCH = "search"  # walking the delay up or down
    SETTLED = "settled"  # holding the chosen delay until phase restart


class DMSUnit:
    """Per-memory-controller DMS logic."""

    def __init__(self, config: DMSConfig) -> None:
        self.config = config
        self._dynamic = config.mode is DMSMode.DYNAMIC
        if config.mode is DMSMode.STATIC:
            self._delay = float(config.static_delay)
        else:
            self._delay = 0.0
        # --- dynamic profiling state ---
        self._state = _DynState.WARMUP
        self._baseline_bwutil = 0.0
        self._recorded_delay = float(config.delay_step)
        self._last_good: float | None = None
        self._direction = 0  # +1 searching up, -1 searching down, 0 unknown
        self._windows_in_phase = 0
        #: History of (window_index, delay) for diagnostics/tests.
        self.delay_trace: list[tuple[int, float]] = []
        self._window_index = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether DMS is active at all."""
        return self.config.mode is not DMSMode.OFF

    @property
    def current_delay(self) -> float:
        """The delay X currently enforced on row-opening requests."""
        return self._delay

    @property
    def window_index(self) -> int:
        """Profiling windows consumed so far (telemetry probe)."""
        return self._window_index

    @property
    def wants_ams_halted(self) -> bool:
        """True while sampling the no-delay baseline (paper: AMS is
        temporarily halted so the baseline BWUTIL is unperturbed)."""
        return self._dynamic and self._state in (
            _DynState.WARMUP, _DynState.BASELINE
        )

    def earliest_eligible(self, enqueue_time: float) -> float:
        """Earliest time a row-opening request with this enqueue time may
        be considered for scheduling. With DMS off the delay stays 0.0
        for the whole run, so this returns ``enqueue_time`` unchanged."""
        return enqueue_time + self._delay

    # ------------------------------------------------------------------
    # Dynamic profiling (driven by the controller's window tick)
    # ------------------------------------------------------------------
    def on_window(self, bwutil: float) -> None:
        """Consume the BWUTIL of the window that just finished."""
        if not self._dynamic:
            return
        self._window_index += 1
        self._windows_in_phase += 1
        if self._windows_in_phase >= self.config.windows_per_phase:
            self._restart_phase()
            return
        if self._state is _DynState.WARMUP:
            # Discard the ramp-up window so it cannot depress the
            # baseline sample.
            self._state = _DynState.BASELINE
        elif self._state is _DynState.BASELINE:
            self._baseline_bwutil = bwutil
            self._delay = max(
                float(self.config.delay_step), self._recorded_delay
            )
            self._state = _DynState.SEARCH
            self._direction = 0
            self._last_good = None
        elif self._state is _DynState.SEARCH:
            self._search_step(bwutil)
        elif self._state is _DynState.SETTLED:
            self._settled_guard(bwutil)
        self.delay_trace.append((self._window_index, self._delay))

    def _settled_guard(self, bwutil: float) -> None:
        """Watchdog for the settled delay between phase restarts.

        An application phase change (e.g. a burst phase draining into a
        sparse tail) can make the settled delay harmful long before the
        next phase restart; step it back down whenever utilisation falls
        below the threshold.
        """
        cfg = self.config
        if bwutil > self._baseline_bwutil:
            self._baseline_bwutil = bwutil
        if bwutil < cfg.bwutil_threshold * self._baseline_bwutil:
            self._delay = max(
                float(cfg.min_delay), self._delay - cfg.delay_step
            )
            self._recorded_delay = self._delay

    def _search_step(self, bwutil: float) -> None:
        cfg = self.config
        # Self-correcting baseline: utilisation measured *under delay*
        # cannot genuinely exceed the no-delay baseline, so a higher
        # sample means the baseline window caught a traffic ramp; adopt
        # the better estimate (otherwise every delayed window would pass
        # the 95 % test against a stale-low baseline).
        if bwutil > self._baseline_bwutil:
            self._baseline_bwutil = bwutil
        ok = bwutil >= cfg.bwutil_threshold * self._baseline_bwutil
        if self._direction == 0:
            self._direction = 1 if ok else -1
        if self._direction > 0:
            if ok:
                self._last_good = self._delay
                if self._delay >= cfg.max_delay:
                    self._settle(self._delay)
                else:
                    self._delay = min(
                        self._delay + cfg.delay_step, float(cfg.max_delay)
                    )
            else:
                # Back off to the last delay that met the threshold.
                fallback = (
                    self._last_good
                    if self._last_good is not None
                    else max(
                        float(cfg.min_delay), self._delay - cfg.delay_step
                    )
                )
                self._settle(fallback)
        else:  # searching down: the phase started above the knee
            if ok:
                self._settle(self._delay)
            elif self._delay <= cfg.min_delay:
                self._settle(float(cfg.min_delay))
            else:
                self._delay = max(
                    float(cfg.min_delay), self._delay - cfg.delay_step
                )

    def _settle(self, delay: float) -> None:
        self._delay = delay
        self._recorded_delay = delay
        self._state = _DynState.SETTLED

    def _restart_phase(self) -> None:
        self._windows_in_phase = 0
        self._state = _DynState.BASELINE
        self._delay = 0.0  # sample the no-delay baseline next window
        self.delay_trace.append((self._window_index, self._delay))
