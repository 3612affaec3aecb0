"""Approximate Memory Scheduling (AMS) — paper Section IV-C.

When the controller is about to open a new row, the AMS unit may instead
*drop* the triggering request (and every pending request to the same row)
so the activation never happens; the value-prediction unit synthesises
their data. The drop criteria, in the paper's order:

1. the oldest pending request is an annotated approximable global read,
   and every pending request to its row is likewise an approximable read;
2. the DMS delay criterion for the request is met (checked by the caller);
3. running coverage (dropped reads / arrived reads) is below the user
   bound (10 %);
4. the row's observed pending RBL is at most ``Th_RBL``.

Variants: **Static-AMS** (Th_RBL = 8) and **Dyn-AMS**, which per
4096-cycle window lowers Th_RBL by 1 while the window's coverage meets the
target (focusing drops on the lowest-RBL rows) and raises it when coverage
starves, bounded to [1, 8].
"""

from __future__ import annotations

from repro.config.scheduler import AMSConfig, AMSMode
from repro.sched.pending_queue import PendingQueue


class AMSUnit:
    """Per-memory-controller AMS logic and coverage ledger."""

    def __init__(self, config: AMSConfig) -> None:
        self.config = config
        self._th_rbl = config.static_th_rbl
        self._halted = False
        # Cumulative ledger (coverage denominator = arrived global reads).
        self.reads_arrived = 0
        self.reads_dropped = 0
        # Per-window counters for Dyn-AMS.
        self._window_reads = 0
        self._window_drops = 0
        #: History of (window_index, th_rbl) for diagnostics/tests.
        self.th_trace: list[tuple[int, int]] = []
        self._window_index = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether AMS is active at all."""
        return self.config.mode is not AMSMode.OFF

    @property
    def th_rbl(self) -> int:
        """The current RBL threshold."""
        return self._th_rbl

    @property
    def coverage(self) -> float:
        """Cumulative prediction coverage (dropped / arrived reads)."""
        if not self.reads_arrived:
            return 0.0
        return self.reads_dropped / self.reads_arrived

    @property
    def window_index(self) -> int:
        """Profiling windows consumed so far (telemetry probe)."""
        return self._window_index

    @property
    def warmed_up(self) -> bool:
        """AMS stays inactive until the L2 has seen enough traffic to give
        the VP unit donor lines (paper: 'we first warm up the L2 cache')."""
        return self.reads_arrived >= self.config.warmup_fills

    def set_halted(self, halted: bool) -> None:
        """Halt/resume AMS (used while Dyn-DMS samples its baseline)."""
        self._halted = halted

    # ------------------------------------------------------------------
    # Ledger updates
    # ------------------------------------------------------------------
    def on_read_arrival(self) -> None:
        """Count an arriving global read (the coverage denominator)."""
        self.reads_arrived += 1
        self._window_reads += 1

    def on_drop(self, count: int = 1) -> None:
        """Count ``count`` dropped reads."""
        self.reads_dropped += count
        self._window_drops += count

    # ------------------------------------------------------------------
    # Drop decision
    # ------------------------------------------------------------------
    def may_drop(self, queue: PendingQueue, bank: int, row: int) -> bool:
        """Decide whether the prospective activation of ``(bank, row)``
        should be elided by dropping its pending requests."""
        if not self.enabled or self._halted or not self.warmed_up:
            return False
        pending = queue.row_pending_count(bank, row)
        if pending == 0 or pending > self._th_rbl:
            return False
        if not queue.row_all_reads(bank, row):
            return False
        if not queue.row_all_approximable(bank, row):
            return False
        # Coverage bound: dropping `pending` requests must not exceed it.
        if not self.reads_arrived:
            return False
        projected = (self.reads_dropped + pending) / self.reads_arrived
        return projected <= self.config.coverage_limit

    # ------------------------------------------------------------------
    # Dynamic threshold control
    # ------------------------------------------------------------------
    def on_window(self) -> None:
        """Adjust Th_RBL from the window that just finished (Dyn-AMS)."""
        if self.config.mode is not AMSMode.DYNAMIC:
            self._reset_window()
            return
        self._window_index += 1
        if self._window_reads:
            window_coverage = self._window_drops / self._window_reads
            # "Achieving" the user coverage within a window: close enough
            # to the bound that the cumulative cap is the binding limit.
            if window_coverage >= 0.9 * self.config.coverage_limit:
                self._th_rbl = max(self.config.min_th_rbl, self._th_rbl - 1)
            else:
                self._th_rbl = min(self.config.max_th_rbl, self._th_rbl + 1)
        self.th_trace.append((self._window_index, self._th_rbl))
        self._reset_window()

    def _reset_window(self) -> None:
        self._window_reads = 0
        self._window_drops = 0
