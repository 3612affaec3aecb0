"""Per-bank DRAM state machine.

Each bank tracks its open row and the earliest legal times for the next
activate, precharge, and column command. The channel model
(:mod:`repro.dram.channel`) layers channel-wide constraints (tRRD, tCCD,
data-bus occupancy) on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config.timing import DRAMTimings

#: Sentinel meaning "no row is open in this bank".
NO_ROW: int = -1


@dataclass(slots=True)
class Bank:
    """State of one DRAM bank (timing in memory cycles)."""

    index: int
    bank_group: int
    timings: DRAMTimings
    open_row: int = NO_ROW
    #: Issue time of the most recent ACT (for tRC and tRAS accounting).
    last_act_time: float = float("-inf")
    #: Earliest time the next ACT may issue (after PRE + tRP and tRC).
    earliest_act: float = 0.0
    #: Earliest time the next PRE may issue (tRAS, read/write recovery).
    earliest_pre: float = 0.0
    #: Earliest time the next column command may issue (tRCD, tCDLR).
    earliest_col_rd: float = 0.0
    earliest_col_wr: float = 0.0
    #: Column accesses served since the current row was opened (RBL count).
    accesses_this_activation: int = 0

    @property
    def is_open(self) -> bool:
        """Whether any row is currently latched in the row buffer."""
        return self.open_row != NO_ROW

    def earliest_activate_time(self, now: float) -> float:
        """Earliest legal ACT issue time considering only this bank."""
        return self.earliest_act if self.earliest_act > now else now

    def earliest_precharge_time(self, now: float) -> float:
        """Earliest legal PRE issue time considering only this bank."""
        return self.earliest_pre if self.earliest_pre > now else now

    def earliest_column_time(self, now: float, is_write: bool) -> float:
        """Earliest legal RD/WR issue time considering only this bank."""
        limit = self.earliest_col_wr if is_write else self.earliest_col_rd
        return limit if limit > now else now

    def do_activate(self, row: int, t: float) -> None:
        """Apply an ACT issued at ``t`` opening ``row``."""
        # Each window keeps the later time: max() without the call.
        tm = self.timings
        self.open_row = row
        self.last_act_time = t
        col = t + tm.tRCD
        if col > self.earliest_col_rd:
            self.earliest_col_rd = col
        if col > self.earliest_col_wr:
            self.earliest_col_wr = col
        pre = t + tm.tRAS
        if pre > self.earliest_pre:
            self.earliest_pre = pre
        act = t + tm.tRC
        if act > self.earliest_act:
            self.earliest_act = act
        self.accesses_this_activation = 0

    def do_precharge(self, t: float) -> None:
        """Apply a PRE issued at ``t``; the bank becomes closed."""
        self.open_row = NO_ROW
        act = t + self.timings.tRP
        if act > self.earliest_act:
            self.earliest_act = act

    def do_column(self, t: float, is_write: bool, data_end: float) -> None:
        """Apply a RD/WR issued at ``t`` whose data burst ends at ``data_end``."""
        tm = self.timings
        self.accesses_this_activation += 1
        if is_write:
            # Write recovery gates PRE; tCDLR gates a following read.
            pre = data_end + tm.tWR
            col = data_end + tm.tCDLR
            if col > self.earliest_col_rd:
                self.earliest_col_rd = col
        else:
            # Approximate read-to-precharge (tRTP) with the burst length.
            pre = t + tm.tBURST
        if pre > self.earliest_pre:
            self.earliest_pre = pre
