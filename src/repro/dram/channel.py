"""One DRAM channel: banks, bank-group constraints, shared data bus.

The channel exposes two kinds of methods:

* ``*_ready_time`` — pure queries returning the earliest legal issue time
  for a prospective command, considering bank state, bank-group tCCD,
  channel tRRD, the one-command-per-cycle command bus, and data-bus
  occupancy.
* ``issue_*`` / ``switch_row`` — state mutators that issue the command at
  its ready time and update all constraint windows and statistics.

The memory controller (:mod:`repro.sched.controller`) uses the queries to
build its candidate list and the mutators to execute the chosen command.
"""

from __future__ import annotations

from typing import Optional

from repro.config.address import AddressMapping
from repro.config.timing import DRAMTimings
from repro.dram.bank import Bank
from repro.dram.commands import CommandRecord, DRAMCommand
from repro.dram.stats import ChannelStats
from repro.dram.timing import TimingTable


class Channel:
    """Command-level timing model of one GDDR5/HBM channel."""

    def __init__(
        self,
        channel_id: int,
        mapping: AddressMapping,
        timings: DRAMTimings,
        *,
        record_activations: bool = True,
        log_commands: bool = False,
        refresh_enabled: bool = False,
    ) -> None:
        self.channel_id = channel_id
        self.timings = timings
        #: Flattened float constants for the scheduler hot path.
        self.table = TimingTable.from_timings(timings)
        self.banks: list[Bank] = [
            Bank(index=i, bank_group=mapping.bank_group_of(i), timings=timings)
            for i in range(mapping.banks_per_channel)
        ]
        self.stats = ChannelStats(record_activations=record_activations)
        #: Earliest next column command per bank group (tCCD).
        self._group_earliest_col = [0.0] * mapping.bank_groups_per_channel
        #: Most recent ACT anywhere in the channel (tRRD).
        self._last_act_any = float("-inf")
        #: Earliest time the data bus is free for a new burst.
        self._bus_free = 0.0
        #: One command per cycle on the shared command bus.
        self._next_cmd_time = 0.0
        self.command_log: Optional[list[CommandRecord]] = (
            [] if log_commands else None
        )
        #: Optional ECC/fault-injection hook on served column commands
        #: (:class:`repro.dram.ecc.ReadPathECC`); None keeps the read
        #: path untouched — the hot loop pays one ``is None`` test.
        self.read_path = None
        #: All-bank refresh (disabled by default; the paper's evaluation
        #: does not study refresh interference, but the substrate models
        #: it for completeness).
        self.refresh_enabled = refresh_enabled
        self._next_refresh = float(timings.tREFI)

    # ------------------------------------------------------------------
    # Ready-time queries
    # ------------------------------------------------------------------
    def column_ready_time(self, bank: Bank, is_write: bool, now: float) -> float:
        """Earliest issue time for a RD/WR to the open row of ``bank``."""
        t = bank.earliest_column_time(now, is_write)
        group = self._group_earliest_col[bank.bank_group]
        if group > t:
            t = group
        if self._next_cmd_time > t:
            t = self._next_cmd_time
        data_start = t + self.table.cas[is_write]
        if data_start < self._bus_free:
            t += self._bus_free - data_start
        return t

    def precharge_ready_time(self, bank: Bank, now: float) -> float:
        """Earliest legal PRE issue time for an open bank."""
        t = bank.earliest_precharge_time(now)
        return self._next_cmd_time if self._next_cmd_time > t else t

    def activate_ready_time(self, bank: Bank, now: float) -> float:
        """Earliest legal ACT issue time for a closed bank."""
        t = bank.earliest_activate_time(now)
        rrd = self._last_act_any + self.table.tRRD
        if rrd > t:
            t = rrd
        if self._next_cmd_time > t:
            t = self._next_cmd_time
        return t

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------
    def attach_read_path(self, read_path) -> None:
        """Install an inject→decode hook on served column commands."""
        self.read_path = read_path

    def issue_column(
        self, bank: Bank, is_write: bool, now: float,
        *, rid: Optional[int] = None,
    ) -> tuple[float, float]:
        """Issue a RD/WR to the open row; returns ``(cmd_time, data_end)``.

        ``rid`` identifies the memory request being served; when a read
        path is attached it keys the deterministic fault draw for this
        access (reads) or the encode accounting (writes).
        """
        tb = self.table
        t = self.column_ready_time(bank, is_write, now)
        data_start = t + tb.cas[is_write]
        data_end = data_start + tb.tBURST
        self._group_earliest_col[bank.bank_group] = t + tb.tCCD
        self._bus_free = data_end
        self._next_cmd_time = t + 1
        bank.do_column(t, is_write, data_end)
        self.stats.on_column(bank.index, is_write)
        self.stats.bus.add(data_start, data_end)
        if self.read_path is not None:
            self.read_path.on_access(rid, is_write)
        if self.command_log is not None:
            cmd = DRAMCommand.WRITE if is_write else DRAMCommand.READ
            self.command_log.append(
                CommandRecord(
                    time=t,
                    command=cmd,
                    bank=bank.index,
                    bank_group=bank.bank_group,
                    row=bank.open_row,
                )
            )
        return t, data_end

    def issue_precharge(self, bank: Bank, now: float) -> float:
        """Issue a PRE closing the bank's open row; returns its time.

        The PRE occupies exactly one command-bus cycle, so other banks'
        commands interleave freely during the tRP window.
        """
        t_pre = self.precharge_ready_time(bank, now)
        self._record_pre(bank, t_pre)
        bank.do_precharge(t_pre)
        self.stats.on_precharge(bank.index)
        self._next_cmd_time = t_pre + 1
        return t_pre

    def issue_activate(self, bank: Bank, row: int, now: float) -> float:
        """Issue an ACT opening ``row`` in a closed bank; returns its time."""
        t_act = self.activate_ready_time(bank, now)
        bank.do_activate(row, t_act)
        self._last_act_any = t_act
        self._next_cmd_time = t_act + 1
        self.stats.on_activate(bank.index, row, t_act)
        if self.command_log is not None:
            self.command_log.append(
                CommandRecord(
                    time=t_act,
                    command=DRAMCommand.ACTIVATE,
                    bank=bank.index,
                    bank_group=bank.bank_group,
                    row=row,
                )
            )
        return t_act

    def switch_row(self, bank: Bank, row: int, now: float) -> float:
        """Precharge (if needed) and activate ``row``; returns the ACT time.

        Convenience for tests and open-loop drivers; the controller issues
        PRE and ACT as separate actions so banks can interleave commands.
        """
        t = now
        if bank.is_open:
            t = self.issue_precharge(bank, now)
        return self.issue_activate(bank, row, t)

    def _record_pre(self, bank: Bank, t: float) -> None:
        if self.command_log is not None:
            self.command_log.append(
                CommandRecord(
                    time=t,
                    command=DRAMCommand.PRECHARGE,
                    bank=bank.index,
                    bank_group=bank.bank_group,
                    row=bank.open_row,
                )
            )

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh_due(self, now: float) -> bool:
        """Whether an all-bank refresh must issue before other commands."""
        return self.refresh_enabled and now >= self._next_refresh

    def next_refresh_time(self) -> float:
        """Deadline of the next refresh (inf when disabled)."""
        return self._next_refresh if self.refresh_enabled else float("inf")

    def issue_refresh(self, now: float) -> float:
        """Precharge all open banks and refresh; returns the REF time.

        The channel is blocked for tRFC after the REF command; open rows
        are closed (their RBL accounting completes).
        """
        tm = self.timings
        t = max(now, self._next_cmd_time)
        for bank in self.banks:
            if bank.is_open:
                t = max(t, bank.earliest_precharge_time(t))
        # Close every open row (one PRE per bank, conservatively spaced
        # one command-bus cycle apart).
        for bank in self.banks:
            if bank.is_open:
                self._record_pre(bank, t)
                bank.do_precharge(t)
                self.stats.on_precharge(bank.index)
                t += 1
        t_ref = max(t, self._next_cmd_time)
        for bank in self.banks:
            bank.earliest_act = max(bank.earliest_act, t_ref + tm.tRFC)
        self._next_cmd_time = t_ref + 1
        self.stats.refreshes += 1
        self._next_refresh += tm.tREFI
        if self.command_log is not None:
            self.command_log.append(
                CommandRecord(
                    time=t_ref,
                    command=DRAMCommand.REFRESH,
                    bank=-1,
                    bank_group=-1,
                    row=-1,
                )
            )
        return t_ref

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Flush per-activation accounting at the end of simulation."""
        self.stats.finalize()
