"""Candidate selectors: the baseline arbiters under DMS/AMS.

All three selectors share the candidate-key discipline of
:mod:`repro.sched.policies.base` — ``(ready_time, priority,
enqueue_time)`` with strict ``<`` comparison and first-wins tie-break —
so swapping selectors changes *which* commands compete, never how ties
resolve.

``select`` is the simulator's hottest call (one per issued DRAM
command). The fold keeps the best key as three scalars and compares
them branch-by-branch — the ``(ready, prio, enq)`` tuple is allocated
once for the winner, never for losers — and the ready-time queries of
:mod:`repro.dram.channel` are inlined against the structures ``bind``
hoisted: bank slots, the per-row/per-bank index dicts, the bank-group
column windows, and the :class:`~repro.dram.timing.TimingTable` floats.
The arithmetic mirrors ``column_ready_time`` / ``precharge_ready_time``
/ ``activate_ready_time`` expression-for-expression (the golden
differential suite pins the reports bit-identical), and the per-bank
index buckets are non-empty for every bank in ``banks_with_pending()``
— a :meth:`~repro.sched.pending_queue.PendingQueue.check_invariants`
invariant — so the FIFO heads are taken without a None guard.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.bank import NO_ROW as _NO_ROW
from repro.sched.policies.base import (
    Candidate,
    CandidateSelector,
    register_selector,
)

_INF = float("inf")


@register_selector
class FRFCFSSelector(CandidateSelector):
    """FR-FCFS (Rixner et al.): row hits first, then oldest-first.

    The paper's baseline arbiter. Per bank, the oldest pending row hit
    competes as a column command; a bank with no hits competes with the
    command that opens its oldest request's row (PRE when a stale row is
    open, ACT otherwise), gated by the DMS unit.
    """

    name = "frfcfs"

    def select(self, now: float) -> Optional[Candidate]:
        channel = self._channel
        next_cmd = channel._next_cmd_time
        bus_free = channel._bus_free
        act_floor = channel._last_act_any + self._tRRD
        banks = self._banks
        by_bank = self._by_bank
        by_row = self._by_row
        group_col = self._group_earliest_col
        tCL = self._tCL
        tCWL = self._tCWL
        gate_on = self._gate_enabled
        earliest_eligible = self._earliest_eligible
        b_ready = _INF
        b_prio = 2
        b_enq = 0.0
        b_kind = b_bank = b_req = None
        for bank_idx in self._pending_banks:
            bank = banks[bank_idx]
            open_row = bank.open_row
            if open_row != _NO_ROW:
                bucket = by_row.get((bank_idx, open_row))
                if bucket:
                    hit = next(iter(bucket.values()))
                    is_write = hit.is_write
                    t = (
                        bank.earliest_col_wr
                        if is_write
                        else bank.earliest_col_rd
                    )
                    if t < now:
                        t = now
                    g = group_col[bank.bank_group]
                    if t < g:
                        t = g
                    if t < next_cmd:
                        t = next_cmd
                    ds = t + (tCWL if is_write else tCL)
                    if ds < bus_free:
                        t += bus_free - ds
                    enq = hit.enqueue_time
                    if t < b_ready or (
                        t == b_ready
                        and (b_prio > 0 or enq < b_enq)
                    ):
                        b_ready = t
                        b_prio = 0
                        b_enq = enq
                        b_kind = "col"
                        b_bank = bank
                        b_req = hit
                    continue
                oldest = next(iter(by_bank[bank_idx].values()))
                t = bank.earliest_pre
                if t < now:
                    t = now
                if t < next_cmd:
                    t = next_cmd
                kind = "pre"
            else:
                oldest = next(iter(by_bank[bank_idx].values()))
                t = bank.earliest_act
                if t < now:
                    t = now
                if t < act_floor:
                    t = act_floor
                if t < next_cmd:
                    t = next_cmd
                kind = "act"
            # The gate applies to the command that commits to opening a
            # new row: PRE for an open bank, ACT otherwise.
            enq = oldest.enqueue_time
            if gate_on:
                g = earliest_eligible(enq)
                if t < g:
                    t = g
            if t < b_ready or (
                t == b_ready and b_prio == 1 and enq < b_enq
            ):
                b_ready = t
                b_prio = 1
                b_enq = enq
                b_kind = kind
                b_bank = bank
                b_req = oldest
        best = (
            None
            if b_kind is None
            else ((b_ready, b_prio, b_enq), b_kind, b_bank, b_req)
        )
        if self._close_row:
            best = self._consider_close_rows(best, now)
        return best


@register_selector
class FCFSSelector(CandidateSelector):
    """Strict FCFS per bank: only the *oldest* request may issue.

    Younger row hits never bypass an older request, even to an open row
    — the Section II-C ablation that motivates FR-FCFS as the baseline.
    """

    name = "fcfs"

    def select(self, now: float) -> Optional[Candidate]:
        channel = self._channel
        next_cmd = channel._next_cmd_time
        bus_free = channel._bus_free
        act_floor = channel._last_act_any + self._tRRD
        banks = self._banks
        by_bank = self._by_bank
        group_col = self._group_earliest_col
        tCL = self._tCL
        tCWL = self._tCWL
        gate_on = self._gate_enabled
        earliest_eligible = self._earliest_eligible
        b_ready = _INF
        b_prio = 2
        b_enq = 0.0
        b_kind = b_bank = b_req = None
        for bank_idx in self._pending_banks:
            bank = banks[bank_idx]
            open_row = bank.open_row
            is_open = open_row != _NO_ROW
            oldest = next(iter(by_bank[bank_idx].values()))
            enq = oldest.enqueue_time
            if is_open and oldest.row == open_row:
                is_write = oldest.is_write
                t = (
                    bank.earliest_col_wr
                    if is_write
                    else bank.earliest_col_rd
                )
                if t < now:
                    t = now
                g = group_col[bank.bank_group]
                if t < g:
                    t = g
                if t < next_cmd:
                    t = next_cmd
                ds = t + (tCWL if is_write else tCL)
                if ds < bus_free:
                    t += bus_free - ds
                if t < b_ready or (
                    t == b_ready and (b_prio > 0 or enq < b_enq)
                ):
                    b_ready = t
                    b_prio = 0
                    b_enq = enq
                    b_kind = "col"
                    b_bank = bank
                    b_req = oldest
                continue
            if is_open:
                t = bank.earliest_pre
                if t < now:
                    t = now
                if t < next_cmd:
                    t = next_cmd
                kind = "pre"
            else:
                t = bank.earliest_act
                if t < now:
                    t = now
                if t < act_floor:
                    t = act_floor
                if t < next_cmd:
                    t = next_cmd
                kind = "act"
            if gate_on:
                g = earliest_eligible(enq)
                if t < g:
                    t = g
            if t < b_ready or (
                t == b_ready and b_prio == 1 and enq < b_enq
            ):
                b_ready = t
                b_prio = 1
                b_enq = enq
                b_kind = kind
                b_bank = bank
                b_req = oldest
        best = (
            None
            if b_kind is None
            else ((b_ready, b_prio, b_enq), b_kind, b_bank, b_req)
        )
        if self._close_row:
            best = self._consider_close_rows(best, now)
        return best


@register_selector
class FRFCFSCapSelector(CandidateSelector):
    """FR-FCFS with a row-hit streak cap (starvation bound).

    Identical to FR-FCFS until one bank has served
    ``SchedulerConfig.hit_streak_cap`` consecutive hits to its open row
    while an older request for a *different* row waits on the same bank;
    the next hit is then suppressed so the oldest request forces the row
    switch. Caps the worst-case wait a row-miss request can suffer under
    a hit-heavy access stream (cf. the batch-oriented GPU schedulers).
    """

    name = "frfcfs-cap"

    def __init__(self, config) -> None:
        super().__init__(config)
        self._cap = config.hit_streak_cap
        #: bank index -> (row, consecutive column commands to that row).
        self._streaks: dict[int, tuple[int, int]] = {}

    def select(self, now: float) -> Optional[Candidate]:
        channel = self._channel
        next_cmd = channel._next_cmd_time
        bus_free = channel._bus_free
        act_floor = channel._last_act_any + self._tRRD
        banks = self._banks
        by_bank = self._by_bank
        by_row = self._by_row
        group_col = self._group_earliest_col
        tCL = self._tCL
        tCWL = self._tCWL
        gate_on = self._gate_enabled
        earliest_eligible = self._earliest_eligible
        cap = self._cap
        streaks = self._streaks
        b_ready = _INF
        b_prio = 2
        b_enq = 0.0
        b_kind = b_bank = b_req = None
        for bank_idx in self._pending_banks:
            bank = banks[bank_idx]
            open_row = bank.open_row
            if open_row != _NO_ROW:
                bucket = by_row.get((bank_idx, open_row))
                hit = next(iter(bucket.values())) if bucket else None
                if hit is not None:
                    streak = streaks.get(bank_idx)
                    if (
                        streak is not None
                        and streak[0] == open_row
                        and streak[1] >= cap
                    ):
                        oldest = next(iter(by_bank[bank_idx].values()))
                        if oldest.row != open_row:
                            hit = None  # capped: force the row switch
                if hit is not None:
                    is_write = hit.is_write
                    t = (
                        bank.earliest_col_wr
                        if is_write
                        else bank.earliest_col_rd
                    )
                    if t < now:
                        t = now
                    g = group_col[bank.bank_group]
                    if t < g:
                        t = g
                    if t < next_cmd:
                        t = next_cmd
                    ds = t + (tCWL if is_write else tCL)
                    if ds < bus_free:
                        t += bus_free - ds
                    enq = hit.enqueue_time
                    if t < b_ready or (
                        t == b_ready and (b_prio > 0 or enq < b_enq)
                    ):
                        b_ready = t
                        b_prio = 0
                        b_enq = enq
                        b_kind = "col"
                        b_bank = bank
                        b_req = hit
                    continue
                oldest = next(iter(by_bank[bank_idx].values()))
                t = bank.earliest_pre
                if t < now:
                    t = now
                if t < next_cmd:
                    t = next_cmd
                kind = "pre"
            else:
                oldest = next(iter(by_bank[bank_idx].values()))
                t = bank.earliest_act
                if t < now:
                    t = now
                if t < act_floor:
                    t = act_floor
                if t < next_cmd:
                    t = next_cmd
                kind = "act"
            enq = oldest.enqueue_time
            if gate_on:
                g = earliest_eligible(enq)
                if t < g:
                    t = g
            if t < b_ready or (
                t == b_ready and b_prio == 1 and enq < b_enq
            ):
                b_ready = t
                b_prio = 1
                b_enq = enq
                b_kind = kind
                b_bank = bank
                b_req = oldest
        best = (
            None
            if b_kind is None
            else ((b_ready, b_prio, b_enq), b_kind, b_bank, b_req)
        )
        if self._close_row:
            best = self._consider_close_rows(best, now)
        return best

    def on_issue(self, kind, bank_idx, request) -> None:
        if kind == "col" and request is not None:
            streak = self._streaks.get(bank_idx)
            if streak is not None and streak[0] == request.row:
                self._streaks[bank_idx] = (request.row, streak[1] + 1)
            else:
                self._streaks[bank_idx] = (request.row, 1)
        else:
            # Any row switch (PRE/ACT/close/drop) breaks the streak.
            self._streaks.pop(bank_idx, None)
