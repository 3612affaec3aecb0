"""Multi-tenant arbiters: how one controller is shared among tenants.

An arbiter is a :class:`~repro.sched.policies.base.CandidateSelector`
constructed with ``(SchedulerConfig, TenantMixSpec)`` and installed on
every controller when a multi-tenant mix attaches
(:meth:`~repro.sim.system.GPUSystem.from_spec`). All three arbiters
share one fold over the pending queue, parameterised by a per-tenant
*rank* array:

* candidate keys are ``(ready, rank[tenant], priority, enqueue_time)``
  — one element longer than the single-tenant ``(ready, prio, enq)``
  discipline, which is safe because the controller's service loop reads
  only ``key[0]`` (the ready time). Ranks break ready-time ties, so the
  channel never idles to favour a class: a work-conserving strict
  priority, the way real controllers arbitrate among *ready* commands;
* DMS gating is scoped per tenant: it applies only to tenants whose
  class permits it (``latency`` tenants are never aged).
  AMS drop scoping needs no arbiter help — the trace composer strips
  the ``approximable`` annotation from every non-``approx-batch``
  tenant's accesses, so ``row_all_approximable`` structurally excludes
  their rows from dropping;
* within a bank, FR-FCFS order is preserved (oldest hit / oldest
  request); ranks arbitrate among the banks' proposals.

``shared-frfcfs`` keeps every rank at zero — tenant-blind FR-FCFS, the
baseline. ``tenant-priority`` ranks by service class (latency <
bandwidth < approx-batch). ``batch-fair`` ranks by least attained
service over a sliding batch window, steering issue toward the tenant
with the highest estimated slowdown.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.config.tenants import TENANT_CLASSES
from repro.dram.bank import NO_ROW as _NO_ROW
from repro.sched.policies.base import (
    COL_PRIORITY,
    SWITCH_PRIORITY,
    Candidate,
    CandidateSelector,
    register_arbiter,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.config.scheduler import SchedulerConfig
    from repro.config.tenants import TenantMixSpec

#: Column issues per batch window of the batch-fair arbiter; attained
#: service is halved at every window boundary so the ranking tracks
#: recent demand (an implicit, sliding request batch).
BATCH_WINDOW_ISSUES = 64


class TenantArbiter(CandidateSelector):
    """Shared rank-parameterised FR-FCFS fold (see module docstring)."""

    def __init__(
        self, config: "SchedulerConfig", mix: "TenantMixSpec"
    ) -> None:
        super().__init__(config)
        self.mix = mix
        #: Per-tenant DMS gate scoping, indexed by ``tenant_id``.
        self._gated = tuple(t.gated for t in mix.tenants)
        #: Per-tenant priority rank (lower wins ready-time ties).
        self._rank: list[int] = [0] * len(mix.tenants)

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
        gated = self._gated
        rank = self._rank
        b_key = None
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
                    key = (
                        t, rank[hit.tenant_id],
                        COL_PRIORITY, hit.enqueue_time,
                    )
                    if b_key is None or key < b_key:
                        b_key = key
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
            # Per-tenant gate scoping: the row-opening command is aged
            # only when the owning tenant's class permits gating.
            if gate_on and gated[oldest.tenant_id]:
                g = earliest_eligible(oldest.enqueue_time)
                if t < g:
                    t = g
            key = (
                t, rank[oldest.tenant_id],
                SWITCH_PRIORITY, oldest.enqueue_time,
            )
            if b_key is None or key < b_key:
                b_key = key
                b_kind = kind
                b_bank = bank
                b_req = oldest
        best = (
            None if b_kind is None else (b_key, b_kind, b_bank, b_req)
        )
        if self._close_row:
            best = self._consider_close_rows(best, now)
        return best


@register_arbiter
class SharedFRFCFSArbiter(TenantArbiter):
    """Tenant-blind FR-FCFS over the merged stream (the baseline).

    All ranks stay zero, so the key ordering degenerates to the plain
    ``(ready, prio, enq)`` discipline; only the per-tenant gate scoping
    distinguishes it from the single-tenant selector.
    """

    name = "shared-frfcfs"


@register_arbiter
class TenantPriorityArbiter(TenantArbiter):
    """Strict class priority: latency < bandwidth < approx-batch.

    Among simultaneously-ready commands, a stronger class always wins —
    a latency tenant's row switch beats an approx-batch tenant's row
    hit. Within a class, FR-FCFS applies unchanged.
    """

    name = "tenant-priority"

    def __init__(
        self, config: "SchedulerConfig", mix: "TenantMixSpec"
    ) -> None:
        super().__init__(config, mix)
        self._rank = [
            TENANT_CLASSES.index(t.tenant_class) for t in mix.tenants
        ]


@register_arbiter
class BatchFairArbiter(TenantArbiter):
    """Least-attained-service batching with slowdown estimation.

    Column issues accumulate per-tenant attained service; every
    :data:`BATCH_WINDOW_ISSUES` issues the counters are halved, forming
    a sliding batch window. Ranks follow ascending attained service
    (ties broken by tenant id), so the tenant with the highest estimated
    slowdown — the one furthest below its fair service share — wins
    ready-time ties (cf. PAR-BS-style batch schedulers).
    """

    name = "batch-fair"

    def __init__(
        self, config: "SchedulerConfig", mix: "TenantMixSpec"
    ) -> None:
        super().__init__(config, mix)
        self._attained = [0.0] * len(mix.tenants)
        self._window_issues = 0

    def on_issue(self, kind, bank_idx, request) -> None:
        if kind != "col" or request is None:
            return
        attained = self._attained
        attained[request.tenant_id] += 1.0
        self._window_issues += 1
        if self._window_issues >= BATCH_WINDOW_ISSUES:
            self._window_issues = 0
            for i in range(len(attained)):
                attained[i] *= 0.5
        order = sorted(
            range(len(attained)), key=lambda t: (attained[t], t)
        )
        rank = self._rank
        for r, tid in enumerate(order):
            rank[tid] = r
