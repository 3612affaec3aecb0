"""Multi-tenant arbiters: how one controller is shared among tenants.

An arbiter is a :class:`~repro.sched.policies.base.CandidateSelector`
constructed with ``(SchedulerConfig, TenantMixSpec)`` and installed on
every controller when a multi-tenant mix attaches
(:meth:`~repro.sim.system.GPUSystem.from_spec`). All three run the
selectors' one FR-FCFS fold; an arbiter supplies only its per-tenant
*rank* and *gate* arrays, which the base class builds from the mix:

* candidate keys are ``(ready, rank[tenant], priority, enqueue_time)``.
  Ranks break ready-time ties, so the channel never idles to favour a
  class: a work-conserving strict priority, the way real controllers
  arbitrate among *ready* commands. A close-row PRE carries an infinite
  rank and loses every tie;
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

from typing import TYPE_CHECKING

from repro.config.tenants import TENANT_CLASSES
from repro.sched.policies.base import CandidateSelector, register_arbiter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.config.scheduler import SchedulerConfig
    from repro.config.tenants import TenantMixSpec

#: Column issues per batch window of the batch-fair arbiter; attained
#: service is halved at every window boundary so the ranking tracks
#: recent demand (an implicit, sliding request batch).
BATCH_WINDOW_ISSUES = 64


@register_arbiter
class SharedFRFCFSArbiter(CandidateSelector):
    """Tenant-blind FR-FCFS over the merged stream (the baseline).

    All ranks stay zero, so keys order exactly as under the ``frfcfs``
    selector; only the per-tenant gate scoping distinguishes the two.
    """

    name = "shared-frfcfs"


@register_arbiter
class TenantPriorityArbiter(CandidateSelector):
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
class BatchFairArbiter(CandidateSelector):
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
