"""The candidate fold and the two policy registries.

The memory controller runs three stages of paper Fig. 9 (letters in
parentheses), split the way the staged scheduler designs of
Ausavarungnirun et al. split them:

* **Candidate selector** (B) — scans the pending queue and proposes the
  single best next DRAM command as a :data:`Candidate`. FR-FCFS is the
  paper's baseline; FCFS and FR-FCFS-with-streak-cap are the Section
  II-C comparison baselines, and the multi-tenant arbiters are
  selectors too.
* **Activation gate** (C) — the paper's DMS unit
  (:class:`~repro.sched.dms.DMSUnit`) may defer the command that
  commits to opening a new row.
* **Drop stage** (D/E) — the paper's AMS unit
  (:class:`~repro.sched.ams.AMSUnit`) may answer a row's pending
  requests with predicted values instead of opening the row.

Only the selector stage has alternatives, so only it is pluggable: a
string-keyed registry of selectors (``SchedulerConfig.arbiter``) and
one of multi-tenant arbiters (``TenantMixSpec.arbiter``). The
controller builds the DMS and AMS units itself; their OFF modes are
pass-throughs.

Every policy runs the one FR-FCFS fold of
:meth:`CandidateSelector.select` and differs from it only in data the
fold reads: the set of banks that must offer their *oldest* request
(``fcfs``: every bank; ``frfcfs-cap``: a bank whose hit streak reached
the cap) and the per-tenant rank and gate arrays (the arbiters; a
single-tenant run is tenant 0, rank 0, gated).

A candidate is a plain tuple — the fold runs once per issued DRAM
command, on the simulator's hottest loop, so no wrapper object is worth
its allocation::

    (key, kind, bank, request)

``key = (ready_time, rank, priority, enqueue_time)`` orders candidates
(earliest ready first, then the lower tenant rank, row hits before row
switches, oldest first); ``kind`` is one of ``"col"``, ``"pre"``,
``"act"``, ``"close"``; ``request`` is ``None`` for ``"close"``
(close-row sweep) candidates, whose infinite rank loses every
ready-time tie.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Optional

from repro.dram.bank import NO_ROW as _NO_ROW
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.config.scheduler import SchedulerConfig
    from repro.config.tenants import TenantMixSpec
    from repro.dram.channel import Channel
    from repro.dram.request import MemoryRequest
    from repro.sched.dms import DMSUnit
    from repro.sched.pending_queue import PendingQueue

#: (key, kind, bank, request) — see module docstring.
Candidate = tuple  # type: ignore[type-arg]

#: FR-FCFS priority classes used in candidate keys: row hits (column
#: commands) strictly before row switches. PRE and ACT are the two
#: halves of a row switch, issued as independent commands so other
#: banks can use the command bus during tRP/tRRD windows.
COL_PRIORITY = 0
SWITCH_PRIORITY = 1

_INF = float("inf")


class CandidateSelector:
    """Scans the pending queue and proposes the next DRAM command.

    Lifecycle: constructed from the :class:`SchedulerConfig` (and, for
    an arbiter, the :class:`TenantMixSpec`), then :meth:`bind`-ed once
    to its controller's queue, channel and DMS unit (bound methods are
    hoisted to attributes there — ``select`` runs once per issued
    command). ``select`` must be read-only: it may not mutate the
    queue, the banks, or the DMS unit.
    """

    #: Registry key; also the ``SchedulerConfig.arbiter`` value.
    name: ClassVar[str] = ""

    def __init__(
        self,
        config: "SchedulerConfig",
        mix: Optional["TenantMixSpec"] = None,
    ) -> None:
        self.config = config
        self._close_row = config.row_policy == "close"
        #: Banks that offer their oldest request, not their oldest row
        #: hit, as their column candidate.
        self._oldest_only: set[int] = set()
        tenants = mix.tenants if mix is not None else ()
        #: Per-tenant priority rank, indexed by ``tenant_id`` (lower
        #: wins ready-time ties); a single-tenant run is tenant 0.
        self._rank: list[int] = [0] * max(1, len(tenants))
        #: Per-tenant DMS gate scoping: a row-opening command is aged
        #: only when its tenant's class permits gating.
        self._gated = tuple(t.gated for t in tenants) or (True,)

    def bind(
        self,
        *,
        queue: "PendingQueue",
        channel: "Channel",
        dms: "DMSUnit",
    ) -> None:
        """Attach to one controller; hoist the hot-path state.

        ``select`` folds candidates straight over the queue/channel
        internals: the per-bank and per-row index dicts, the bank-group
        column windows, and the flattened
        :class:`~repro.dram.timing.TimingTable` floats. Those containers
        are mutated in place by their owners, so the aliases hoisted
        here stay live; the channel's scalar windows (command bus, data
        bus, last ACT) are rebound per issue and are re-read inside each
        ``select`` call instead.
        """
        self._channel = channel
        self._banks = channel.banks
        self._earliest_eligible = dms.earliest_eligible
        #: DMS OFF maps enqueue_time -> enqueue_time, and a visible
        #: request always enqueued at or before ``now`` — below every
        #: ready time — so a disabled unit is skipped entirely.
        #: ``enabled`` is mode-derived and constant for a run.
        self._gate_enabled = dms.enabled
        self._oldest_hit_for = queue.oldest_hit_for
        self._precharge_ready_time = channel.precharge_ready_time
        # Live internal indexes (aliases; read-only in select).
        self._pending_banks = queue.banks_with_pending()
        self._by_bank = queue._by_bank
        self._by_row = queue._by_row
        self._group_earliest_col = channel._group_earliest_col
        table = channel.table
        self._tCL = table.tCL
        self._tCWL = table.tCWL
        self._tRRD = table.tRRD

    def select(self, now: float) -> Optional[Candidate]:
        """The best candidate at ``now``, or None when nothing pends.

        The FR-FCFS fold (Rixner et al.): per bank, the oldest pending
        row hit competes as a column command; a bank with no hit
        competes with the command that opens its oldest request's row
        (PRE when a stale row is open, ACT otherwise), gated by the DMS
        unit. An oldest-only bank offers its first row hit only when
        that hit is its oldest request, which is exactly when the
        oldest request targets the open row: both index buckets are in
        admission order.

        The best key is kept as scalars, so the key tuple is built once,
        for the winner. The ready-time queries of
        :mod:`repro.dram.channel` are inlined expression-for-expression
        against what ``bind`` hoisted (the golden differential suite
        pins the reports bit-identical), and the FIFO heads are taken
        without a None guard: every bank in ``banks_with_pending()``
        has a non-empty bucket
        (:meth:`~repro.sched.pending_queue.PendingQueue.check_invariants`).
        """
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
        oldest_only = self._oldest_only
        rank = self._rank
        gated = self._gated
        b_ready = _INF
        b_rank = 0
        b_prio = 2
        b_enq = 0.0
        b_kind = b_bank = b_req = None
        for bank_idx in self._pending_banks:
            bank = banks[bank_idx]
            open_row = bank.open_row
            if open_row != _NO_ROW:
                bucket = by_row.get((bank_idx, open_row))
                if bucket and (
                    bank_idx not in oldest_only
                    or next(iter(by_bank[bank_idx].values())).row
                    == open_row
                ):
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
                    r = rank[hit.tenant_id]
                    enq = hit.enqueue_time
                    if t < b_ready or t == b_ready and (
                        r < b_rank
                        or r == b_rank and (b_prio > 0 or enq < b_enq)
                    ):
                        b_ready = t
                        b_rank = r
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
            tenant = oldest.tenant_id
            enq = oldest.enqueue_time
            if gate_on and gated[tenant]:
                g = earliest_eligible(enq)
                if t < g:
                    t = g
            r = rank[tenant]
            if t < b_ready or t == b_ready and (
                r < b_rank or r == b_rank and b_prio == 1 and enq < b_enq
            ):
                b_ready = t
                b_rank = r
                b_prio = 1
                b_enq = enq
                b_kind = kind
                b_bank = bank
                b_req = oldest
        best = (
            None
            if b_kind is None
            else ((b_ready, b_rank, b_prio, b_enq), b_kind, b_bank, b_req)
        )
        if self._close_row:
            best = self._consider_close_rows(best, now)
        return best

    def on_issue(
        self, kind: str, bank: int, request: Optional["MemoryRequest"]
    ) -> None:
        """Issue notification for stateful selectors (e.g. streak caps).

        The controller skips this call entirely when a selector does not
        override it, so stateless selectors pay nothing.
        """

    # ------------------------------------------------------------------
    def _consider_close_rows(
        self, best: Optional[Candidate], now: float
    ) -> Optional[Candidate]:
        """Close-row policy sweep: fold in a PRE for any open bank with
        no pending hits, without waiting for a row-opening request."""
        oldest_hit_for = self._oldest_hit_for
        precharge_ready_time = self._precharge_ready_time
        for bank in self._banks:
            if not bank.is_open:
                continue
            if oldest_hit_for(bank.index, bank.open_row) is not None:
                continue
            ready = precharge_ready_time(bank, now)
            # A rank no tenant reaches: the PRE loses every ready-time
            # tie, to a single-tenant key and to any arbiter's key.
            key = (ready, _INF, SWITCH_PRIORITY, _INF)
            if best is None or key < best[0]:
                best = (key, "close", bank, None)
        return best


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
_SELECTORS: dict[str, type[CandidateSelector]] = {}
#: Multi-tenant arbiters: selectors constructed with (config, mix) that
#: share one controller among N tenant streams. The second registry,
#: keyed by ``TenantMixSpec.arbiter`` (``SchedulerConfig.arbiter`` keeps
#: naming a plain *selector* for single-tenant runs).
_ARBITERS: dict[str, type[CandidateSelector]] = {}


def register_selector(
    cls: type[CandidateSelector],
) -> type[CandidateSelector]:
    """Register a selector class under its ``name`` (decorator-friendly)."""
    if not cls.name:
        raise ConfigError(f"selector {cls.__name__} has no name")
    _SELECTORS[cls.name] = cls
    return cls


def make_selector(
    name: str, config: "SchedulerConfig"
) -> CandidateSelector:
    """Instantiate the registered selector ``name`` for ``config``."""
    try:
        cls = _SELECTORS[name]
    except KeyError:
        raise ConfigError(
            f"unknown candidate selector {name!r}; "
            f"registered: {', '.join(sorted(_SELECTORS))}"
        ) from None
    return cls(config)


def selector_names() -> list[str]:
    """Sorted names of every registered candidate selector."""
    return sorted(_SELECTORS)


def register_arbiter(
    cls: type[CandidateSelector],
) -> type[CandidateSelector]:
    """Register a multi-tenant arbiter class under its ``name``."""
    if not cls.name:
        raise ConfigError(f"arbiter {cls.__name__} has no name")
    _ARBITERS[cls.name] = cls
    return cls


def make_arbiter(
    name: str, config: "SchedulerConfig", mix: "TenantMixSpec"
) -> CandidateSelector:
    """Instantiate the registered arbiter ``name`` for one controller."""
    try:
        cls = _ARBITERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown arbiter {name!r}; "
            f"registered: {', '.join(sorted(_ARBITERS))}"
        ) from None
    return cls(config, mix)


def arbiter_names() -> list[str]:
    """Sorted names of every registered multi-tenant arbiter."""
    return sorted(_ARBITERS)
