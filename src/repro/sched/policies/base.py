"""The candidate-selector contract and the two policy registries.

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

A candidate is a plain tuple — the selector runs once per issued DRAM
command, on the simulator's hottest loop, so no wrapper object is worth
its allocation::

    (key, kind, bank, request)

``key = (ready_time, priority, enqueue_time)`` orders candidates
(earliest ready first, row hits before row switches, oldest first);
``kind`` is one of ``"col"``, ``"pre"``, ``"act"``, ``"close"``;
``request`` is ``None`` for ``"close"`` (close-row sweep) candidates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, Optional

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


class CandidateSelector(ABC):
    """Scans the pending queue and proposes the next DRAM command.

    Lifecycle: constructed from the :class:`SchedulerConfig`, then
    :meth:`bind`-ed once to its controller's queue, channel and DMS
    unit (bound methods are hoisted to attributes there — ``select``
    runs once per issued command). ``select`` must be read-only: it may
    not mutate the queue, the banks, or the DMS unit.
    """

    #: Registry key; also the ``SchedulerConfig.arbiter`` value.
    name: ClassVar[str] = ""

    def __init__(self, config: "SchedulerConfig") -> None:
        self.config = config
        self._close_row = config.row_policy == "close"

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

    @abstractmethod
    def select(self, now: float) -> Optional[Candidate]:
        """The best candidate at ``now``, or None when nothing pends."""

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
            key = (ready, SWITCH_PRIORITY, float("inf"))
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
