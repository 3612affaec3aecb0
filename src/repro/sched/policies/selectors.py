"""Candidate selectors: the baseline arbiters under DMS/AMS.

All three run the one FR-FCFS fold of
:meth:`~repro.sched.policies.base.CandidateSelector.select`, with its
``(ready_time, rank, priority, enqueue_time)`` keys, strict ``<``
comparison and first-wins tie-break, so swapping selectors changes
*which* commands compete, never how ties resolve. A selector differs
from FR-FCFS only in which banks must offer their oldest request as
their column candidate: none (``frfcfs``), every bank (``fcfs``), or
the banks whose row-hit streak reached the cap (``frfcfs-cap``).
"""

from __future__ import annotations

from repro.sched.policies.base import CandidateSelector, register_selector


@register_selector
class FRFCFSSelector(CandidateSelector):
    """FR-FCFS (Rixner et al.): row hits first, then oldest-first.

    The paper's baseline arbiter: the fold of
    :meth:`~repro.sched.policies.base.CandidateSelector.select` with no
    oldest-only bank.
    """

    name = "frfcfs"


@register_selector
class FCFSSelector(CandidateSelector):
    """Strict FCFS per bank: only the *oldest* request may issue.

    Younger row hits never bypass an older request, even to an open row
    — the Section II-C ablation that motivates FR-FCFS as the baseline.
    Every bank offers only its oldest request.
    """

    name = "fcfs"

    def bind(self, **kwargs) -> None:
        super().bind(**kwargs)
        self._oldest_only.update(range(len(self._banks)))


@register_selector
class FRFCFSCapSelector(CandidateSelector):
    """FR-FCFS with a row-hit streak cap (starvation bound).

    Identical to FR-FCFS until one bank has served
    ``SchedulerConfig.hit_streak_cap`` consecutive hits to its open row;
    the bank then offers only its oldest request, so while an older
    request for a *different* row waits on it, the next hit is
    suppressed and that request forces the row switch. Caps the
    worst-case wait a row-miss request can suffer under a hit-heavy
    access stream (cf. the batch-oriented GPU schedulers).
    """

    name = "frfcfs-cap"

    def __init__(self, config) -> None:
        super().__init__(config)
        self._cap = config.hit_streak_cap
        #: bank index -> (row, consecutive column commands to that row).
        self._streaks: dict[int, tuple[int, int]] = {}

    def on_issue(self, kind, bank_idx, request) -> None:
        if kind == "col" and request is not None:
            streak = self._streaks.get(bank_idx)
            if streak is not None and streak[0] == request.row:
                count = streak[1] + 1
            else:
                count = 1
            self._streaks[bank_idx] = (request.row, count)
            if count >= self._cap:
                self._oldest_only.add(bank_idx)
        else:
            # Any row switch (PRE/ACT/close/drop) breaks the streak.
            self._streaks.pop(bank_idx, None)
            self._oldest_only.discard(bank_idx)
