"""Policy-registry and candidate-selector behaviour tests.

The registry API tests pin the selector registry (names, error
messages, the name requirement). The behaviour tests drive the
controller through scripted traces — the same harness as
``test_controller.py`` — to prove the three selectors actually
implement different arbitration:

* ``fcfs`` serves strictly in age order (no row-hit bypass);
* ``frfcfs`` lets younger row hits bypass older misses (pinned in
  ``test_controller.py``);
* ``frfcfs-cap`` is FR-FCFS until a bank's hit streak reaches the cap
  while an older miss starves, then forces the row switch.

The close-row command logs of all three selectors on both scripted
streams are pinned exactly.
"""

import pytest

from repro.config import (
    AMSConfig,
    DMSConfig,
    SchedulerConfig,
    baseline_scheduler,
)
from repro.dram.request import reset_request_ids
from repro.errors import ConfigError
from repro.sched.policies import (
    COL_PRIORITY,
    SWITCH_PRIORITY,
    CandidateSelector,
    FCFSSelector,
    FRFCFSCapSelector,
    FRFCFSSelector,
    make_selector,
    selector_names,
)

from tests.test_controller import Harness


class TestRegistries:
    def test_builtin_names_registered(self) -> None:
        assert {"fcfs", "frfcfs", "frfcfs-cap"} <= set(selector_names())

    def test_make_selector_builds_registered_classes(self) -> None:
        cfg = SchedulerConfig()
        assert isinstance(make_selector("frfcfs", cfg), FRFCFSSelector)
        assert isinstance(make_selector("fcfs", cfg), FCFSSelector)
        assert isinstance(make_selector("frfcfs-cap", cfg), FRFCFSCapSelector)

    def test_unknown_names_raise_and_list_registered(self) -> None:
        with pytest.raises(ConfigError, match="frfcfs"):
            make_selector("lifo", SchedulerConfig())

    def test_selector_without_name_rejected(self) -> None:
        from repro.sched.policies.base import register_selector

        class Nameless(CandidateSelector):
            def select(self, now):  # pragma: no cover - never runs
                return None

        with pytest.raises(ConfigError, match="no name"):
            register_selector(Nameless)


class TestSchedulerConfigValidation:
    def test_registered_arbiters_accepted(self) -> None:
        for name in selector_names():
            SchedulerConfig(arbiter=name).validate()

    def test_unknown_arbiter_rejected(self) -> None:
        with pytest.raises(ConfigError, match="arbiter"):
            SchedulerConfig(arbiter="lifo").validate()

    def test_nonpositive_streak_cap_rejected(self) -> None:
        with pytest.raises(ConfigError, match="hit_streak_cap"):
            SchedulerConfig(hit_streak_cap=0).validate()


def fcfs_scheduler() -> SchedulerConfig:
    return SchedulerConfig(arbiter="fcfs")


def capped_scheduler(cap: int) -> SchedulerConfig:
    return SchedulerConfig(arbiter="frfcfs-cap", hit_streak_cap=cap)


class TestFCFSBehaviour:
    def test_younger_hit_does_not_bypass_older_miss(self) -> None:
        # The mirror of test_controller's FR-FCFS bypass test: open row 1,
        # a row-2 miss arrives BEFORE another row-1 hit. FCFS must serve
        # in age order — row 1, row 2, row 1 — three activations, every
        # row opening serving exactly one request.
        h = Harness(fcfs_scheduler(), log_commands=True)
        first = h.inject(0, bank=0, row=1, col=0)
        miss = h.inject(5, bank=0, row=2, col=0)
        hit = h.inject(6, bank=0, row=1, col=1)
        h.run()
        assert h.channel.stats.activations == 3
        assert h.channel.stats.rbl_histogram[1] == 3
        served_order = [rid for _, rid, _ in h.replies]
        assert served_order == [first.rid, miss.rid, hit.rid]

    def test_matches_frfcfs_without_contention(self) -> None:
        # One request per bank: arbitration never has a choice to make,
        # so both selectors produce the same service times.
        def run(sched) -> list[tuple[float, int, bool]]:
            reset_request_ids()
            h = Harness(sched)
            h.inject(0, bank=0, row=1)
            h.inject(0, bank=8, row=2)
            h.run()
            return h.replies

        assert run(fcfs_scheduler()) == run(baseline_scheduler())


class TestFRFCFSCapBehaviour:
    def scripted(self, sched: SchedulerConfig) -> Harness:
        """A row-1 hit burst racing one older row-2 miss on bank 0."""
        reset_request_ids()
        h = Harness(sched, log_commands=True)
        h.inject(0, bank=0, row=1, col=0)
        h.inject(1, bank=0, row=2, col=0)  # the starving older miss
        for i in range(1, 6):
            h.inject(2.0 + i, bank=0, row=1, col=i)
        h.run()
        return h

    def test_streak_cap_forces_row_switch(self) -> None:
        h = self.scripted(capped_scheduler(2))
        # Two hits served, streak hits the cap while the row-2 request is
        # the bank's oldest: the switch is forced, then row 1 reopens for
        # the remainder. Three activations instead of FR-FCFS's two.
        assert h.channel.stats.activations == 3
        assert h.channel.stats.reads_served == 7

    def test_uncapped_matches_frfcfs(self) -> None:
        # A cap larger than the longest possible streak never triggers.
        capped = self.scripted(capped_scheduler(64))
        baseline = self.scripted(baseline_scheduler())
        assert (
            capped.channel.stats.activations
            == baseline.channel.stats.activations
            == 2
        )
        assert capped.replies == baseline.replies

    def test_no_suppression_without_older_miss(self) -> None:
        # Hits only: the streak exceeds the cap but the bank's oldest
        # request targets the open row, so nothing is suppressed.
        h = Harness(capped_scheduler(2), log_commands=True)
        for i in range(6):
            h.inject(float(i), bank=0, row=1, col=i)
        h.run()
        assert h.channel.stats.activations == 1
        assert h.channel.stats.rbl_histogram[6] == 1

    def test_cap_composes_with_gates_and_drops(self) -> None:
        # The capped selector rides under DMS+AMS like any other: the
        # composition simulates to completion and still serves all reads.
        from repro.config import AMSMode, DMSMode

        sched = SchedulerConfig(
            arbiter="frfcfs-cap",
            hit_streak_cap=2,
            dms=DMSConfig(mode=DMSMode.STATIC, static_delay=64),
            ams=AMSConfig(mode=AMSMode.STATIC, static_th_rbl=1,
                          warmup_fills=0),
        )
        h = Harness(sched)
        for i in range(4):
            h.inject(float(i), bank=0, row=i, col=0, approximable=True)
        h.run()
        assert len(h.replies) == 4


def age_order_stream(sched: SchedulerConfig) -> Harness:
    """TestFCFSBehaviour's stream: a row-2 miss between two row-1 reads."""
    reset_request_ids()
    h = Harness(sched, log_commands=True)
    h.inject(0, bank=0, row=1, col=0)
    h.inject(5, bank=0, row=2, col=0)
    h.inject(6, bank=0, row=1, col=1)
    h.run()
    return h


def hit_burst_stream(sched: SchedulerConfig) -> Harness:
    """TestFRFCFSCapBehaviour's stream: a row-1 burst past a row-2 miss."""
    return TestFRFCFSCapBehaviour().scripted(sched)


_FR_AGE = [
    (0, "ACT", 0, 1), (12, "RD", 0, 1), (16, "RD", 0, 1), (28, "PRE", 0, 1),
    (40, "ACT", 0, 2), (52, "RD", 0, 2), (68, "PRE", 0, 2),
]

#: (stream, selector) -> the close-row command log, as (time, command,
#: bank, row). No golden runs ``row_policy="close"``; these pin how the
#: close-row sweep composes with each selector's own candidate. The
#: cap runs use ``hit_streak_cap=2``.
CLOSE_ROW_LOGS = {
    ("age-order", "frfcfs"): _FR_AGE,
    ("age-order", "fcfs"): [
        (0, "ACT", 0, 1), (12, "RD", 0, 1), (28, "PRE", 0, 1),
        (40, "ACT", 0, 2), (52, "RD", 0, 2), (68, "PRE", 0, 2),
        (80, "ACT", 0, 1), (92, "RD", 0, 1), (108, "PRE", 0, 1),
    ],
    ("age-order", "frfcfs-cap"): _FR_AGE,
    ("hit-burst", "frfcfs"): [
        (0, "ACT", 0, 1), (12, "RD", 0, 1), (16, "RD", 0, 1),
        (20, "RD", 0, 1), (24, "RD", 0, 1), (28, "RD", 0, 1),
        (32, "RD", 0, 1), (36, "PRE", 0, 1), (48, "ACT", 0, 2),
        (60, "RD", 0, 2), (76, "PRE", 0, 2),
    ],
    ("hit-burst", "fcfs"): [
        (0, "ACT", 0, 1), (12, "RD", 0, 1), (28, "PRE", 0, 1),
        (40, "ACT", 0, 2), (52, "RD", 0, 2), (68, "PRE", 0, 2),
        (80, "ACT", 0, 1), (92, "RD", 0, 1), (96, "RD", 0, 1),
        (100, "RD", 0, 1), (104, "RD", 0, 1), (108, "RD", 0, 1),
        (112, "PRE", 0, 1),
    ],
    ("hit-burst", "frfcfs-cap"): [
        (0, "ACT", 0, 1), (12, "RD", 0, 1), (16, "RD", 0, 1),
        (28, "PRE", 0, 1), (40, "ACT", 0, 2), (52, "RD", 0, 2),
        (68, "PRE", 0, 2), (80, "ACT", 0, 1), (92, "RD", 0, 1),
        (96, "RD", 0, 1), (100, "RD", 0, 1), (104, "RD", 0, 1),
        (108, "PRE", 0, 1),
    ],
}


class TestCloseRowCommandLogs:
    STREAMS = {"age-order": age_order_stream, "hit-burst": hit_burst_stream}

    @pytest.mark.parametrize(
        "stream, selector", sorted(CLOSE_ROW_LOGS),
        ids=["/".join(k) for k in sorted(CLOSE_ROW_LOGS)],
    )
    def test_close_row_log_is_pinned(self, stream, selector) -> None:
        sched = SchedulerConfig(
            arbiter=selector, hit_streak_cap=2, row_policy="close"
        )
        h = self.STREAMS[stream](sched)
        log = [
            (r.time, r.command.value, r.bank, r.row)
            for r in h.channel.command_log
        ]
        assert log == CLOSE_ROW_LOGS[stream, selector]
        # Every bank ends closed: the last command is the sweep's PRE
        # to a bank with no pending hit.
        assert log[-1][1] == "PRE"

    def test_hit_burst_logs_differ_by_selector(self) -> None:
        logs = [
            CLOSE_ROW_LOGS["hit-burst", s]
            for s in ("frfcfs", "fcfs", "frfcfs-cap")
        ]
        acts = [sum(rec[1] == "ACT" for rec in log) for log in logs]
        assert acts == [2, 3, 3]
        assert len({tuple(log) for log in logs}) == 3


class TestCloseRowTies:
    """The close-row sweep's PRE is housekeeping: it loses every
    ready-time tie, to a single-tenant candidate and to a tenant's
    candidate under an arbiter, whatever that tenant's rank."""

    def sweep(self, delay: float, rank: int, prio: int):
        """Sweep bank 0 (open, nothing pending) against a candidate
        ready ``delay`` cycles after bank 0's PRE could issue."""
        h = Harness(SchedulerConfig(row_policy="close"))
        bank = h.channel.banks[0]
        h.channel.issue_activate(bank, 1, 0.0)
        ready = h.channel.precharge_ready_time(bank, 0.0)
        best = ((ready + delay, rank, prio, 0.0), "act", h.channel.banks[1],
                None)
        return best, h.mc.selector._consider_close_rows(best, 0.0)

    @pytest.mark.parametrize("rank", range(4))
    @pytest.mark.parametrize("prio", [COL_PRIORITY, SWITCH_PRIORITY])
    def test_close_row_pre_loses_a_tie_at_any_rank(self, rank, prio):
        best, chosen = self.sweep(0.0, rank, prio)
        assert chosen is best

    def test_close_row_pre_wins_when_earlier(self) -> None:
        best, chosen = self.sweep(1.0, 0, COL_PRIORITY)
        assert chosen[1] == "close"


class TestSelectorStateIsolation:
    def test_streak_state_not_shared_between_controllers(self) -> None:
        # Two harnesses with the same config must not share streak
        # dictionaries (regression guard: selector instances are
        # per-controller, not per-config).
        a = Harness(capped_scheduler(2))
        b = Harness(capped_scheduler(2))
        assert a.mc.selector is not b.mc.selector
        a.inject(0, bank=0, row=1, col=0)
        a.run()
        assert b.mc.selector._streaks == {}

    def test_on_issue_wiring_only_for_stateful_selectors(self) -> None:
        # The controller skips the notification call entirely for
        # selectors that do not override on_issue.
        stateless = Harness(baseline_scheduler())
        stateful = Harness(capped_scheduler(2))
        assert stateless.mc._notify_issue is None
        assert stateful.mc._notify_issue is not None
