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
