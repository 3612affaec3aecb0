"""Unit tests for the fault-tolerance building blocks.

Covers the pieces below the supervised runner (which has its own
integration suite in ``test_fault_tolerance.py``):

* the ``HarnessError`` exception hierarchy;
* :class:`FaultPlan` parsing (``REPRO_CHAOS`` grammar) and firing rules;
* :class:`CellFailure` records and the manifest shape;
* self-healing ``ResultCache.load`` across every corruption mode, and
  concurrent-deletion tolerance of ``entries`` and ``info()``;
* the engine's enriched ``max_events`` diagnostic (including the
  system-level per-bank pending snapshot).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.config import AddressMapping
from repro.config.address import DecodedAddress
from repro.dram import MemoryRequest
from repro.errors import (
    CellFailedError,
    CellTimeoutError,
    HarnessError,
    ReproError,
    SimulationError,
    WorkerCrashError,
)
from repro.harness.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.harness.faults import (
    CellFailure,
    ChaosCrash,
    FaultPlan,
    FaultSpec,
    corrupt_blob,
    failure_manifest,
)
from repro.harness.runner import Runner
from repro.harness.schemes import evaluation_schemes
from repro.sched import PendingQueue
from repro.sim.engine import Engine

SCALE = 0.1


# ----------------------------------------------------------------------
# Exception hierarchy
# ----------------------------------------------------------------------
class TestErrorHierarchy:
    def test_harness_errors_derive_from_repro_error(self) -> None:
        for exc_type in (
            HarnessError, CellTimeoutError, WorkerCrashError,
            CellFailedError,
        ):
            assert issubclass(exc_type, ReproError)
        assert issubclass(CellTimeoutError, HarnessError)
        assert issubclass(WorkerCrashError, HarnessError)
        assert issubclass(CellFailedError, HarnessError)

    def test_chaos_crash_is_not_a_repro_error(self) -> None:
        # The retry machinery must survive arbitrary exceptions, so the
        # injected one deliberately lives outside the hierarchy.
        assert not issubclass(ChaosCrash, ReproError)

    def test_cell_failed_error_carries_failures(self) -> None:
        failure = _failure()
        exc = CellFailedError("boom", failures=[failure])
        assert exc.failures == [failure]
        assert CellFailedError("bare").failures == []


# ----------------------------------------------------------------------
# FaultPlan grammar and firing rules
# ----------------------------------------------------------------------
class TestFaultPlanParsing:
    def test_single_specs(self) -> None:
        assert FaultPlan.parse("crash@2").specs == (
            FaultSpec(kind="crash", cell=2),
        )
        assert FaultPlan.parse("hang@1:30").specs == (
            FaultSpec(kind="hang", cell=1, seconds=30.0),
        )
        assert FaultPlan.parse("exit@0x3").specs == (
            FaultSpec(kind="exit", cell=0, attempts=3),
        )
        assert FaultPlan.parse("hang@4:0.5x2").specs == (
            FaultSpec(kind="hang", cell=4, seconds=0.5, attempts=2),
        )

    def test_multi_spec_plans_and_separators(self) -> None:
        plan = FaultPlan.parse(" crash@0 ; corrupt@1 , exit@2 ")
        assert [s.kind for s in plan.specs] == ["crash", "corrupt", "exit"]
        assert bool(plan)
        assert not FaultPlan.parse("")
        assert not FaultPlan()

    @pytest.mark.parametrize(
        "bad",
        ["crash", "crash@", "@1", "frobnicate@1", "crash@-1",
         "crash@1x0", "hang@1:-2", "crash@one"],
    )
    def test_invalid_specs_raise_value_error(self, bad: str) -> None:
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_from_env(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "   ")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "crash@1;hang@0:2")
        plan = FaultPlan.from_env()
        assert plan is not None and len(plan.specs) == 2


class TestStrideGrammar:
    """``kind@cell/stride`` — deterministic fault *rates* for the
    service tier's chaos load tests."""

    def test_stride_parses(self) -> None:
        assert FaultSpec.parse("exit@0/5") == FaultSpec(
            kind="exit", cell=0, stride=5
        )

    def test_stride_composes_with_seconds_and_attempts(self) -> None:
        spec = FaultSpec.parse("hang@2/3:1.5x4")
        assert spec == FaultSpec(
            kind="hang", cell=2, stride=3, seconds=1.5, attempts=4
        )

    def test_stride_matches_the_arithmetic_progression(self) -> None:
        spec = FaultSpec.parse("crash@1/4")
        assert [c for c in range(14) if spec.matches(c)] == [1, 5, 9, 13]

    def test_zero_stride_is_exact_match(self) -> None:
        spec = FaultSpec.parse("crash@3")
        assert spec.matches(3)
        assert not spec.matches(6)
        assert not spec.matches(0)

    @pytest.mark.parametrize(
        "bad", ["exit@0/0", "exit@0/-2", "exit@/5", "exit@0/two"]
    )
    def test_invalid_strides_raise(self, bad: str) -> None:
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_plan_active_honours_stride_and_attempts(self) -> None:
        plan = FaultPlan.parse("crash@0/2x2")
        assert list(plan.active(4, 2))
        assert not list(plan.active(3, 1))  # off the progression
        assert not list(plan.active(4, 3))  # attempts exhausted


class TestFaultPlanFiring:
    def test_crash_fires_only_for_its_cell_and_attempts(self) -> None:
        plan = FaultPlan.parse("crash@1x2")
        # Wrong cell: nothing happens.
        plan.fire_pre_simulation(0, 1, in_worker=False)
        # Attempts 1 and 2 crash, attempt 3 is clean.
        for attempt in (1, 2):
            with pytest.raises(ChaosCrash):
                plan.fire_pre_simulation(1, attempt, in_worker=False)
        plan.fire_pre_simulation(1, 3, in_worker=False)

    def test_exit_degrades_to_exception_in_process(self) -> None:
        # In-process, os._exit would kill the harness itself; the fault
        # degrades to a WorkerCrashError instead.
        plan = FaultPlan.parse("exit@0")
        with pytest.raises(WorkerCrashError):
            plan.fire_pre_simulation(0, 1, in_worker=False)

    def test_hang_sleeps_for_the_requested_time(self) -> None:
        plan = FaultPlan.parse("hang@0:0.1")
        start = time.perf_counter()
        plan.fire_pre_simulation(0, 1, in_worker=False)
        assert time.perf_counter() - start >= 0.1

    def test_corrupt_targets_only_its_cell(self) -> None:
        plan = FaultPlan.parse("corrupt@2;crash@1")
        assert plan.should_corrupt(2)
        assert not plan.should_corrupt(1)
        # corrupt does not fire pre-simulation.
        plan.fire_pre_simulation(2, 1, in_worker=False)


# ----------------------------------------------------------------------
# CellFailure records
# ----------------------------------------------------------------------
def _failure() -> CellFailure:
    return CellFailure(
        app="SCP", label="Baseline", key="ab" * 32,
        error_type="ChaosCrash", message="injected",
        traceback="Traceback ...", attempts=2, elapsed=1.5,
    )


class TestCellFailure:
    def test_to_dict_round_trips_through_json(self) -> None:
        blob = json.loads(json.dumps(_failure().to_dict()))
        assert blob["app"] == "SCP"
        assert blob["error_type"] == "ChaosCrash"
        assert blob["attempts"] == 2

    def test_manifest_shape(self) -> None:
        manifest = failure_manifest([_failure(), _failure()])
        assert manifest["failed_cells"] == 2
        assert len(manifest["failures"]) == 2
        json.dumps(manifest)  # must be serializable as-is

    def test_summary_mentions_identity_and_error(self) -> None:
        text = _failure().summary()
        assert "SCP/Baseline" in text
        assert "ChaosCrash" in text
        assert "2 attempt(s)" in text


# ----------------------------------------------------------------------
# Self-healing result cache
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stored_cache_dir(tmp_path_factory):
    """A cache directory holding one healthy blob (module-shared)."""
    root = tmp_path_factory.mktemp("heal-cache")
    cache = ResultCache(root, enabled=True)
    runner = Runner(
        scale=SCALE, verbose=False, cache=cache, faults=None
    )
    runner.run("SCP", evaluation_schemes()["Baseline"])
    (entry,) = cache.entries()
    return root, entry


def _fresh_copy(stored_cache_dir, tmp_path):
    """Copy the healthy blob into a private cache dir for mutation."""
    root, entry = stored_cache_dir
    dest = tmp_path / "cache" / entry.parent.name / entry.name
    dest.parent.mkdir(parents=True)
    dest.write_bytes(entry.read_bytes())
    return ResultCache(tmp_path / "cache", enabled=True), dest, entry.stem


class TestCacheSelfHealing:
    def test_healthy_blob_still_loads(self, stored_cache_dir, tmp_path):
        cache, path, key = _fresh_copy(stored_cache_dir, tmp_path)
        assert cache.load(key) is not None
        assert cache.quarantined == 0
        assert path.exists()

    @pytest.mark.parametrize(
        "mutation",
        [
            pytest.param(lambda blob: "{ not json", id="undecodable-json"),
            pytest.param(lambda blob: json.dumps([1, 2, 3]), id="non-dict"),
            pytest.param(
                lambda blob: json.dumps(
                    {"format_version": CACHE_FORMAT_VERSION}
                ),
                id="missing-report-key",
            ),
            pytest.param(
                lambda blob: json.dumps(
                    {"format_version": CACHE_FORMAT_VERSION,
                     "report": {"workload": "x"}}
                ),
                id="incomplete-report-payload",
            ),
            pytest.param(
                lambda blob: json.dumps(
                    {"format_version": CACHE_FORMAT_VERSION,
                     "report": [1, 2]}
                ),
                id="report-wrong-type",
            ),
        ],
    )
    def test_corrupt_blob_is_a_miss_and_unlinked(
        self, stored_cache_dir, tmp_path, mutation
    ):
        cache, path, key = _fresh_copy(stored_cache_dir, tmp_path)
        path.write_text(mutation(path.read_text()), encoding="utf-8")
        assert cache.load(key) is None
        assert cache.quarantined == 1
        assert cache.misses == 1
        assert not path.exists(), "corrupt blob must be removed"
        # Self-healed: the next load is an ordinary miss, not an error.
        assert cache.load(key) is None
        assert cache.quarantined == 1

    def test_chaos_corrupt_blob_helper_triggers_healing(
        self, stored_cache_dir, tmp_path
    ):
        cache, path, key = _fresh_copy(stored_cache_dir, tmp_path)
        corrupt_blob(path)
        assert cache.load(key) is None
        assert cache.quarantined == 1
        assert not path.exists()

    def test_version_mismatch_is_a_miss_but_kept(
        self, stored_cache_dir, tmp_path
    ):
        cache, path, key = _fresh_copy(stored_cache_dir, tmp_path)
        blob = json.loads(path.read_text())
        blob["format_version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert cache.load(key) is None
        assert cache.quarantined == 0, "healthy foreign blob must survive"
        assert path.exists()


class TestCacheConcurrentDeletion:
    def test_size_bytes_tolerates_vanishing_blobs(
        self, stored_cache_dir, tmp_path
    ):
        cache, path, _ = _fresh_copy(stored_cache_dir, tmp_path)
        ghost = path.parent / "deadbeef.json"
        # Simulate a blob deleted between entries() and stat().
        cache.entries = lambda: [path, ghost]  # type: ignore[method-assign]
        assert cache.info()["size_bytes"] == path.stat().st_size

    def test_entries_tolerates_stray_and_vanishing_shards(
        self, stored_cache_dir, tmp_path
    ):
        cache, path, _ = _fresh_copy(stored_cache_dir, tmp_path)
        (cache.root / "stray-file").write_text("not a shard")
        (cache.root / path.parent.name / ".tmp-partial.json").write_text("{")
        assert cache.entries() == [path]

    def test_entries_on_missing_root(self, tmp_path):
        cache = ResultCache(tmp_path / "nope", enabled=True)
        assert cache.entries() == []
        assert cache.info()["size_bytes"] == 0


# ----------------------------------------------------------------------
# Engine livelock diagnostics
# ----------------------------------------------------------------------
class TestEngineDiagnostics:
    def _spinning_engine(self) -> Engine:
        engine = Engine()

        def respin() -> None:
            engine.after(1.0, respin)

        engine.after(0.0, respin)
        return engine

    def test_overflow_message_carries_engine_state(self) -> None:
        engine = self._spinning_engine()
        with pytest.raises(SimulationError) as info:
            engine.run(max_events=25)
        text = str(info.value)
        assert "max_events=25" in text
        assert "cycle=" in text
        assert "live_events=" in text
        assert "total_processed=" in text

    def test_diagnostics_hook_is_appended(self) -> None:
        engine = self._spinning_engine()
        engine.diagnostics = lambda: "EXTRA-CONTEXT"
        with pytest.raises(SimulationError, match="EXTRA-CONTEXT"):
            engine.run(max_events=10)

    def test_broken_diagnostics_hook_never_masks_the_error(self) -> None:
        engine = self._spinning_engine()

        def explode() -> str:
            raise RuntimeError("probe bug")

        engine.diagnostics = explode
        with pytest.raises(SimulationError, match="diagnostics probe"):
            engine.run(max_events=10)

    def test_system_snapshot_reports_pending_per_bank(self) -> None:
        from repro.sim.system import GPUSystem
        from repro.workloads.registry import get_workload

        system = GPUSystem()
        workload = get_workload("synthetic", scale=0.05, seed=7)
        with pytest.raises(SimulationError, match="pending per bank"):
            system.run(
                workload.warp_streams(system.config), max_events=50
            )


class TestPendingPerBank:
    def _request(self, bank: int, row: int) -> MemoryRequest:
        mapping = AddressMapping()
        addr = mapping.encode(
            DecodedAddress(
                channel=0, bank=bank, bank_group=bank // 4, row=row, column=0
            )
        )
        return MemoryRequest.from_address(addr, is_write=False,
                                          mapping=mapping)

    def test_counts_only_nonempty_banks(self) -> None:
        queue = PendingQueue(8, 16)
        assert queue.pending_per_bank() == {}
        queue.offer(self._request(bank=3, row=1), now=0.0)
        queue.offer(self._request(bank=3, row=2), now=1.0)
        queue.offer(self._request(bank=5, row=1), now=2.0)
        assert queue.pending_per_bank() == {3: 2, 5: 1}
