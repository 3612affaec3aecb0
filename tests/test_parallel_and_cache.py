"""Parallel runner determinism and the persistent result cache.

Four guarantees are pinned down here:

1. A matrix run with ``jobs=4`` produces reports field-identical to a
   serial run (worker re-seeding makes cells order-independent), and
   every cell of a matrix equals the same cell run alone.
2. The schemes of one app in one call share one workload and one trace,
   no run mutates that trace, and no workload outlives the call.
3. A report persisted to disk and reloaded equals the fresh one, and a
   warm cache replays a whole matrix with zero simulations.
4. Cache keys are structurally invalidated: perturbing *any* leaf field
   of SchedulerConfig or GPUConfig — or the app/scale/seed/
   measure_error/format-version identity — yields a different key.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import weakref

import pytest

from repro.config.gpu import GPUConfig
from repro.config.scheduler import SchedulerConfig
from repro.harness.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    cache_key,
)
from repro.harness import runner as runner_mod
from repro.harness.runner import Runner
from repro.harness.schemes import dms_plus_ams, evaluation_schemes
from repro.sim.spec import SimSpec
from repro.workloads import list_workloads

SCALE = 0.12
APPS = ("SCP", "GEMM")


def _schemes() -> dict:
    return {
        "Baseline": evaluation_schemes()["Baseline"],
        "DMS(256)+AMS(8)": dms_plus_ams(256, 8),
    }


_IDENTITY = ("app", "scale", "seed", "version")


def _key(**overrides) -> str:
    """The key of an SCP cell on the default GPUConfig; an override
    replaces a ``cache_key`` argument or a ``SimSpec`` field."""
    identity = dict(app="SCP", scale=SCALE, seed=7)
    identity.update((k, v) for k, v in overrides.items() if k in _IDENTITY)
    fields = dict(config=GPUConfig())
    fields.update((k, v) for k, v in overrides.items() if k not in _IDENTITY)
    return cache_key(spec=SimSpec(**fields), **identity)


# ----------------------------------------------------------------------
# Structural key invalidation
# ----------------------------------------------------------------------
def _leaf_paths(obj, prefix=()):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, prefix + (f.name,))
        else:
            yield prefix + (f.name,)


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.5
    if isinstance(value, str):
        return value + "_x"
    raise TypeError(f"unperturbable config leaf: {value!r}")


def _with_perturbed(obj, path):
    name, rest = path[0], path[1:]
    value = getattr(obj, name)
    if rest:
        return dataclasses.replace(obj, **{name: _with_perturbed(value, rest)})
    return dataclasses.replace(obj, **{name: _perturb(value)})


class TestCacheKey:
    def test_key_is_stable_and_hex(self) -> None:
        key = _key()
        assert key == _key()
        assert len(key) == 64
        int(key, 16)

    def test_config_none_hashes_as_default_gpu(self) -> None:
        assert _key(config=None) == _key(config=GPUConfig())

    @pytest.mark.parametrize(
        "path", list(_leaf_paths(SchedulerConfig())),
        ids=lambda p: ".".join(p),
    )
    def test_every_scheduler_field_invalidates(self, path) -> None:
        perturbed = _with_perturbed(SchedulerConfig(), path)
        assert _key(scheduler=perturbed) != _key()

    @pytest.mark.parametrize(
        "path", list(_leaf_paths(GPUConfig())),
        ids=lambda p: ".".join(p),
    )
    def test_every_gpu_field_invalidates(self, path) -> None:
        perturbed = _with_perturbed(GPUConfig(), path)
        assert _key(config=perturbed) != _key()

    def test_identity_fields_invalidate(self) -> None:
        base = _key()
        assert _key(app="GEMM") != base
        assert _key(scale=SCALE * 2) != base
        assert _key(seed=8) != base
        assert _key(measure_error=True) != base
        assert _key(version=CACHE_FORMAT_VERSION + 1) != base


# ----------------------------------------------------------------------
# Serial vs parallel determinism
# ----------------------------------------------------------------------
class TestParallelDeterminism:
    def test_jobs4_matrix_field_identical_to_serial(self) -> None:
        serial = Runner(scale=SCALE, verbose=False, cache=None, jobs=1)
        parallel = Runner(scale=SCALE, verbose=False, cache=None, jobs=4)
        a = serial.run_matrix(APPS, _schemes(), measure_error=True)
        b = parallel.run_matrix(APPS, _schemes(), measure_error=True)
        assert set(a) == set(b)
        for cell in a:
            assert a[cell] == b[cell], f"report mismatch for {cell}"
        assert serial.simulations_run == parallel.simulations_run == 4

    def test_matrix_dedupes_cells_sharing_a_key(self) -> None:
        runner = Runner(scale=SCALE, verbose=False, cache=None)
        baseline = evaluation_schemes()["Baseline"]
        reports = runner.run_matrix(
            ("SCP",), {"Baseline": baseline, "also-baseline": baseline}
        )
        assert runner.simulations_run == 1
        assert reports[("SCP", "Baseline")] is reports[
            ("SCP", "also-baseline")
        ]

    def test_every_workload_in_a_matrix_matches_its_one_cell_run(
        self,
    ) -> None:
        """A cell simulated after other schemes of the same app equals
        the cell simulated alone: no kernel writes its inputs and no
        trace builder keeps state between cells."""
        catalogue = evaluation_schemes()
        schemes = {
            label: catalogue[label]
            for label in ("Baseline", "Static-AMS", "Dyn-DMS+Dyn-AMS")
        }
        matrix = Runner(scale=0.05, verbose=False, cache=None).run_matrix(
            list_workloads(), schemes, measure_error=True
        )
        for app in list_workloads():
            for label, scheme in schemes.items():
                alone = Runner(scale=0.05, verbose=False, cache=None).run(
                    app, scheme, label=label, measure_error=True
                )
                assert matrix[app, label] == alone, (app, label)


# ----------------------------------------------------------------------
# One workload, and one trace, per app within a call
# ----------------------------------------------------------------------
SWEEP_SCHEMES = ("Baseline", "Dyn-DMS", "Static-AMS", "Dyn-DMS+Dyn-AMS")


class TestWorkloadMemo:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Record every workload the runner builds (as a weakref) and
        every trace it builds, wrapping each instance's
        ``warp_streams``; returns (workload refs, [(streams, copy)])."""
        refs: list = []
        traces: list = []
        real = runner_mod.get_workload

        def get_workload(*args, **kwargs):
            workload = real(*args, **kwargs)
            bound = workload.warp_streams

            def warp_streams(config):
                streams = bound(config)
                traces.append((streams, [list(s) for s in streams]))
                return streams

            workload.warp_streams = warp_streams
            refs.append(weakref.ref(workload))
            return workload

        monkeypatch.setattr(runner_mod, "get_workload", get_workload)
        return refs, traces

    @staticmethod
    def _schemes() -> dict:
        catalogue = evaluation_schemes()
        return {label: catalogue[label] for label in SWEEP_SCHEMES}

    def test_schemes_of_one_app_share_one_trace(self, builds) -> None:
        refs, traces = builds
        runner = Runner(scale=SCALE, verbose=False, cache=None)
        runner.run_matrix(("SCP", "3MM"), self._schemes(), measure_error=True)
        assert runner.simulations_run == 8
        assert len(refs) == len(traces) == 2

    def test_no_run_mutates_a_reused_trace(self, builds) -> None:
        _, traces = builds
        Runner(scale=SCALE, verbose=False, cache=None).run_matrix(
            ("SCP", "3MM"), self._schemes(), measure_error=True
        )
        for streams, at_build in traces:
            assert streams == at_build

    def test_no_workload_outlives_the_matrix(self, builds) -> None:
        refs, _ = builds
        Runner(scale=SCALE, verbose=False, cache=None).run_matrix(
            ("SCP", "3MM"), self._schemes(), measure_error=True
        )
        # The wrapper above forms a cycle (instance -> closure -> bound
        # method -> instance), so only the collector can free it.
        gc.collect()
        assert refs and all(ref() is None for ref in refs)

    def test_pooled_matrix_equals_serial(self) -> None:
        """Two workers each take two schemes of every app in one batch,
        so each worker's memo serves a second cell from one workload."""
        serial = Runner(scale=SCALE, verbose=False, cache=None)
        pooled = Runner(scale=SCALE, verbose=False, cache=None, jobs=2)
        try:
            a = serial.run_matrix(
                ("SCP", "3MM"), self._schemes(), measure_error=True
            )
            b = pooled.run_matrix(
                ("SCP", "3MM"), self._schemes(), measure_error=True
            )
        finally:
            pooled.close()
        assert set(a) == set(b)
        for cell in a:
            assert a[cell] == b[cell], f"report mismatch for {cell}"


# ----------------------------------------------------------------------
# Persistent disk cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_cached_then_reloaded_equals_fresh(self, tmp_path) -> None:
        cache = ResultCache(tmp_path, enabled=True)
        fresh = Runner(scale=SCALE, verbose=False, cache=cache)
        a = fresh.run_matrix(APPS, _schemes(), measure_error=True)
        assert fresh.simulations_run == 4
        assert len(cache.entries()) == 4

        warm = Runner(
            scale=SCALE, verbose=False,
            cache=ResultCache(tmp_path, enabled=True),
        )
        b = warm.run_matrix(APPS, _schemes(), measure_error=True)
        assert warm.simulations_run == 0, "warm cache must not simulate"
        assert warm.cache.hits == 4
        for cell in a:
            assert a[cell] == b[cell], f"cached report differs for {cell}"

    def test_run_hits_disk_across_runners(self, tmp_path) -> None:
        cache = ResultCache(tmp_path, enabled=True)
        scheme = evaluation_schemes()["Baseline"]
        first = Runner(scale=SCALE, verbose=False, cache=cache)
        report = first.run("SCP", scheme)
        second = Runner(
            scale=SCALE, verbose=False,
            cache=ResultCache(tmp_path, enabled=True),
        )
        assert second.run("SCP", scheme) == report
        assert second.simulations_run == 0

    def test_format_version_mismatch_is_a_miss(self, tmp_path) -> None:
        import json

        cache = ResultCache(tmp_path, enabled=True)
        runner = Runner(scale=SCALE, verbose=False, cache=cache)
        scheme = evaluation_schemes()["Baseline"]
        runner.run("SCP", scheme)
        (entry,) = cache.entries()
        blob = json.loads(entry.read_text())
        blob["format_version"] = CACHE_FORMAT_VERSION + 1
        entry.write_text(json.dumps(blob))
        key = entry.stem
        assert ResultCache(tmp_path, enabled=True).load(key) is None

    def test_env_var_disables_cache(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache(tmp_path)
        assert not cache.enabled
        assert cache.load("0" * 64) is None
        assert cache.store("0" * 64, object()) is None
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        assert ResultCache(tmp_path).enabled

    def test_clear_removes_entries(self, tmp_path) -> None:
        cache = ResultCache(tmp_path, enabled=True)
        runner = Runner(scale=SCALE, verbose=False, cache=cache)
        runner.run("SCP", evaluation_schemes()["Baseline"])
        assert cache.entries()
        assert cache.clear() == 1
        assert cache.entries() == []
        assert cache.size_bytes() == 0
