"""Fault-injection determinism and v4 cache-invalidation tests.

The flip sites are a pure function of the SimSpec content (seed,
channel, request id), never of execution order — so the same spec must
produce bit-identical reports (including the injection site digest)
whether the matrix runs serially or across worker processes. The second
half pins the cache semantics: v3 blobs and any
``ecc``/``faults`` change miss under the v4 key format.
"""

import dataclasses
import json

from repro.config.faults import FaultConfig
from repro.config.scheduler import SchedulerConfig, static_ams
from repro.harness.cache import ResultCache, cache_key
from repro.harness.runner import Runner
from repro.sim.spec import SimSpec

APP = "SCP"
SCALE = 0.1
SEED = 11
#: High enough that the scaled trace sees multiple injected flips, so
#: the digest comparison below is not vacuously comparing empty sets.
FAULTS = FaultConfig(enabled=True, p_bit=1e-5)
SCHEMES = {
    "Baseline": SchedulerConfig(),
    "Static-AMS": static_ams(),
}


def make_runner(**overrides) -> Runner:
    kwargs = dict(
        scale=SCALE, seed=SEED, spec=SimSpec(ecc="secded", faults=FAULTS),
        verbose=False, cache=None,
    )
    kwargs.update(overrides)
    return Runner(**kwargs)


def run_matrix(runner: Runner) -> dict:
    try:
        return {
            label: report.to_dict()
            for (_, label), report in runner.run_matrix(
                [APP], SCHEMES, measure_error=True
            ).items()
        }
    finally:
        runner.close()


class TestExecutionBackendDeterminism:
    def test_reports_carry_flip_sites(self) -> None:
        payloads = run_matrix(make_runner())
        for payload in payloads.values():
            assert payload["ecc"]["flips_injected"] > 0
            assert payload["ecc"]["site_digest"]

    def test_serial_rerun_is_identical(self) -> None:
        assert run_matrix(make_runner()) == run_matrix(make_runner())

    def test_process_fanout_matches_serial(self) -> None:
        serial = run_matrix(make_runner(jobs=1))
        fanned = run_matrix(make_runner(jobs=2))
        assert fanned == serial

    def test_different_seed_moves_the_flip_sites(self) -> None:
        base = run_matrix(make_runner())
        other = run_matrix(make_runner(seed=12))
        for label in SCHEMES:
            assert (
                base[label]["ecc"]["site_digest"]
                != other[label]["ecc"]["site_digest"]
            )


class TestCacheInvalidation:
    def key(self, spec: SimSpec) -> str:
        return cache_key(app=APP, scale=SCALE, seed=SEED, spec=spec)

    def test_ecc_field_changes_the_key(self) -> None:
        base = SimSpec()
        for code in ("parity", "secded", "bch"):
            assert self.key(base) != self.key(
                dataclasses.replace(base, ecc=code)
            )

    def test_fault_fields_change_the_key(self) -> None:
        base = SimSpec()
        variants = [
            FaultConfig(enabled=True),
            FaultConfig(p_bit=1e-6),
            FaultConfig(scale=2.0),
            FaultConfig(sensitivity=0.9),
            FaultConfig(nominal_trcd=14),
        ]
        keys = {self.key(base)}
        for faults in variants:
            keys.add(self.key(dataclasses.replace(base, faults=faults)))
        assert len(keys) == len(variants) + 1

    def test_v3_blob_is_a_plain_miss(self, tmp_path) -> None:
        runner = make_runner(
            spec=SimSpec(), cache=ResultCache(tmp_path, enabled=True),
        )
        try:
            report = runner.run(APP, SchedulerConfig(), label="Baseline")
        finally:
            runner.close()
        key = self.key(SimSpec())
        cache = ResultCache(tmp_path, enabled=True)
        assert cache.load(key) is not None

        path = cache.path_for(key)
        blob = json.loads(path.read_text(encoding="utf-8"))
        blob["format_version"] = 3
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert cache.load(key) is None
        assert cache.quarantined == 0  # healthy blob, kept on disk
        assert path.exists()
        assert report.to_dict()  # the simulated report itself is fine
