"""One path from a SimSpec to a report.

A :class:`~repro.harness.runner.Runner` carries one
:class:`~repro.sim.spec.SimSpec`; every cell it builds — through
``run``, ``run_matrix``, a derived sub-runner, or the service's worker
tier — is that spec with the cell's scheme put in. These tests pin the
consequences:

* ``Runner.run`` is a one-cell ``run_matrix``: chaos, retries and
  quarantine apply to it exactly as to a sweep;
* derived runners (Fig. 2/13 queue sizes, tenant solo baselines) keep
  every spec field they do not override;
* a figure's chaos plan addresses the same cells at every ``--jobs``;
* a service job is cached under its own key whatever its flags.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config.faults import FaultConfig
from repro.config.tenants import TenantMixSpec, TenantSpec
from repro.errors import CellFailedError
from repro.harness import cli
from repro.harness.cache import ResultCache
from repro.harness.experiments import QUEUE_SIZES, _queue_runner
from repro.harness.faults import FaultPlan
from repro.harness.runner import CellSpec, Runner
from repro.harness.schemes import evaluation_schemes, scheme_def
from repro.harness.tenants import scheme_for_tenant, solo_baseline
from repro.service.client import ServiceClient
from repro.service.server import ServiceDaemon
from repro.sim.spec import SimSpec
from repro.telemetry.hub import HARNESS_QUARANTINED, HARNESS_RETRIES

SCALE = 0.05
BASELINE = evaluation_schemes()["Baseline"]
#: A spec with every field a sub-runner used to drop set off-default.
RICH_SPEC = SimSpec(
    device="hbm",
    ecc="secded",
    faults=FaultConfig(enabled=True, p_bit=1e-5),
)


def _runner(**kwargs) -> Runner:
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("verbose", False)
    kwargs.setdefault("cache", None)
    kwargs.setdefault("faults", None)
    kwargs.setdefault("retry_backoff", 0.01)
    return Runner(**kwargs)


# ----------------------------------------------------------------------
# Runner.run is a one-cell run_matrix
# ----------------------------------------------------------------------
class TestRunIsAOneCellMatrix:
    def test_crash_is_quarantined_at_jobs_1(self) -> None:
        runner = _runner(
            jobs=1, retries=0, keep_going=True,
            faults=FaultPlan.parse("crash@0"),
        )
        with pytest.raises(CellFailedError):
            runner.run("SCP", BASELINE, label="Baseline")
        (failure,) = runner.failures
        assert failure.error_type == "ChaosCrash"
        assert failure.key == runner.cell("SCP", BASELINE).key
        assert runner.metrics.counter(HARNESS_QUARANTINED) == 1
        assert runner.simulations_run == 0

    def test_crash_is_retried_at_jobs_1(self) -> None:
        clean = _runner().run("SCP", BASELINE)
        runner = _runner(
            jobs=1, retries=1, faults=FaultPlan.parse("crash@0"),
        )
        report = runner.run("SCP", BASELINE)
        assert report == clean
        assert runner.metrics.counter(HARNESS_RETRIES) == 1
        assert not runner.failures

    def test_quarantined_cell_is_not_rerun(self) -> None:
        runner = _runner(
            retries=0, keep_going=True, faults=FaultPlan.parse("crash@0"),
        )
        result = runner.run_matrix(["SCP"], {"Baseline": BASELINE})
        assert not result.ok
        # A later single-cell read of the same cell (what a figure does
        # after its sweep) raises without a second quarantine record.
        with pytest.raises(CellFailedError, match="quarantined"):
            runner.run("SCP", BASELINE, label="Baseline")
        assert len(runner.failures) == 1

    def test_measure_error_without_ams_shares_the_plain_cell(self) -> None:
        runner = _runner()
        dyn_dms = evaluation_schemes()["Dyn-DMS"]
        plain = runner.run("SCP", dyn_dms)
        assert runner.run("SCP", dyn_dms, measure_error=True) is plain
        assert runner.simulations_run == 1
        assert plain.application_error is None


# ----------------------------------------------------------------------
# Derived runners inherit every field they do not override
# ----------------------------------------------------------------------
class TestDerivedRunners:
    @pytest.mark.parametrize("size", QUEUE_SIZES)
    def test_queue_runner_keeps_device_ecc_and_faults(self, size) -> None:
        parent = _runner(spec=RICH_SPEC, jobs=2, retries=3)
        sub = _queue_runner(parent, size)
        cell = sub.cell("SCP", BASELINE)
        assert cell.spec.device == "hbm"
        assert cell.spec.ecc == "secded"
        assert cell.spec.faults == RICH_SPEC.faults
        assert cell.spec.config.pending_queue_size == size
        expected = CellSpec(
            app="SCP", scale=SCALE, seed=parent.seed,
            spec=dataclasses.replace(
                RICH_SPEC, scheduler=BASELINE,
                config=cell.spec.config,
            ),
        )
        assert cell.key == expected.key
        assert (sub.jobs, sub.retries) == (2, 3)
        assert sub.failures is parent.failures
        assert sub.metrics is parent.metrics

    def test_tenant_solo_baseline_keeps_device_ecc_and_faults(self) -> None:
        tenant = TenantSpec(name="bg", workload="GEMM",
                            tenant_class="approx-batch", scale=0.5)
        mix = TenantMixSpec(tenants=(tenant,))
        parent = _runner(
            spec=dataclasses.replace(RICH_SPEC, tenants=mix),
            retries=0, faults=FaultPlan.parse("crash@0"),
        )
        scheme = evaluation_schemes()["Static-AMS"]
        with pytest.raises(CellFailedError):
            solo_baseline(parent, tenant, scheme)
        (failure,) = parent.failures
        solo = CellSpec(
            app="GEMM", scale=SCALE * 0.5, seed=parent.seed,
            spec=dataclasses.replace(
                RICH_SPEC, scheduler=scheme_for_tenant(scheme, tenant),
            ),
        )
        assert failure.key == solo.key


# ----------------------------------------------------------------------
# Figures through the CLI
# ----------------------------------------------------------------------
def _cli(argv, monkeypatch, capsys, *, scale=SCALE, chaos=None):
    if chaos is None:
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
    else:
        monkeypatch.setenv("REPRO_CHAOS", chaos)
    code = cli.main(argv + ["--scale", str(scale), "--no-cache", "--quiet"])
    return code, capsys.readouterr().out


def test_fig02_honours_the_device(monkeypatch, capsys) -> None:
    # newtonraph at half scale is the smallest cell whose activations
    # move with the queue size (at q=16) on both devices.
    argv = ["fig02", "--apps", "newtonraph"]
    code, default = _cli(argv, monkeypatch, capsys, scale=0.5)
    assert code == cli.EXIT_OK
    code, hbm = _cli(
        argv + ["--device", "hbm"], monkeypatch, capsys, scale=0.5
    )
    assert code == cli.EXIT_OK
    assert hbm != default


def test_fig11_chaos_fails_the_same_cell_at_every_jobs(
    monkeypatch, capsys, tmp_path
) -> None:
    manifests = []
    for jobs in (1, 2):
        out = tmp_path / f"failures-{jobs}.json"
        code, _ = _cli(
            ["fig11", "--retries", "0", "--jobs", str(jobs),
             "--failures-out", str(out)],
            monkeypatch, capsys, chaos="crash@0",
        )
        assert code == cli.EXIT_FAILED
        (record,) = json.loads(out.read_text())["failures"]
        manifests.append((record["app"], record["label"], record["key"]))
    assert manifests[0] == manifests[1]
    assert manifests[0][:2] == ("SCP", "Baseline")


# ----------------------------------------------------------------------
# The service keys and stores a job through the same CellSpec
# ----------------------------------------------------------------------
def test_job_without_activation_logs_is_cached_under_its_key(
    tmp_path,
) -> None:
    daemon = ServiceDaemon(
        port=0, workers=1,
        cache=ResultCache(tmp_path / "cache", enabled=True),
        journal_path=tmp_path / "journal.jsonl", verbose=False,
    )
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        spec = SimSpec(
            scheduler=scheme_def("frfcfs").build(),
            record_activations=False,
        )
        first = client.submit("synthetic", spec=spec, scale=SCALE, seed=3)
        assert client.wait(first["id"], timeout=120.0)["state"] == "done"
        again = client.submit("synthetic", spec=spec, scale=SCALE, seed=3)
        assert again["outcome"] == "cached"
    finally:
        daemon.stop()
