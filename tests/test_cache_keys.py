"""Pinned v4 cache keys.

Every blob in a result cache, every coalesced service job and every
warehouse row is addressed by a v4 content key. A change to how a cell
is built from its :class:`~repro.sim.spec.SimSpec` must therefore leave
these hex keys byte-identical, whichever entry point builds the cell:
:class:`~repro.harness.runner.CellSpec` itself, a :class:`Runner`
sweep, or the service's :func:`~repro.service.jobs.job_content_key`.

The runner reveals its cell key without simulating: a ``crash@0``
chaos plan fails the cell before any simulation state is touched, and
the quarantined :class:`~repro.harness.faults.CellFailure` carries the
key.

The helpers below also accept the older field-by-field ``CellSpec`` and
``Runner`` signatures, so the pins can be re-checked against code that
predates the spec-carrying ones.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.config.faults import FaultConfig
from repro.config.scheduler import SchedulerConfig, dyn_dms
from repro.config.tenants import TenantMixSpec, TenantSpec
from repro.harness.faults import FaultPlan
from repro.harness.runner import CellSpec, Runner
from repro.service.jobs import job_content_key
from repro.sim.spec import SimSpec

REPO = Path(__file__).resolve().parent.parent

_regen_spec = importlib.util.spec_from_file_location(
    "_regen_seed_reports", REPO / "scripts" / "regen_seed_reports.py"
)
_regen = importlib.util.module_from_spec(_regen_spec)
_regen_spec.loader.exec_module(_regen)
FIXTURE = _regen.FIXTURE

MIX = TenantMixSpec(
    tenants=(
        TenantSpec(name="fg", workload="SCP", tenant_class="latency"),
        TenantSpec(name="bg", workload="GEMM", tenant_class="approx-batch",
                   scale=0.5),
    ),
    arbiter="batch-fair",
)


def _golden_cells() -> dict[str, tuple[str, float, int, SimSpec]]:
    cells = {}
    for scheme_id, scheme in _regen.scheme_set().items():
        cells[f"golden:{scheme_id}"] = (
            FIXTURE["workload"], FIXTURE["scale"], FIXTURE["seed"],
            SimSpec(scheduler=scheme,
                    measure_error=scheme.ams.mode.value != "off"),
        )
    return cells


#: name -> (app, scale, seed, spec) of every pinned cell.
CELLS = {
    **_golden_cells(),
    "device": ("SCP", 0.25, 7, SimSpec(device="hbm")),
    "ecc-faults": ("SCP", 0.25, 7, SimSpec(
        ecc="secded", faults=FaultConfig(enabled=True, p_bit=1e-5),
    )),
    "tenants": ("SCP+GEMM", 0.25, 7, SimSpec(tenants=MIX)),
    "no-activations": ("SCP", 0.25, 7, SimSpec(record_activations=False)),
    "error-ams-off": ("SCP", 0.25, 7, SimSpec(
        scheduler=dyn_dms(), measure_error=True,
    )),
}

#: v4 keys of :data:`CELLS`.
PINNED = {
    "golden:dyn-ams":
        "fde673c655943a069b970eaa8e0cd2c7345fae4d538a22275c99422b7e9b6b72",
    "golden:dyn-dms":
        "85d4288fc8181f0f5b3b1446e54b8b7f11772375bad045c1515eaebac7584710",
    "golden:dyn-dms+dyn-ams":
        "d34b18336a89fffa6b38d0436399dda174e2e0339ab96c0312540b2efb55aa59",
    "golden:fcfs":
        "067bce4c4da50e94c65545dd0e937507e834364f774b286a52e660ca8840531e",
    "golden:frfcfs":
        "f1808524562f589dfa07619deffe16f2ae5fba4d89412717848fb26ed1c7cf64",
    "golden:static-ams":
        "22343918b0e7aafc883f989bbd3db3d9e078081d92d185dc39d70c588afd35bb",
    "golden:static-dms":
        "087b49e62867d65c0dd61eb8d8adb69a8a7866ebab7408e87a845d8dfcfe22fe",
    "golden:static-dms+static-ams":
        "67ee211fd006e0ff6dc6d994a7d3da297013976313a21d3e20ea52f97e75c0bd",
    "device":
        "157f80ea081b0e40f653090420f0e1138c34b854dedef0dfecd1f12b088b053d",
    "ecc-faults":
        "b0f2df68a6f0cb855361db68a92b869125f543882b9c9fe36663c35cab470944",
    "tenants":
        "1420d1e9f5c5947608d2e9ad1eb12e76fb9e0a69c33b1b0067e82c5e72e5620c",
    "no-activations":
        "444624cc9ed7e0a4bb38710229b3c8c6ddd3ca9d3b050eb0b78c2f693605a02f",
    "error-ams-off":
        "fd81bef4dd34b618407d575fe1ebeb8d2117f6dae8949b25b29a6125404b9fd7",
}


def _ams_on(spec: SimSpec) -> bool:
    return spec.scheduler.ams.mode.value != "off"


def _cell(app: str, scale: float, seed: int, spec: SimSpec) -> CellSpec:
    try:
        return CellSpec(app=app, scale=scale, seed=seed, spec=spec)
    except TypeError:
        # Field-by-field CellSpec: its runner dropped measure_error for
        # AMS-off schemes before building the cell.
        return CellSpec(
            app=app, scale=scale, seed=seed, config=spec.config,
            scheme=spec.scheduler,
            measure_error=spec.measure_error and _ams_on(spec),
            device=spec.device, ecc=spec.ecc, faults=spec.faults,
            record_activations=spec.record_activations,
            tenants=spec.tenants,
        )


def _runner(scale: float, seed: int, spec: SimSpec, **options) -> Runner:
    options.update(scale=scale, seed=seed, verbose=False, cache=None)
    try:
        return Runner(spec=spec, **options)
    except TypeError:
        if not spec.record_activations:
            pytest.skip("field-by-field Runner keeps activation logs")
        return Runner(
            config=spec.config, device=spec.device, ecc=spec.ecc,
            fault_model=spec.faults, tenants=spec.tenants, **options,
        )


def test_every_cell_is_pinned() -> None:
    assert set(PINNED) == set(CELLS)
    assert len(set(PINNED.values())) == len(PINNED)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_spec_key(name: str) -> None:
    assert _cell(*CELLS[name]).key == PINNED[name]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_job_content_key(name: str) -> None:
    assert job_content_key(*CELLS[name]) == PINNED[name]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_runner_cell_key(name: str) -> None:
    app, scale, seed, spec = CELLS[name]
    runner = _runner(
        scale, seed, dataclasses.replace(
            spec, scheduler=SchedulerConfig(), measure_error=False,
        ),
        retries=0, keep_going=True, faults=FaultPlan.parse("crash@0"),
    )
    result = runner.run_matrix(
        [app], {"cell": spec.scheduler}, measure_error=spec.measure_error,
    )
    (failure,) = result.failures
    assert failure.error_type == "ChaosCrash"
    assert failure.key == PINNED[name]


def test_measure_error_without_ams_keys_like_plain_run() -> None:
    app, scale, seed, spec = CELLS["error-ams-off"]
    plain = dataclasses.replace(spec, measure_error=False)
    assert PINNED["error-ams-off"] == job_content_key(app, scale, seed, plain)
