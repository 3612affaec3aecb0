"""Pinned reports of the three policies no other golden covers.

``tests/golden/seed_reports.json`` pins the ``frfcfs`` and ``fcfs``
selectors and ``tests/golden/cli/tenants.json`` the default
``shared-frfcfs`` arbiter. ``tests/golden/policy_reports.json`` pins the
full ``SimReport.to_dict()`` payload of the other three: the
``frfcfs-cap`` selector and the ``tenant-priority`` and ``batch-fair``
arbiters. Each sits on a cell where its DRAM command stream differs
from the FR-FCFS (``shared-frfcfs`` for the arbiters) run of the same
cell, and each test asserts both the field identity and that
difference, so a pin cannot silently stop covering its policy.

No fixture runs ``row_policy="close"``, so two close-row cells are
pinned inline by report digest; each test also asserts that the cell's
open-row report differs.

The fixture must never be regenerated to make these tests pass. To
record it at a commit whose simulator behaviour is trusted::

    PYTHONPATH=src python tests/test_policy_pins.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config.scheduler import (
    AMSConfig,
    AMSMode,
    DMSConfig,
    DMSMode,
    SchedulerConfig,
)
from repro.config.tenants import TenantMixSpec, TenantSpec
from repro.harness.runner import Runner
from repro.sim.spec import SimSpec

FIXTURE_PATH = (
    Path(__file__).resolve().parent / "golden" / "policy_reports.json"
)

#: One tenant per service class, under the lazy scheme the ``tenants``
#: subcommand defaults to, so gating, drops and ranks all engage.
_MIX = TenantMixSpec(tenants=(
    TenantSpec("lat", "MVT", "latency"),
    TenantSpec("bw", "ATAX", "bandwidth"),
    TenantSpec("ax", "SCP", "approx-batch"),
))
_LAZY = SchedulerConfig(
    dms=DMSConfig(mode=DMSMode.STATIC), ams=AMSConfig(mode=AMSMode.STATIC)
)


def _arbiter_cell(arbiter: str) -> dict:
    return {
        "app": "MVT+ATAX+SCP", "scale": 0.05, "seed": 7,
        "spec": SimSpec(
            scheduler=_LAZY, tenants=replace(_MIX, arbiter=arbiter)
        ),
    }


#: Pin id -> the cell it pins: ``app``, ``scale``, ``seed`` and the
#: ``SimSpec`` whose ``scheduler`` is the cell's scheme.
CELLS = {
    # The catalogue's cap of 4 never binds at a small scale; 2 does.
    "frfcfs-cap": {
        "app": "MVT", "scale": 0.25, "seed": 7,
        "spec": SimSpec(scheduler=SchedulerConfig(
            arbiter="frfcfs-cap", hit_streak_cap=2
        )),
    },
    "tenant-priority": _arbiter_cell("tenant-priority"),
    "batch-fair": _arbiter_cell("batch-fair"),
}


def reference(cell: dict) -> dict:
    """The same cell under FR-FCFS, or under ``shared-frfcfs`` for a
    tenant mix."""
    spec = cell["spec"]
    if spec.tenants is not None:
        spec = replace(
            spec, tenants=replace(spec.tenants, arbiter="shared-frfcfs")
        )
    else:
        spec = replace(
            spec, scheduler=replace(spec.scheduler, arbiter="frfcfs")
        )
    return {**cell, "spec": spec}


def simulate(pin: str, cell: dict) -> dict:
    spec = cell["spec"]
    runner = Runner(
        scale=cell["scale"], seed=cell["seed"], spec=spec,
        verbose=False, cache=None,
    )
    report = runner.run(
        cell["app"], spec.scheduler, label=pin,
        measure_error=spec.scheduler.ams.mode is not AMSMode.OFF,
    )
    return report.to_dict()


def describe(cell: dict) -> dict:
    return {**cell, "spec": cell["spec"].to_dict()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_fixture_and_cells_agree(golden) -> None:
    assert golden["cells"] == {
        pin: describe(cell) for pin, cell in CELLS.items()
    }
    assert set(golden["reports"]) == set(CELLS)


@pytest.mark.parametrize("pin", sorted(CELLS))
def test_policy_reproduces_pinned_payload(pin, golden) -> None:
    pinned = golden["reports"][pin]
    assert simulate(pin, CELLS[pin]) == pinned
    baseline = simulate(pin, reference(CELLS[pin]))
    assert baseline["channel_stats"] != pinned["channel_stats"]


def with_row_policy(cell: dict, row_policy: str) -> dict:
    spec = cell["spec"]
    scheduler = replace(spec.scheduler, row_policy=row_policy)
    return {**cell, "spec": replace(spec, scheduler=scheduler)}


#: Close-row pins. No golden above runs ``row_policy="close"``, so each
#: pin holds the sha256 of the report's sorted-key ``to_dict()`` JSON
#: and its per-channel activations, for the seed fixture cell
#: (``tests/golden/seed_reports.json``) under FR-FCFS and the 3-tenant
#: cell above under ``shared-frfcfs``. ``fcfs`` and ``frfcfs-cap`` give
#: the seed cell's FR-FCFS report under close-row at small scales, so
#: pins of theirs would add no coverage.
CLOSE_ROW_CELLS = {
    "synthetic-frfcfs": {
        "app": "synthetic", "scale": 0.25, "seed": 11,
        "spec": SimSpec(scheduler=SchedulerConfig(row_policy="close")),
    },
    "shared-frfcfs": with_row_policy(
        _arbiter_cell("shared-frfcfs"), "close"
    ),
}
CLOSE_ROW_PINS = {
    "synthetic-frfcfs": {
        "sha256": "a48d49da18336c1cef939c694beaa429"
                  "c638f6f6a07f9b6e0b4d402bf958de82",
        "activations": [60, 59, 59, 59, 59, 59],
    },
    "shared-frfcfs": {
        "sha256": "6c0e9309a3f6a653b6f3057615e68d90"
                  "7e91c8bc8da40c273be03d2e992d8379",
        "activations": [134, 140, 121, 126, 118, 121],
    },
}


def close_row_pin(payload: dict) -> dict:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return {
        "sha256": hashlib.sha256(blob).hexdigest(),
        "activations": [c["activations"] for c in payload["channel_stats"]],
    }


@pytest.mark.parametrize("pin", sorted(CLOSE_ROW_CELLS))
def test_close_row_reproduces_pinned_digest(pin) -> None:
    cell = CLOSE_ROW_CELLS[pin]
    pinned = CLOSE_ROW_PINS[pin]
    assert close_row_pin(simulate(pin, cell)) == pinned
    open_row = with_row_policy(cell, "open")
    assert close_row_pin(simulate(pin, open_row)) != pinned


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps({
        "cells": {pin: describe(cell) for pin, cell in CELLS.items()},
        "reports": {pin: simulate(pin, cell) for pin, cell in CELLS.items()},
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE_PATH}")
