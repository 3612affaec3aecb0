"""Pinned ECC read-path reports for every code and every word width.

``tests/golden/cli/pareto.json`` covers only ``none`` and ``secded``,
and ``tests/test_ecc_determinism.py`` compares execution modes with
each other, not with a recorded value. ``tests/golden/ecc_reports.json``
pins six faulty cells (SCP at scale 0.1, seed 7, Static-AMS,
``p_bit = 1e-4``): ``none``, ``parity``, ``secded`` and ``bch`` on
gddr5 (64-bit words), plus ``bch`` on lpddr4 (32) and hbm (128). Each
pin holds the report's full ``ecc`` and ``energy`` sections and the
sha256 of the whole ``SimReport.to_dict()`` as sorted-key JSON (a full
payload is about 100 KB). The cells between them correct, detect and
silently pass words, and a test asserts so, so no pin can go vacuous.

The fixture must never be regenerated to make these tests pass. To
record it at a commit whose simulator behaviour is trusted::

    PYTHONPATH=src python tests/test_ecc_pins.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.config.faults import FaultConfig
from repro.config.scheduler import static_ams
from repro.harness.runner import Runner
from repro.sim.spec import SimSpec

FIXTURE_PATH = Path(__file__).resolve().parent / "golden" / "ecc_reports.json"

APP = "SCP"
SCALE = 0.1
SEED = 7
FAULTS = FaultConfig(enabled=True, p_bit=1e-4)

#: Pin id -> (device, ECC code).
CELLS = {
    "gddr5-none": ("gddr5", "none"),
    "gddr5-parity": ("gddr5", "parity"),
    "gddr5-secded": ("gddr5", "secded"),
    "gddr5-bch": ("gddr5", "bch"),
    "lpddr4-bch": ("lpddr4", "bch"),
    "hbm-bch": ("hbm", "bch"),
}


def spec_of(pin: str) -> SimSpec:
    device, ecc = CELLS[pin]
    return SimSpec(
        scheduler=static_ams(), device=device, ecc=ecc, faults=FAULTS
    )


def simulate(pin: str) -> dict:
    spec = spec_of(pin)
    runner = Runner(
        scale=SCALE, seed=SEED, spec=spec, verbose=False, cache=None
    )
    return runner.run(APP, spec.scheduler, label="Static-AMS").to_dict()


def read_path_pin(payload: dict) -> dict:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return {
        "ecc": payload["ecc"],
        "energy": payload["energy"],
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def describe(pin: str) -> dict:
    return {
        "app": APP, "scale": SCALE, "seed": SEED,
        "spec": spec_of(pin).to_dict(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_fixture_and_cells_agree(golden) -> None:
    assert golden["cells"] == {pin: describe(pin) for pin in CELLS}
    assert set(golden["pins"]) == set(CELLS)


@pytest.mark.parametrize("pin", sorted(CELLS))
def test_cell_reproduces_pinned_read_path(pin, golden) -> None:
    assert read_path_pin(simulate(pin)) == golden["pins"][pin]


def test_pins_cover_every_outcome(golden) -> None:
    pins = golden["pins"].values()
    for outcome in ("words_corrected", "words_detected", "words_silent"):
        assert any(p["ecc"][outcome] > 0 for p in pins), outcome
    assert {p["ecc"]["word_bits"] for p in pins} == {32, 64, 128}


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps({
        "cells": {pin: describe(pin) for pin in CELLS},
        "pins": {pin: read_path_pin(simulate(pin)) for pin in CELLS},
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE_PATH}")
