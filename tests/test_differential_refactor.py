"""Differential lock on the composable scheduler-policy refactor.

``tests/golden/seed_reports.json`` pins the full ``SimReport.to_dict()``
payload of eight paper schemes, produced by the monolithic controller
the seed shipped with. These tests assert the refactored pipeline —
registry selectors, activation gates, drop policies, :class:`SimSpec` —
reproduces every payload *field-identically*, and that the named
``gddr5`` device preset is indistinguishable from the legacy no-device
path.

The fixture must never be regenerated to make these tests pass: a diff
here means the refactor changed simulator behaviour.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.config.scheduler import AMSMode, SchedulerConfig
from repro.harness.runner import Runner
from repro.sim.spec import SimSpec

REPO = Path(__file__).resolve().parent.parent
FIXTURE_PATH = REPO / "tests" / "golden" / "seed_reports.json"

# The scheme set lives in the regeneration script so the fixture and the
# assertion can never drift apart; load it straight from the file.
_spec = importlib.util.spec_from_file_location(
    "_regen_seed_reports", REPO / "scripts" / "regen_seed_reports.py"
)
_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regen)

GOLDEN = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
SCHEMES = _regen.scheme_set()
FIXTURE = _regen.FIXTURE


def make_runner(**overrides) -> Runner:
    kwargs = dict(
        scale=FIXTURE["scale"], seed=FIXTURE["seed"],
        verbose=False, cache=None,
    )
    kwargs.update(overrides)
    return Runner(**kwargs)


def test_fixture_and_scheme_set_agree() -> None:
    assert GOLDEN["fixture"] == FIXTURE
    assert set(GOLDEN["reports"]) == set(SCHEMES)


@pytest.mark.parametrize("scheme_id", sorted(SCHEMES))
def test_scheme_reproduces_seed_payload(scheme_id: str) -> None:
    scheme = SCHEMES[scheme_id]
    report = make_runner().run(
        FIXTURE["workload"], scheme, label=scheme_id,
        measure_error=scheme.ams.mode is not AMSMode.OFF,
    )
    assert report.to_dict() == GOLDEN["reports"][scheme_id]


@pytest.mark.parametrize("scheme_id", sorted(SCHEMES))
def test_disabled_ecc_hook_is_field_identical(scheme_id: str) -> None:
    """``ecc="none"`` + faults off must be a zero-cost no-op.

    The injection hook sits on the served-column path of every scheme;
    with ECC and faults explicitly disabled the reports must stay
    bit-identical to the pre-ECC golden payloads — no extra keys, no
    energy delta, no counter drift.
    """
    from repro.config.faults import FaultConfig

    scheme = SCHEMES[scheme_id]
    report = make_runner(
        spec=SimSpec(ecc="none", faults=FaultConfig())
    ).run(
        FIXTURE["workload"], scheme, label=scheme_id,
        measure_error=scheme.ams.mode is not AMSMode.OFF,
    )
    payload = report.to_dict()
    assert "ecc" not in payload
    assert "ecc_nj" not in payload["energy"]
    assert payload == GOLDEN["reports"][scheme_id]


def test_named_gddr5_device_is_field_identical_to_default() -> None:
    """Selecting --device gddr5 must change nothing but the cache key."""
    report = make_runner(spec=SimSpec(device="gddr5")).run(
        FIXTURE["workload"], SchedulerConfig(), label="frfcfs@gddr5"
    )
    assert report.to_dict() == GOLDEN["reports"]["frfcfs"]
