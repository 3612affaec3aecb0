"""Pinned reports of the cells that reach the L2's write and hit paths.

``tests/golden/seed_reports.json`` pins a synthetic cell with no L2
hit, no write and no write-back, and perfbench's pinned sweep cells
(SCP, 3MM) write nothing. ``tests/golden/request_path_reports.json``
pins the full ``SimReport.to_dict()`` payload of RAY (the app whose L2
writes lines back to DRAM at scale 0.1) and blackscholes (the app with
the most L2 hits), each under Baseline and Dyn-DMS+Dyn-AMS with
application error measured. Each test also asserts that its cell still
reaches the branch it was chosen for, so a pin cannot silently stop
covering it.

The fixture must never be regenerated to make these tests pass; see
``scripts/regen_request_path_reports.py``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# The cell set lives in the regeneration script so the fixture and the
# assertion can never drift apart; load it straight from the file.
_spec = importlib.util.spec_from_file_location(
    "_regen_request_path_reports",
    REPO / "scripts" / "regen_request_path_reports.py",
)
_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regen)

GOLDEN = json.loads(_regen.OUT_PATH.read_text(encoding="utf-8"))


def test_fixture_and_cell_set_agree() -> None:
    assert GOLDEN["fixture"] == _regen.FIXTURE
    assert list(GOLDEN["reports"]) == sorted(_regen.cell_ids())


@pytest.mark.parametrize("cell_id", _regen.cell_ids())
def test_cell_reproduces_pinned_payload(cell_id: str) -> None:
    payload = _regen.simulate(cell_id).to_dict()
    assert payload == GOLDEN["reports"][cell_id]
    l2 = payload["l2"]
    if cell_id.startswith("RAY/"):
        assert l2["writebacks"] > 0
    else:
        assert l2["hits"] > 0
    if "AMS" in cell_id:
        assert payload["drops"] and payload["application_error"] is not None
