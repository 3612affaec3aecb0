"""Regenerate tests/golden/request_path_reports.json.

The fixture pins the full ``SimReport.to_dict()`` payload of the cells
that reach the L2 branches ``tests/golden/seed_reports.json`` misses:
its synthetic cell has no L2 hit, no write and no write-back. At scale
0.1, RAY is the one app whose L2 writes lines back to DRAM, and
blackscholes the app with the most L2 hits. Each runs under Baseline
and under the paper's headline Dyn-DMS+Dyn-AMS scheme, with
application error measured (Baseline runs no AMS, so it measures none).
``tests/test_request_path_pins.py`` asserts that the simulator
reproduces these payloads field-identically.

Run from the repo root, only at a commit whose simulator behaviour is
trusted::

    PYTHONPATH=src python scripts/regen_request_path_reports.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.runner import Runner
from repro.harness.schemes import evaluation_schemes
from repro.sim.report import SimReport

OUT_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests" / "golden" / "request_path_reports.json"
)

#: Run parameters shared by every pinned cell (0.1-0.4 s a cell).
FIXTURE = {"scale": 0.1, "seed": 7, "measure_error": True}
APPS = ("RAY", "blackscholes")
SCHEMES = ("Baseline", "Dyn-DMS+Dyn-AMS")


def cell_ids() -> list[str]:
    """``"<app>/<scheme label>"`` of every pinned cell, in fixture order."""
    return [f"{app}/{scheme}" for app in APPS for scheme in SCHEMES]


def simulate(cell_id: str) -> SimReport:
    """Run one pinned cell from scratch (no result cache)."""
    app, label = cell_id.split("/")
    runner = Runner(
        scale=FIXTURE["scale"], seed=FIXTURE["seed"],
        verbose=False, cache=None,
    )
    return runner.run(
        app, evaluation_schemes()[label], label=label,
        measure_error=FIXTURE["measure_error"],
    )


def main() -> None:
    reports = {}
    for cell_id in cell_ids():
        report = simulate(cell_id)
        reports[cell_id] = report.to_dict()
        l2 = report.l2
        print(
            f"  {cell_id}: hits={l2.hits} misses={l2.misses} "
            f"writebacks={l2.writebacks} fills={l2.fills} "
            f"drops={report.requests_dropped}"
        )
    OUT_PATH.write_text(
        json.dumps(
            {"fixture": FIXTURE, "reports": reports},
            indent=1, sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
