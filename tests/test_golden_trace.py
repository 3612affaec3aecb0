"""Golden-trace regression test.

One canonical traced run — the registered ``synthetic`` workload under
Dyn-DMS + Dyn-AMS — is pinned, per-window, against a checked-in JSON
fixture. Any change to the scheduler, the DRAM timing model, the
profiling state machines, or the telemetry sampler that shifts even a
single window shows up here as a diff.

The simulator is deterministic end to end (pure-Python float timing,
seeded numpy data generation), so the comparison is *exact*, floats
included: JSON serialises floats via shortest-round-trip repr, so a
load reproduces bit-identical values.

To regenerate after a deliberate behaviour change::

    PYTHONPATH=src python -m pytest tests/test_golden_trace.py --regen-golden

then review the fixture diff and commit it with the change.
"""

import json
from pathlib import Path

from repro.config.scheduler import (
    AMSConfig,
    AMSMode,
    DMSConfig,
    DMSMode,
    SchedulerConfig,
)
from repro.harness.runner import Runner

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_trace.json"

#: The canonical fixture cell. Small enough to simulate in ~1 s, busy
#: enough to exercise the Dyn-DMS search, AMS drops, and the coverage
#: bound across a few profiling phases.
FIXTURE = {
    "workload": "synthetic",
    "scale": 0.25,
    "seed": 11,
    "window_cycles": 512,
}


def _scheme() -> SchedulerConfig:
    return SchedulerConfig(
        dms=DMSConfig(
            mode=DMSMode.DYNAMIC, window_cycles=512, windows_per_phase=8
        ),
        ams=AMSConfig(
            mode=AMSMode.DYNAMIC,
            coverage_limit=0.10,
            window_cycles=512,
            warmup_fills=16,
        ),
    )


def current_payload() -> dict:
    """Simulate the fixture cell and shape the golden payload."""
    runner = Runner(
        scale=FIXTURE["scale"], seed=FIXTURE["seed"],
        verbose=False, cache=None,
    )
    report, _system = runner.run_traced(
        FIXTURE["workload"], _scheme(),
        window_cycles=FIXTURE["window_cycles"],
        log_commands=False,
    )
    return {
        "fixture": dict(FIXTURE),
        "timeline": report.timeline.to_dict(),
        "report": {
            "workload": report.workload,
            "scheme": report.scheme,
            "elapsed_mem_cycles": report.elapsed_mem_cycles,
            "elapsed_core_cycles": report.elapsed_core_cycles,
            "total_instructions": report.total_instructions,
            "activations": report.activations,
            "requests_served": report.requests_served,
            "requests_dropped": report.requests_dropped,
            "reads_arrived": report.reads_arrived,
            "ipc": report.ipc,
            "avg_rbl": report.avg_rbl,
            "bwutil": report.bwutil,
            "coverage": report.coverage,
            "row_energy_nj": report.row_energy_nj,
            "final_dms_delays": list(report.final_dms_delays),
            "final_th_rbls": list(report.final_th_rbls),
            "l2": report.l2.to_dict(),
        },
    }


def test_golden_trace(regen_golden: bool) -> None:
    payload = current_payload()
    if regen_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    assert GOLDEN_PATH.is_file(), (
        f"missing golden fixture {GOLDEN_PATH}; generate it with "
        "`pytest tests/test_golden_trace.py --regen-golden`"
    )
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert payload["fixture"] == golden["fixture"], (
        "fixture parameters changed; regenerate the golden trace"
    )
    # Compare the report first (small, high-signal diff), then the full
    # per-window series.
    assert payload["report"] == golden["report"]
    got, want = payload["timeline"], golden["timeline"]
    assert got["window_cycles"] == want["window_cycles"]
    assert len(got["samples"]) == len(want["samples"])
    for got_sample, want_sample in zip(got["samples"], want["samples"]):
        assert got_sample == want_sample, (
            f"window {want_sample['index']} diverged"
        )
