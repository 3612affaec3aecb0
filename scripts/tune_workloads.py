#!/usr/bin/env python
"""Tune per-app (parallelism, compute_scale) to land delay-tolerance
regimes, then write repro/workloads/tuning.py.

Usage: python scripts/tune_workloads.py [APP ...]
"""

from __future__ import annotations

import sys

from repro.config import baseline_scheduler
from repro.sim.spec import SimSpec
from repro.sim.system import simulate_spec
from repro.workloads.characteristics import TABLE_II
from repro.workloads.registry import _ensure_loaded, _REGISTRY
from repro.workloads.tuning import TUNING

#: delay tolerance class -> (warp multiplier, target BW utilisation)
CLASS_TARGETS = {
    "Low": (1.0, 0.60),
    "Medium": (1.4, 0.52),
    "High": (1.0, 0.45),
}


def measure_bw(name: str, p: float, cs: float) -> float:
    _ensure_loaded()
    wl = _REGISTRY[name](scale=1.0, seed=7, parallelism=p, compute_scale=cs)
    report = simulate_spec(wl, SimSpec(scheduler=baseline_scheduler()))
    return report.bwutil


def tune(name: str) -> tuple[float, float]:
    cls = TABLE_II[name].delay_tolerance
    p, bw_target = CLASS_TARGETS[cls]
    cs = 1.0
    for _ in range(5):
        bw = measure_bw(name, p, cs)
        ratio = bw / bw_target
        if 0.93 <= ratio <= 1.07:
            break
        cs = min(max(cs * ratio**0.9, 0.1), 60.0)
    print(f"{name:14s} class={cls:6s} p={p:.2f} cs={cs:.2f} BW={bw:.2f}")
    return p, cs


def main() -> None:
    apps = sys.argv[1:] or sorted(TABLE_II)
    results = dict(TUNING)
    for name in apps:
        results[name] = tune(name)
    lines = [
        "#: app name -> (parallelism multiplier, compute-duration multiplier)",
        "TUNING: dict[str, tuple[float, float]] = {",
    ]
    for name in sorted(results):
        p, cs = results[name]
        lines.append(f'    "{name}": ({p:.3f}, {cs:.3f}),')
    lines.append("}")
    path = "src/repro/workloads/tuning.py"
    src = open(path).read()
    head = src.split("#: app name ->")[0]
    open(path, "w").write(head + "\n".join(lines) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
