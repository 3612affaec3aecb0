#!/usr/bin/env python
"""Quickstart: simulate one workload under the lazy memory scheduler.

Runs SCP (scalar products) on the Table I GPU under the baseline
FR-FCFS scheduler and under the paper's headline Dyn-DMS + Dyn-AMS
combination, then prints the row-energy / IPC / quality trade-off.

Usage::

    python examples/quickstart.py [--scale 0.5]
"""

from __future__ import annotations

import argparse

from repro import SimSpec, baseline_scheduler, get_workload, simulate_spec
from repro.harness.schemes import evaluation_schemes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload size multiplier")
    parser.add_argument("--app", default="SCP",
                        help="Table II application name")
    args = parser.parse_args()

    print(f"Simulating {args.app} on the Table I GPU "
          f"(scale {args.scale})...\n")

    baseline = simulate_spec(
        get_workload(args.app, scale=args.scale),
        SimSpec(scheduler=baseline_scheduler()),
    )
    print(baseline.summary())
    print()

    # The harness scheme set scales the Dyn-DMS/Dyn-AMS profiling
    # windows to trace-sized runs (see repro.harness.schemes).
    lazy = simulate_spec(
        get_workload(args.app, scale=args.scale),
        SimSpec(
            scheduler=evaluation_schemes()["Dyn-DMS+Dyn-AMS"],
            measure_error=True,
        ),
    )
    print(lazy.summary())
    print()

    saved = 1 - lazy.normalized_row_energy(baseline)
    print(f"Row energy saved by Dyn-DMS + Dyn-AMS : {saved:.1%}")
    print(f"IPC relative to baseline              : "
          f"{lazy.normalized_ipc(baseline):.1%}")
    print(f"Prediction coverage                   : {lazy.coverage:.1%}")
    if lazy.application_error is not None:
        print(f"Application error                     : "
              f"{lazy.application_error:.2%}")


if __name__ == "__main__":
    main()
