#!/usr/bin/env python
"""Bring your own kernel: define a workload and evaluate the scheduler.

Shows the full public workflow for a downstream user:

1. subclass :class:`repro.workloads.base.Workload` — register arrays
   (annotating the approximable ones, as with the paper's pragmas),
   generate a trace over them, and implement the kernel;
2. simulate it under any scheduler configuration;
3. measure end-to-end application error via the replay pipeline.

The example kernel is a damped 1-D wave propagation step.

Usage::

    python examples/custom_workload.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    SimSpec,
    baseline_scheduler,
    simulate_spec,
    static_ams,
    static_dms,
)
from repro.config.gpu import GPUConfig
from repro.workloads.base import Workload
from repro.workloads.data import smooth_field
from repro.workloads.traces import interleave, row_visit_streams


class WavePropagation(Workload):
    """u' = u + c * (laplacian of u) on an annotated 1-D field."""

    name = "wave1d"
    description = "damped 1-D wave propagation"
    input_kind = "Field"
    group = 0  # not part of the paper's Table II

    def _build(self) -> None:
        n = self.dim(393216, multiple=3072)
        self.register("u", smooth_field(self.rng, n), approximable=True)
        self.register("v", smooth_field(self.rng, n), approximable=True)

    def warp_streams(self, config: GPUConfig):
        m = config.mapping
        body = row_visit_streams(
            self.space, "u", m,
            n_warps=self.warps(64), lines_per_visit=2, lines_per_op=1,
            visits_per_row=2, skew_cycles=(400.0, 1500.0), compute=40.0,
        )
        velocity = row_visit_streams(
            self.space, "v", m,
            n_warps=self.warps(32), lines_per_visit=4, visits_per_row=1,
            compute=40.0,
        )
        return interleave(body, velocity)

    def run_kernel(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        u = arrays["u"].astype(np.float64)
        v = arrays["v"].astype(np.float64)
        lap = np.roll(u, 1) - 2 * u + np.roll(u, -1)
        return u + 0.9 * v + 0.25 * lap


def main() -> None:
    workload = WavePropagation(scale=0.5)
    base = simulate_spec(workload, SimSpec(scheduler=baseline_scheduler()))
    print(base.summary())
    print()
    for scheme in (static_dms(512), static_ams(8)):
        run = simulate_spec(
            WavePropagation(scale=0.5),
            SimSpec(scheduler=scheme, measure_error=True),
        )
        print(run.summary())
        print(
            f"  -> vs baseline: row energy "
            f"{run.normalized_row_energy(base):.2f}, "
            f"IPC {run.normalized_ipc(base):.2f}"
        )
        print()


if __name__ == "__main__":
    main()
