"""blackscholes — Black-Scholes option pricing (AxBench / PARSEC).

Table II: Group 4; Medium thrashing, Medium delay tolerance, High
activation sensitivity, High Th_RBL sensitivity, Low error tolerance.

Deep out-of-the-money options price near zero, so small input
perturbations yield huge *relative* errors (error tolerance Low even
though the math is benign).
"""

from __future__ import annotations

import numpy as np

from repro.config.gpu import GPUConfig
from repro.workloads.base import Workload
from repro.workloads.traces import interleave, row_visit_streams


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    """Abramowitz & Stegun 7.1.26 polynomial approximation of Phi(x)."""
    t = 1.0 / (1.0 + 0.2316419 * np.abs(x))
    poly = t * (
        0.319381530
        + t * (-0.356563782 + t * (1.781477937
                                   + t * (-1.821255978 + t * 1.330274429)))
    )
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    cdf = 1.0 - pdf * poly
    return np.where(x >= 0, cdf, 1.0 - cdf)


class BlackScholes(Workload):
    """European call pricing over annotated parameter arrays."""

    name = "blackscholes"
    description = "Black-Scholes option pricing"
    input_kind = "Matrix"
    group = 4

    def _build(self) -> None:
        n = self.dim(245760, multiple=3072)
        rng = self.rng
        spot = rng.uniform(10.0, 120.0, n).astype(np.float32)
        strike = rng.uniform(40.0, 250.0, n).astype(np.float32)
        expiry = rng.uniform(0.05, 2.0, n).astype(np.float32)
        vol = rng.uniform(0.05, 0.7, n).astype(np.float32)
        self.register("S", spot, approximable=True)
        self.register("K", strike, approximable=True)
        self.register("T", expiry, approximable=True)
        self.register("V", vol, approximable=True)

    def warp_streams(self, config: GPUConfig):
        m = config.mapping
        streams = [
            row_visit_streams(
                self.space, nm, m,
                n_warps=self.warps(24), lines_per_visit=10, lines_per_op=2,
                visits_per_row=2, repeat_visits=True,
                skew_cycles=(600.0, 2000.0), compute=self.cycles(40.0),
                row_range=(0.0, 0.75),
            )
            for nm in ("S", "K")
        ]
        streams += [
            row_visit_streams(
                self.space, nm, m,
                n_warps=self.warps(12), lines_per_visit=10, visits_per_row=1,
                compute=self.cycles(40.0), row_range=(0.0, 0.75),
            )
            for nm in ("T", "V")
        ]
        # Mid-RBL remainder rows: candidates that waste Th_RBL(8)
        # coverage, making the threshold reduction of Dyn-AMS pay off.
        mid = row_visit_streams(
            self.space, "K", m,
            n_warps=self.warps(8), lines_per_visit=3, visits_per_row=1,
            row_range=(0.75, 1.0), compute=self.cycles(40.0),
        )
        tail = row_visit_streams(
            self.space, "S", m,
            n_warps=self.warps(12), lines_per_visit=1, visits_per_row=2,
            skew_cycles=1000.0, compute=self.cycles(40.0), row_range=(0.75, 1.0),
        )
        return interleave(*streams, mid, tail)

    def run_kernel(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        s = arrays["S"].astype(np.float64)
        k = arrays["K"].astype(np.float64)
        t = np.maximum(arrays["T"].astype(np.float64), 1e-3)
        v = np.maximum(arrays["V"].astype(np.float64), 1e-3)
        r = 0.02
        # A replayed drop can leave a strike of 0, where s / k divides
        # by zero (0 / 0 beside a zero spot). Such a call is worth its
        # limit as the strike falls to 0: the spot.
        with np.errstate(divide="ignore", invalid="ignore"):
            d1 = (np.log(s / k) + (r + 0.5 * v * v) * t) / (v * np.sqrt(t))
            d2 = d1 - v * np.sqrt(t)
            price = s * _norm_cdf(d1) - k * np.exp(-r * t) * _norm_cdf(d2)
        return np.where(k > 0, price, s)
