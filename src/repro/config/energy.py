"""DRAM energy model parameters.

The paper's central metric is *row energy*: the energy of the activate,
restore, and precharge operations performed every time a row is opened. It
is proportional to the number of activations, with a technology-dependent
per-activation cost. The paper additionally projects memory-system energy
for HBM1/HBM2, where row energy constitutes ~50 % / ~25 % of total DRAM
energy at baseline (Section V, "Effect on Memory Energy and Peak
Bandwidth").

We therefore model three components:

* ``e_act_nj``        — energy per activation (ACT + restore + PRE), nJ
* ``e_rd_nj/e_wr_nj`` — energy per 128-byte column access, nJ
* ``background_mw``   — static + refresh power per channel, mW

Absolute values are representative of GDDR5-class parts (cf. Chatterjee et
al., HPCA 2017); the reproduced results are all *normalized* so only the
ratios matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class DRAMEnergyParams:
    """Per-operation energy costs for one DRAM technology."""

    technology: str = "GDDR5"
    e_act_nj: float = 3.0
    e_rd_nj: float = 1.2
    e_wr_nj: float = 1.3
    background_mw: float = 150.0
    #: Energy of one all-bank refresh command, nJ.
    e_ref_nj: float = 25.0
    #: Fraction of total DRAM energy attributable to row operations at the
    #: paper's baseline row-buffer locality. Used for the HBM projections.
    baseline_row_energy_fraction: float = 0.35

    def validate(self) -> None:
        """Check ranges; raise :class:`ConfigError` on violation."""
        # NaN and +-Infinity fail these comparisons.
        if not all(
            0 < e < math.inf
            for e in (self.e_act_nj, self.e_rd_nj, self.e_wr_nj)
        ):
            raise ConfigError(
                "per-operation energies must be positive and finite"
            )
        if not 0 <= self.e_ref_nj < math.inf:
            raise ConfigError("refresh energy must be finite and >= 0")
        if not 0 <= self.background_mw < math.inf:
            raise ConfigError("background power must be finite and >= 0")
        if not 0.0 < self.baseline_row_energy_fraction < 1.0:
            raise ConfigError(
                "baseline_row_energy_fraction must be in (0, 1), got "
                f"{self.baseline_row_energy_fraction}"
            )


def gddr5_energy() -> DRAMEnergyParams:
    """GDDR5 energy parameters (row energy ~25-50 % of DRAM energy)."""
    return DRAMEnergyParams()


def hbm1_energy() -> DRAMEnergyParams:
    """HBM1: row energy is ~50 % of memory system energy (paper Section V)."""
    return DRAMEnergyParams(
        technology="HBM1",
        e_act_nj=2.4,
        e_rd_nj=0.5,
        e_wr_nj=0.55,
        background_mw=90.0,
        baseline_row_energy_fraction=0.50,
    )


def hbm2_energy() -> DRAMEnergyParams:
    """HBM2: row energy is ~25 % of memory system energy (paper Section V)."""
    return DRAMEnergyParams(
        technology="HBM2",
        e_act_nj=1.6,
        e_rd_nj=0.7,
        e_wr_nj=0.75,
        background_mw=110.0,
        baseline_row_energy_fraction=0.25,
    )
