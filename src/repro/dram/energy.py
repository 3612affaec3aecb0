"""DRAM energy accounting.

Row energy — the paper's primary metric — is the energy of activate +
restore + precharge, i.e. proportional to the activation count. Access
energy covers row-buffer column reads/writes; background energy covers
static and refresh power over the simulated interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.config.energy import DRAMEnergyParams
from repro.dram.stats import ChannelStats


@dataclass(frozen=True, slots=True)
class EnergyBreakdown:
    """Energy totals for a simulation, in nanojoules."""

    row_nj: float
    access_nj: float
    background_nj: float
    #: ECC encode/check energy (0.0 — and omitted from the JSON form —
    #: unless an ECC read path was active).
    ecc_nj: float = 0.0

    @property
    def total_nj(self) -> float:
        """All components."""
        return (
            self.row_nj + self.access_nj + self.background_nj + self.ecc_nj
        )

    @property
    def row_fraction(self) -> float:
        """Share of total energy spent on row operations."""
        total = self.total_nj
        return self.row_nj / total if total else 0.0


def compute_energy(
    stats: Iterable[ChannelStats],
    params: DRAMEnergyParams,
    elapsed_mem_cycles: float,
    mem_clock_mhz: float,
    *,
    ecc_nj: float = 0.0,
) -> EnergyBreakdown:
    """Aggregate per-channel statistics into an energy breakdown.

    ``background_nj`` = power (mW) x wall time (us) per channel; wall time
    is ``elapsed_mem_cycles / mem_clock_mhz`` microseconds. ``ecc_nj`` is
    the encode/check energy accumulated by the ECC read paths (zero when
    no ECC is configured).
    """
    activations = reads = writes = refreshes = 0
    channels = 0
    for s in stats:
        channels += 1
        activations += s.activations
        reads += s.reads_served
        writes += s.writes_served
        refreshes += s.refreshes
    elapsed_us = elapsed_mem_cycles / mem_clock_mhz if mem_clock_mhz else 0.0
    return EnergyBreakdown(
        row_nj=activations * params.e_act_nj,
        access_nj=reads * params.e_rd_nj + writes * params.e_wr_nj,
        background_nj=(
            params.background_mw * elapsed_us * channels
            + refreshes * params.e_ref_nj
        ),
        ecc_nj=ecc_nj,
    )


def project_memory_system_energy(
    baseline_row_nj: float,
    scheme_row_nj: float,
    params: DRAMEnergyParams,
    *,
    baseline_other_nj: float | None = None,
) -> float:
    """Project total memory-system energy ratio for a technology.

    The paper (Section V, "Effect on Memory Energy") weighs the row-energy
    reduction by the technology's baseline row-energy fraction: HBM1 ~50 %,
    HBM2 ~25 %. Non-row energy is assumed unchanged by the scheduler (a
    slightly conservative assumption: AMS also removes column accesses).

    Returns the scheme's memory system energy normalized to baseline.
    """
    f = params.baseline_row_energy_fraction
    if baseline_row_nj <= 0:
        return 1.0
    row_ratio = scheme_row_nj / baseline_row_nj
    if baseline_other_nj is None:
        return f * row_ratio + (1.0 - f)
    total = baseline_row_nj / f  # implied baseline total from the fraction
    other = total - baseline_row_nj
    return (scheme_row_nj + other) / total
