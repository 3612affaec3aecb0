"""Bit-flip fault-injection configuration (the ``faults`` spec section).

Reduced-latency DRAM operation trades reliability for speed: reads
issued with a shortened tRCD sample the sense amplifiers before the
cells have fully restored, and a shortened tRP precharges bitlines
before they settle (Chang et al., "Understanding Reduced-Latency DRAM",
and the Flexible-Latency DRAM follow-up quantify exactly this). The
:class:`FaultConfig` here parameterises that trade-off as a per-bit
flip probability per read that *grows exponentially* as tRCD/tRP fall
below their nominal values — faster timing schemes see more raw bit
errors, which the ECC layer (:mod:`repro.dram.ecc`) then corrects,
detects, or silently passes through.

The configuration is part of :class:`~repro.sim.spec.SimSpec` (and
therefore of the content-addressed cache key): two runs differing in
any fault field simulate — and cache — independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

#: Nominal (reference) timings of the Table I GDDR5 baseline; fault
#: probability is defined relative to these.
NOMINAL_TRCD = 12
NOMINAL_TRP = 12


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Deterministic DRAM read bit-flip model.

    ``p_bit`` is the per-bit flip probability per read *at nominal
    timings*; the effective probability scales by
    ``exp(sensitivity * ((nominal_trcd - tRCD) + (nominal_trp - tRP)))``
    so each cycle shaved off tRCD or tRP multiplies the raw bit-error
    rate — the exponential shape follows the restore-truncation
    measurements of the reduced-latency DRAM literature. Timings
    *slower* than nominal reduce the probability symmetrically.
    """

    #: Master switch; False keeps the read path entirely fault-free.
    enabled: bool = False
    #: Per-bit flip probability per read at nominal tRCD/tRP.
    p_bit: float = 1e-9
    #: Global multiplier on the effective probability (sweep knob).
    scale: float = 1.0
    #: Exponent per cycle of tRCD/tRP reduction below nominal.
    sensitivity: float = 0.45
    #: Reference timings the probability is calibrated against.
    nominal_trcd: int = NOMINAL_TRCD
    nominal_trp: int = NOMINAL_TRP

    def validate(self) -> None:
        """Raise :class:`ConfigError` on an unusable configuration."""
        if not 0.0 <= self.p_bit <= 1.0:
            raise ConfigError(
                f"faults.p_bit must be in [0, 1], got {self.p_bit}"
            )
        # NaN and +-Infinity fail these comparisons.
        if not 0.0 <= self.scale < math.inf:
            raise ConfigError(
                f"faults.scale must be finite and >= 0, got {self.scale}"
            )
        if not 0.0 <= self.sensitivity < math.inf:
            raise ConfigError(
                "faults.sensitivity must be finite and >= 0, got "
                f"{self.sensitivity}"
            )
        if self.nominal_trcd <= 0 or self.nominal_trp <= 0:
            raise ConfigError(
                "faults.nominal_trcd/nominal_trp must be positive"
            )

    # ------------------------------------------------------------------
    def effective_p_bit(self, trcd: float, trp: float) -> float:
        """Per-bit flip probability at the given timings (capped at 0.5).

        Lower tRCD/tRP than nominal raises the probability
        exponentially; higher lowers it. Disabled or zero-probability
        configurations return exactly 0.0 so the injector can be
        skipped entirely.
        """
        if not self.enabled:
            return 0.0
        base = self.p_bit * self.scale
        if base <= 0.0:
            return 0.0
        shortfall = (self.nominal_trcd - trcd) + (self.nominal_trp - trp)
        return min(0.5, base * math.exp(self.sensitivity * shortfall))
