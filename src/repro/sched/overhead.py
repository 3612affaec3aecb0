"""Hardware overhead cost model of the lazy scheduler (paper Section IV-E).

The paper enumerates the additional hardware each unit needs on top of the
baseline memory controller and concludes: 1 multiplier, 11 adders, 1 MUX,
3 comparators and 498 bits of buffer space. This module encodes that
inventory so the claim is checkable and can be re-derived per scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.scheduler import AMSMode, DMSMode, SchedulerConfig


@dataclass(frozen=True, slots=True)
class HardwareBudget:
    """Datapath and storage cost of one unit."""

    multipliers: int = 0
    adders: int = 0
    muxes: int = 0
    comparators: int = 0
    buffer_bits: int = 0

    def __add__(self, other: "HardwareBudget") -> "HardwareBudget":
        return HardwareBudget(
            multipliers=self.multipliers + other.multipliers,
            adders=self.adders + other.adders,
            muxes=self.muxes + other.muxes,
            comparators=self.comparators + other.comparators,
            buffer_bits=self.buffer_bits + other.buffer_bits,
        )


#: DMS: one comparator + one adder; 16-bit current-delay counter.
DMS_COMMON = HardwareBudget(adders=1, comparators=1, buffer_bits=16)
#: Dyn-DMS adds: 32-bit baseline BWUTIL, 32-bit current BWUTIL,
#: 16-bit profiling cycle counter, 8-bit window counter.
DYN_DMS_EXTRA = HardwareBudget(buffer_bits=32 + 32 + 16 + 8)

#: AMS: multiplier + adder + comparator; 1 bit read/write condition,
#: 1 bit memory-space condition, two 64-bit request/approx counters,
#: 8-bit RBL counter, 8-bit Th_RBL, 32-bit dropped-row index.
AMS_COMMON = HardwareBudget(
    multipliers=1,
    adders=1,
    comparators=1,
    buffer_bits=1 + 1 + 64 + 64 + 8 + 8 + 32,
)
#: Dyn-AMS adds a 16-bit profiling cycle counter.
DYN_AMS_EXTRA = HardwareBudget(buffer_bits=16)

#: VP unit: nine adders, one MUX, one comparator; 8-bit radius,
#: 64-bit dropped-request tag, two 64-bit distance/address registers.
VP_UNIT = HardwareBudget(
    adders=9,
    muxes=1,
    comparators=1,
    buffer_bits=8 + 64 + 64 + 64,
)


def scheduler_overhead(config: SchedulerConfig) -> HardwareBudget:
    """Hardware needed for the given scheme, per memory controller."""
    total = HardwareBudget()
    if config.dms.mode is not DMSMode.OFF:
        total = total + DMS_COMMON
        if config.dms.mode is DMSMode.DYNAMIC:
            total = total + DYN_DMS_EXTRA
    if config.ams.mode is not AMSMode.OFF:
        total = total + AMS_COMMON + VP_UNIT
        if config.ams.mode is AMSMode.DYNAMIC:
            total = total + DYN_AMS_EXTRA
    return total


def full_lazy_scheduler_overhead() -> HardwareBudget:
    """The paper's headline total: Dyn-DMS + Dyn-AMS + VP unit.

    Matches Section IV-E: 1 multiplier, 11 adders, 1 MUX, 3 comparators,
    498 bits of buffer space.
    """
    return (
        DMS_COMMON
        + DYN_DMS_EXTRA
        + AMS_COMMON
        + DYN_AMS_EXTRA
        + VP_UNIT
    )
