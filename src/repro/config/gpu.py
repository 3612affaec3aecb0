"""Top-level GPU configuration (Table I of the paper)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.config.address import AddressMapping
from repro.config.energy import DRAMEnergyParams, gddr5_energy
from repro.config.timing import DRAMTimings, gddr5_timings
from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class L2Config:
    """Per-memory-partition L2 cache slice (Table I: 128 KB, 8-way, 128 B)."""

    size_bytes: int = 128 * 1024
    associativity: int = 8
    line_bytes: int = 128
    mshr_entries: int = 256
    #: L2 lookup latency in core cycles (tag + data access).
    hit_latency_core: int = 32

    @property
    def num_sets(self) -> int:
        """Number of cache sets in this slice."""
        return self.size_bytes // (self.line_bytes * self.associativity)

    def validate(self) -> None:
        """Check geometry; raise :class:`ConfigError` on violation."""
        if min(self.size_bytes, self.line_bytes, self.associativity) <= 0:
            raise ConfigError("L2 size, line size and ways must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigError("L2 size must be a whole number of sets")
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(
                f"L2 set count must be a power of two, got {self.num_sets}"
            )
        if self.mshr_entries <= 0:
            raise ConfigError("MSHR count must be positive")


@dataclass(frozen=True, slots=True)
class GPUConfig:
    """The simulated GPU: clocks, SM array, memory system geometry.

    Defaults reproduce Table I: 30 SMs at 1400 MHz, 48 warps/SM, 6 GDDR5
    memory controllers at 924 MHz with FR-FCFS and a 128-entry pending queue.
    """

    num_sms: int = 30
    max_warps_per_sm: int = 48
    threads_per_warp: int = 32
    core_clock_mhz: float = 1400.0
    mem_clock_mhz: float = 924.0
    #: One-way interconnect latency, core cycles (crossbar + queuing).
    interconnect_latency_core: int = 16
    pending_queue_size: int = 128
    #: Model all-bank refresh (off by default; see DESIGN.md §5).
    refresh_enabled: bool = False
    #: Ops a warp may have in flight (1 = per-op memory barrier; >1 adds
    #: scoreboard-style memory-level parallelism per warp).
    max_outstanding_ops_per_warp: int = 1
    l2: L2Config = field(default_factory=L2Config)
    mapping: AddressMapping = field(default_factory=AddressMapping)
    timings: DRAMTimings = field(default_factory=gddr5_timings)
    energy: DRAMEnergyParams = field(default_factory=gddr5_energy)

    @property
    def core_to_mem_ratio(self) -> float:
        """Core cycles per memory cycle (~1.515 for Table I)."""
        return self.core_clock_mhz / self.mem_clock_mhz

    def core_to_mem(self, core_cycles: float) -> float:
        """Convert a duration from core cycles to memory cycles."""
        return core_cycles / self.core_to_mem_ratio

    def mem_to_core(self, mem_cycles: float) -> float:
        """Convert a duration from memory cycles to core cycles."""
        return mem_cycles * self.core_to_mem_ratio

    def validate(self) -> None:
        """Validate the whole configuration tree."""
        if self.num_sms <= 0 or self.max_warps_per_sm <= 0:
            raise ConfigError("SM and warp counts must be positive")
        for key in ("core_clock_mhz", "mem_clock_mhz"):
            clock = getattr(self, key)
            # NaN and +-Infinity fail this comparison.
            if not 0 < clock < math.inf:
                raise ConfigError(
                    f"config.{key} must be positive and finite, "
                    f"got {clock}"
                )
        if self.pending_queue_size <= 0:
            raise ConfigError("pending queue size must be positive")
        if self.max_outstanding_ops_per_warp <= 0:
            raise ConfigError(
                "max_outstanding_ops_per_warp must be positive"
            )
        self.l2.validate()
        self.mapping.validate()
        self.timings.validate()
        self.energy.validate()
