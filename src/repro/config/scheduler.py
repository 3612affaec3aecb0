"""Configuration of the lazy memory scheduler (DMS + AMS + VP).

The paper evaluates nine schemes built from three switches:

* DMS mode: off / static (X = 128) / dynamic (BWUTIL-profiled, X in [0, 2048])
* AMS mode: off / static (Th_RBL = 8) / dynamic (coverage-profiled, Th in [1, 8])
* value predictor: nearest-address L2 line (default), plus ablation variants
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError


class DMSMode(enum.Enum):
    """Delayed memory scheduling variant."""

    OFF = "off"
    STATIC = "static"
    DYNAMIC = "dynamic"


class AMSMode(enum.Enum):
    """Approximate memory scheduling variant."""

    OFF = "off"
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass(frozen=True, slots=True)
class DMSConfig:
    """Delayed-memory-scheduling knobs (paper Section IV-B)."""

    mode: DMSMode = DMSMode.OFF
    #: Static delay, and the step/start of the dynamic search (mem cycles).
    static_delay: int = 128
    delay_step: int = 128
    max_delay: int = 2048
    min_delay: int = 0
    #: Profiling window length, memory cycles.
    window_cycles: int = 4096
    #: Restart the dynamic search every this many windows (phase capture).
    windows_per_phase: int = 32
    #: Keep BWUTIL at or above this fraction of the sampled baseline.
    bwutil_threshold: float = 0.95

    def validate(self) -> None:
        """Check ranges; raise :class:`ConfigError` on violation."""
        if self.static_delay < 0 or self.min_delay < 0:
            raise ConfigError("delays must be non-negative")
        if self.max_delay < self.min_delay:
            raise ConfigError("max_delay must be >= min_delay")
        if self.delay_step <= 0 or self.window_cycles <= 0:
            raise ConfigError("delay_step and window_cycles must be positive")
        if not 0.0 < self.bwutil_threshold <= 1.0:
            raise ConfigError("bwutil_threshold must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class AMSConfig:
    """Approximate-memory-scheduling knobs (paper Section IV-C)."""

    mode: AMSMode = AMSMode.OFF
    #: Static RBL threshold; also the upper bound of the dynamic search.
    static_th_rbl: int = 8
    min_th_rbl: int = 1
    max_th_rbl: int = 8
    #: User-defined prediction coverage bound (fraction of global reads).
    coverage_limit: float = 0.10
    #: Profiling window length for Dyn-AMS, memory cycles.
    window_cycles: int = 4096
    #: Number of L2 fills before AMS activates (paper: cache warm-up).
    warmup_fills: int = 64

    def validate(self) -> None:
        """Check ranges; raise :class:`ConfigError` on violation."""
        if not 1 <= self.min_th_rbl <= self.max_th_rbl:
            raise ConfigError("Th_RBL range must satisfy 1 <= min <= max")
        if not self.min_th_rbl <= self.static_th_rbl <= self.max_th_rbl:
            raise ConfigError("static_th_rbl must lie within [min, max]")
        if not 0.0 < self.coverage_limit <= 1.0:
            raise ConfigError("coverage_limit must be in (0, 1]")
        if self.window_cycles <= 0:
            raise ConfigError("window_cycles must be positive")
        if self.warmup_fills < 0:
            raise ConfigError("warmup_fills must be non-negative")


@dataclass(frozen=True, slots=True)
class VPConfig:
    """Value prediction unit knobs (paper Section IV-D)."""

    #: Kind of predictor: "nearest_line" (paper), "last_value", "zero",
    #: or "oracle" (exact values — isolates scheduling effects in ablations).
    kind: str = "nearest_line"
    #: How many sets on each side of the home set to search in the L2 slice.
    search_radius_sets: int = 2

    def validate(self) -> None:
        """Check ranges; raise :class:`ConfigError` on violation."""
        if self.kind not in {"nearest_line", "last_value", "zero", "oracle"}:
            raise ConfigError(f"unknown value predictor kind: {self.kind!r}")
        if self.search_radius_sets < 0:
            raise ConfigError("search_radius_sets must be non-negative")


@dataclass(frozen=True, slots=True)
class SchedulerConfig:
    """Full lazy-scheduler configuration (one per simulated system).

    ``arbiter``/``row_policy`` select the *baseline* policy underneath
    DMS/AMS: the paper's baseline is FR-FCFS with an open-row policy;
    plain FCFS and close-row variants are provided for the ablations
    that justify that choice (Section II-C).
    """

    dms: DMSConfig = DMSConfig()
    ams: AMSConfig = AMSConfig()
    vp: VPConfig = VPConfig()
    #: Candidate-selector name from the policy registry
    #: (:mod:`repro.sched.policies`): "frfcfs" (row hits first), "fcfs"
    #: (strict age order per bank), or "frfcfs-cap" (FR-FCFS with a
    #: row-hit streak cap).
    arbiter: str = "frfcfs"
    #: "open" (keep rows open) or "close" (precharge when no hits pend).
    row_policy: str = "open"
    #: Consecutive row hits one bank may serve while an older row-miss
    #: request waits for it (the "frfcfs-cap" selector only).
    hit_streak_cap: int = 4

    def validate(self) -> None:
        """Validate all sub-configurations."""
        self.dms.validate()
        self.ams.validate()
        self.vp.validate()
        # The arbiter names the candidate selector; consult the selector
        # registry (imported lazily — policies import this module).
        from repro.sched.policies import selector_names

        if self.arbiter not in selector_names():
            raise ConfigError(
                f"unknown arbiter: {self.arbiter!r}; "
                f"registered: {', '.join(selector_names())}"
            )
        if self.row_policy not in {"open", "close"}:
            raise ConfigError(f"unknown row policy: {self.row_policy!r}")
        if self.hit_streak_cap <= 0:
            raise ConfigError("hit_streak_cap must be positive")

    @property
    def name(self) -> str:
        """Human-readable scheme name matching the paper's legend."""
        parts = []
        if self.dms.mode is DMSMode.STATIC:
            parts.append(f"Static-DMS({self.dms.static_delay})")
        elif self.dms.mode is DMSMode.DYNAMIC:
            parts.append("Dyn-DMS")
        if self.ams.mode is AMSMode.STATIC:
            parts.append(f"Static-AMS({self.ams.static_th_rbl})")
        elif self.ams.mode is AMSMode.DYNAMIC:
            parts.append("Dyn-AMS")
        return " + ".join(parts) if parts else "Baseline"


def baseline_scheduler() -> SchedulerConfig:
    """FR-FCFS with no delay and no approximation."""
    return SchedulerConfig()


def static_dms(delay: int = 128) -> SchedulerConfig:
    """Static-DMS with the given delay (paper default 128)."""
    return SchedulerConfig(
        dms=DMSConfig(mode=DMSMode.STATIC, static_delay=delay)
    )


def dyn_dms() -> SchedulerConfig:
    """Dyn-DMS with the paper's profiling parameters."""
    return SchedulerConfig(dms=DMSConfig(mode=DMSMode.DYNAMIC))


def static_ams(th_rbl: int = 8, coverage: float = 0.10) -> SchedulerConfig:
    """Static-AMS with the given threshold (paper default AMS(8), 10 %)."""
    return SchedulerConfig(
        ams=AMSConfig(
            mode=AMSMode.STATIC, static_th_rbl=th_rbl, coverage_limit=coverage
        )
    )


def dyn_ams(coverage: float = 0.10) -> SchedulerConfig:
    """Dyn-AMS with the paper's profiling parameters."""
    return SchedulerConfig(
        ams=AMSConfig(mode=AMSMode.DYNAMIC, coverage_limit=coverage)
    )


def static_combo(delay: int = 128, th_rbl: int = 8) -> SchedulerConfig:
    """Static-DMS + Static-AMS."""
    return SchedulerConfig(
        dms=DMSConfig(mode=DMSMode.STATIC, static_delay=delay),
        ams=AMSConfig(mode=AMSMode.STATIC, static_th_rbl=th_rbl),
    )


def dyn_combo() -> SchedulerConfig:
    """Dyn-DMS + Dyn-AMS (the paper's headline scheme)."""
    return SchedulerConfig(
        dms=DMSConfig(mode=DMSMode.DYNAMIC),
        ams=AMSConfig(mode=AMSMode.DYNAMIC),
    )
