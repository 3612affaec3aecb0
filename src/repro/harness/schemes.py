"""The evaluated scheduling schemes, declared as policy compositions.

Every scheme the harness knows is a :class:`SchemeDef` — a declarative
composition over the policy registries of :mod:`repro.sched.policies`:
a candidate-selector name plus DMS/AMS modes. :data:`SCHEME_DEFS` is the
full catalogue (the paper's Fig. 12 legend plus the baseline-arbiter
ablations); :func:`evaluation_schemes` materialises the Fig. 12 subset
and :func:`scheme_by_id` any single entry. :func:`resolve_scheme` is the
one place a name a user typed becomes a scheme.

Dynamic schemes profile in windows of 4096 memory cycles in the paper,
whose applications run for hundreds of millions of cycles. Our traces
are minutes-of-Python long, so the harness scales the profiling window
(default 1024 cycles, 16 windows per phase) — the state machines are
identical, only the sampling period changes. Pass
``window_cycles=4096, windows_per_phase=32`` to reproduce the paper's
literal constants on long traces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.config.scheduler import (
    AMSConfig,
    AMSMode,
    DMSConfig,
    DMSMode,
    SchedulerConfig,
    static_dms,
)
from repro.errors import ConfigError

#: Harness-scaled profiling constants (see module docstring).
WINDOW_CYCLES = 1024
WINDOWS_PER_PHASE = 16


@dataclass(frozen=True)
class SchemeDef:
    """One scheme as a declarative policy composition.

    ``selector`` names a candidate selector from the policy registry;
    ``dms``/``ams`` are the unit modes. :meth:`build` materialises the
    :class:`SchedulerConfig` with the harness profiling constants.
    """

    #: Stable registry-style id (CLI ``--schemes`` tokens).
    id: str
    #: Paper-legend label (Fig. 12) used in tables and result keys.
    label: str
    selector: str = "frfcfs"
    dms: DMSMode = DMSMode.OFF
    ams: AMSMode = AMSMode.OFF
    description: str = ""

    def build(
        self,
        *,
        window_cycles: int = WINDOW_CYCLES,
        windows_per_phase: int = WINDOWS_PER_PHASE,
        coverage: float = 0.10,
    ) -> SchedulerConfig:
        """The concrete :class:`SchedulerConfig` of this composition."""
        return SchedulerConfig(
            arbiter=self.selector,
            dms=DMSConfig(
                mode=self.dms,
                window_cycles=window_cycles,
                windows_per_phase=windows_per_phase,
            ),
            ams=AMSConfig(
                mode=self.ams,
                window_cycles=window_cycles,
                coverage_limit=coverage,
            ),
        )


#: The full scheme catalogue. Order matters: tables list schemes in this
#: order, and the Fig. 12 subset is the contiguous run of ``figure12``
#: entries.
SCHEME_DEFS: tuple[SchemeDef, ...] = (
    SchemeDef(
        id="frfcfs", label="Baseline",
        description="FR-FCFS, open rows (paper Table I baseline)",
    ),
    SchemeDef(
        id="fcfs", label="FCFS", selector="fcfs",
        description="strict per-bank age order (Section II-C ablation)",
    ),
    SchemeDef(
        id="frfcfs-cap", label="FR-FCFS-Cap", selector="frfcfs-cap",
        description="FR-FCFS with a row-hit streak cap (starvation bound)",
    ),
    SchemeDef(
        id="static-dms", label="Static-DMS", dms=DMSMode.STATIC,
        description="fixed 128-cycle activation delay (Section IV-B)",
    ),
    SchemeDef(
        id="dyn-dms", label="Dyn-DMS", dms=DMSMode.DYNAMIC,
        description="BWUTIL-profiled activation delay (Section IV-B)",
    ),
    SchemeDef(
        id="static-ams", label="Static-AMS", ams=AMSMode.STATIC,
        description="drop rows with RBL <= 8, 10% coverage (Section IV-C)",
    ),
    SchemeDef(
        id="dyn-ams", label="Dyn-AMS", ams=AMSMode.DYNAMIC,
        description="coverage-profiled RBL threshold (Section IV-C)",
    ),
    SchemeDef(
        id="static-dms+static-ams", label="Static-DMS+Static-AMS",
        dms=DMSMode.STATIC, ams=AMSMode.STATIC,
        description="both static units combined",
    ),
    SchemeDef(
        id="dyn-dms+dyn-ams", label="Dyn-DMS+Dyn-AMS",
        dms=DMSMode.DYNAMIC, ams=AMSMode.DYNAMIC,
        description="the paper's headline scheme (Fig. 12)",
    ),
)

_BY_ID = {d.id: d for d in SCHEME_DEFS}
_BY_LABEL = {d.label: d for d in SCHEME_DEFS}
#: Sweep-friendly aliases (case-insensitive) of catalogue ids.
_ALIASES = {"base": "frfcfs", "dms": "static-dms", "ams": "static-ams"}

#: The Fig. 12 legend, in figure order (delay-only prefix first).
_FIG12_DELAY_IDS = ("frfcfs", "static-dms", "dyn-dms")
_FIG12_AMS_IDS = (
    "static-ams", "dyn-ams", "static-dms+static-ams", "dyn-dms+dyn-ams"
)


def scheme_ids() -> list[str]:
    """Every catalogued scheme id, in table order."""
    return [d.id for d in SCHEME_DEFS]


def scheme_def(scheme_id: str) -> SchemeDef:
    """The catalogue entry for ``scheme_id``."""
    try:
        return _BY_ID[scheme_id]
    except KeyError:
        raise ConfigError(
            f"unknown scheme id {scheme_id!r}; "
            f"known: {', '.join(scheme_ids())}"
        ) from None


def scheme_by_id(
    scheme_id: str,
    *,
    window_cycles: int = WINDOW_CYCLES,
    windows_per_phase: int = WINDOWS_PER_PHASE,
    coverage: float = 0.10,
) -> SchedulerConfig:
    """Materialise one catalogued scheme by id."""
    return scheme_def(scheme_id).build(
        window_cycles=window_cycles,
        windows_per_phase=windows_per_phase,
        coverage=coverage,
    )


def resolve_scheme(name: str) -> tuple[str, SchedulerConfig]:
    """A scheme name -> (table label, scheduler configuration).

    ``name`` is a catalogue id (``dyn-dms``), its label (``Dyn-DMS``,
    as in the Fig. 12 legend), or a sweep alias: ``base`` (the FR-FCFS
    baseline), ``dms`` / ``ams`` (the static DMS / AMS schemes), or
    ``dmsN`` (Static-DMS with an ``N x 128``-cycle activation delay,
    labelled ``Static-DMS(<delay>)``).
    """
    text = name.strip()
    if not text:
        raise ConfigError("empty scheme name")
    lowered = text.lower()
    match = re.fullmatch(r"dms(\d+)", lowered)
    if match:
        delay = int(match.group(1)) * 128
        return f"Static-DMS({delay})", static_dms(delay)
    definition = (
        _BY_ID.get(_ALIASES.get(lowered, text)) or _BY_LABEL.get(text)
    )
    if definition is None:
        raise ConfigError(
            f"unknown scheme {name!r}; known: the ids "
            f"{', '.join(scheme_ids())}, their labels, or "
            "base / dms / ams / dmsN"
        )
    return definition.label, definition.build()


def evaluation_schemes(
    *,
    window_cycles: int = WINDOW_CYCLES,
    windows_per_phase: int = WINDOWS_PER_PHASE,
    coverage: float = 0.10,
    include_ams: bool = True,
) -> dict[str, SchedulerConfig]:
    """The Fig. 12 scheme set, keyed by the paper's legend labels.

    With ``include_ams=False`` only the delay-only schemes are returned
    (the Fig. 15 set used for low-error-tolerance applications).
    """
    ids = _FIG12_DELAY_IDS + (_FIG12_AMS_IDS if include_ams else ())
    return {
        _BY_ID[i].label: _BY_ID[i].build(
            window_cycles=window_cycles,
            windows_per_phase=windows_per_phase,
            coverage=coverage,
        )
        for i in ids
    }
