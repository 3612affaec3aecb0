"""Reliability Pareto sweep: scheme x device x ECC code.

The paper trades DRAM energy against application-level error; the ECC
layer adds the third axis — reliability. This experiment sweeps
scheduling schemes x DRAM devices x ECC codes with the bit-flip fault
injector enabled and emits one row per cell: total DRAM energy,
application error (AMS replay), the analytic silent-corruption FIT, and
the carbon-per-GiB-year estimate. Rows no other row dominates on
(energy, app-error, FIT) form the Pareto frontier (marked ``*``).

Scheme names go through :func:`repro.harness.schemes.resolve_scheme`, so
the sweep-friendly aliases ``base``, ``dms``, ``ams`` and ``dmsN`` work
beside catalogue ids and Fig. 12 labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.faults import FaultConfig
from repro.harness.cache import ResultCache
from repro.harness.runner import Runner
from repro.harness.schemes import resolve_scheme
from repro.sim.report import SimReport
from repro.sim.spec import SimSpec

#: Default per-bit flip probability for sweeps: high enough that a
#: scaled-down trace still sees a statistically meaningful number of
#: flips, low enough that SEC-DED keeps multi-flip words rare.
DEFAULT_SWEEP_P_BIT = 2e-6


@dataclass
class ParetoRow:
    """One (app, scheme, device, ecc) cell of the sweep."""

    app: str
    scheme: str
    device: str
    ecc: str
    energy_nj: float
    row_energy_nj: float
    app_error: float
    fit: float
    carbon_g_per_gib_year: float
    flips_injected: int
    words_silent: int
    #: Set by :func:`mark_frontier`.
    frontier: bool = False

    @classmethod
    def from_report(
        cls, app: str, scheme: str, device: str, ecc: str,
        report: SimReport,
    ) -> "ParetoRow":
        summary = report.ecc
        return cls(
            app=app,
            scheme=scheme,
            device=device,
            ecc=ecc,
            energy_nj=report.energy.total_nj,
            row_energy_nj=report.energy.row_nj,
            app_error=report.application_error or 0.0,
            fit=summary.fit if summary is not None else 0.0,
            carbon_g_per_gib_year=(
                summary.carbon_g_per_gib_year if summary is not None else 0.0
            ),
            flips_injected=(
                summary.flips_injected if summary is not None else 0
            ),
            words_silent=(
                summary.words_silent if summary is not None else 0
            ),
        )

    def objectives(self) -> tuple[float, float, float]:
        """The minimised axes: (row energy, app error, FIT)."""
        return (self.row_energy_nj, self.app_error, self.fit)

    def to_dict(self) -> dict:
        """JSON row for ``--json`` output."""
        return {
            "app": self.app,
            "scheme": self.scheme,
            "device": self.device,
            "ecc": self.ecc,
            "energy_nj": self.energy_nj,
            "row_energy_nj": self.row_energy_nj,
            "app_error": self.app_error,
            "fit": self.fit,
            "carbon_g_per_gib_year": self.carbon_g_per_gib_year,
            "flips_injected": self.flips_injected,
            "words_silent": self.words_silent,
            "frontier": self.frontier,
        }


def _dominates(a: ParetoRow, b: ParetoRow) -> bool:
    """Whether ``a`` is at least as good as ``b`` everywhere and
    strictly better somewhere (all objectives minimised)."""
    ao, bo = a.objectives(), b.objectives()
    return all(x <= y for x, y in zip(ao, bo)) and any(
        x < y for x, y in zip(ao, bo)
    )


def mark_frontier(rows: list[ParetoRow]) -> list[ParetoRow]:
    """Set ``frontier`` on every non-dominated row (per app) in place."""
    by_app: dict[str, list[ParetoRow]] = {}
    for row in rows:
        by_app.setdefault(row.app, []).append(row)
    for group in by_app.values():
        for row in group:
            row.frontier = not any(
                _dominates(other, row)
                for other in group if other is not row
            )
    return rows


def run_pareto(
    *,
    apps: list[str],
    scheme_tokens: list[str],
    devices: list[str],
    ecc_codes: list[str],
    scale: float = 0.25,
    seed: int = 7,
    p_bit: float = DEFAULT_SWEEP_P_BIT,
    fault_scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    verbose: bool = True,
) -> list[ParetoRow]:
    """Simulate the whole sweep and return frontier-marked rows.

    Cells are grouped per (device, ecc) into one :class:`Runner` matrix
    each (sharing ``cache``), so ``--jobs`` parallelism applies within
    every group and identical cells are deduplicated by content key.
    AMS application error is always measured — it is one of the
    frontier axes.
    """
    from repro.dram.ecc import get_ecc

    schemes = dict(resolve_scheme(t) for t in scheme_tokens)
    for code in ecc_codes:
        get_ecc(code)  # raises ConfigError on unknown codes
    faults = FaultConfig(enabled=True, p_bit=p_bit, scale=fault_scale)
    rows: list[ParetoRow] = []
    for device in devices:
        for code in ecc_codes:
            runner = Runner(
                scale=scale,
                seed=seed,
                spec=SimSpec(device=device, ecc=code, faults=faults),
                verbose=verbose,
                jobs=jobs,
                cache=cache,
            )
            try:
                results = runner.run_matrix(
                    apps, schemes, measure_error=True
                )
            finally:
                runner.close()
            for app in apps:
                for label in schemes:
                    rows.append(
                        ParetoRow.from_report(
                            app, label, device, code,
                            results[(app, label)],
                        )
                    )
    # Deterministic row order regardless of device/ecc loop structure or
    # --jobs level, so `pareto --json` diffs cleanly against a pinned
    # baseline.
    rows.sort(key=lambda r: (r.app, r.scheme, r.device, r.ecc))
    return mark_frontier(rows)


def format_pareto_table(rows: list[ParetoRow]) -> str:
    """The frontier table: one line per cell, ``*`` marks the frontier."""
    headers = (
        "app", "scheme", "device", "ecc",
        "energy_uJ", "row_uJ", "app_err", "FIT", "carbon_g/GiB-yr",
        "front",
    )
    body = [
        (
            row.app,
            row.scheme,
            row.device,
            row.ecc,
            f"{row.energy_nj / 1e3:.2f}",
            f"{row.row_energy_nj / 1e3:.2f}",
            f"{row.app_error:.2%}",
            f"{row.fit:.3g}",
            f"{row.carbon_g_per_gib_year:.1f}",
            "*" if row.frontier else "",
        )
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(line[i]) for line in body))
        if body else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(line: tuple) -> str:
        return "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(line)
        ).rstrip()

    out = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    out.extend(fmt(line) for line in body)
    frontier = sum(1 for row in rows if row.frontier)
    out.append("")
    out.append(
        f"{frontier} of {len(rows)} cells on the "
        "(row-energy x app-error x FIT) frontier"
    )
    return "\n".join(out)
