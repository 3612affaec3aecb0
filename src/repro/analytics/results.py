"""The ``ExperimentResults`` facade: aggregates, CIs, regression gates.

One object wraps a :class:`~repro.analytics.warehouse.Warehouse` and
exposes everything the report templates, the ``report`` CLI, and the
service's ``GET /v1/experiments/summary`` endpoint need — as
lazily-computed, memoized properties (``functools.cached_property``),
so the expensive statistics run at most once per object no matter how
many template fields reference them. The CLI render and the service
endpoint both call :meth:`ExperimentResults.summary`, which is what
makes "the dashboard agrees with the report" a structural guarantee
rather than a test assertion.

Aggregation model: rows group by **(app, scheme, device, ecc)**; the
seeds within a group are the sample. Headline metrics get percentile
bootstrap CIs across seeds; row-energy *savings* are computed
seed-paired against the baseline scheme of the same (app, device, ecc)
so per-seed workload variance cancels instead of inflating the CI.

Regression gating compares a current snapshot against a pinned baseline
snapshot with Mann–Whitney U tests (Holm-adjusted across the family)
plus a minimum-effect filter. With fewer than ``min_samples`` seeds per
side the U test is physically incapable of reaching significance (2v2
caps at p ≈ 0.33), so the gate degrades to an honest effect-size-only
check, labeled ``delta-only`` in the verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.analytics.stats import (
    BootstrapCI,
    bootstrap_ci,
    holm_adjust,
    mann_whitney_u,
    mean,
)
from repro.analytics.warehouse import Warehouse
from repro.config.warehouse import WarehouseSpec

#: Snapshot document version (``report render --snapshot-out``).
SNAPSHOT_VERSION = 1

#: Optimization direction per gated metric: ``"min"`` = lower is
#: better (an increase is a regression), ``"max"`` = the reverse.
METRIC_DIRECTIONS = {
    "row_energy_nj": "min",
    "app_error": "min",
    "fit": "min",
    "ipc": "max",
    "coverage": "max",
    "bwutil": "max",
    "jain_fairness": "max",
}

#: Metrics summarized with CIs in every report group.
SUMMARY_METRICS = ("row_energy_nj", "app_error", "fit", "ipc", "coverage")


def _group_key(row: dict) -> tuple:
    return (
        row["app"],
        row["scheme"],
        row.get("device") or "",
        row.get("ecc") or "",
    )


def _sortable(seed: Any) -> tuple:
    # NULL seeds (pre-warehouse blobs) sort after real ones, stably.
    return (seed is None, seed if seed is not None else 0)


@dataclass(frozen=True)
class Regression:
    """One significant regression verdict from the gate."""

    app: str
    scheme: str
    device: str
    ecc: str
    metric: str
    direction: str
    baseline_mean: float
    current_mean: float
    #: Relative change in the *worse* direction (positive = worse).
    rel_delta: float
    #: Holm-adjusted two-sided p-value; None on the delta-only path.
    p_value: Optional[float]
    #: ``"mann-whitney"`` or ``"delta-only"`` (too few seeds to test).
    method: str

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "scheme": self.scheme,
            "device": self.device,
            "ecc": self.ecc,
            "metric": self.metric,
            "direction": self.direction,
            "baseline_mean": self.baseline_mean,
            "current_mean": self.current_mean,
            "rel_delta": self.rel_delta,
            "p_value": self.p_value,
            "method": self.method,
        }


@dataclass
class ExperimentResults:
    """Lazily-computed analysis view over a results warehouse.

    The object is cheap to construct; every aggregate below it is a
    ``cached_property`` computed on first touch. Construct a fresh
    object after re-ingesting — memoized state deliberately never
    invalidates. ``spec`` carries the statistics and gate settings
    (baseline scheme, bootstrap confidence and resamples, gate
    thresholds and metrics), so the CLI and the service read one set.
    """

    warehouse: Warehouse
    spec: WarehouseSpec = WarehouseSpec()

    # ------------------------------------------------------------------
    @cached_property
    def rows(self) -> list[dict]:
        """All experiment rows, in the warehouse's deterministic order."""
        return self.warehouse.rows()

    @cached_property
    def groups(self) -> dict[tuple, list[dict]]:
        """Rows bucketed by (app, scheme, device, ecc), seed-sorted."""
        buckets: dict[tuple, list[dict]] = {}
        for row in self.rows:
            buckets.setdefault(_group_key(row), []).append(row)
        for bucket in buckets.values():
            bucket.sort(key=lambda r: _sortable(r.get("seed")))
        return dict(sorted(buckets.items()))

    def samples(self, key: tuple, metric: str) -> list[float]:
        """Per-seed values of ``metric`` in group ``key`` (None dropped)."""
        return [
            float(row[metric])
            for row in self.groups.get(key, [])
            if row.get(metric) is not None
        ]

    def _ci(self, values: Sequence[float]) -> Optional[BootstrapCI]:
        if not values:
            return None
        return bootstrap_ci(
            values, confidence=self.spec.confidence,
            resamples=self.spec.resamples,
        )

    @cached_property
    def metric_cis(self) -> dict[tuple, dict[str, Optional[BootstrapCI]]]:
        """Bootstrap CI of each summary metric, per group."""
        return {
            key: {
                metric: self._ci(self.samples(key, metric))
                for metric in SUMMARY_METRICS
            }
            for key in self.groups
        }

    # ------------------------------------------------------------------
    @cached_property
    def row_energy_savings(self) -> dict[tuple, Optional[BootstrapCI]]:
        """Seed-paired row-energy savings vs the baseline scheme.

        For group (app, S, device, ecc) with S != baseline, the per-seed
        sample is ``1 - E_S(seed) / E_base(seed)`` over the seeds both
        groups share. Pairing cancels per-seed workload variance — with
        2 seeds an unpaired CI of the savings would be uselessly wide.
        """
        out: dict[tuple, Optional[BootstrapCI]] = {}
        for key, rows in self.groups.items():
            app, scheme, device, ecc = key
            if scheme == self.spec.baseline_scheme:
                out[key] = None
                continue
            base_rows = self.groups.get(
                (app, self.spec.baseline_scheme, device, ecc), []
            )
            base_by_seed = {
                r.get("seed"): r for r in base_rows
                if r.get("row_energy_nj") is not None
            }
            paired = []
            for row in rows:
                base = base_by_seed.get(row.get("seed"))
                if base is None or not base["row_energy_nj"]:
                    continue
                paired.append(
                    1.0 - row["row_energy_nj"] / base["row_energy_nj"]
                )
            out[key] = self._ci(paired)
        return out

    @cached_property
    def tenant_summary(self) -> dict:
        """Fairness / slowdown rollup over all multi-tenant rows."""
        rows = self.warehouse.tenant_rows()
        if not rows:
            return {"n_rows": 0, "by_class": {}, "jain_fairness": None}
        by_class: dict[str, list[float]] = {}
        for row in rows:
            if row.get("slowdown") is not None:
                by_class.setdefault(row["tenant_class"], []).append(
                    float(row["slowdown"])
                )
        jain_values = sorted({
            (r["content_key"], r["jain_fairness"])
            for r in rows if r.get("jain_fairness") is not None
        })
        return {
            "n_rows": len(rows),
            "by_class": {
                cls: self._ci(vals).to_dict()
                for cls, vals in sorted(by_class.items())
            },
            "jain_fairness": (
                ci.to_dict()
                if (ci := self._ci([v for _k, v in jain_values]))
                else None
            ),
        }

    @cached_property
    def failure_count(self) -> int:
        return len(self.warehouse.failures())

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """The canonical aggregate document.

        This exact structure is rendered by the markdown/HTML templates
        *and* returned verbatim by ``GET /v1/experiments/summary`` —
        one code path, two consumers. Deterministic: groups are sorted
        by (app, scheme, device, ecc) and every number is a pure
        function of the warehouse contents and the statistics settings.
        """
        groups = []
        for key, rows in self.groups.items():
            app, scheme, device, ecc = key
            cis = self.metric_cis[key]
            savings = self.row_energy_savings[key]
            jain = [
                float(r["jain_fairness"]) for r in rows
                if r.get("jain_fairness") is not None
            ]
            groups.append({
                "app": app,
                "scheme": scheme,
                "device": device or None,
                "ecc": ecc or None,
                "seeds": [r.get("seed") for r in rows],
                "n": len(rows),
                "metrics": {
                    metric: (ci.to_dict() if ci is not None else None)
                    for metric, ci in cis.items()
                },
                "row_energy_savings": (
                    savings.to_dict() if savings is not None else None
                ),
                "jain_fairness": (
                    self._ci(jain).to_dict() if jain else None
                ),
            })
        return {
            "baseline_scheme": self.spec.baseline_scheme,
            "confidence": self.spec.confidence,
            "resamples": self.spec.resamples,
            "n_experiments": len(self.rows),
            "n_groups": len(groups),
            "n_failures": self.failure_count,
            "groups": groups,
            "tenants": self.tenant_summary,
        }

    def snapshot(self) -> dict:
        """Pinnable raw-sample snapshot for future ``report diff`` runs.

        Carries the per-seed samples (not just aggregates) because the
        regression gate runs rank tests on the raw values.
        """
        groups = []
        for key, rows in self.groups.items():
            app, scheme, device, ecc = key
            groups.append({
                "app": app,
                "scheme": scheme,
                "device": device or None,
                "ecc": ecc or None,
                "seeds": [r.get("seed") for r in rows],
                "samples": {
                    metric: self.samples(key, metric)
                    for metric in SUMMARY_METRICS
                },
            })
        return {
            "version": SNAPSHOT_VERSION,
            "baseline_scheme": self.spec.baseline_scheme,
            "groups": groups,
        }

    # ------------------------------------------------------------------
    def regressions_against(self, baseline_snapshot: dict) -> list[Regression]:
        """Gate the current warehouse against a pinned snapshot.

        For every (group, metric) present on both sides, a candidate
        regression needs a worse-direction relative mean delta above
        ``min_effect``; with at least ``min_samples`` seeds per side it
        additionally needs a Holm-adjusted Mann–Whitney p ≤ ``alpha``.
        Returns the surviving regressions in deterministic group order.
        """
        if baseline_snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                "baseline snapshot version mismatch: "
                f"{baseline_snapshot.get('version')!r} != {SNAPSHOT_VERSION}"
            )
        base_groups = {
            (
                g["app"], g["scheme"], g.get("device") or "",
                g.get("ecc") or "",
            ): g
            for g in baseline_snapshot.get("groups", [])
        }
        candidates: list[tuple[Regression, Optional[float]]] = []
        for key in self.groups:
            base = base_groups.get(key)
            if base is None:
                continue
            for metric in self.spec.metrics:
                direction = METRIC_DIRECTIONS.get(metric)
                if direction is None:
                    raise ValueError(f"metric has no direction: {metric}")
                current = self.samples(key, metric)
                baseline = [
                    float(v)
                    for v in base.get("samples", {}).get(metric, [])
                    if v is not None
                ]
                if not current or not baseline:
                    continue
                cur_mean = mean(current)
                base_mean = mean(baseline)
                denom = abs(base_mean)
                if denom == 0.0:
                    # A metric that was exactly zero: any nonzero drift
                    # in the worse direction is a full-scale regression.
                    denom = 1.0
                if direction == "min":
                    rel = (cur_mean - base_mean) / denom
                else:
                    rel = (base_mean - cur_mean) / denom
                if rel <= self.spec.min_effect:
                    continue
                small = (
                    len(current) < self.spec.min_samples
                    or len(baseline) < self.spec.min_samples
                )
                raw_p: Optional[float] = None
                if not small:
                    raw_p = mann_whitney_u(current, baseline).p_value
                app, scheme, device, ecc = key
                candidates.append((
                    Regression(
                        app=app, scheme=scheme, device=device, ecc=ecc,
                        metric=metric, direction=direction,
                        baseline_mean=base_mean, current_mean=cur_mean,
                        rel_delta=rel, p_value=raw_p,
                        method=(
                            "delta-only" if small else "mann-whitney"
                        ),
                    ),
                    raw_p,
                ))
        # Holm-adjust the tested family; delta-only verdicts pass as-is.
        tested = [i for i, (_r, p) in enumerate(candidates) if p is not None]
        adjusted = holm_adjust([candidates[i][1] for i in tested])
        verdicts: list[Regression] = []
        adjusted_by_index = dict(zip(tested, adjusted))
        for i, (reg, raw_p) in enumerate(candidates):
            if raw_p is None:
                verdicts.append(reg)
                continue
            adj = adjusted_by_index[i]
            if adj <= self.spec.alpha:
                verdicts.append(
                    Regression(**{**reg.to_dict(), "p_value": adj})
                )
        return verdicts


def load_snapshot(path: str | Path) -> dict:
    """Read a pinned snapshot document from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"not a snapshot document: {path}")
    return doc
