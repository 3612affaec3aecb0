"""Sqlite-backed experiment results warehouse.

The persistent :class:`~repro.harness.cache.ResultCache` is an
excellent *store* — content-addressed, atomic, self-healing — and a
terrible *database*: its keys are one-way hashes, so answering "what is
the mean row-energy saving of Dyn-DMS on gddr5x across seeds?" would
mean re-deriving every key from every possible spec. The warehouse
fixes that by walking the cache once (via ``ResultCache.iter_reports``)
and flattening each blob into one sqlite row per (content key, seed)
with the energy / error / FIT / tenant columns queries actually filter
on, plus the full report JSON, as the cache stored it, for anything
they don't.

Alongside cache blobs it ingests two other result streams:

* **failure manifests** written by the runner (``--keep-going``) — one
  row per :class:`~repro.harness.faults.CellFailure`, so "which cells
  died and why" is queryable next to the cells that lived;
* **benchmark history** (``BENCH_*.json``) — the dated perf entries,
  so throughput trends live in the same store as the science.

Ingest is idempotent (``INSERT OR REPLACE`` keyed on the content key /
natural keys), so re-running it after a sweep only adds the new cells.
Everything is stdlib ``sqlite3``; the service tier reads the same file.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.telemetry.hub import (
    ANALYTICS_INGESTED_BENCH,
    ANALYTICS_INGESTED_FAILURES,
    ANALYTICS_INGESTED_ROWS,
    ANALYTICS_QUERIES,
    NULL_HUB,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.cache import ResultCache

#: Default warehouse file, relative to the working directory.
DEFAULT_WAREHOUSE_PATH = ".repro-warehouse.sqlite"

_ENV_PATH = "REPRO_WAREHOUSE"

#: Bump when the table layout changes; mismatched files are rebuilt
#: from scratch on open (the warehouse is a derived artifact — the
#: cache remains the source of truth, so dropping it loses nothing).
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS experiments (
    content_key TEXT PRIMARY KEY,
    app TEXT NOT NULL,
    scheme TEXT NOT NULL,
    device TEXT,
    ecc TEXT,
    seed INTEGER,
    scale REAL,
    ipc REAL NOT NULL,
    activations INTEGER NOT NULL,
    avg_rbl REAL NOT NULL,
    row_energy_nj REAL NOT NULL,
    total_energy_nj REAL NOT NULL,
    ecc_energy_nj REAL NOT NULL,
    coverage REAL NOT NULL,
    bwutil REAL NOT NULL,
    app_error REAL,
    fit REAL,
    carbon_g_per_gib_year REAL,
    flips_injected INTEGER,
    words_silent INTEGER,
    n_tenants INTEGER NOT NULL,
    jain_fairness REAL,
    elapsed_mem_cycles REAL NOT NULL,
    total_instructions INTEGER NOT NULL,
    mtime REAL NOT NULL,
    ingested_at REAL NOT NULL,
    report TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_experiments_group
    ON experiments (app, scheme, device, ecc);
CREATE TABLE IF NOT EXISTS tenant_rows (
    content_key TEXT NOT NULL,
    name TEXT NOT NULL,
    tenant_class TEXT NOT NULL,
    workload TEXT NOT NULL,
    requests_served INTEGER NOT NULL,
    requests_dropped INTEGER NOT NULL,
    activations INTEGER NOT NULL,
    slowdown REAL,
    PRIMARY KEY (content_key, name)
);
CREATE TABLE IF NOT EXISTS failures (
    app TEXT NOT NULL,
    label TEXT NOT NULL,
    content_key TEXT,
    error_type TEXT NOT NULL,
    message TEXT NOT NULL,
    attempts INTEGER NOT NULL,
    elapsed REAL NOT NULL,
    manifest TEXT NOT NULL,
    PRIMARY KEY (manifest, app, label)
);
CREATE TABLE IF NOT EXISTS bench_history (
    bench TEXT NOT NULL,
    timestamp TEXT NOT NULL,
    entry TEXT NOT NULL,
    PRIMARY KEY (bench, timestamp)
);
"""

#: Columns exposed as query filters by :meth:`Warehouse.rows` and, via
#: the CLI/service layers, by ``report query`` and ``GET
#: /v1/experiments``. A fixed allow-list keeps user input out of SQL
#: identifiers entirely.
FILTER_COLUMNS = ("app", "scheme", "device", "ecc", "seed")


def resolve_warehouse_path(path: str | Path | None = None) -> Path:
    """The warehouse file: explicit arg, ``$REPRO_WAREHOUSE``, default."""
    import os

    if path is not None:
        return Path(path)
    return Path(os.environ.get(_ENV_PATH) or DEFAULT_WAREHOUSE_PATH)


def _flatten(
    key: str, blob: dict, report_bytes: bytes, mtime: float, now: float
) -> tuple[Optional[dict], list[dict]]:
    """One cache blob -> (experiments row, tenant rows); None if broken.

    The columns come from the decoded blob; the ``report`` column is the
    report's bytes as the cache stored them.
    """
    from repro.sim.report import SimReport

    try:
        report = SimReport.from_dict(blob["report"])
    except (KeyError, TypeError, ValueError, AttributeError):
        return None, []
    meta = blob.get("meta") if isinstance(blob.get("meta"), dict) else {}
    spec = meta.get("spec") if isinstance(meta.get("spec"), dict) else {}
    ecc_section = spec.get("ecc") if isinstance(spec.get("ecc"), dict) else {}
    row = {
        "content_key": key,
        "app": report.workload,
        "scheme": report.scheme,
        "device": spec.get("device"),
        "ecc": ecc_section.get("code") or (
            report.ecc.code if report.ecc is not None else None
        ),
        "seed": meta.get("seed"),
        "scale": meta.get("scale"),
        "ipc": report.ipc,
        "activations": report.activations,
        "avg_rbl": report.avg_rbl,
        "row_energy_nj": report.row_energy_nj,
        "total_energy_nj": report.energy.total_nj,
        "ecc_energy_nj": report.energy.ecc_nj,
        "coverage": report.coverage,
        "bwutil": report.bwutil,
        "app_error": report.application_error,
        "fit": report.ecc.fit if report.ecc is not None else None,
        "carbon_g_per_gib_year": (
            report.ecc.carbon_g_per_gib_year
            if report.ecc is not None else None
        ),
        "flips_injected": (
            report.ecc.flips_injected if report.ecc is not None else None
        ),
        "words_silent": (
            report.ecc.words_silent if report.ecc is not None else None
        ),
        "n_tenants": (
            len(report.tenants.tenants) if report.tenants is not None else 0
        ),
        "jain_fairness": (
            report.tenants.jain_fairness
            if report.tenants is not None else None
        ),
        "elapsed_mem_cycles": report.elapsed_mem_cycles,
        "total_instructions": report.total_instructions,
        "mtime": mtime,
        "ingested_at": now,
        "report": report_bytes.decode("utf-8"),
    }
    tenant_rows: list[dict] = []
    if report.tenants is not None:
        for tenant in report.tenants.tenants:
            tenant_rows.append({
                "content_key": key,
                "name": tenant.name,
                "tenant_class": tenant.tenant_class,
                "workload": tenant.workload,
                "requests_served": tenant.requests_served,
                "requests_dropped": tenant.requests_dropped,
                "activations": tenant.activations,
                "slowdown": tenant.slowdown,
            })
    return row, tenant_rows


class Warehouse:
    """Queryable sqlite store of experiment results.

    Opens (and, if needed, creates or rebuilds) the database eagerly;
    use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        hub=NULL_HUB,
    ) -> None:
        self.path = resolve_warehouse_path(path)
        self.hub = hub
        if str(self.path) != ":memory:":
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        self._ensure_schema()

    # ------------------------------------------------------------------
    def _ensure_schema(self) -> None:
        stored = None
        try:
            cur = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            )
            found = cur.fetchone()
            stored = int(found["value"]) if found else None
        except sqlite3.DatabaseError:
            stored = None
        if stored is not None and stored != SCHEMA_VERSION:
            # Derived artifact: rebuild rather than migrate.
            for table in (
                "experiments", "tenant_rows", "failures",
                "bench_history", "meta",
            ):
                self._conn.execute(f"DROP TABLE IF EXISTS {table}")
        self._conn.executescript(_SCHEMA)
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)),
        )
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest_cache(self, cache: "ResultCache") -> int:
        """Walk ``cache`` and upsert one row per blob; returns the count.

        Shares the lazy cache walk with ``cache info --json``, so the
        two views of the cache can never drift, and reads each blob
        once. Blobs without a ``meta`` sidecar (stored before the
        warehouse existed) ingest with NULL seed/scale/device — still
        queryable by app and scheme.
        """
        now = time.time()
        count = 0
        for key, blob, report_bytes, mtime in cache.iter_reports():
            row, tenant_rows = _flatten(key, blob, report_bytes, mtime, now)
            if row is None:
                continue
            columns = ", ".join(row)
            holes = ", ".join("?" for _ in row)
            self._conn.execute(
                f"INSERT OR REPLACE INTO experiments ({columns})"
                f" VALUES ({holes})",
                tuple(row.values()),
            )
            self._conn.execute(
                "DELETE FROM tenant_rows WHERE content_key = ?", (key,)
            )
            for trow in tenant_rows:
                tcolumns = ", ".join(trow)
                tholes = ", ".join("?" for _ in trow)
                self._conn.execute(
                    f"INSERT OR REPLACE INTO tenant_rows ({tcolumns})"
                    f" VALUES ({tholes})",
                    tuple(trow.values()),
                )
            count += 1
        self._conn.commit()
        self.hub.inc(ANALYTICS_INGESTED_ROWS, count)
        return count

    def ingest_failures(self, manifest_path: str | Path) -> int:
        """Ingest a runner failure manifest; returns rows upserted."""
        path = Path(manifest_path)
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        failures = doc.get("failures", doc) if isinstance(doc, dict) else doc
        if not isinstance(failures, list):
            raise ValueError(f"not a failure manifest: {path}")
        count = 0
        for failure in failures:
            if not isinstance(failure, dict):
                continue
            self._conn.execute(
                "INSERT OR REPLACE INTO failures"
                " (app, label, content_key, error_type, message,"
                "  attempts, elapsed, manifest)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    str(failure.get("app", "?")),
                    str(failure.get("label", "?")),
                    failure.get("key"),
                    str(failure.get("error_type", "?")),
                    str(failure.get("message", "")),
                    int(failure.get("attempts", 1)),
                    float(failure.get("elapsed", 0.0)),
                    str(path),
                ),
            )
            count += 1
        self._conn.commit()
        self.hub.inc(ANALYTICS_INGESTED_FAILURES, count)
        return count

    def ingest_bench(self, bench_path: str | Path) -> int:
        """Ingest one ``BENCH_*.json`` history; returns rows upserted."""
        path = Path(bench_path)
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "history" not in doc:
            raise ValueError(f"not a BENCH history file: {path}")
        bench = str(doc.get("benchmark", path.stem))
        count = 0
        for entry in doc["history"]:
            if not isinstance(entry, dict):
                continue
            # Older histories date an entry with "date", not "timestamp".
            stamp = entry.get("timestamp", entry.get("date"))
            if stamp is None:
                continue
            self._conn.execute(
                "INSERT OR REPLACE INTO bench_history"
                " (bench, timestamp, entry) VALUES (?, ?, ?)",
                (
                    bench,
                    str(stamp),
                    json.dumps(entry, separators=(",", ":")),
                ),
            )
            count += 1
        self._conn.commit()
        self.hub.inc(ANALYTICS_INGESTED_BENCH, count)
        return count

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def rows(self, **filters: Any) -> list[dict]:
        """Experiment rows (no report blob), deterministically ordered.

        Filters are exact-match on :data:`FILTER_COLUMNS`; unknown
        filter names raise ``ValueError`` (they would otherwise fail
        silently as empty results).
        """
        unknown = set(filters) - set(FILTER_COLUMNS)
        if unknown:
            raise ValueError(
                f"unknown filter column(s): {sorted(unknown)}"
            )
        clauses = []
        params: list[Any] = []
        for column in FILTER_COLUMNS:
            if column in filters and filters[column] is not None:
                clauses.append(f"{column} = ?")
                params.append(filters[column])
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        cur = self._conn.execute(
            "SELECT content_key, app, scheme, device, ecc, seed, scale,"
            " ipc, activations, avg_rbl, row_energy_nj, total_energy_nj,"
            " ecc_energy_nj, coverage, bwutil, app_error, fit,"
            " carbon_g_per_gib_year, flips_injected, words_silent,"
            " n_tenants, jain_fairness, elapsed_mem_cycles,"
            " total_instructions, mtime"
            f" FROM experiments{where}"
            " ORDER BY app, scheme, device, ecc, seed, content_key",
            params,
        )
        self.hub.inc(ANALYTICS_QUERIES)
        return [dict(r) for r in cur.fetchall()]

    def row(self, content_key: str) -> Optional[dict]:
        """One full experiment row (report blob decoded), or None."""
        cur = self._conn.execute(
            "SELECT * FROM experiments WHERE content_key = ?",
            (content_key,),
        )
        found = cur.fetchone()
        self.hub.inc(ANALYTICS_QUERIES)
        if found is None:
            return None
        doc = dict(found)
        doc["report"] = json.loads(doc["report"])
        doc["tenants"] = [
            dict(t) for t in self._conn.execute(
                "SELECT name, tenant_class, workload, requests_served,"
                " requests_dropped, activations, slowdown"
                " FROM tenant_rows WHERE content_key = ? ORDER BY name",
                (content_key,),
            ).fetchall()
        ]
        return doc

    def tenant_rows(self) -> list[dict]:
        """All per-tenant rows joined with their group columns."""
        cur = self._conn.execute(
            "SELECT t.content_key, t.name, t.tenant_class, t.workload,"
            " t.requests_served, t.requests_dropped, t.activations,"
            " t.slowdown, e.app, e.scheme, e.device, e.ecc, e.seed,"
            " e.jain_fairness"
            " FROM tenant_rows t JOIN experiments e"
            " ON t.content_key = e.content_key"
            " ORDER BY e.app, e.scheme, e.device, e.ecc, e.seed, t.name",
        )
        return [dict(r) for r in cur.fetchall()]

    def failures(self) -> list[dict]:
        """All ingested failure rows, deterministically ordered."""
        cur = self._conn.execute(
            "SELECT app, label, content_key, error_type, message,"
            " attempts, elapsed, manifest FROM failures"
            " ORDER BY manifest, app, label",
        )
        return [dict(r) for r in cur.fetchall()]

    def bench_entries(self, bench: Optional[str] = None) -> list[dict]:
        """Bench history entries (decoded), ordered by (bench, time)."""
        if bench is None:
            cur = self._conn.execute(
                "SELECT bench, timestamp, entry FROM bench_history"
                " ORDER BY bench, timestamp",
            )
        else:
            cur = self._conn.execute(
                "SELECT bench, timestamp, entry FROM bench_history"
                " WHERE bench = ? ORDER BY timestamp",
                (bench,),
            )
        return [
            {"bench": r["bench"], **json.loads(r["entry"])}
            for r in cur.fetchall()
        ]

    def counts(self) -> dict:
        """Row counts per table (for ``report ingest`` summaries)."""
        out = {}
        for table in ("experiments", "tenant_rows", "failures",
                      "bench_history"):
            cur = self._conn.execute(f"SELECT COUNT(*) AS n FROM {table}")
            out[table] = int(cur.fetchone()["n"])
        return out


def ingest_sources(
    warehouse: Warehouse,
    *,
    cache: Optional["ResultCache"] = None,
    failure_manifests: Iterable[str | Path] = (),
    bench_files: Iterable[str | Path] = (),
) -> dict:
    """Convenience driver over the three ingest streams.

    Returns ``{"experiments": n, "failures": n, "bench": n}`` counts of
    rows upserted this call.
    """
    ingested = {"experiments": 0, "failures": 0, "bench": 0}
    if cache is not None:
        ingested["experiments"] = warehouse.ingest_cache(cache)
    for manifest in failure_manifests:
        ingested["failures"] += warehouse.ingest_failures(manifest)
    for bench in bench_files:
        ingested["bench"] += warehouse.ingest_bench(bench)
    return ingested
