"""Results-warehouse suite: statistics, ingest, reports, gates, service.

The statistics layer is held to mathematical ground truth — bootstrap
CI properties under Hypothesis (interval nesting in the confidence
level, determinism, degenerate samples) and Mann–Whitney U against
both hand-computed fixtures and brute-force enumeration of the exact
null distribution. On top of that sit the integration layers: cache
traversal (``iter_blobs``/``iter_reports``), sqlite ingest
idempotency, the end-to-end ingest → render → diff pipeline on a real
2-seed matrix (including a seeded synthetic regression that must trip
exit code 5), and the service's ``/v1/experiments`` routes returning
the same aggregates as the CLI render.
"""

import itertools
import json
import sqlite3
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analytics.report import (
    render_diff_markdown,
    render_html,
    render_markdown,
)
from repro.analytics.results import ExperimentResults
from repro.analytics.stats import (
    bootstrap_ci,
    holm_adjust,
    mann_whitney_u,
    percentile,
    rankdata,
)
from repro.analytics.warehouse import Warehouse, ingest_sources
from repro.config.warehouse import WarehouseSpec
from repro.errors import ConfigError
from repro.harness.cache import ResultCache
from repro.harness.cli import (
    EXIT_OK,
    EXIT_REGRESSION,
    main as cli_main,
)
from repro.harness.runner import Runner
from repro.harness.schemes import evaluation_schemes
from repro.sim.report import SimReport

REPO = Path(__file__).resolve().parent.parent

#: Tiny but representative: full pipeline in a few seconds per cell.
SCALE = 0.05
SEEDS = (7, 8)
#: evaluation_schemes() keys for the fixture matrix...
MATRIX_KEYS = ("Baseline", "Static-AMS")
#: ...and the config-derived labels those cells carry in reports (the
#: AMS one picks up its Th_RBL parameter).
AMS = "Static-AMS(8)"
REPORT_SCHEMES = ("Baseline", AMS)


# ======================================================================
# Statistics: bootstrap CI
# ======================================================================
class TestBootstrapCI:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_single_seed_degenerate(self):
        ci = bootstrap_ci([3.25])
        assert (ci.low, ci.mean, ci.high) == (3.25, 3.25, 3.25)
        assert ci.n == 1

    def test_constant_sample_degenerate(self):
        ci = bootstrap_ci([2.0, 2.0, 2.0])
        assert (ci.low, ci.mean, ci.high) == (2.0, 2.0, 2.0)

    def test_known_small_sample(self):
        ci = bootstrap_ci([1.0, 2.0, 3.0, 4.0])
        assert ci.mean == pytest.approx(2.5)
        assert ci.low < ci.mean < ci.high
        assert 1.0 <= ci.low and ci.high <= 4.0

    def test_deterministic(self):
        a = bootstrap_ci([0.3, 0.9, 0.4, 0.8, 0.1])
        b = bootstrap_ci([0.3, 0.9, 0.4, 0.8, 0.1])
        assert a == b

    @given(
        values=st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=12,
        ),
        confidences=st.tuples(
            st.floats(min_value=0.05, max_value=0.99),
            st.floats(min_value=0.05, max_value=0.99),
        ),
    )
    # Both cuts interpolate between two equal resample means, where
    # rounding in the interpolation can break the nesting.
    @example(values=[409201.0, 409200.5507324842], confidences=(0.5, 0.53125))
    @settings(max_examples=60, deadline=None)
    def test_nesting_monotone_in_confidence(self, values, confidences):
        """A wider confidence level must fully contain a narrower one.

        Holds by construction (one resample plan, cut at different
        percentiles) — this is the coverage-monotonicity property the
        regression gate's sanity relies on.
        """
        lo_conf, hi_conf = sorted(confidences)
        narrow = bootstrap_ci(values, confidence=lo_conf, resamples=200)
        wide = bootstrap_ci(values, confidence=hi_conf, resamples=200)
        assert wide.low <= narrow.low
        assert narrow.high <= wide.high
        assert narrow.low <= narrow.high

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=10,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_within_sample_range(self, values):
        # Resample means live in [min, max] up to float rounding — a
        # mean of identical values can differ from them by one ulp.
        slack = 1e-9 * max(1.0, max(abs(v) for v in values))
        ci = bootstrap_ci(values, resamples=100)
        assert min(values) - slack <= ci.low
        assert ci.low <= ci.high
        assert ci.high <= max(values) + slack


class TestPercentile:
    def test_endpoints_and_median(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert percentile(xs, 0.0) == 1.0
        assert percentile(xs, 1.0) == 4.0
        assert percentile(xs, 0.5) == pytest.approx(2.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


# ======================================================================
# Statistics: Mann-Whitney U
# ======================================================================
def brute_force_p(a, b):
    """Exact two-sided p by enumerating every group relabeling.

    Counts P(U1 <= min(u1_obs, u2_obs)) over all C(n1+n2, n1) equally
    likely assignments of the pooled values to group A — the definition
    the DP in ``_u_counts`` is meant to reproduce — and doubles it.
    """
    combined = list(a) + list(b)
    n1 = len(a)
    observed = mann_whitney_u(a, b)
    u_obs = min(observed.u1, observed.u2)
    count = 0
    total = 0
    for a_index in itertools.combinations(range(len(combined)), n1):
        chosen = set(a_index)
        ga = [combined[i] for i in a_index]
        gb = [combined[i] for i in range(len(combined))
              if i not in chosen]
        u1 = sum(1 for x in ga for y in gb if x > y)
        total += 1
        if u1 <= u_obs:
            count += 1
    return min(1.0, 2.0 * count / total)


class TestMannWhitney:
    def test_hand_computed_separated(self):
        # a entirely below b: U1 = 0; exact two-sided p = 2 * 1/C(6,3)
        # * |{U <= 0}| = 2/20 = 0.1.
        result = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert result.u1 == 0.0
        assert result.u2 == 9.0
        assert result.method == "exact"
        assert result.p_value == pytest.approx(0.1)

    def test_hand_computed_two_vs_two(self):
        # The 2-seed case the gate must survive: minimum possible
        # two-sided p is 2/6 — never significant at 0.05, which is
        # exactly why the delta-only fallback exists.
        result = mann_whitney_u([1, 2], [3, 4])
        assert result.p_value == pytest.approx(1 / 3)

    def test_hand_computed_interleaved(self):
        # Perfectly interleaved samples carry no shift evidence.
        result = mann_whitney_u([1, 3, 5], [2, 4, 6])
        assert result.method == "exact"
        assert result.p_value > 0.5

    def test_symmetry(self):
        a, b = [1.0, 5.0, 2.5], [4.0, 0.5, 6.0, 3.0]
        assert (
            mann_whitney_u(a, b).p_value
            == mann_whitney_u(b, a).p_value
        )

    def test_u1_plus_u2_identity(self):
        a, b = [3.0, 1.0, 4.0], [1.5, 5.0]
        result = mann_whitney_u(a, b)
        assert result.u1 + result.u2 == len(a) * len(b)

    def test_ties_use_normal_approximation(self):
        result = mann_whitney_u([1, 1, 2], [2, 3, 3])
        assert result.method == "normal"
        assert 0.0 < result.p_value <= 1.0

    def test_identical_samples_not_significant(self):
        result = mann_whitney_u([2.0, 2.0], [2.0, 2.0])
        assert result.p_value == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    @given(
        a=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                   min_size=1, max_size=5),
        b=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                   min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_matches_brute_force(self, a, b):
        values = [float(v) for v in a + b]
        if len(set(values)) != len(values):
            return  # exact path is tie-free by contract
        result = mann_whitney_u(a, b)
        assert result.method == "exact"
        assert result.p_value == pytest.approx(brute_force_p(a, b))

    def test_rankdata_midranks(self):
        assert rankdata([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]


class TestHolm:
    def test_fixture(self):
        assert holm_adjust([0.01, 0.04, 0.03]) == pytest.approx(
            [0.03, 0.06, 0.06]
        )

    def test_empty(self):
        assert holm_adjust([]) == []

    def test_never_exceeds_one(self):
        assert max(holm_adjust([0.9, 0.8, 0.7])) == 1.0


# ======================================================================
# WarehouseSpec validation
# ======================================================================
class TestWarehouseSpec:
    def test_defaults_valid(self):
        WarehouseSpec().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"confidence": 1.5},
            {"resamples": 0},
            {"alpha": 0.0},
            {"min_effect": -0.1},
            {"min_samples": 0},
            {"metrics": ()},
            {"metrics": ("not_a_metric",)},
            {"baseline_scheme": ""},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            WarehouseSpec(**kwargs).validate()


# ======================================================================
# End-to-end: matrix -> cache -> warehouse -> report -> gate -> service
# ======================================================================
@pytest.fixture(scope="module")
def sweep_cache(tmp_path_factory):
    """A real 2-seed matrix cached once for the whole module."""
    root = tmp_path_factory.mktemp("analytics-cache")
    cache = ResultCache(root, enabled=True)
    schemes = {
        label: config
        for label, config in evaluation_schemes().items()
        if label in MATRIX_KEYS
    }
    assert len(schemes) == len(MATRIX_KEYS)
    for seed in SEEDS:
        runner = Runner(
            scale=SCALE, seed=seed, cache=cache, verbose=False
        )
        try:
            runner.run_matrix(["SCP"], schemes, measure_error=True)
        finally:
            runner.close()
    return root


@pytest.fixture()
def warehouse_db(sweep_cache, tmp_path):
    """A freshly ingested warehouse over the shared sweep cache."""
    db = tmp_path / "wh.sqlite"
    with Warehouse(db) as warehouse:
        warehouse.ingest_cache(ResultCache(sweep_cache, enabled=True))
    return db


class TestCacheTraversal:
    def test_iter_reports_matches_load(self, sweep_cache):
        cache = ResultCache(sweep_cache, enabled=True)
        seen = list(cache.iter_reports())
        assert len(seen) == len(cache.entries())
        for key, head, data, mtime in seen:
            assert "report" not in head
            assert mtime > 0
            report = SimReport.from_dict(json.loads(data))
            loaded = cache.load(key)
            assert loaded is not None
            assert loaded.to_dict() == report.to_dict()

    def test_iter_blobs_is_lazy(self, sweep_cache):
        cache = ResultCache(sweep_cache, enabled=True)
        iterator = cache.iter_blobs()
        key, blob, _mtime, size = next(iterator)
        assert blob["format_version"] == cache.info()["format_version"]
        assert size > 0
        iterator.close()  # abandoning mid-walk must be fine

    def test_iter_blobs_quarantines_corrupt(self, sweep_cache, tmp_path):
        cache = ResultCache(tmp_path / "c", enabled=True)
        src = ResultCache(sweep_cache, enabled=True)
        for key, _head, _mtime, _size in src.iter_blobs():
            cache.store(key, src.load(key))
        victim = cache.entries()[0]
        victim.write_text("{ torn", encoding="utf-8")
        healthy = len(cache.entries()) - 1
        assert len(list(cache.iter_blobs())) == healthy
        assert cache.quarantined == 1
        assert victim not in cache.entries()

    def test_store_meta_recorded_and_load_unaffected(self, sweep_cache):
        cache = ResultCache(sweep_cache, enabled=True)
        metas = [blob.get("meta") for _k, blob, _m, _s in cache.iter_blobs()]
        assert metas and all(m is not None for m in metas)
        for meta in metas:
            assert meta["app"] == "SCP"
            assert meta["scale"] == SCALE
            assert meta["seed"] in SEEDS
            assert "scheduler" in meta["spec"]

    def test_info_deep_counts(self, sweep_cache):
        cache = ResultCache(sweep_cache, enabled=True)
        info = cache.info(deep=True)
        assert info["entries"] == len(SEEDS) * len(REPORT_SCHEMES)
        assert info["workloads"] == {"SCP": info["entries"]}
        assert sorted(info["schemes"]) == sorted(REPORT_SCHEMES)
        assert all(
            count == len(SEEDS) for count in info["schemes"].values()
        )


class TestWarehouseIngest:
    def test_ingest_idempotent(self, sweep_cache, tmp_path):
        cache = ResultCache(sweep_cache, enabled=True)
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            first = warehouse.ingest_cache(cache)
            second = warehouse.ingest_cache(cache)
            assert first == second == len(cache.entries())
            assert warehouse.counts()["experiments"] == first

    def test_rows_flattened_and_ordered(self, warehouse_db):
        with Warehouse(warehouse_db) as warehouse:
            rows = warehouse.rows()
            assert len(rows) == len(SEEDS) * len(REPORT_SCHEMES)
            assert rows == sorted(
                rows,
                key=lambda r: (
                    r["app"], r["scheme"], r["device"] or "",
                    r["ecc"] or "", r["seed"],
                ),
            )
            for row in rows:
                assert row["seed"] in SEEDS
                assert row["scale"] == SCALE
                assert row["row_energy_nj"] > 0
            ams = warehouse.rows(scheme=AMS)
            assert [r["seed"] for r in ams] == sorted(SEEDS)
            assert all(r["app_error"] is not None for r in ams)

    def test_unknown_filter_rejected(self, warehouse_db):
        with Warehouse(warehouse_db) as warehouse:
            with pytest.raises(ValueError):
                warehouse.rows(bogus="x")

    def test_row_includes_report_blob(self, warehouse_db):
        with Warehouse(warehouse_db) as warehouse:
            key = warehouse.rows()[0]["content_key"]
            doc = warehouse.row(key)
            assert doc is not None
            report = SimReport.from_dict(doc["report"])
            assert report.workload == "SCP"
            assert warehouse.row("no-such-key") is None

    def test_ingest_failures_and_bench(self, tmp_path):
        manifest = tmp_path / "failures.json"
        manifest.write_text(json.dumps({"failures": [
            {"app": "SCP", "label": "Dyn-DMS", "key": "abc",
             "error_type": "ValueError", "message": "boom",
             "attempts": 2, "elapsed": 1.5},
        ]}), encoding="utf-8")
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps({
            "benchmark": "x",
            "history": [{"timestamp": "2026-08-08T00:00:00Z", "rps": 5}],
        }), encoding="utf-8")
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            ingested = ingest_sources(
                warehouse,
                failure_manifests=[manifest],
                bench_files=[bench],
            )
            assert ingested == {
                "experiments": 0, "failures": 1, "bench": 1,
            }
            assert warehouse.failures()[0]["message"] == "boom"
            assert warehouse.bench_entries("x")[0]["rps"] == 5

    def test_ingest_every_entry_of_the_committed_bench_files(self, tmp_path):
        # BENCH_sim_throughput.json dates its entries with "date", the
        # other two with "timestamp"; every entry becomes a row.
        bench_files = sorted(REPO.glob("BENCH_*.json"))
        assert [p.name for p in bench_files] == [
            "BENCH_report.json", "BENCH_service_rps.json",
            "BENCH_sim_throughput.json",
        ]
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            ingested = ingest_sources(warehouse, bench_files=bench_files)
            assert ingested["bench"] == 7
            per_bench = {
                name: len(warehouse.bench_entries(name))
                for name in ("report", "service_rps", "sim_throughput")
            }
        assert per_bench == {
            "report": 1, "service_rps": 4, "sim_throughput": 2,
        }


class TestExperimentResults:
    def test_summary_structure(self, warehouse_db):
        with Warehouse(warehouse_db) as warehouse:
            summary = ExperimentResults(warehouse).summary()
        assert summary["confidence"] == 0.95
        assert summary["n_experiments"] == len(SEEDS) * len(REPORT_SCHEMES)
        schemes = [g["scheme"] for g in summary["groups"]]
        assert schemes == sorted(schemes)
        by_scheme = {g["scheme"]: g for g in summary["groups"]}
        assert by_scheme["Baseline"]["row_energy_savings"] is None
        savings = by_scheme[AMS]["row_energy_savings"]
        assert savings is not None and savings["n"] == len(SEEDS)
        assert savings["low"] <= savings["mean"] <= savings["high"]
        assert 0.0 < savings["mean"] < 1.0  # AMS drops rows -> saves
        for group in summary["groups"]:
            ipc = group["metrics"]["ipc"]
            assert ipc is not None and ipc["n"] == len(SEEDS)

    def test_settings_come_from_the_warehouse_spec(self, warehouse_db):
        with Warehouse(warehouse_db) as warehouse:
            default = ExperimentResults(warehouse).summary()
            assert default == ExperimentResults(
                warehouse, WarehouseSpec()
            ).summary()
            tuned = ExperimentResults(
                warehouse, WarehouseSpec(confidence=0.9, resamples=200)
            ).summary()
        assert (tuned["confidence"], tuned["resamples"]) == (0.9, 200)
        assert tuned["groups"] != default["groups"]

    def test_snapshot_round_trip_clean_diff(self, warehouse_db):
        with Warehouse(warehouse_db) as warehouse:
            results = ExperimentResults(warehouse)
            snapshot = json.loads(json.dumps(results.snapshot()))
            assert results.regressions_against(snapshot) == []

    def test_injected_regression_flagged(self, warehouse_db):
        with Warehouse(warehouse_db) as warehouse:
            snapshot = ExperimentResults(warehouse).snapshot()
        conn = sqlite3.connect(warehouse_db)
        conn.execute(
            "UPDATE experiments SET row_energy_nj = row_energy_nj * 2"
            " WHERE scheme = ?", (AMS,)
        )
        conn.commit()
        conn.close()
        with Warehouse(warehouse_db) as warehouse:
            found = ExperimentResults(warehouse).regressions_against(
                snapshot
            )
        assert [(r.scheme, r.metric) for r in found] == [
            (AMS, "row_energy_nj")
        ]
        regression = found[0]
        assert regression.method == "delta-only"  # 2 seeds a side
        assert regression.rel_delta == pytest.approx(1.0)

    def test_improvement_not_flagged(self, warehouse_db):
        with Warehouse(warehouse_db) as warehouse:
            snapshot = ExperimentResults(warehouse).snapshot()
        conn = sqlite3.connect(warehouse_db)
        conn.execute(
            "UPDATE experiments SET row_energy_nj = row_energy_nj * 0.5"
        )
        conn.commit()
        conn.close()
        with Warehouse(warehouse_db) as warehouse:
            assert ExperimentResults(warehouse).regressions_against(
                snapshot
            ) == []

    def test_mann_whitney_gate_with_enough_seeds(self, tmp_path):
        """Synthetic many-seed warehouse exercises the tested path."""
        db = tmp_path / "wh.sqlite"
        seeds = range(8)
        with Warehouse(db) as warehouse:
            for seed in seeds:
                warehouse._conn.execute(
                    "INSERT INTO experiments (content_key, app, scheme,"
                    " device, ecc, seed, scale, ipc, activations,"
                    " avg_rbl, row_energy_nj, total_energy_nj,"
                    " ecc_energy_nj, coverage, bwutil, app_error, fit,"
                    " carbon_g_per_gib_year, flips_injected,"
                    " words_silent, n_tenants, jain_fairness,"
                    " elapsed_mem_cycles, total_instructions, mtime,"
                    " ingested_at, report) VALUES"
                    " (?, 'SCP', 'Dyn-DMS', NULL, NULL, ?, 0.05, 0.5,"
                    " 100, 4.0, ?, 1000.0, 0.0, 0.1, 0.5, NULL, NULL,"
                    " NULL, NULL, NULL, 0, NULL, 1e6, 1e5, 0.0, 0.0,"
                    " '{}')",
                    (f"k{seed}", seed, 100.0 + seed),
                )
            warehouse._conn.commit()
            results = ExperimentResults(warehouse)
            snapshot = results.snapshot()
            assert results.regressions_against(snapshot) == []
        conn = sqlite3.connect(db)
        conn.execute(
            "UPDATE experiments SET row_energy_nj = row_energy_nj + 50"
        )
        conn.commit()
        conn.close()
        with Warehouse(db) as warehouse:
            found = ExperimentResults(warehouse).regressions_against(
                snapshot
            )
        assert len(found) == 1
        assert found[0].method == "mann-whitney"
        assert found[0].p_value is not None
        assert found[0].p_value <= 0.05


class TestRenderers:
    def test_markdown_report(self, warehouse_db):
        with Warehouse(warehouse_db) as warehouse:
            summary = ExperimentResults(warehouse).summary()
        markdown = render_markdown(summary)
        assert "95% bootstrap CIs" in markdown
        assert "row-energy savings" in markdown
        assert AMS in markdown
        assert "&mdash;" not in markdown  # entities are HTML-only

    def test_html_report_self_contained(self, warehouse_db):
        with Warehouse(warehouse_db) as warehouse:
            summary = ExperimentResults(warehouse).summary()
        html = render_html(summary)
        assert html.startswith("<!DOCTYPE html>")
        assert AMS in html
        assert "<style>" in html
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html

    def test_diff_markdown(self):
        assert "No significant regressions" in render_diff_markdown([])
        block = render_diff_markdown([{
            "app": "SCP", "scheme": "Dyn-DMS", "device": None,
            "ecc": None, "metric": "row_energy_nj",
            "baseline_mean": 1.0, "current_mean": 2.0,
            "rel_delta": 1.0, "p_value": None, "method": "delta-only",
        }])
        assert "row_energy_nj" in block and "+100.0%" in block


class TestReportCLI:
    def test_ingest_render_diff_pipeline(
        self, sweep_cache, tmp_path, monkeypatch, capsys
    ):
        db = tmp_path / "wh.sqlite"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(sweep_cache))
        monkeypatch.setenv("REPRO_WAREHOUSE", str(db))
        monkeypatch.chdir(tmp_path)
        assert cli_main(["report", "ingest"]) == EXIT_OK
        assert cli_main([
            "report", "render", "--out", "report.md",
            "--html", "report.html", "--snapshot-out", "snap.json",
        ]) == EXIT_OK
        markdown = (tmp_path / "report.md").read_text(encoding="utf-8")
        assert "95% bootstrap CIs" in markdown
        assert "row-energy savings" in markdown
        html = (tmp_path / "report.html").read_text(encoding="utf-8")
        assert AMS in html
        assert cli_main([
            "report", "diff", "--baseline", "snap.json",
        ]) == EXIT_OK
        conn = sqlite3.connect(db)
        conn.execute(
            "UPDATE experiments SET row_energy_nj = row_energy_nj * 2"
            " WHERE scheme = ?", (AMS,)
        )
        conn.commit()
        conn.close()
        assert cli_main([
            "report", "diff", "--baseline", "snap.json",
        ]) == EXIT_REGRESSION
        out = capsys.readouterr().out
        assert "row_energy_nj" in out

    def test_query_filters(self, sweep_cache, tmp_path, monkeypatch, capsys):
        db = tmp_path / "wh.sqlite"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(sweep_cache))
        monkeypatch.setenv("REPRO_WAREHOUSE", str(db))
        assert cli_main(["report", "ingest"]) == EXIT_OK
        capsys.readouterr()
        assert cli_main([
            "report", "query", "--scheme", "Baseline", "--json",
        ]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["seed"] for r in rows] == sorted(SEEDS)
        assert all(r["scheme"] == "Baseline" for r in rows)


class TestServiceExperiments:
    def test_summary_matches_cli_code_path(self, warehouse_db, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceDaemon

        daemon = ServiceDaemon(
            port=0,
            workers=0,
            cache=ResultCache(tmp_path / "cache", enabled=True),
            journal_path=tmp_path / "journal.jsonl",
            warehouse_path=warehouse_db,
            verbose=False,
        )
        daemon.start_in_thread()
        try:
            client = ServiceClient(port=daemon.port)
            with Warehouse(warehouse_db) as warehouse:
                expected = ExperimentResults(warehouse).summary()
            assert client.experiments_summary() == json.loads(
                json.dumps(expected)
            )
            rows = client.experiments()
            assert len(rows) == len(SEEDS) * len(REPORT_SCHEMES)
            baseline = client.experiments(scheme="Baseline")
            assert [r["seed"] for r in baseline] == sorted(SEEDS)
            doc = client.experiment(rows[0]["content_key"])
            assert doc["report"]["workload"] == "SCP"
            with pytest.raises(ConfigError):
                client.experiments(nope="x")
            from repro.errors import ServiceError
            with pytest.raises(ServiceError):
                client.experiment("missing-key")
            counters = client.stats()["service"]
            flat = counters.get("counters", counters)
            assert any(
                str(name).startswith("analytics.") for name in flat
            )
        finally:
            daemon.stop()

    def test_missing_warehouse_is_404(self, tmp_path):
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceDaemon

        daemon = ServiceDaemon(
            port=0,
            workers=0,
            cache=ResultCache(tmp_path / "cache", enabled=True),
            journal_path=tmp_path / "journal.jsonl",
            warehouse_path=tmp_path / "absent.sqlite",
            verbose=False,
        )
        daemon.start_in_thread()
        try:
            client = ServiceClient(port=daemon.port)
            with pytest.raises(ServiceError, match="no warehouse"):
                client.experiments_summary()
        finally:
            daemon.stop()


class TestParetoOrdering:
    def test_rows_sorted_across_devices(self, tmp_path):
        from repro.harness.pareto import run_pareto

        rows = run_pareto(
            apps=["SCP"],
            scheme_tokens=["base", "dms"],
            devices=["gddr5", "hbm"],
            ecc_codes=["none"],
            scale=SCALE,
            seed=7,
            cache=ResultCache(tmp_path / "cache", enabled=True),
            verbose=False,
        )
        keys = [(r.app, r.scheme, r.device, r.ecc) for r in rows]
        assert keys == sorted(keys)
        # The loop fills device-major; sorted order interleaves devices
        # within each scheme, so this asserts a real reordering.
        assert len({r.device for r in rows}) == 2
        assert rows[0].scheme == rows[1].scheme
        assert rows[0].device != rows[1].device
