"""Tests for the experiment harness: schemes, tables, runner, CLI."""

import pytest

from repro.config import (
    AMSMode,
    DMSMode,
    static_ams,
    static_combo,
    static_dms,
)
from repro.harness import (
    EXPERIMENTS,
    Runner,
    evaluation_schemes,
    format_table,
    geomean,
)


class TestSchemes:
    def test_evaluation_scheme_set_matches_fig12_legend(self) -> None:
        schemes = evaluation_schemes()
        assert set(schemes) == {
            "Baseline",
            "Static-DMS",
            "Dyn-DMS",
            "Static-AMS",
            "Dyn-AMS",
            "Static-DMS+Static-AMS",
            "Dyn-DMS+Dyn-AMS",
        }
        combo = schemes["Dyn-DMS+Dyn-AMS"]
        assert combo.dms.mode is DMSMode.DYNAMIC
        assert combo.ams.mode is AMSMode.DYNAMIC

    def test_delay_only_set_for_group4(self) -> None:
        schemes = evaluation_schemes(include_ams=False)
        assert set(schemes) == {"Baseline", "Static-DMS", "Dyn-DMS"}

    def test_scaled_windows_applied(self) -> None:
        schemes = evaluation_schemes(window_cycles=512,
                                     windows_per_phase=8)
        assert schemes["Dyn-DMS"].dms.window_cycles == 512
        assert schemes["Dyn-AMS"].ams.window_cycles == 512

    def test_helper_factories(self) -> None:
        assert static_dms(256).dms.static_delay == 256
        assert static_ams(3).ams.static_th_rbl == 3
        combo = static_combo(512, 2)
        assert combo.dms.static_delay == 512
        assert combo.ams.static_th_rbl == 2
        for scheme in (static_dms(128), static_ams(8), static_combo(128, 8)):
            scheme.validate()


class TestTables:
    def test_format_table_alignment(self) -> None:
        text = format_table(
            ["App", "x"], [["SCP", 1.23456], ["LPS", 2.0]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "SCP" in lines[3] and "1.235" in lines[3]
        assert len(lines) == 5

    def test_geomean(self) -> None:
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, 2.0]) == pytest.approx(2.0)  # zeros skipped


class TestRunner:
    def test_runner_caches_by_label(self) -> None:
        runner = Runner(scale=0.12, verbose=False)
        scheme = evaluation_schemes()["Baseline"]
        r1 = runner.run("SCP", scheme, label="Baseline")
        r2 = runner.run("SCP", scheme, label="Baseline")
        assert r1 is r2

    def test_run_matrix_covers_all_cells(self) -> None:
        runner = Runner(scale=0.12, verbose=False)
        schemes = {
            "Baseline": evaluation_schemes()["Baseline"],
            "DMS(128)": static_dms(128),
        }
        results = runner.run_matrix(["SCP", "LPS"], schemes)
        assert set(results) == {
            ("SCP", "Baseline"),
            ("SCP", "DMS(128)"),
            ("LPS", "Baseline"),
            ("LPS", "DMS(128)"),
        }


class TestExperimentsSmoke:
    """Each experiment runs end to end on a tiny configuration."""

    @pytest.fixture(scope="class")
    def runner(self) -> Runner:
        return Runner(scale=0.15, verbose=False)

    def test_fig05_smoke(self, runner) -> None:
        result = EXPERIMENTS["fig05"](runner, apps=("SCP",))
        assert "SCP" in result.text
        shares = result.data["shares"]["SCP"]
        for dist in shares.values():
            assert sum(dist) == pytest.approx(1.0, abs=1e-6)

    def test_fig07_smoke(self, runner) -> None:
        result = EXPERIMENTS["fig07"](runner)
        assert ("SCP", "AMS(8)") in result.data["rows"]

    def test_fig11_smoke(self, runner) -> None:
        result = EXPERIMENTS["fig11"](runner, app="SCP")
        assert set(result.data["acts"]) == set(range(1, 9))

    def test_fig14_smoke(self, runner) -> None:
        result = EXPERIMENTS["fig14"](runner)
        assert result.data["exact"].shape == result.data["approx"].shape

    def test_hbm_smoke(self, runner) -> None:
        result = EXPERIMENTS["hbm"](runner, apps=("SCP",))
        (h1,) = result.data["hbm1"]
        (h2,) = result.data["hbm2"]
        assert 0 < h1 <= 1.001
        assert h1 <= h2 + 1e-9  # HBM1 saves at least as much as HBM2


class TestCLI:
    def test_cli_runs_one_experiment(self, capsys) -> None:
        from repro.harness.cli import main

        rc = main(["fig11", "--scale", "0.15", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 11" in out

    def test_cli_rejects_unknown_experiment(self) -> None:
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["fig99"])
