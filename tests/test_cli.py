"""The ``repro-harness`` command line: surface, outputs and scheme names.

Everything under ``tests/golden/cli/`` was recorded from the command
line before its flags moved into one table:

* ``surface.json`` — every subcommand's option strings, dests,
  defaults, types and actions (captured by intercepting
  ``ArgumentParser.parse_args``);
* ``schemes.json`` — the (label, cache key) each accepted scheme name
  gave: catalogue ids in ``table``/``matrix``/``submit``/``tenants``,
  Fig. 12 labels in ``trace``, and aliases in ``pareto``;
* the stdout of ``table``, ``matrix``, ``pareto --json`` and a 2-tenant
  ``tenants --json`` at ``--scale 0.05 --no-cache --quiet``, and the
  JSONL file of ``trace Dyn-DMS synthetic --no-chrome``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.harness import cli
from repro.harness.cache import cache_key
from repro.harness.experiments import ExperimentResult
from repro.harness.schemes import (
    SCHEME_DEFS,
    evaluation_schemes,
    resolve_scheme,
)
from repro.sim.spec import SimSpec

GOLDEN = Path(__file__).parent / "golden" / "cli"
QUICK = ["--scale", "0.05", "--no-cache", "--quiet"]

#: A first argument that reaches each subcommand's parser.
SUBCOMMAND_ARGV = {
    "experiment": ["fig02"], "cache": ["cache"], "trace": ["trace"],
    "table": ["table"], "matrix": ["matrix"], "pareto": ["pareto"],
    "report": ["report"], "serve": ["serve"], "submit": ["submit"],
    "status": ["status"], "watch": ["watch"], "tenants": ["tenants"],
}


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class _Parsed(Exception):
    pass


def _surface(argv, monkeypatch) -> dict:
    """The parser a subcommand builds, as {dest: flag description}."""
    seen = {}

    def intercept(parser, *args, **kwargs):
        seen["actions"] = [
            a for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        raise _Parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", intercept)
    with pytest.raises(_Parsed):
        cli.main(argv)
    return {
        a.dest: {
            "option_strings": list(a.option_strings),
            "dest": a.dest,
            "default": a.default,
            "type": getattr(a.type, "__name__", None),
            "action": type(a).__name__,
            "nargs": a.nargs,
        }
        for a in seen["actions"]
    }


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_ARGV))
def test_every_subcommand_keeps_its_flags_and_defaults(name, monkeypatch):
    recorded = json.loads((GOLDEN / "surface.json").read_text())[name]
    assert _surface(SUBCOMMAND_ARGV[name], monkeypatch) == {
        flag["dest"]: flag for flag in recorded
    }


def test_port_default_is_the_daemon_port():
    from repro.service.server import DEFAULT_PORT

    assert cli.FLAGS["--port"]["default"] == DEFAULT_PORT


# ----------------------------------------------------------------------
# Golden stdout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("golden, argv", [
    ("table.txt",
     ["table", "--apps", "synthetic", "--schemes", "frfcfs,dyn-dms"]),
    ("matrix.txt",
     ["matrix", "--devices", "gddr5,hbm", "--apps", "synthetic",
      "--schemes", "dyn-dms"]),
    ("pareto.json",
     ["pareto", "--schemes", "base,dms2,ams", "--devices", "gddr5",
      "--ecc", "none,secded", "--json"]),
    ("tenants.json",
     ["tenants", "--tenant", "a=synthetic:latency",
      "--tenant", "b=synthetic:approx-batch", "--json"]),
])
def test_stdout_matches_the_recorded_run(golden, argv, capsys):
    assert cli.main(argv + QUICK) == cli.EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_trace_writes_the_recorded_jsonl(tmp_path, capsys):
    argv = [
        "trace", "Dyn-DMS", "synthetic", "--no-chrome",
        "--scale", "0.05", "--quiet", "--out-dir", str(tmp_path),
    ]
    assert cli.main(argv) == cli.EXIT_OK
    path = tmp_path / "synthetic_Dyn-DMS.telemetry.jsonl"
    assert capsys.readouterr().out == f"wrote {path} (5 windows)\n"
    assert path.read_text() == (
        GOLDEN / "trace.telemetry.jsonl"
    ).read_text()


# ----------------------------------------------------------------------
# Scheme names
# ----------------------------------------------------------------------
def _key(config) -> str:
    return cache_key(
        app="SCP", scale=1.0, seed=7, spec=SimSpec(scheduler=config)
    )


@pytest.mark.parametrize(
    "name", sorted(json.loads((GOLDEN / "schemes.json").read_text()))
)
def test_every_accepted_name_resolves_as_before(name):
    recorded = json.loads((GOLDEN / "schemes.json").read_text())[name]
    label, config = resolve_scheme(name)
    assert [label, _key(config)] == recorded


def test_ids_and_labels_name_the_same_scheme():
    for definition in SCHEME_DEFS:
        expected = (definition.label, definition.build())
        assert resolve_scheme(definition.id) == expected
        assert resolve_scheme(definition.label) == expected
    for label, config in evaluation_schemes().items():
        assert resolve_scheme(label) == (label, config)
    assert resolve_scheme("BASE") == resolve_scheme("frfcfs")
    assert resolve_scheme("dms") == resolve_scheme("static-dms")
    assert resolve_scheme("ams") == resolve_scheme("static-ams")
    assert resolve_scheme("dms2")[0] == "Static-DMS(256)"


@pytest.mark.parametrize("argv", [
    ["trace", "nope", "synthetic"],
    ["table", "--schemes", "nope"],
    ["matrix", "--schemes", "frfcfs,nope"],
    ["pareto", "--schemes", "nope"],
    ["submit", "SCP", "--scheme", "nope"],
    ["tenants", "--tenant", "a=synthetic", "--scheme", "nope"],
])
def test_unknown_scheme_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unknown scheme 'nope'" in capsys.readouterr().err


class _Ran(Exception):
    pass


@pytest.mark.parametrize("argv", [
    ["table", "--jobs", "0"],
    ["table", "--jobs", "-2"],
    ["matrix", "--jobs", "0"],
    ["pareto", "--jobs", "0"],
    ["tenants", "--tenant", "a=synthetic", "--jobs", "0"],
    ["serve", "--retries", "-1"],
    ["serve", "--cell-timeout", "-5"],
    ["serve", "--breaker-threshold", "0"],
    ["serve", "--breaker-cooldown", "-1"],
])
def test_out_of_range_run_flags_are_usage_errors(argv, monkeypatch, capsys):
    from repro.harness.runner import Runner
    from repro.service.server import ServiceDaemon

    def ran(*args, **kwargs):
        raise _Ran(argv)

    monkeypatch.setattr(Runner, "run", ran)
    monkeypatch.setattr(Runner, "run_matrix", ran)
    monkeypatch.setattr(ServiceDaemon, "run", ran)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--quiet"])
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_a_label_works_where_only_ids_did(capsys):
    argv = ["table", "--apps", "synthetic", "--schemes", "Baseline,Dyn-DMS"]
    assert cli.main(argv + QUICK) == cli.EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "table.txt").read_text()


# ----------------------------------------------------------------------
# --apps dispatch
# ----------------------------------------------------------------------
def test_apps_is_ignored_by_a_fixed_app_figure(capsys):
    assert cli.main(["fig11"] + QUICK) == cli.EXIT_OK
    plain = capsys.readouterr().out
    assert cli.main(["fig11", "--apps", "LPS"] + QUICK) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == plain
    assert "fig11: --apps does not apply" in captured.err


def test_type_error_inside_an_experiment_propagates(monkeypatch):
    def experiment(runner, apps=("SCP",)):
        if apps != ("SCP",):
            raise TypeError("a bug inside the experiment")
        return ExperimentResult("typed", "ran")

    monkeypatch.setattr(cli, "EXPERIMENTS", {"typed": experiment})
    with pytest.raises(TypeError, match="a bug inside"):
        cli.main(["typed", "--apps", "GEMM", "--no-cache", "--quiet"])
