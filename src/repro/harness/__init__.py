"""Experiment harness: schemes, runner, and per-figure experiments."""

from repro.harness.experiments import EXPERIMENTS, ExperimentResult
from repro.harness.runner import Runner
from repro.harness.schemes import evaluation_schemes
from repro.harness.tables import format_table, geomean

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "Runner",
    "evaluation_schemes",
    "format_table",
    "geomean",
]
