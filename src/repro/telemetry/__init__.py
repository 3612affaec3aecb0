"""Windowed telemetry, trace export and the counter registry.

A run records its telemetry when ``spec.telemetry`` is set:
:class:`WindowSeries` (:mod:`repro.telemetry.sampler`) samples the
system every window and the report's ``timeline`` carries the
:class:`Timeline` it builds. ``repro-harness trace <scheme> <workload>
[--window CYCLES]`` records one and exports it as JSONL and as a
Chrome trace (:mod:`repro.telemetry.export`). :class:`MetricsHub`
(:mod:`repro.telemetry.hub`) is the counter registry of the harness,
the service daemon and the warehouse.
"""

from repro.telemetry.export import (
    chrome_trace,
    system_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.hub import NULL_HUB, MetricsHub, NullHub
from repro.telemetry.sampler import DEFAULT_WINDOW_CYCLES, WindowSeries
from repro.telemetry.series import Timeline, WindowSample

__all__ = [
    "DEFAULT_WINDOW_CYCLES",
    "MetricsHub",
    "NullHub",
    "NULL_HUB",
    "Timeline",
    "WindowSample",
    "WindowSeries",
    "chrome_trace",
    "system_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
