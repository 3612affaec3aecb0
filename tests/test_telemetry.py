"""Telemetry subsystem tests.

The headline guarantee is *differential*: running the same cell with
telemetry on and off produces field-identical ``SimReport``s apart from
the opt-in ``timeline`` — observability never perturbs simulation.
The rest covers the hub contract, the timeline round-trip through the
persistent result cache, and both exporters.
"""

import json

import pytest

from repro.config.scheduler import (
    AMSConfig,
    AMSMode,
    DMSConfig,
    DMSMode,
    SchedulerConfig,
)
from repro.dram.request import reset_request_ids
from repro.harness.cache import ResultCache, cache_key
from repro.harness.cli import main as cli_main
from repro.sim.report import SimReport
from repro.sim.spec import SimSpec
from repro.sim.system import GPUSystem, simulate_spec
from repro.telemetry import (
    NULL_HUB,
    MetricsHub,
    Timeline,
    system_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.workloads.registry import get_workload

DYN_COMBO = SchedulerConfig(
    dms=DMSConfig(mode=DMSMode.DYNAMIC, window_cycles=512,
                  windows_per_phase=8),
    ams=AMSConfig(mode=AMSMode.DYNAMIC, coverage_limit=0.10,
                  window_cycles=512, warmup_fills=16),
)


def traced_run(
    scheduler: SchedulerConfig,
    *,
    telemetry: bool,
    log_commands: bool = False,
    app: str = "synthetic",
    scale: float = 0.2,
    seed: int = 5,
):
    """One deterministic cell, optionally observed."""
    reset_request_ids()
    workload = get_workload(app, scale=scale, seed=seed)
    hub = MetricsHub(window_cycles=512) if telemetry else None
    system = GPUSystem(
        scheduler=scheduler, telemetry=hub, log_commands=log_commands
    )
    report = system.run(
        workload.warp_streams(system.config), workload_name=workload.name
    )
    return report, system, hub


class TestDifferential:
    """Observability must never change what is observed."""

    @pytest.mark.parametrize(
        "scheduler",
        [SchedulerConfig(), DYN_COMBO],
        ids=["baseline", "dyn-combo"],
    )
    def test_reports_field_identical(self, scheduler) -> None:
        on, _, _ = traced_run(scheduler, telemetry=True)
        off, _, _ = traced_run(scheduler, telemetry=False)
        assert on.timeline is not None and len(on.timeline) > 0
        assert off.timeline is None
        d_on, d_off = on.to_dict(), off.to_dict()
        assert d_on.pop("timeline") is not None
        assert d_off.pop("timeline") is None
        assert d_on == d_off

    def test_command_log_identical_under_telemetry(self) -> None:
        on, sys_on, _ = traced_run(
            DYN_COMBO, telemetry=True, log_commands=True
        )
        off, sys_off, _ = traced_run(
            DYN_COMBO, telemetry=False, log_commands=True
        )
        for ch_on, ch_off in zip(sys_on.channels, sys_off.channels):
            assert ch_on.command_log == ch_off.command_log


class TestHub:
    def test_counters_and_gauges(self) -> None:
        hub = MetricsHub(window_cycles=64)
        hub.inc("a")
        hub.inc("a", 2.5)
        hub.gauge("g", 1.0)
        hub.gauge("g", 3.0)
        assert hub.counter("a") == pytest.approx(3.5)
        assert hub.counter("missing") == 0.0
        assert hub.snapshot() == {
            "counters": {"a": 3.5},
            "gauges": {"g": 3.0},
        }

    def test_invalid_window_rejected(self) -> None:
        with pytest.raises(ValueError):
            MetricsHub(window_cycles=0)

    def test_null_hub_is_inert(self) -> None:
        NULL_HUB.inc("x", 5)
        NULL_HUB.gauge("y", 1.0)
        assert not NULL_HUB.enabled
        assert NULL_HUB.counter("x") == 0.0
        assert NULL_HUB.snapshot() == {"counters": {}, "gauges": {}}

    def test_run_populates_hub(self) -> None:
        report, _, hub = traced_run(DYN_COMBO, telemetry=True)
        assert hub.timeline is report.timeline
        assert hub.counter("window.samples") == len(report.timeline)
        drops = sum(
            v for k, v in hub.counters.items() if k.endswith("ams.drops")
        )
        assert drops == report.requests_dropped


class TestTimelineRoundTrip:
    def test_report_round_trip_with_timeline(self) -> None:
        report, _, _ = traced_run(DYN_COMBO, telemetry=True)
        clone = SimReport.from_dict(report.to_dict())
        assert clone == report
        assert clone.timeline == report.timeline

    def test_timeline_none_round_trip(self) -> None:
        assert Timeline.from_dict(None) is None
        report, _, _ = traced_run(DYN_COMBO, telemetry=False)
        assert SimReport.from_dict(report.to_dict()).timeline is None

    def test_result_cache_preserves_timeline(self, tmp_path) -> None:
        report, _, _ = traced_run(DYN_COMBO, telemetry=True)
        cache = ResultCache(tmp_path, enabled=True)
        key = cache_key(
            app="synthetic", scale=0.2, seed=5, scheduler=DYN_COMBO
        )
        cache.store(key, report)
        loaded = cache.load(key)
        assert loaded == report
        assert loaded.timeline == report.timeline

    def test_timeline_trajectory_accessors(self) -> None:
        report, _, _ = traced_run(DYN_COMBO, telemetry=True)
        timeline = report.timeline
        xs = timeline.dms_x_trajectory(0)
        assert [idx for idx, _ in xs] == list(range(len(timeline)))
        assert timeline.series("bwutil") == [
            s.bwutil for s in timeline.samples
        ]


class TestExporters:
    def test_jsonl_export(self, tmp_path) -> None:
        report, _, _ = traced_run(DYN_COMBO, telemetry=True)
        path = tmp_path / "series.jsonl"
        count = write_jsonl(report.timeline, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert count == len(lines) == len(report.timeline)
        parsed = [json.loads(line) for line in lines]
        assert parsed == [s.to_dict() for s in report.timeline]

    def test_chrome_trace_export(self, tmp_path) -> None:
        report, system, _ = traced_run(
            DYN_COMBO, telemetry=True, log_commands=True
        )
        document = system_chrome_trace(
            system, drops=report.drops, timeline=report.timeline
        )
        path = tmp_path / "trace.json"
        n_events = write_chrome_trace(document, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        events = loaded["traceEvents"]
        assert len(events) == n_events
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "i", "C", "M"}
        spans = [e for e in events if e["ph"] == "X"]
        total_commands = sum(
            len(ch.command_log) for ch in system.channels
        )
        assert len(spans) == total_commands
        for event in spans:
            assert event["ts"] >= 0 and event["dur"] > 0
            assert 0 <= event["pid"] < len(system.channels)
        drops = [e for e in events if e["ph"] == "i"]
        assert len(drops) == len(report.drops)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "timeline counter tracks missing"

    def test_chrome_trace_without_command_log(self) -> None:
        report, system, _ = traced_run(
            DYN_COMBO, telemetry=True, log_commands=False
        )
        document = system_chrome_trace(system, timeline=report.timeline)
        assert all(
            e["ph"] in ("M", "C") for e in document["traceEvents"]
        )


class TestTraceCLI:
    def test_trace_subcommand_writes_both_exports(
        self, tmp_path, capsys
    ) -> None:
        rc = cli_main(
            [
                "trace", "Dyn-DMS+Dyn-AMS", "synthetic",
                "--scale", "0.15", "--seed", "5",
                "--window", "512",
                "--out-dir", str(tmp_path),
                "--quiet",
            ]
        )
        assert rc == 0
        jsonl = list(tmp_path.glob("*.telemetry.jsonl"))
        trace = list(tmp_path.glob("*.trace.json"))
        assert len(jsonl) == 1 and len(trace) == 1
        document = json.loads(trace[0].read_text(encoding="utf-8"))
        assert document["traceEvents"]
        for line in jsonl[0].read_text(encoding="utf-8").splitlines():
            json.loads(line)
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_trace_subcommand_jsonl_only(self, tmp_path) -> None:
        rc = cli_main(
            [
                "trace", "Baseline", "synthetic",
                "--scale", "0.15", "--seed", "5",
                "--window", "512",
                "--out-dir", str(tmp_path),
                "--no-chrome", "--quiet",
            ]
        )
        assert rc == 0
        assert list(tmp_path.glob("*.telemetry.jsonl"))
        assert not list(tmp_path.glob("*.trace.json"))


def test_simulate_accepts_telemetry() -> None:
    """`simulate_spec()` plumbs the hub through to the report timeline."""
    hub = MetricsHub(window_cycles=512)
    workload = get_workload("synthetic", scale=0.15, seed=5)
    reset_request_ids()
    report = simulate_spec(
        workload, SimSpec(scheduler=DYN_COMBO), telemetry=hub
    )
    assert report.timeline is hub.timeline
    assert len(report.timeline) > 0
