"""Raw simulator throughput: engine events per wall-clock second.

Unlike the figure benchmarks (which time whole experiment harnesses,
caches included), this one measures the hot path itself: each cell
builds a :class:`~repro.sim.system.GPUSystem` directly, runs it to
completion with every cache layer out of the picture, and reads the
engine's event counters. The result is written to
``BENCH_sim_throughput.json`` at the repository root so successive
commits can be compared::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py \
        --scale 0.5 --jobs 4 --out BENCH_sim_throughput.json

The JSON records, per (app, scheme) cell: events processed/cancelled,
wall seconds, and events/sec; plus a matrix section timing a fresh
``Runner.run_matrix`` at each fan-out level (1/2/4/8 workers), every
pooled level against a *prewarmed*
:class:`~repro.harness.pool.WarmPool` so the numbers compare dispatch
cost rather than process start-up. Parallel speedups are only
meaningful on a multi-core host — on one core they hover at or below
1.0 by construction.

The output file keeps a dated ``history`` list: each run replaces
``latest`` and appends a compact summary entry, so regressions are
visible across commits without digging through git history.

Run under pytest it doubles as a smoke test (tiny scale, no JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.harness.runner import Runner
from repro.harness.schemes import dms_only, evaluation_schemes
from repro.sim.system import GPUSystem
from repro.workloads.registry import get_workload

#: Default (app, scheme label) cells: one latency-bound and one
#: bandwidth-bound application, each baseline and under DMS(128).
DEFAULT_APPS = ("SCP", "GEMM")

_REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = _REPO_ROOT / "BENCH_sim_throughput.json"


def _cell_schemes() -> dict:
    return {
        "Baseline": evaluation_schemes()["Baseline"],
        "DMS(128)": dms_only(128),
    }


def measure_cell(app: str, label: str, scheme, *, scale: float,
                 seed: int, telemetry_window: int = 0) -> dict:
    """Simulate one cell from scratch and report engine throughput.

    ``telemetry_window > 0`` attaches a live :class:`MetricsHub` with
    that window size, timing the windowed sampler alongside the run.
    """
    from repro.dram.request import reset_request_ids
    from repro.telemetry import MetricsHub

    reset_request_ids()
    workload = get_workload(app, scale=scale, seed=seed)
    hub = (
        MetricsHub(window_cycles=telemetry_window)
        if telemetry_window > 0 else None
    )
    system = GPUSystem(scheduler=scheme, telemetry=hub)
    streams = workload.warp_streams(system.config)
    start = time.perf_counter()
    system.run(streams, workload_name=workload.name)
    wall = time.perf_counter() - start
    events = system.engine.events_processed
    return {
        "app": app,
        "scheme": label,
        "events_processed": events,
        "events_cancelled": system.engine.events_cancelled,
        "wall_s": round(wall, 4),
        "events_per_s": round(events / wall) if wall > 0 else 0,
    }


def measure_telemetry_overhead(apps, *, scale: float, seed: int,
                               window: int) -> dict:
    """Wall-clock cost of running the windowed telemetry sampler.

    Times every (app, scheme) cell twice — hub off, then hub on with
    ``window``-cycle sampling — and reports the relative slowdown. The
    disabled path must stay within the observability budget (the hub
    off number is the one the ``cells`` section also measures: the
    no-op ``NULL_HUB`` leaves the hot loops untouched).
    """
    off = on = 0.0
    for app in apps:
        for label, scheme in _cell_schemes().items():
            off += measure_cell(app, label, scheme, scale=scale,
                                seed=seed)["wall_s"]
            on += measure_cell(app, label, scheme, scale=scale,
                               seed=seed,
                               telemetry_window=window)["wall_s"]
    return {
        "window_cycles": window,
        "off_wall_s": round(off, 4),
        "on_wall_s": round(on, 4),
        "overhead_pct": (
            round(100.0 * (on - off) / off, 2) if off > 0 else None
        ),
    }


def measure_tenants(*, scale: float, seed: int) -> dict:
    """Composer + arbiter overhead of the multi-tenant path.

    Times one 3-tenant mix (one tenant per service class, batch-fair
    arbitration) against the summed solo runs of its members on the
    same scheme: the delta is what trace interleaving, per-request
    tenant tagging, the arbiter fold, and the tracker hooks cost.
    """
    from repro.config.tenants import TenantMixSpec, TenantSpec
    from repro.dram.request import reset_request_ids
    from repro.sim.spec import SimSpec
    from repro.sim.system import simulate_spec
    from repro.workloads.tenant_mix import TenantMix

    scheme = dms_only(128)
    mix = TenantMixSpec(
        tenants=(
            TenantSpec(name="lat", workload="SCP",
                       tenant_class="latency", scale=scale),
            TenantSpec(name="bw", workload="GEMM",
                       tenant_class="bandwidth", scale=scale),
            TenantSpec(name="ax", workload="blackscholes",
                       tenant_class="approx-batch", scale=scale),
        ),
        arbiter="batch-fair",
    )
    reset_request_ids()
    workload = TenantMix(mix, scale=1.0, seed=seed)
    start = time.perf_counter()
    report = simulate_spec(
        workload, SimSpec(scheduler=scheme, tenants=mix)
    )
    mix_wall = time.perf_counter() - start
    solo_wall = 0.0
    for tenant in mix.tenants:
        reset_request_ids()
        solo = get_workload(
            tenant.workload, scale=scale, seed=seed
        )
        start = time.perf_counter()
        simulate_spec(solo, SimSpec(scheduler=scheme))
        solo_wall += time.perf_counter() - start
    return {
        "arbiter": mix.arbiter,
        "tenants": len(mix.tenants),
        "mix_wall_s": round(mix_wall, 4),
        "solo_sum_wall_s": round(solo_wall, 4),
        "overhead_pct": (
            round(100.0 * (mix_wall - solo_wall) / solo_wall, 2)
            if solo_wall > 0 else None
        ),
        "requests_served": report.requests_served,
    }


def _time_matrix(apps, schemes, *, scale: float, seed: int,
                 jobs: int) -> float:
    """One fresh ``run_matrix`` against a prewarmed pool, in seconds."""
    runner = Runner(scale=scale, seed=seed, verbose=False,
                    cache=None, jobs=jobs)
    runner.prewarm()
    start = time.perf_counter()
    runner.run_matrix(apps, schemes)
    wall = time.perf_counter() - start
    runner.close()
    return round(wall, 4)


def measure_matrix(apps, *, scale: float, seed: int,
                   jobs_levels=(1, 2, 4, 8)) -> dict:
    """Jobs-scaling sweep: one fresh (apps x schemes) matrix per level.

    Every pooled level runs against a prewarmed
    :class:`~repro.harness.pool.WarmPool`, so the comparison is
    steady-state dispatch cost, not worker start-up.
    """
    schemes = _cell_schemes()
    levels: dict[str, dict] = {}
    serial = None
    for n in jobs_levels:
        wall = _time_matrix(apps, schemes, scale=scale, seed=seed, jobs=n)
        entry = {"wall_s": wall}
        if n == 1:
            serial = wall
        if serial is not None and wall > 0:
            entry["speedup_vs_serial"] = round(serial / wall, 3)
        levels[f"jobs{n}"] = entry
    return {"cells": len(apps) * len(schemes), "levels": levels}


def run_benchmark(*, scale: float, seed: int, jobs: int,
                  apps=DEFAULT_APPS, matrix: bool = True,
                  telemetry_window: int = 0,
                  tenants: bool = False) -> dict:
    cells = [
        measure_cell(app, label, scheme, scale=scale, seed=seed)
        for app in apps
        for label, scheme in _cell_schemes().items()
    ]
    total_events = sum(c["events_processed"] for c in cells)
    total_wall = sum(c["wall_s"] for c in cells)
    result = {
        "benchmark": "sim_throughput",
        "scale": scale,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cells": cells,
        "total": {
            "events_processed": total_events,
            "wall_s": round(total_wall, 4),
            "events_per_s": (
                round(total_events / total_wall) if total_wall > 0 else 0
            ),
        },
    }
    if matrix:
        jobs_levels = tuple(
            sorted({n for n in (1, 2, 4, 8) if n <= jobs} | {jobs})
        )
        result["matrix"] = measure_matrix(
            apps, scale=scale, seed=seed, jobs_levels=jobs_levels
        )
    if telemetry_window > 0:
        result["telemetry"] = measure_telemetry_overhead(
            apps, scale=scale, seed=seed, window=telemetry_window
        )
    if tenants:
        result["tenants"] = measure_tenants(scale=scale, seed=seed)
    return result


def _summarize(result: dict, *, date: str) -> dict:
    """Compact history entry for one benchmark run."""
    entry = {
        "date": date,
        "scale": result.get("scale"),
        "seed": result.get("seed"),
        "events_per_s": result.get("total", {}).get("events_per_s"),
    }
    matrix = result.get("matrix")
    if isinstance(matrix, dict):
        if "levels" in matrix:
            entry["matrix_speedups"] = {
                level: data.get("speedup_vs_serial")
                for level, data in matrix["levels"].items()
            }
        elif "speedup" in matrix:  # pre-scaling single-level format
            entry["matrix_speedups"] = {"jobs": matrix["speedup"]}
    tenants = result.get("tenants")
    if isinstance(tenants, dict):
        entry["tenants_overhead_pct"] = tenants.get("overhead_pct")
    return entry


def _load_history(path: Path) -> list:
    """Prior runs' summary entries; tolerates every past file format."""
    if not path.exists():
        return []
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []
    if isinstance(doc, dict):
        if isinstance(doc.get("history"), list):
            return doc["history"]
        if "total" in doc:  # single-result format of earlier revisions
            return [_summarize(doc, date="(pre-history)")]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure raw simulator throughput (events/sec)."
    )
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload size multiplier")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", "-j", type=int, default=8,
                        help="widest fan-out level for the jobs-scaling "
                        "matrix timing (levels: 1/2/4/8 up to this)")
    parser.add_argument("--no-matrix", action="store_true",
                        help="skip the serial-vs-parallel matrix timing")
    parser.add_argument("--telemetry", type=int, nargs="?", const=4096,
                        default=0, metavar="WINDOW",
                        help="also time every cell with a live telemetry"
                        " hub (optional window size, default 4096) and"
                        " report the sampling overhead")
    parser.add_argument("--tenants", action="store_true",
                        help="also time a 3-tenant mix against the "
                        "summed solo runs of its members (composer + "
                        "arbiter overhead)")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="output JSON path")
    args = parser.parse_args(argv)
    result = run_benchmark(
        scale=args.scale, seed=args.seed, jobs=max(1, args.jobs),
        matrix=not args.no_matrix,
        telemetry_window=max(0, args.telemetry),
        tenants=args.tenants,
    )
    out = Path(args.out)
    history = _load_history(out)
    history.append(
        _summarize(result, date=time.strftime("%Y-%m-%d %H:%M:%S"))
    )
    document = {
        "benchmark": "sim_throughput",
        "latest": result,
        "history": history,
    }
    out.write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )
    for cell in result["cells"]:
        print(
            f"{cell['app']:>12} {cell['scheme']:<10}"
            f" {cell['events_processed']:>9} events"
            f" {cell['wall_s']:>8.3f}s"
            f" {cell['events_per_s']:>9} ev/s"
        )
    total = result["total"]
    print(f"{'TOTAL':>12} {'':<10} {total['events_processed']:>9} events"
          f" {total['wall_s']:>8.3f}s {total['events_per_s']:>9} ev/s")
    if "matrix" in result:
        m = result["matrix"]
        print(f"matrix ({m['cells']} cells):")
        for level, data in m["levels"].items():
            speed = data.get("speedup_vs_serial")
            extra = f"  {speed:.3f}x vs serial" if speed else ""
            print(f"  {level:>9}: {data['wall_s']:>8.3f}s{extra}")
    if "telemetry" in result:
        t = result["telemetry"]
        print(f"telemetry({t['window_cycles']}): off {t['off_wall_s']}s"
              f" on {t['on_wall_s']}s overhead {t['overhead_pct']}%")
    if "tenants" in result:
        t = result["tenants"]
        print(f"tenants({t['tenants']}x, {t['arbiter']}):"
              f" mix {t['mix_wall_s']}s"
              f" solo-sum {t['solo_sum_wall_s']}s"
              f" overhead {t['overhead_pct']}%")
    print(f"wrote {out}")
    return 0


def test_sim_throughput_smoke():
    """Tiny-scale smoke: every cell makes progress; no JSON is written."""
    result = run_benchmark(scale=0.1, seed=7, jobs=1, matrix=False)
    assert result["cells"], "no cells measured"
    for cell in result["cells"]:
        assert cell["events_processed"] > 0
        assert cell["events_per_s"] > 0


def test_tenants_overhead_smoke():
    """The tenants measurement runs and reports both wall clocks."""
    data = measure_tenants(scale=0.05, seed=7)
    assert data["mix_wall_s"] > 0
    assert data["solo_sum_wall_s"] > 0
    assert data["requests_served"] > 0


if __name__ == "__main__":
    sys.exit(main())
