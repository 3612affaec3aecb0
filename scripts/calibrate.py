#!/usr/bin/env python
"""Calibration harness: measure Table II/III features of workload traces.

Usage: python scripts/calibrate.py [APP ...] [--scale S] [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.config import (
    AMSConfig,
    AMSMode,
    DMSConfig,
    DMSMode,
    SchedulerConfig,
    baseline_scheduler,
    static_dms,
)
from repro.sim.spec import SimSpec
from repro.sim.system import GPUSystem, simulate_spec
from repro.workloads.registry import get_workload, list_workloads


def run(workload, sched, measure_error=False):
    t0 = time.time()
    r = simulate_spec(
        workload, SimSpec(scheduler=sched, measure_error=measure_error)
    )
    r.wall = time.time() - t0
    return r


def ams(th, cov=0.10, warmup=256):
    return SchedulerConfig(
        ams=AMSConfig(mode=AMSMode.STATIC, static_th_rbl=th,
                      coverage_limit=cov, warmup_fills=warmup)
    )


def characterize(name: str, scale: float) -> None:
    wl = get_workload(name, scale=scale)
    from repro.config import GPUConfig

    fp = wl.trace_footprint(GPUConfig())
    base = run(wl, baseline_scheduler())
    # Thrashing: % of requests in rows with RBL 1-8.
    hist = base.rbl_histogram
    low = sum(r * c for r, c in hist.items() if 1 <= r <= 8)
    tot = sum(r * c for r, c in hist.items())
    thrash = 100 * low / tot if tot else 0.0
    print(f"\n=== {name} (scale {scale}) ===")
    print(f" trace: {fp}")
    print(
        f" base: acts={base.activations} avgRBL={base.avg_rbl:.2f} "
        f"BW={base.bwutil:.2f} cyc={base.elapsed_mem_cycles:.0f} "
        f"IPC={base.ipc:.2f} wall={base.wall:.1f}s"
    )
    print(f" thrash%={thrash:.1f} hist={dict(sorted(hist.items())[:10])}")
    # Delay sweep.
    rows = []
    mtd = 0
    for delay in (64, 128, 256, 512, 1024, 2048):
        r = run(get_workload(name, scale=scale), static_dms(delay))
        act_red = 100 * (1 - r.activations / base.activations)
        ipcn = r.normalized_ipc(base)
        rows.append((delay, act_red, ipcn))
        if ipcn >= 0.95:
            mtd = delay
    print(" DMS: " + "  ".join(
        f"{d}:{a:+.0f}%/{i:.2f}" for d, a, i in rows))
    act2048 = rows[-1][1]
    # AMS(8) vs AMS(1) at 10% coverage.
    r8 = run(get_workload(name, scale=scale), ams(8), measure_error=True)
    r1 = run(get_workload(name, scale=scale), ams(1))
    red8 = 100 * (1 - r8.activations / base.activations)
    red1 = 100 * (1 - r1.activations / base.activations)
    print(
        f" AMS8: act-{red8:.0f}% cov={r8.coverage:.2%} "
        f"err={100 * (r8.application_error or 0):.1f}% "
        f"ipc={r8.normalized_ipc(base):.2f} | AMS1: act-{red1:.0f}% "
        f"cov={r1.coverage:.2%}"
    )
    from repro.workloads.characteristics import (
        TABLE_II,
        classify_act_sensitivity,
        classify_delay_tolerance,
        classify_error_tolerance,
        classify_thrashing,
        classify_th_rbl_sensitivity,
    )

    want = TABLE_II[name]
    got = dict(
        thrash=classify_thrashing(thrash),
        delay=classify_delay_tolerance(mtd),
        act=classify_act_sensitivity(act2048),
        th=classify_th_rbl_sensitivity(max(red1 - red8, 0.0)),
        err=classify_error_tolerance(100 * (r8.application_error or 0)),
    )
    wants = dict(
        thrash=want.thrashing,
        delay=want.delay_tolerance,
        act=want.act_sensitivity,
        th=want.th_rbl_sensitivity,
        err=want.error_tolerance,
    )
    marks = {
        k: ("OK" if got[k] == wants[k] else f"GOT {got[k]} WANT {wants[k]}")
        for k in got
    }
    print(f" classify: {marks}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("apps", nargs="*", default=None)
    ap.add_argument("--scale", type=float, default=0.5)
    args = ap.parse_args()
    apps = args.apps or list_workloads()
    for name in apps:
        characterize(name, args.scale)


if __name__ == "__main__":
    main()
