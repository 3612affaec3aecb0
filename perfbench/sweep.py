"""Workload ``sweep``: the Fig. 12 matrix through ``Runner.run_matrix``.

Eight cells (SCP and 3MM, from groups 1 and 3, under four schemes) at
the calibrated scale 1.0 with error replay, serial (``jobs=1``, the CLI
default), with a fresh runner per pass so no cell is ever served from
its memo.  Every simulator layer and the error replay do nearly all
their work here and none on ``service-hit`` or ``ingest``.  The four
schemes of one app share one (app, seed) trace, so a change that reuses
traces or batches cells shows here and not on ``service-cold``.
"""

from __future__ import annotations

import json

from common import (
    BENCH_DIR, COMBINED, DEFAULT_SEED, SCHEMES, SETUP_ROUNDS, Context, Outcome,
    geomean, keep_going, median, now, peak_rss_mb, report_digest,
    report_invariant_errors, speed_note,
)

#: Program modules imported before set-up starts (counted in ``setup_s``).
PROGRAM_MODULES = ("repro.harness.runner", "repro.harness.schemes")

APPS = ("SCP", "3MM")
SCALE = 1.0
CELLS = len(APPS) * len(SCHEMES)

#: Canonical report digests of the eight cells at the default seed.
PINNED = BENCH_DIR / "pinned_sweep_seed7.json"

#: Fig. 12 reference for groups 1-3 (PAPER.md, EXPERIMENTS.md).
PAPER_REFERENCE = (
    "paper Fig. 12, groups 1-3: combined schemes 0.56-0.66x row energy, "
    "IPC >= 0.95, ~7 % mean application error; the model is validated "
    "on normalised trends only, so no absolute error figure is given"
)


def _schemes() -> dict:
    from repro.harness.schemes import evaluation_schemes

    catalogue = evaluation_schemes()
    return {label: catalogue[label] for label in SCHEMES}


def _runner(scale: float, seed: int):
    from repro.harness.runner import Runner

    return Runner(
        scale=scale, seed=seed, cache=None, jobs=1, verbose=False,
        retries=0, keep_going=True, faults=None,
    )


def _one_pass(seed: int, schemes: dict):
    """One timed ``run_matrix`` call; returns (result, seconds)."""
    runner = _runner(SCALE, seed)
    try:
        start = now()
        result = runner.run_matrix(APPS, schemes, measure_error=True)
        elapsed = now() - start
    finally:
        runner.close()
    return result, elapsed


def _check(result, seed: int, pinned: dict, out: Outcome) -> None:
    """Fail every cell that errored, broke an invariant or, at the
    default seed, no longer matches its pinned digest."""
    for failure in result.failures:
        out.fail(f"{failure.app}/{failure.label}: {failure.error_type}: "
                 f"{failure.message}")
    for app in APPS:
        for label in SCHEMES:
            if (app, label) not in result:
                continue
            report = result[(app, label)]
            for error in report_invariant_errors(report):
                out.fail(f"{app}/{label}: {error}")
            if seed == DEFAULT_SEED:
                digest = report_digest(report)
                if digest != pinned[f"{app}/{label}"]:
                    out.fail(f"{app}/{label}: digest {digest[:12]} differs "
                             "from the pinned seed-7 report")


def pass_figures(result) -> dict[str, tuple[float, str]] | None:
    """The modelled results and exact model counts of one complete pass,
    as per-layer metrics; None if a cell is missing.

    Computed right after the pass so its reports need not be kept:
    holding them would make peak memory depend on the pass count.
    """
    if not all((a, s) in result for a in APPS for s in SCHEMES):
        return None
    energy, ipc, error = [], [], []
    for app in APPS:
        base, combo = result[(app, "Baseline")], result[(app, COMBINED)]
        energy.append(combo.normalized_row_energy(base))
        ipc.append(combo.normalized_ipc(base))
        error.append(combo.application_error)
    reports = [result[k] for k in result]
    channels = [s for r in reports for s in r.channel_stats]
    combos = [result[(app, COMBINED)] for app in APPS]
    acts = sum(r.activations for r in reports)
    drops = sum(r.requests_dropped for r in reports)
    arrived = sum(r.reads_arrived for r in reports)

    def mean_of(attr: str) -> float:
        values = [v for r in combos for v in getattr(r, attr)]
        return sum(values) / len(values)

    return {
        "model.row_energy_norm": (geomean(energy), "ratio"),
        "model.ipc_norm": (geomean(ipc), "ratio"),
        "model.app_error_pct": (100.0 * sum(error) / len(error), "%"),
        "gpu.instructions": (
            sum(r.total_instructions for r in reports), "count"),
        "cache.l2_hits": (sum(r.l2.hits for r in reports), "count"),
        "cache.l2_misses": (sum(r.l2.misses for r in reports), "count"),
        "sched.requests": (
            sum(c.reads_arrived + c.writes_arrived for c in channels),
            "count"),
        "sched.activations": (acts, "count"),
        "sched.avg_rbl": (
            sum(r.requests_served for r in reports) / acts, "req/act"),
        "sched.drops": (drops, "count"),
        "sched.coverage": (drops / arrived, "ratio"),
        "sched.dms_x": (mean_of("final_dms_delays"), "cycles"),
        "sched.th_rbl": (mean_of("final_th_rbls"), "req"),
        "dram.commands": (
            sum(c.activations + c.precharges + c.requests_served
                + c.refreshes for c in channels), "count"),
        "dram.bwutil": (sum(r.bwutil for r in reports) / len(reports),
                        "ratio"),
    }


def setup_round(seed: int) -> None:
    """The repeatable part of set-up: first calls into every kernel the
    sweep uses, on a tiny matrix."""
    runner = _runner(0.05, seed)
    try:
        runner.run_matrix(
            APPS,
            {k: v for k, v in _schemes().items() if k in ("Baseline", COMBINED)},
            measure_error=True,
        )
    finally:
        runner.close()


def _measure(seed: int, seconds: float, out: Outcome, hooks=None):
    """Closed loop of passes; returns (pass times, first pass figures,
    (start, end) of the loop)."""
    schemes = _schemes()
    pinned = json.loads(PINNED.read_text())
    times: list[float] = []
    first = None
    started = now()
    while keep_going(started, seconds, times):
        if hooks is not None:
            hooks.before_pass(len(times))
        result, elapsed = _one_pass(seed, schemes)
        if hooks is not None:
            hooks.after_pass()
        times.append(elapsed)
        out.attempted += CELLS
        _check(result, seed, pinned, out)
        if len(times) == 1:
            first = pass_figures(result)
        del result
    return times, first, (started, now())


def run(workload: str, ctx: Context) -> Outcome:
    out = Outcome()
    rounds = []
    for _ in range(1 if ctx.trace else SETUP_ROUNDS):
        start = now()
        setup_round(ctx.seed)
        rounds.append(now() - start)
    times, first, window = _measure(ctx.seed, ctx.seconds, out)
    if not ctx.trace:
        _report_e2e(out, ctx, times, first, window,
                    ctx.import_s + median(rounds))
        return out
    from sweep_trace import SweepHooks

    hooks = SweepHooks()
    try:
        traced_times, _, traced_window = _measure(
            ctx.seed, ctx.seconds, out, hooks)
    finally:
        hooks.spans.uninstall()
    hooks.spans.dump(ctx.traces / f"sweep-seed{ctx.seed}.json")
    hooks.report(out, len(traced_times),
                 median(traced_times) * ctx.probe.factor(*traced_window),
                 median(times) * ctx.probe.factor(*window), len(times))
    out.metrics.update(first or {})
    return out


def _report_e2e(out: Outcome, ctx: Context, times: list[float], first,
                window: tuple[float, float], setup_s: float) -> None:
    f_setup = ctx.probe.factor(ctx.setup_started, window[0])
    f = ctx.probe.factor(*window)
    pass_ms = [1000.0 * t for t in times]
    out.host("setup_s", "setup_s", setup_s, f_setup, "s", "s")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    out.say(f"peak_rss_mb       {peak_rss_mb():10.4f} MB")
    out.host("ops_per_s", "cells_per_s", CELLS * len(times) / sum(times), f,
             "1/s", "cells/s", rate=True,
             note=f"; {len(times)} passes of {CELLS} cells")
    out.host("op_p50_ms", "pass_p50_ms", median(pass_ms), f, "ms", "ms")
    out.host("op_tail_ms", "pass_tail_ms", max(pass_ms), f, "ms", "ms",
             note="; slowest pass: too few passes for a percentile "
                  "with 10 beyond")
    out.say(speed_note(f, f_setup))
    if first is None:
        return
    out.say(f"row_energy_norm   {first['model.row_energy_norm'][0]:10.4f} x "
            "(modelled, exact; paper 0.56-0.66x)")
    out.say(f"ipc_norm          {first['model.ipc_norm'][0]:10.4f} x "
            "(modelled, exact; paper >= 0.95)")
    out.say(f"app_error_pct     {first['model.app_error_pct'][0]:10.4f} % "
            "(modelled, exact; paper ~7 %)")
    out.say(f"reference: {PAPER_REFERENCE}")
