"""Workload ``ingest``: a cold warehouse build and its summary query.

Set-up simulates four real cells through ``Runner.run`` into a result
cache, one per app and per scheme at scale 0.25 so blob sizes vary
(140-240 KB), then copies them under distinct keys and seeds, as
``benchmarks/bench_report.py`` does, to 48 blobs.  The timed op is ``Warehouse.ingest_cache`` into a fresh
sqlite file, then ``ExperimentResults.summary()`` and filtered
``rows()`` on the built file.

It is the only workload for the ``analytics`` layer.  It also decodes
every blob with ``SimReport.from_dict``, the decode ``service-hit``
pays per request, so a change that speeds one at the other's cost shows.
"""

from __future__ import annotations

import shutil

from common import (
    SETUP_ROUNDS, Context, Outcome, keep_going, median, now, peak_rss_mb,
    speed_note, tail,
)

PROGRAM_MODULES = (
    "repro.analytics.warehouse", "repro.analytics.results",
    "repro.harness.cache", "repro.harness.runner",
)

#: (app, scheme) of the real cells: every app and every scheme once.
CELLS = (
    ("SCP", "Baseline"), ("GEMM", "Static-AMS"), ("MVT", "Dyn-DMS"),
    ("blackscholes", "Dyn-DMS+Dyn-AMS"),
)
SCALE = 0.25
ROWS = 48
#: Summary queries per op: about 170 per 20 s run, so p90 has 17 beyond.
SUMMARIES = 10
SUMMARY_TAIL = 0.90


def seed_cache(ctx: Context, root):
    """Simulate the real cells and fan them out to ``ROWS`` blobs."""
    from repro.harness.cache import ResultCache
    from repro.harness.runner import Runner
    from repro.harness.schemes import evaluation_schemes

    shutil.rmtree(root, ignore_errors=True)
    cache = ResultCache(root, enabled=True)
    catalogue = evaluation_schemes()
    runner = Runner(scale=SCALE, seed=ctx.seed, cache=cache, jobs=1,
                    verbose=False, retries=0, faults=None)
    for app, scheme in CELLS:
        runner.run(app, catalogue[scheme], label=scheme,
                   measure_error=catalogue[scheme].ams.mode.value != "off")
    real = list(cache.iter_blobs())
    for i in range(ROWS - len(real)):
        key, blob, _, _ = real[i % len(real)]
        meta = dict(blob["meta"], seed=ctx.seed * 1000 + i)
        cache.store(f"fan{ctx.seed:06d}{i:06d}", cache.load(key), meta=meta)
    return cache


def _one_op(cache, db, out: Outcome, summaries: list[float]) -> float:
    """Cold ingest, summaries and a filtered read; returns ingest seconds."""
    from repro.analytics.results import ExperimentResults
    from repro.analytics.warehouse import Warehouse

    db.unlink(missing_ok=True)
    with Warehouse(db) as warehouse:
        start = now()
        count = warehouse.ingest_cache(cache)
        elapsed = now() - start
        for _ in range(SUMMARIES):
            start = now()
            summary = ExperimentResults(warehouse).summary()
            summaries.append(now() - start)
        rows = warehouse.rows(app=CELLS[0][0])
    out.attempted += 1
    if count != ROWS:
        out.fail(f"ingested {count} rows from {ROWS} blobs")
    elif len(rows) != ROWS // len(CELLS):
        out.fail(f"filtered rows() returned {len(rows)}")
    elif summary.get("n_groups") != len(CELLS):
        out.fail(f"summary has {summary.get('n_groups')} groups")
    return elapsed


def _measure(ctx: Context, cache, out: Outcome, hooks=None):
    db = ctx.work / "warehouse.sqlite"
    times: list[float] = []
    summaries: list[float] = []
    started = now()
    while keep_going(started, ctx.seconds, times):
        if hooks is not None:
            hooks.before_op()
        times.append(_one_op(cache, db, out, summaries))
        if hooks is not None:
            hooks.after_op()
    return times, summaries, (started, now())


def run(workload: str, ctx: Context) -> Outcome:
    out = Outcome()
    rounds = []
    for _ in range(1 if ctx.trace else SETUP_ROUNDS):
        start = now()
        cache = seed_cache(ctx, ctx.work / "cache")
        rounds.append(now() - start)
    times, summaries, window = _measure(ctx, cache, out)
    if not ctx.trace:
        _report_e2e(out, ctx, times, summaries, window,
                    ctx.import_s + median(rounds))
        return out
    from ingest_trace import IngestHooks

    hooks = IngestHooks()
    try:
        traced, _, traced_window = _measure(ctx, cache, out, hooks)
        reingest = hooks.reingest(cache, ctx.work / "warehouse.sqlite")
    finally:
        hooks.spans.uninstall()
    hooks.spans.dump(ctx.traces / f"ingest-seed{ctx.seed}.json")
    hooks.report(out, cache,
                 median(traced) * ctx.probe.factor(*traced_window),
                 median(times) * ctx.probe.factor(*window), reingest)
    return out


def _report_e2e(out: Outcome, ctx: Context, times, summaries,
                window: tuple[float, float], setup_s: float) -> None:
    f_setup = ctx.probe.factor(ctx.setup_started, window[0])
    f = ctx.probe.factor(*window)
    summary_ms = [1000.0 * s for s in summaries]
    tail_ms, label = tail(summary_ms, SUMMARY_TAIL)
    out.host("setup_s", "setup_s", setup_s, f_setup, "s", "s")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    out.say(f"peak_rss_mb       {peak_rss_mb():10.4f} MB")
    out.host("ops_per_s", "ingest_rows_per_s", ROWS * len(times) / sum(times),
             f, "1/s", "rows/s", rate=True,
             note=f"; {len(times)} cold ingests of {ROWS} rows")
    out.host("op_p50_ms", "summary_ms", median(summary_ms), f, "ms", "ms")
    out.host("op_tail_ms", "summary_tail_ms", tail_ms, f, "ms", "ms",
             note=f"; {label}")
    out.say(speed_note(f, f_setup))
