"""Per-layer metrics of a traced service run, from the daemon's spans.

Spans are joined to the client's records by job id.  Only spans inside
the measured window count, so set-up jobs (warming, tier warm-up) never
enter the figures.  Per-request figures are medians over jobs.
"""

from __future__ import annotations

from pathlib import Path

from common import Outcome, median
from tracing import Spans

#: Server spans a cache hit passes through, outermost first.
HIT_STAGES = ("service.parse", "service.admit", "service.journal",
              "service.respond")


def _window(spans: Spans, started: float, ended: float) -> Spans:
    kept = Spans()
    kept.records = [r for r in spans.closed()
                    if r[3] >= started and r[4] <= ended]
    return kept


def _ms(values: list[float]) -> float:
    return 1000.0 * median(values) if values else 0.0


def _counters(stats: dict) -> dict:
    return stats.get("service", {}).get("counters", {})


def report_traced(out: Outcome, workload: str, traced: dict, untraced: dict,
                  path: Path, factor) -> None:
    """``factor(start, end)`` is the host speed factor of a window."""
    spans = _window(Spans.load(path), traced["started"], traced["ended"])
    jobs = {r[1]: r for r in traced["done"]}
    latency = {job: r[0] for job, r in jobs.items()}

    def per_job_ms(*names: str) -> float:
        totals = spans.per_job(names)
        return _ms([totals.get(job, 0.0) for job in jobs])

    out.metric("service.parse_ms", per_job_ms("service.parse"), "ms")
    out.metric("service.admit_ms", per_job_ms("service.admit"), "ms")
    out.metric("service.journal_ms", per_job_ms("service.journal"), "ms")
    out.metric("service.respond_ms", per_job_ms("service.respond"), "ms")
    out.metric("config.spec_decode_ms",
               _ms(spans.by_name("config.spec_decode")), "ms")
    out.metric("sim.report_decode_ms",
               _ms(spans.by_name("sim.report_decode")), "ms")
    out.metric("sim.report_encode_ms",
               _ms(spans.by_name("sim.report_encode")), "ms")
    out.metric("harness.cache_load_ms",
               _ms(spans.by_name("harness.cache_load")), "ms")
    out.metric("harness.cache_store_ms",
               _ms(spans.by_name("harness.cache_store")), "ms")
    blobs = list(Path(traced["work"], "cache").glob("*/*.json"))
    out.metric("harness.blob_kb",
               sum(b.stat().st_size for b in blobs) / len(blobs) / 1024.0
               if blobs else 0.0, "KB")
    out.metric("service.http_floor_ms", traced["floor_ms"], "ms")
    out.metric("service.worker_rss_mb",
               traced["final"]["children_peak_rss_kb"] / 1024.0, "MB")
    counters = _counters(traced["stats"])
    for name in ("shed", "rejected", "coalesced", "cache_hits"):
        out.metric(f"service.{name}", counters.get(f"service.jobs.{name}", 0),
                   "count")
    out.metric("service.jobs_retained",
               sum(traced["stats"].get("jobs", {}).values()), "count")

    if workload == "service-hit":
        stages = spans.per_job(HIT_STAGES)
        rest = [latency[job] - stages.get(job, 0.0) for job in jobs]
        out.metric("service.unattributed_ms", _ms(rest), "ms")
        sizes = traced["response_kb"]
        out.metric("service.response_kb",
                   sum(sizes.values()) / len(sizes) if sizes else 0.0, "KB")
        grown_mb = (traced["final"]["peak_rss_kb"] - traced["mark_kb"]) / 1024
        out.metric("service.rss_mb_per_1k_hits",
                   1000.0 * grown_mb / max(1, len(jobs)), "MB")
    else:
        tier_start = spans.first_start("service.tier")
        admit_end = spans.last_end("service.admit")
        waits = [tier_start[j] - admit_end[j] for j in jobs
                 if j in tier_start and j in admit_end]
        out.metric("service.queue_wait_ms", _ms(waits), "ms")
        tiers = spans.per_job(("service.tier",))
        out.metric("service.tier_ms",
                   _ms([tiers[j] for j in jobs if j in tiers]), "ms")
        sims = spans.per_job(("service.inthread_sim",))
        out.metric("service.inthread_sim_ms",
                   _ms([sims[j] for j in jobs if j in sims]), "ms")
        polled = [r[3] for r in traced["done"] if not r[2]]
        watched = [r[4] for r in traced["done"] if r[2]]
        out.metric("service.polls_per_job",
                   sum(polled) / len(polled) if polled else 0.0, "polls/job")
        out.metric("service.sse_frames",
                   sum(watched) / len(watched) if watched else 0.0,
                   "frames/job")

    # Both phases' latencies scaled to the reference host speed.
    traced_p50 = median([r[0] for r in traced["done"]]) * factor(
        traced["started"], traced["ended"])
    untraced_p50 = median([r[0] for r in untraced["done"]]) * factor(
        untraced["started"], untraced["ended"])
    overhead = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    out.metric("trace.overhead_pct", overhead, "%")
    for name in sorted(out.metrics):
        value, unit = out.metrics[name]
        out.say(f"{name:<28} {value:12.4f} {unit}")
    out.say(f"tracing overhead: p50 {1000 * traced_p50:.2f} ms traced vs "
            f"{1000 * untraced_p50:.2f} ms untraced ({overhead:+.1f} %); "
            f"{len(traced['done'])} ops traced, "
            f"{len(untraced['done'])} untraced")
    out.say(f"Chrome trace: {path}")
