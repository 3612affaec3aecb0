"""Traced ``ingest`` ops: spans around the warehouse calls, sampled
self time, and one re-ingest of an already-built file."""

from __future__ import annotations

from pathlib import Path

from common import Outcome, median, now
from tracing import Sampler, Spans


class IngestHooks:
    def __init__(self) -> None:
        import repro
        from repro.analytics.results import ExperimentResults
        from repro.analytics.warehouse import Warehouse
        from repro.harness.cache import ResultCache
        from repro.sim.report import SimReport

        self.spans = Spans()
        self.sampler = Sampler(Path(repro.__file__).parent)
        self.ops = 0
        spans = self.spans
        spans.wrap(Warehouse, "ingest_cache", "analytics.ingest")
        spans.wrap(ResultCache, "iter_blobs", "harness.iter_blobs")
        spans.wrap(SimReport, "from_dict", "sim.report_decode")
        spans.wrap(Warehouse, "rows", "analytics.rows_query")
        spans.wrap(ExperimentResults, "summary", "analytics.summary")

    def before_op(self) -> None:
        self.sampler.start()

    def after_op(self) -> None:
        self.sampler.stop()
        self.ops += 1

    def reingest(self, cache, db) -> float:
        """Seconds for a second ingest of the same cache into the file
        the last op built, where every row is already present."""
        from repro.analytics.warehouse import Warehouse

        with Warehouse(db) as warehouse:
            start = now()
            warehouse.ingest_cache(cache)
            return now() - start

    def report(self, out: Outcome, cache, traced_s: float, untraced_s: float,
               reingest: float) -> None:
        """``traced_s`` and ``untraced_s`` are the median ingest times of
        the two phases, each scaled by its host speed factor."""
        spans = self.spans
        ingests = spans.by_name("analytics.ingest")[: self.ops]
        scan = [r for r in spans.closed()
                if r[2] in ("harness.iter_blobs", "sim.report_decode")]
        blobs = [path.stat().st_size for path in cache.entries()]
        out.metric("analytics.ingest_s", median(ingests), "s")
        out.metric("analytics.blob_scan_s",
                   sum(r[4] - r[3] for r in scan) / (self.ops + 1), "s")
        out.metric("analytics.rows", len(blobs), "count")
        out.metric("analytics.query_p50_ms",
                   1000.0 * median(spans.by_name("analytics.rows_query")), "ms")
        out.metric("analytics.reingest_s", reingest, "s")
        out.metric("sim.report_decode_ms",
                   1000.0 * median(spans.by_name("sim.report_decode")), "ms")
        out.metric("harness.blob_kb", sum(blobs) / len(blobs) / 1024.0, "KB")
        overhead = 100.0 * (traced_s / untraced_s - 1.0)
        out.metric("trace.overhead_pct", overhead, "%")
        for name in sorted(out.metrics):
            value, unit = out.metrics[name]
            out.say(f"{name:<28} {value:12.4f} {unit}")
        self.sampler.record(out, self.ops, "op")
        out.say(f"tracing overhead: ingest p50 {1000 * traced_s:.1f} ms "
                f"traced vs {1000 * untraced_s:.1f} ms untraced, both scaled "
                f"to the reference host speed ({overhead:+.1f} %)")
