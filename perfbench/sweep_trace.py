"""Traced ``sweep`` passes: spans, exact model counts, sampled self time.

Spans wrap ``get_workload`` (as the runner calls it), each workload's
``warp_streams``, ``GPUSystem.run`` and ``measure_application_error``.
``AddressMapping.decode`` is only counted: it runs about a million
times a pass, where a span each would cost more than the call.  Counts
that the simulator keeps itself (engine events, MSHR merges) are read
off each system after its run; the rest come from the reports
(``sweep.pass_figures``).
Exact counts are those of the first traced pass; times are per pass.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from common import Outcome
from tracing import Sampler, Spans

class SweepHooks:
    def __init__(self) -> None:
        import repro
        from repro.approx import replay
        from repro.config.address import AddressMapping
        from repro.harness import runner as runner_mod
        from repro.sim.system import GPUSystem

        self.spans = Spans()
        self.sampler = Sampler(Path(repro.__file__).parent)
        self.counts: dict[str, int] = defaultdict(int)
        self.decode_calls = [0]
        self.collect = False
        spans = self.spans
        spans.wrap(runner_mod, "get_workload", "workloads.get_workload",
                   observe=self._on_workload)
        spans.wrap(GPUSystem, "run", "sim.run", observe=self._on_run)
        spans.wrap(replay, "measure_application_error", "approx.replay")
        spans.count_calls(AddressMapping, "decode", self.decode_calls)

    # ------------------------------------------------------------------
    def _on_workload(self, args, kwargs, workload) -> None:
        """Give the new workload an instance-level ``warp_streams`` that
        records a span (kernels override the base method, so patching
        the class would miss them)."""
        bound = workload.warp_streams
        spans, counts = self.spans, self.counts

        def warp_streams(config):
            with spans.span("workloads.warp_streams"):
                streams = bound(config)
            if self.collect:
                for stream in streams:
                    counts["warp_ops"] += len(stream)
                    for op in stream:
                        counts["mem_accesses"] += len(op.accesses)
            return streams

        workload.warp_streams = warp_streams

    def _on_run(self, args, kwargs, report) -> None:
        if not self.collect:
            return
        system = args[0]
        self.counts["events"] += system.engine.events_processed
        self.counts["events_cancelled"] += system.engine.events_cancelled
        self.counts["mshr_merges"] += sum(l2.mshrs.merges for l2 in system.l2s)

    def before_pass(self, index: int) -> None:
        self.collect = index == 0
        if self.collect:
            self.decode_calls[0] = 0
        self.sampler.start()

    def after_pass(self) -> None:
        self.sampler.stop()
        if self.collect:
            self.counts["decode_calls"] = self.decode_calls[0]
            self.collect = False

    # ------------------------------------------------------------------
    def report(self, out: Outcome, passes: int, traced_s: float,
               untraced_s: float, untraced_passes: int) -> None:
        """``traced_s`` and ``untraced_s`` are the median pass times of
        the two phases, each scaled by its host speed factor."""
        spans = self.spans

        def per_pass(*names: str) -> float:
            return sum(sum(spans.by_name(n)) for n in names) / passes

        c = self.counts
        run_s = per_pass("sim.run")
        out.metric("workloads.trace_s",
                   per_pass("workloads.get_workload",
                            "workloads.warp_streams"), "s")
        out.metric("workloads.warp_ops", c["warp_ops"], "count")
        out.metric("gpu.mem_accesses", c["mem_accesses"], "count")
        out.metric("config.decode_calls", c["decode_calls"], "count")
        out.metric("sim.events", c["events"], "count")
        out.metric("sim.events_cancelled", c["events_cancelled"], "count")
        out.metric("sim.run_s", run_s, "s")
        out.metric("sim.us_per_event", 1e6 * run_s / c["events"], "us")
        out.metric("cache.mshr_merges", c["mshr_merges"], "count")
        out.metric("approx.replay_s", per_pass("approx.replay"), "s")
        self.sampler.record(out, passes, "pass")
        overhead = 100.0 * (traced_s / untraced_s - 1.0)
        out.metric("trace.overhead_pct", overhead, "%")
        out.say(f"tracing overhead: pass p50 {1000 * traced_s:.0f} ms traced "
                f"({passes} passes) vs {1000 * untraced_s:.0f} ms untraced "
                f"({untraced_passes}), both scaled to the reference host "
                f"speed ({overhead:+.1f} %)")
