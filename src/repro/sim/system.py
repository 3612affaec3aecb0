"""Full-system assembly: SM frontend + crossbars + L2 slices + MCs.

This wires the substrates into the architecture of paper Fig. 1/9 and
exposes :func:`simulate_spec`, the package's main entry point.
"""

from __future__ import annotations

import gc
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cache.l2cache import DIRTY_FILL, L2Cache, L2Outcome
from repro.config.gpu import GPUConfig
from repro.config.scheduler import SchedulerConfig, baseline_scheduler
from repro.dram.channel import Channel
from repro.dram.energy import compute_energy
from repro.dram.request import MemoryRequest
from repro.errors import SimulationError
from repro.gpu.frontend import GPUFrontend
from repro.gpu.interconnect import Crossbar
from repro.gpu.warp import Access, Warp, WarpOp
from repro.sched.controller import MemoryController
from repro.sim.engine import Engine
from repro.sim.report import L2Summary, SimReport
from repro.sim.spec import SimSpec
from repro.telemetry.hub import NULL_HUB, MetricsHub
from repro.telemetry.sampler import WindowSeries
from repro.vp.predictor import make_predictor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.workloads.base import Workload

#: Retry interval (memory cycles) when an L2 slice's MSHR file is full.
_MSHR_RETRY_CYCLES = 8.0


class GPUSystem:
    """One simulated GPU (Table I baseline unless configured otherwise)."""

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        scheduler: Optional[SchedulerConfig] = None,
        *,
        record_activations: bool = True,
        log_commands: bool = False,
        telemetry: Optional[MetricsHub] = None,
    ) -> None:
        self.config = config or GPUConfig()
        self.scheduler = scheduler or baseline_scheduler()
        #: Opt-in observability hub; :data:`NULL_HUB` (all no-ops) when
        #: absent, so the hot path is unchanged with telemetry off.
        self.telemetry = telemetry if telemetry is not None else NULL_HUB
        self.config.validate()
        self.scheduler.validate()
        self.engine = Engine()
        mapping = self.config.mapping
        self.channels = [
            Channel(
                ch,
                mapping,
                self.config.timings,
                record_activations=record_activations,
                log_commands=log_commands,
                refresh_enabled=self.config.refresh_enabled,
            )
            for ch in range(mapping.num_channels)
        ]
        self.l2s = [L2Cache(self.config.l2) for _ in self.channels]
        self.controllers = [
            MemoryController(
                channel,
                config=self.config,
                sched_config=self.scheduler,
                engine=self.engine,
                reply_fn=self._make_reply_fn(ch),
                predictor=make_predictor(self.scheduler.vp, self.l2s[ch]),
                telemetry=self.telemetry,
            )
            for ch, channel in enumerate(self.channels)
        ]
        icnt_mem = self.config.core_to_mem(
            self.config.interconnect_latency_core
        )
        self._req_xbar = Crossbar(
            self.engine, mapping.num_channels, latency_mem_cycles=icnt_mem
        )
        self._reply_xbar = Crossbar(
            self.engine, self.config.num_sms, latency_mem_cycles=icnt_mem
        )
        self._l2_latency_mem = self.config.core_to_mem(
            self.config.l2.hit_latency_core
        )
        self.frontend: Optional[GPUFrontend] = None
        #: Shared per-tenant accounting; installed by
        #: :meth:`_attach_tenants` for multi-tenant specs only.
        self.tenant_tracker = None
        self.engine.diagnostics = self._deadlock_snapshot

    @classmethod
    def from_spec(
        cls,
        spec: SimSpec,
        *,
        log_commands: bool = False,
        telemetry: Optional[MetricsHub] = None,
    ) -> "GPUSystem":
        """Assemble a system from a :class:`~repro.sim.spec.SimSpec`.

        The spec's device (when named) is resolved onto its GPU config;
        ``spec.telemetry`` creates a fresh hub unless one is passed in.
        """
        if telemetry is None and spec.telemetry:
            telemetry = MetricsHub()
        system = cls(
            config=spec.resolve_config(),
            scheduler=spec.scheduler,
            record_activations=spec.record_activations,
            log_commands=log_commands,
            telemetry=telemetry,
        )
        system._attach_ecc(spec)
        system._attach_tenants(spec)
        return system

    def _attach_ecc(self, spec: SimSpec) -> None:
        """Install per-channel ECC/fault read paths when the spec asks.

        With ``ecc="none"`` and faults disabled this is a no-op — the
        channels keep ``read_path=None`` and the hot path is untouched
        (the differential tests pin that to the golden reports).
        """
        if spec.ecc == "none" and not spec.faults.enabled:
            return
        from repro.dram.devices import get_device
        from repro.dram.ecc import (
            DEFAULT_ECC_WORD_BITS,
            FaultInjector,
            ReadPathECC,
            get_ecc,
        )

        code = get_ecc(spec.ecc)
        word_bits = (
            get_device(spec.device).ecc_word_bits
            if spec.device is not None
            else DEFAULT_ECC_WORD_BITS
        )
        line_bits = self.config.l2.line_bytes * 8
        words_per_line = max(1, line_bits // word_bits)
        stored_bits = words_per_line * code.codeword_bits(word_bits)
        seed = spec.content_seed()
        timings = self.config.timings
        for channel in self.channels:
            injector = None
            if spec.faults.enabled:
                injector = FaultInjector(
                    spec.faults,
                    trcd=timings.tRCD,
                    trp=timings.tRP,
                    seed=seed,
                    channel_id=channel.channel_id,
                    stored_bits=stored_bits,
                )
            channel.attach_read_path(
                ReadPathECC(
                    code=code,
                    word_bits=word_bits,
                    words_per_line=words_per_line,
                    injector=injector,
                )
            )

    def _attach_tenants(self, spec: SimSpec) -> None:
        """Install per-tenant accounting and the mix's arbiter.

        Strictly a no-op unless the spec carries a *multi*-tenant mix:
        a single-tenant mix is pure composition sugar and must simulate
        field-identically to the plain single-workload run, so nothing
        attaches for it (the differential tests pin this).
        """
        if spec.tenants is None or not spec.tenants.multi:
            return
        from repro.sched.tenants import TenantTracker

        tracker = TenantTracker(spec.tenants)
        self.tenant_tracker = tracker
        for mc in self.controllers:
            mc.attach_tenants(tracker, spec.tenants)

    def _deadlock_snapshot(self) -> str:
        """Per-controller queue state for the engine's livelock error.

        Appended to the ``max_events`` overflow message so a deadlocked
        cell in a failure manifest shows *where* requests are stuck —
        which controller, which banks, how deep — without re-running
        the simulation under a debugger.
        """
        parts = []
        for ch, mc in enumerate(self.controllers):
            queue = mc.queue
            if queue.empty:
                continue
            per_bank = ",".join(
                f"b{bank}:{count}"
                for bank, count in queue.pending_per_bank().items()
            )
            parts.append(
                f"mc{ch}[pending={len(queue)} "
                f"ingress={queue.ingress_backlog} {per_bank or '-'}]"
            )
        unfinished = ""
        if self.frontend is not None:
            stuck = self.frontend.unfinished()
            if stuck:
                unfinished = f"; unfinished_warps={len(stuck)}"
        return (
            "pending per bank: " + (" ".join(parts) or "none") + unfinished
        )

    # ------------------------------------------------------------------
    # Request path: SM -> crossbar -> L2 -> MC
    # ------------------------------------------------------------------
    def _mem_access(self, access: Access, warp: Warp) -> None:
        ch = self.config.mapping.channel_of(access.addr)
        self._req_xbar.deliver(
            ch, lambda: self._l2_access(ch, access, warp)
        )

    def _l2_access(self, ch: int, access: Access, warp: Warp) -> None:
        l2 = self.l2s[ch]
        waiter = DIRTY_FILL if access.is_write else warp
        result = l2.access(
            access.addr,
            is_write=access.is_write,
            full_line=access.full_line,
            waiter=waiter,
        )
        if result.outcome is L2Outcome.HIT:
            if not access.is_write:
                self.engine.after(
                    self._l2_latency_mem,
                    lambda: self._reply_to_warp(warp),
                )
        elif result.outcome is L2Outcome.MISS:
            request = MemoryRequest.from_address(
                access.addr,
                is_write=False,
                mapping=self.config.mapping,
                # Store-fetches must never be approximated away: their
                # merged store data would be lost (DESIGN.md §5).
                approximable=access.approximable and not access.is_write,
                tag=access.tag,
                tenant_id=warp.tenant_id,
            )
            self.engine.after(
                self._l2_latency_mem,
                lambda: self.controllers[ch].submit(request),
            )
        elif result.outcome is L2Outcome.MISS_NO_FETCH:
            if result.writeback_line is not None:
                self._submit_writeback(ch, result.writeback_line)
        elif result.outcome is L2Outcome.STALL:
            self.engine.after(
                _MSHR_RETRY_CYCLES,
                lambda: self._l2_access(ch, access, warp),
            )
        # MISS_MERGED: the waiter is registered; nothing more to do.

    def _submit_writeback(self, ch: int, line_addr: int) -> None:
        addr = line_addr * self.config.l2.line_bytes
        request = MemoryRequest.from_address(
            addr, is_write=True, mapping=self.config.mapping
        )
        if request.channel != ch:
            raise SimulationError(
                "write-back decoded to a different channel: "
                f"{request.channel} != {ch}"
            )
        self.controllers[ch].submit(request)

    # ------------------------------------------------------------------
    # Reply path: MC -> L2 fill -> crossbar -> SM
    # ------------------------------------------------------------------
    def _make_reply_fn(self, ch: int):
        def reply(request: MemoryRequest, approx: bool, donor) -> None:
            if request.is_write:
                return
            l2 = self.l2s[ch]
            if approx:
                # Dropped request: answer waiters, do not fill the L2.
                waiters = l2.cancel_fill(request.addr)
            else:
                waiters, writeback = l2.fill(request.addr)
                if writeback is not None:
                    self._submit_writeback(ch, writeback)
            for warp in waiters:
                self._reply_xbar.deliver(
                    warp.sm_id,
                    lambda w=warp: self.frontend.on_load_reply(w),
                )

        return reply

    def _reply_to_warp(self, warp: Warp) -> None:
        self._reply_xbar.deliver(
            warp.sm_id, lambda: self.frontend.on_load_reply(warp)
        )

    # ------------------------------------------------------------------
    def run(
        self,
        warp_streams: Sequence[Sequence[WarpOp]],
        *,
        workload_name: str = "custom",
        max_events: int = 200_000_000,
        stream_tenants: Optional[Sequence[int]] = None,
    ) -> SimReport:
        """Execute the warp streams to completion and build the report.

        ``stream_tenants`` (one ``tenant_id`` per stream, from the
        :class:`~repro.workloads.tenant_mix.TenantMix` composer) turns
        on per-tenant warp attribution and the report's per-tenant
        section; ``None`` is the single-tenant path.
        """
        self.frontend = GPUFrontend(
            self.engine, self.config, warp_streams, self._mem_access,
            stream_tenants=stream_tenants,
        )
        sampler: Optional[WindowSeries] = None
        if self.telemetry.enabled:
            sampler = WindowSeries(self.telemetry, self)
            sampler.start()
        self.frontend.start()
        # The event loop allocates short-lived containers (candidate
        # keys, reply closures) at a rate that keeps the cyclic GC's
        # gen-0 threshold firing constantly, yet none of them form
        # cycles — refcounting reclaims everything. Park the collector
        # for the loop; restore the caller's setting either way.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.engine.run(max_events=max_events)
        finally:
            if gc_was_enabled:
                gc.enable()
        if not self.frontend.all_finished:
            stuck = self.frontend.unfinished()
            # Attach the same diagnostics snapshot the max_events
            # overflow gets, so a drained-but-stuck cell in a failure
            # manifest shows where its requests sit. The snapshot must
            # never mask the primary error.
            try:
                snapshot = f" [{self._deadlock_snapshot()}]"
            except Exception:
                snapshot = ""
            raise SimulationError(
                f"simulation drained with {len(stuck)} unfinished warps "
                f"(first: warp {stuck[0].warp_id}, state {stuck[0].state})"
                f"{snapshot}"
            )
        for channel in self.channels:
            channel.finalize()
        elapsed_mem = self.frontend.finish_time_mem
        l2 = L2Summary(
            hits=sum(c.hits for c in self.l2s),
            misses=sum(c.misses for c in self.l2s),
            writebacks=sum(c.writebacks for c in self.l2s),
            fills=sum(c.fills for c in self.l2s),
        )
        stats = [channel.stats for channel in self.channels]
        read_paths = [
            channel.read_path for channel in self.channels
            if channel.read_path is not None
        ]
        energy = compute_energy(
            stats,
            self.config.energy,
            elapsed_mem,
            self.config.mem_clock_mhz,
            ecc_nj=sum(rp.energy_nj() for rp in read_paths),
        )
        ecc_summary = None
        if read_paths:
            from repro.dram.ecc import summarize_read_paths

            elapsed_us = (
                elapsed_mem / self.config.mem_clock_mhz
                if self.config.mem_clock_mhz else 0.0
            )
            ecc_summary = summarize_read_paths(
                read_paths,
                total_energy_nj=energy.total_nj,
                elapsed_us=elapsed_us,
            )
        drops = [d for mc in self.controllers for d in mc.drops]
        timeline = (
            sampler.finalize(elapsed_mem) if sampler is not None else None
        )
        tenants_summary = None
        if self.tenant_tracker is not None:
            tenants_summary = self.tenant_tracker.summarize(
                finish_times=self.frontend.tenant_finish_time,
                instructions=self.frontend.tenant_instructions(),
            )
        return SimReport(
            workload=workload_name,
            scheme=self.scheduler.name,
            elapsed_mem_cycles=elapsed_mem,
            elapsed_core_cycles=self.config.mem_to_core(elapsed_mem),
            total_instructions=self.frontend.total_instructions,
            channel_stats=stats,
            drops=drops,
            l2=l2,
            energy=energy,
            energy_params=self.config.energy,
            final_dms_delays=[mc.dms.current_delay for mc in self.controllers],
            final_th_rbls=[mc.ams.th_rbl for mc in self.controllers],
            timeline=timeline,
            ecc=ecc_summary,
            tenants=tenants_summary,
        )


def simulate_spec(
    workload: "Workload",
    spec: SimSpec,
    *,
    telemetry: Optional[MetricsHub] = None,
) -> SimReport:
    """Simulate ``workload`` as described by ``spec`` — the primary
    entry point.

    With ``spec.measure_error`` the AMS drop log is replayed through the
    workload's kernel (values substituted by the VP's donor lines) and
    ``report.application_error`` is filled in. With a telemetry hub
    (``spec.telemetry`` or an explicit ``telemetry=``),
    ``report.timeline`` carries the per-window series.

    When ``spec.tenants`` names a mix, ``workload`` supplies only the
    run-level scale and seed: the simulated trace is the
    :class:`~repro.workloads.tenant_mix.TenantMix` composed from the
    mix's own workload roster (pass a ready-made ``TenantMix`` to skip
    the re-composition).
    """
    system = GPUSystem.from_spec(spec, telemetry=telemetry)
    if spec.tenants is not None:
        from repro.workloads.tenant_mix import TenantMix

        if not isinstance(workload, TenantMix):
            workload = TenantMix(
                spec.tenants, scale=workload.scale, seed=workload.seed
            )
    streams = workload.trace(system.config)
    report = system.run(
        streams,
        workload_name=workload.name,
        stream_tenants=getattr(workload, "stream_tenants", None),
    )
    if spec.measure_error:
        from repro.approx.replay import measure_application_error

        report.application_error = measure_application_error(
            workload, report.drops, config=system.config
        )
    return report
