"""Event-driven GPU frontend: SM array executing warp op streams.

Simplifications relative to a full GPGPU-Sim core model (DESIGN.md §5):
issue-port contention inside an SM is folded into each op's
``compute_cycles`` (workload generators calibrate it), and warps block on
all loads of an op (memory barrier per op). Latency tolerance — the
property DMS exploits — emerges naturally: an SM with many concurrent
warps keeps retiring instructions while some warps wait on DRAM.

``GPUConfig.max_outstanding_ops_per_warp`` relaxes the per-op barrier:
with M > 1 a warp may start computing/issuing its next op while up to
M earlier ops' loads are still in flight (scoreboard-style memory-level
parallelism). Load replies are not op-tagged by the memory system, so
they retire the warp's *oldest* incomplete op — a FIFO attribution that
conserves totals and keeps runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Sequence

from repro.config.gpu import GPUConfig
from repro.errors import SimulationError, WorkloadError
from repro.gpu.warp import Access, Warp, WarpOp, WarpState
from repro.sim.engine import Engine

#: mem_access_fn(access, warp) — route one access into the memory system.
MemAccessFn = Callable[[Access, Warp], None]


class _WarpRuntime:
    """Frontend-private pipeline state of one warp."""

    __slots__ = ("pending", "drained", "stalled")

    def __init__(self) -> None:
        #: FIFO of [op, remaining_loads] awaiting memory completion.
        self.pending: Deque[list] = deque()
        #: The op stream is exhausted; finish once pending drains.
        self.drained = False
        #: Issue stopped because the MLP window is full.
        self.stalled = False


class GPUFrontend:
    """The SM array: schedules warps and accounts instructions."""

    def __init__(
        self,
        engine: Engine,
        config: GPUConfig,
        warp_streams: Sequence[Sequence[WarpOp]],
        mem_access_fn: MemAccessFn,
        stream_tenants: Optional[Sequence[int]] = None,
    ) -> None:
        if not warp_streams:
            raise WorkloadError("workload produced no warp streams")
        if stream_tenants is not None and (
            len(stream_tenants) != len(warp_streams)
        ):
            raise WorkloadError(
                "stream_tenants must align 1:1 with warp_streams "
                f"({len(stream_tenants)} vs {len(warp_streams)})"
            )
        self._engine = engine
        self._config = config
        self._mem_access = mem_access_fn
        self._mlp = max(1, config.max_outstanding_ops_per_warp)
        self.warps: list[Warp] = []
        self._rt: dict[int, _WarpRuntime] = {}
        self._sm_slots: list[int] = [0] * config.num_sms
        self._deferred: list[Warp] = []  # waiting for a free SM slot
        for i, ops in enumerate(warp_streams):
            sm = i % config.num_sms
            warp = Warp(warp_id=i, sm_id=sm, ops=ops)
            if stream_tenants is not None:
                warp.tenant_id = stream_tenants[i]
            self.warps.append(warp)
            self._rt[i] = _WarpRuntime()
        self.finished_warps = 0
        self.finish_time_mem: float = 0.0
        #: Per-tenant finish time (memory cycles), keyed by tenant_id;
        #: populated only when ``stream_tenants`` was given.
        self.tenant_finish_time: dict[int, float] = {}
        self._track_tenants = stream_tenants is not None
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch warps (respecting the per-SM warp limit)."""
        if self._started:
            raise SimulationError("frontend already started")
        self._started = True
        limit = self._config.max_warps_per_sm
        for warp in self.warps:
            if self._sm_slots[warp.sm_id] < limit:
                self._sm_slots[warp.sm_id] += 1
                self._advance(warp)
            else:
                self._deferred.append(warp)

    # ------------------------------------------------------------------
    def _advance(self, warp: Warp) -> None:
        """Fetch the warp's next op and schedule its compute phase."""
        rt = self._rt[warp.warp_id]
        op = warp.next_op()
        if op is None:
            if rt.pending:
                rt.drained = True
            else:
                self._finish(warp)
            return
        warp.state = WarpState.COMPUTING
        delay = self._config.core_to_mem(op.compute_cycles)
        self._engine.after(delay, lambda: self._issue(warp, op))

    def _issue(self, warp: Warp, op: WarpOp) -> None:
        rt = self._rt[warp.warp_id]
        loads = 0
        for access in op.accesses:
            if not access.is_write:
                loads += 1
        if loads:
            rt.pending.append([op, loads])
            warp.outstanding_loads += loads
            warp.state = WarpState.WAITING_MEM
        for access in op.accesses:
            self._mem_access(access, warp)
        if not loads:
            self._retire_op(warp, op)
            self._advance(warp)
            return
        if len(rt.pending) < self._mlp:
            self._advance(warp)
        else:
            rt.stalled = True

    def on_load_reply(self, warp: Warp) -> None:
        """A load of the warp's oldest incomplete op returned."""
        rt = self._rt[warp.warp_id]
        if warp.outstanding_loads <= 0 or not rt.pending:
            raise SimulationError(
                f"warp {warp.warp_id} received an unexpected load reply"
            )
        warp.outstanding_loads -= 1
        oldest = rt.pending[0]
        oldest[1] -= 1
        if oldest[1] > 0:
            return
        rt.pending.popleft()
        self._retire_op(warp, oldest[0])
        if rt.stalled:
            rt.stalled = False
            self._advance(warp)
        elif rt.drained and not rt.pending:
            self._finish(warp)

    def _retire_op(self, warp: Warp, op: WarpOp) -> None:
        warp.instructions_retired += op.instructions
        warp.ops_retired += 1

    def _finish(self, warp: Warp) -> None:
        warp.state = WarpState.FINISHED
        self.finished_warps += 1
        self.finish_time_mem = max(self.finish_time_mem, self._engine.now)
        if self._track_tenants:
            tid = warp.tenant_id
            if self._engine.now > self.tenant_finish_time.get(tid, 0.0):
                self.tenant_finish_time[tid] = self._engine.now
        # Hand the SM slot to a deferred warp, if any is waiting.
        if self._deferred:
            nxt = self._deferred.pop(0)
            nxt.sm_id = warp.sm_id
            self._advance(nxt)
        else:
            self._sm_slots[warp.sm_id] -= 1

    # ------------------------------------------------------------------
    @property
    def all_finished(self) -> bool:
        """Whether every warp has drained its op stream."""
        return self.finished_warps == len(self.warps)

    @property
    def total_instructions(self) -> int:
        """Instructions retired across all warps."""
        return sum(w.instructions_retired for w in self.warps)

    def tenant_instructions(self) -> dict[int, int]:
        """Instructions retired per tenant_id (multi-tenant accounting)."""
        totals: dict[int, int] = {}
        for w in self.warps:
            totals[w.tenant_id] = (
                totals.get(w.tenant_id, 0) + w.instructions_retired
            )
        return totals

    def unfinished(self) -> list[Warp]:
        """Warps that have not finished (deadlock diagnostics)."""
        return [w for w in self.warps if not w.finished]
