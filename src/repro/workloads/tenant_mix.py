"""Multi-tenant trace composer: N workloads sharing one memory system.

:class:`TenantMix` is a :class:`~repro.workloads.base.Workload` built
from a :class:`~repro.config.tenants.TenantMixSpec`. It instantiates
each tenant's registered workload (per-tenant scale multiplier and
seed), places every tenant's arrays in one shared address space, and
interleaves the tenants' warp streams round-robin into one merged,
deterministic trace:

* **address isolation** — each tenant's accesses are rebased by that
  tenant's (256-byte-aligned) offset in the shared space, so tenants
  never alias lines. Tenant 0 keeps offset 0;
* **class enforcement** — the ``approximable`` annotation is stripped
  from every access of a tenant whose class forbids dropping, so the
  AMS unit's ``row_all_approximable`` test structurally excludes those
  tenants' rows — a dropped request can never belong to a ``latency``
  or ``bandwidth`` tenant;
* **attribution** — :attr:`stream_tenants` aligns 1:1 with the merged
  streams; the frontend stamps each warp (and hence every
  :class:`~repro.dram.request.MemoryRequest`) with its ``tenant_id``.

A **single-tenant mix is pure composition sugar**: the sole member's
space, arrays, streams, and name are passed through untouched (no
rebase, no stripping, no ``stream_tenants``), so its report is
field-identical to the plain single-workload run. Class contracts are
contention contracts — alone on the machine there is no one to
prioritise against — so they only engage at N >= 2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config.gpu import GPUConfig
from repro.config.tenants import TenantMixSpec
from repro.errors import WorkloadError
from repro.gpu.warp import Access, WarpOp
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload


class TenantMix(Workload):
    """The composed workload of a :class:`TenantMixSpec`."""

    name = "tenant-mix"  # overwritten per instance below
    description = "interleaved multi-tenant workload mix"

    def __init__(
        self, mix: TenantMixSpec, *, scale: float = 1.0, seed: int = 7
    ) -> None:
        mix.validate()
        self.mix = mix
        self._members = [
            get_workload(
                t.workload,
                scale=scale * t.scale,
                seed=t.seed if t.seed is not None else seed,
            )
            for t in mix.tenants
        ]
        #: Per-tenant byte offset into the shared address space.
        self._offsets: list[int] = []
        #: ``tenant_id`` per merged warp stream; ``None`` until
        #: :meth:`trace` first builds the streams, and stays ``None`` for a
        #: single-tenant mix (nothing tenant-specific attaches).
        self.stream_tenants: Optional[list[int]] = None
        self._out_lengths: Optional[list[int]] = None
        super().__init__(scale=scale, seed=seed)
        # The mix reports under a name derived from its members; a
        # single-tenant mix keeps the member's name so its report is
        # indistinguishable from the plain run.
        if mix.multi:
            self.name = "+".join(t.workload for t in mix.tenants)
        else:
            self.name = self._members[0].name

    # ------------------------------------------------------------------
    def _build(self) -> None:
        if not self.mix.multi:
            # Pass-through: alias the sole member's layout verbatim.
            member = self._members[0]
            self.space = member.space
            self.arrays = member.arrays
            self._offsets = [0]
            return
        for tenant, member in zip(self.mix.tenants, self._members):
            offset: Optional[int] = None
            for spec in member.space.arrays:
                shared_name = f"{tenant.name}.{spec.name}"
                self.register(
                    shared_name,
                    member.arrays[spec.name],
                    approximable=spec.approximable and tenant.approximable,
                )
                placed = self.space.spec(shared_name)
                if offset is None:
                    offset = placed.base - spec.base
                elif placed.base - spec.base != offset:
                    # Cannot happen while member starts are 256-aligned
                    # (the allocator aligns every base); guard anyway so
                    # a layout change fails loudly, not with silently
                    # mis-rebased traces.
                    raise WorkloadError(
                        f"tenant {tenant.name!r} layout shifted "
                        "non-uniformly in the shared address space"
                    )
            self._offsets.append(offset if offset is not None else 0)

    # ------------------------------------------------------------------
    def warp_streams(self, config: GPUConfig) -> list[list[WarpOp]]:
        member_streams = [m.trace(config) for m in self._members]
        if not self.mix.multi:
            self.stream_tenants = None
            return member_streams[0]
        merged: list[list[WarpOp]] = []
        tenant_ids: list[int] = []
        cursors = [0] * len(member_streams)
        remaining = sum(len(s) for s in member_streams)
        # Round-robin over tenants so the SM assignment (stream index
        # mod num_sms) mixes classes across SMs deterministically.
        while remaining:
            for tid, streams in enumerate(member_streams):
                cursor = cursors[tid]
                if cursor >= len(streams):
                    continue
                cursors[tid] = cursor + 1
                merged.append(self._transform(streams[cursor], tid))
                tenant_ids.append(tid)
                remaining -= 1
        self.stream_tenants = tenant_ids
        return merged

    def _transform(self, stream: list[WarpOp], tid: int) -> list[WarpOp]:
        """Rebase one stream's addresses and apply the class contract."""
        offset = self._offsets[tid]
        allow = self.mix.tenants[tid].approximable
        out = []
        for op in stream:
            out.append(
                WarpOp(
                    compute_cycles=op.compute_cycles,
                    instructions=op.instructions,
                    accesses=tuple(
                        Access(
                            addr=a.addr + offset,
                            is_write=a.is_write,
                            approximable=a.approximable and allow,
                            full_line=a.full_line,
                            tag=a.tag,
                        )
                        for a in op.accesses
                    ),
                )
            )
        return out

    # ------------------------------------------------------------------
    # Output-quality pipeline (approximation replay)
    # ------------------------------------------------------------------
    def run_kernel(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        if not self.mix.multi:
            return self._members[0].run_kernel(arrays)
        outputs = []
        lengths = []
        for tenant, member in zip(self.mix.tenants, self._members):
            member_arrays = {
                spec.name: arrays[f"{tenant.name}.{spec.name}"]
                for spec in member.space.arrays
            }
            out = np.asarray(
                member.run_kernel(member_arrays), dtype=np.float64
            ).ravel()
            outputs.append(out)
            lengths.append(out.size)
        self._out_lengths = lengths
        return np.concatenate(outputs) if outputs else np.zeros(0)

    def output_error(self, exact, approx) -> float:
        """Mean of the members' own error metrics (each member may use a
        discrete metric, e.g. mismatch rate), weighted equally."""
        if not self.mix.multi:
            return self._members[0].output_error(exact, approx)
        if self._out_lengths is None:
            raise WorkloadError("run_kernel must run before output_error")
        errors = []
        start = 0
        for member, length in zip(self._members, self._out_lengths):
            stop = start + length
            errors.append(
                member.output_error(exact[start:stop], approx[start:stop])
            )
            start = stop
        return float(np.mean(errors)) if errors else 0.0
