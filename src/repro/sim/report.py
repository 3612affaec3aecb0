"""Simulation result container, derived metrics, and serialization.

:meth:`SimReport.to_dict` / :meth:`SimReport.from_dict` are *lossless*:
a round-tripped report compares equal (``==``) to the original, field by
field. This is what lets the persistent result cache
(:mod:`repro.harness.cache`) and the parallel runner treat
simulate-then-store-then-load as indistinguishable from a fresh run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.config.energy import DRAMEnergyParams
from repro.dram.ecc import ECCSummary
from repro.dram.energy import EnergyBreakdown, compute_energy
from repro.dram.stats import ChannelStats, merge_rbl_histograms
from repro.telemetry.series import Timeline
from repro.vp.predictor import DropRecord


def _encode_tag(tag: Any) -> Any:
    """JSON-encode a workload tag, preserving tuples (the usual shape)."""
    if isinstance(tag, tuple):
        return {"__tuple__": [_encode_tag(item) for item in tag]}
    if isinstance(tag, list):
        return {"__list__": [_encode_tag(item) for item in tag]}
    return tag


def _decode_tag(tag: Any) -> Any:
    """Inverse of :func:`_encode_tag`."""
    if isinstance(tag, dict):
        if "__tuple__" in tag:
            return tuple(_decode_tag(item) for item in tag["__tuple__"])
        if "__list__" in tag:
            return [_decode_tag(item) for item in tag["__list__"]]
    return tag


def _drop_to_dict(drop: DropRecord) -> dict:
    return {
        "rid": drop.rid,
        "addr": drop.addr,
        "tag": _encode_tag(drop.tag),
        "donor_line_addr": drop.donor_line_addr,
        "time": drop.time,
        "channel": drop.channel,
    }


def _drop_from_dict(data: dict) -> DropRecord:
    return DropRecord(
        rid=data["rid"],
        addr=data["addr"],
        tag=_decode_tag(data["tag"]),
        donor_line_addr=data["donor_line_addr"],
        time=data["time"],
        channel=data["channel"],
    )


@dataclass
class TenantReport:
    """Per-tenant counters of one multi-tenant run.

    The intrinsic fields are filled by the simulation itself (the
    controller-side :class:`~repro.sched.tenants.TenantTracker` plus
    the frontend's per-tenant finish/instruction accounting).
    ``solo_mem_cycles`` / ``slowdown`` stay ``None`` until
    :func:`repro.harness.tenants.attach_slowdowns` compares the run
    against the tenant's cached solo baseline — they are presentation
    data, never part of the cached report.
    """

    name: str
    tenant_class: str
    workload: str
    instructions: int = 0
    finish_mem_cycles: float = 0.0
    reads_arrived: int = 0
    writes_arrived: int = 0
    requests_served: int = 0
    requests_dropped: int = 0
    activations: int = 0
    solo_mem_cycles: Optional[float] = None
    slowdown: Optional[float] = None

    @property
    def coverage(self) -> float:
        """This tenant's dropped / arrived reads (per-tenant coverage)."""
        return (
            self.requests_dropped / self.reads_arrived
            if self.reads_arrived else 0.0
        )

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (lossless)."""
        return {
            "name": self.name,
            "tenant_class": self.tenant_class,
            "workload": self.workload,
            "instructions": self.instructions,
            "finish_mem_cycles": self.finish_mem_cycles,
            "reads_arrived": self.reads_arrived,
            "writes_arrived": self.writes_arrived,
            "requests_served": self.requests_served,
            "requests_dropped": self.requests_dropped,
            "activations": self.activations,
            "solo_mem_cycles": self.solo_mem_cycles,
            "slowdown": self.slowdown,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantReport":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class TenantSummary:
    """The per-tenant section of a multi-tenant :class:`SimReport`."""

    #: Arbiter registry name that shared the controllers.
    arbiter: str
    #: One entry per tenant, in roster (``tenant_id``) order.
    tenants: list[TenantReport] = field(default_factory=list)
    #: Jain fairness index over per-tenant slowdowns; filled alongside
    #: :attr:`TenantReport.slowdown` by the harness, never cached.
    jain_fairness: Optional[float] = None

    def row_energy_shares(self) -> list[float]:
        """Each tenant's share of row energy (activation-proportional)."""
        total = sum(t.activations for t in self.tenants)
        if not total:
            return [0.0] * len(self.tenants)
        return [t.activations / total for t in self.tenants]

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (lossless)."""
        return {
            "arbiter": self.arbiter,
            "tenants": [t.to_dict() for t in self.tenants],
            "jain_fairness": self.jain_fairness,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSummary":
        """Inverse of :meth:`to_dict`."""
        return cls(
            arbiter=data["arbiter"],
            tenants=[TenantReport.from_dict(t) for t in data["tenants"]],
            jain_fairness=data.get("jain_fairness"),
        )


@dataclass
class L2Summary:
    """Aggregate L2 statistics across slices."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    fills: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (lossless)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "fills": self.fills,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "L2Summary":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class SimReport:
    """Everything a simulation run produced.

    Paper metrics (Section II-D):

    * ``activations``, ``avg_rbl``, ``rbl_histogram`` — row-locality;
    * ``ipc`` — instructions per *core* cycle;
    * ``row_energy_nj`` — the headline energy metric;
    * ``coverage`` — dropped / arrived global reads;
    * ``bwutil`` — DRAM data-bus utilisation (Dyn-DMS's proxy for IPC).
    """

    workload: str
    scheme: str
    elapsed_mem_cycles: float
    elapsed_core_cycles: float
    total_instructions: int
    channel_stats: list[ChannelStats]
    drops: list[DropRecord]
    l2: L2Summary
    energy: EnergyBreakdown
    energy_params: DRAMEnergyParams
    #: Mean DMS delay in force at phase ends (diagnostics; Dyn-DMS only).
    final_dms_delays: list[float] = field(default_factory=list)
    final_th_rbls: list[int] = field(default_factory=list)
    #: Application error, filled in by the approximation replay pipeline.
    application_error: Optional[float] = None
    #: Windowed telemetry series; present only when the spec set
    #: ``telemetry`` (or the system was built with ``window_cycles``).
    timeline: Optional[Timeline] = None
    #: Reliability counters + FIT/carbon estimates; present only when an
    #: ECC code or the fault injector was active (``None`` keeps the
    #: serialized form — and the seed golden reports — unchanged).
    ecc: Optional[ECCSummary] = None
    #: Per-tenant counters; present only when a multi-tenant mix ran
    #: (``None`` keeps single-tenant serialized forms byte-identical).
    tenants: Optional[TenantSummary] = None

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Instructions per core cycle."""
        if self.elapsed_core_cycles <= 0:
            return 0.0
        return self.total_instructions / self.elapsed_core_cycles

    @property
    def activations(self) -> int:
        """Total row activations across channels."""
        return sum(s.activations for s in self.channel_stats)

    @property
    def requests_served(self) -> int:
        """Column accesses served by the DRAM banks."""
        return sum(s.requests_served for s in self.channel_stats)

    @property
    def requests_dropped(self) -> int:
        """Requests answered by the VP unit instead of DRAM."""
        return sum(s.requests_dropped for s in self.channel_stats)

    @property
    def reads_arrived(self) -> int:
        """Global reads that reached the memory controllers."""
        return sum(s.reads_arrived for s in self.channel_stats)

    @property
    def avg_rbl(self) -> float:
        """Average row buffer locality (served requests / activations)."""
        acts = self.activations
        return self.requests_served / acts if acts else 0.0

    @property
    def rbl_histogram(self) -> Counter:
        """Merged RBL histogram over all channels."""
        return merge_rbl_histograms(self.channel_stats)

    @property
    def coverage(self) -> float:
        """Prediction coverage: dropped / arrived global reads."""
        arrived = self.reads_arrived
        return self.requests_dropped / arrived if arrived else 0.0

    @property
    def row_energy_nj(self) -> float:
        """Row (activate+restore+precharge) energy."""
        return self.energy.row_nj

    @property
    def bwutil(self) -> float:
        """Mean DRAM data-bus utilisation over the run."""
        if self.elapsed_mem_cycles <= 0:
            return 0.0
        busy = sum(s.bus.total_busy for s in self.channel_stats)
        return busy / (self.elapsed_mem_cycles * len(self.channel_stats))

    # ------------------------------------------------------------------
    def normalized_row_energy(self, baseline: "SimReport") -> float:
        """Row energy relative to a baseline run."""
        if baseline.row_energy_nj <= 0:
            return 1.0
        return self.row_energy_nj / baseline.row_energy_nj

    def normalized_ipc(self, baseline: "SimReport") -> float:
        """IPC relative to a baseline run."""
        if baseline.ipc <= 0:
            return 1.0
        return self.ipc / baseline.ipc

    def normalized_activations(self, baseline: "SimReport") -> float:
        """Activation count relative to a baseline run."""
        if baseline.activations <= 0:
            return 1.0
        return self.activations / baseline.activations

    # ------------------------------------------------------------------
    # Serialization (persistent result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-serializable form; see :meth:`from_dict`.

        Reliability fields are emitted only when active: the ``ecc``
        section and the ``energy.ecc_nj`` component appear iff an ECC
        read path ran, so reports from ECC-free runs — including every
        pinned golden report — keep the exact pre-ECC key set.
        """
        payload = {
            "workload": self.workload,
            "scheme": self.scheme,
            "elapsed_mem_cycles": self.elapsed_mem_cycles,
            "elapsed_core_cycles": self.elapsed_core_cycles,
            "total_instructions": self.total_instructions,
            "channel_stats": [s.to_dict() for s in self.channel_stats],
            "drops": [_drop_to_dict(d) for d in self.drops],
            "l2": self.l2.to_dict(),
            "energy": {
                "row_nj": self.energy.row_nj,
                "access_nj": self.energy.access_nj,
                "background_nj": self.energy.background_nj,
            },
            "energy_params": {
                "technology": self.energy_params.technology,
                "e_act_nj": self.energy_params.e_act_nj,
                "e_rd_nj": self.energy_params.e_rd_nj,
                "e_wr_nj": self.energy_params.e_wr_nj,
                "background_mw": self.energy_params.background_mw,
                "e_ref_nj": self.energy_params.e_ref_nj,
                "baseline_row_energy_fraction": (
                    self.energy_params.baseline_row_energy_fraction
                ),
            },
            "final_dms_delays": list(self.final_dms_delays),
            "final_th_rbls": list(self.final_th_rbls),
            "application_error": self.application_error,
            "timeline": (
                self.timeline.to_dict() if self.timeline is not None else None
            ),
        }
        if self.energy.ecc_nj:
            payload["energy"]["ecc_nj"] = self.energy.ecc_nj
        if self.ecc is not None:
            payload["ecc"] = self.ecc.to_dict()
        if self.tenants is not None:
            payload["tenants"] = self.tenants.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "SimReport":
        """Rebuild a report; ``from_dict(r.to_dict()) == r`` holds."""
        ecc_data = data.get("ecc")
        tenants_data = data.get("tenants")
        return cls(
            workload=data["workload"],
            scheme=data["scheme"],
            elapsed_mem_cycles=data["elapsed_mem_cycles"],
            elapsed_core_cycles=data["elapsed_core_cycles"],
            total_instructions=data["total_instructions"],
            channel_stats=[
                ChannelStats.from_dict(s) for s in data["channel_stats"]
            ],
            drops=[_drop_from_dict(d) for d in data["drops"]],
            l2=L2Summary.from_dict(data["l2"]),
            energy=EnergyBreakdown(**data["energy"]),
            energy_params=DRAMEnergyParams(**data["energy_params"]),
            final_dms_delays=list(data["final_dms_delays"]),
            final_th_rbls=list(data["final_th_rbls"]),
            application_error=data["application_error"],
            timeline=Timeline.from_dict(data.get("timeline")),
            ecc=(
                ECCSummary.from_dict(ecc_data)
                if ecc_data is not None else None
            ),
            tenants=(
                TenantSummary.from_dict(tenants_data)
                if tenants_data is not None else None
            ),
        )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A short human-readable digest."""
        lines = [
            f"workload={self.workload} scheme={self.scheme}",
            f"  IPC            {self.ipc:.3f}"
            f"  (instr {self.total_instructions},"
            f" core cycles {self.elapsed_core_cycles:.0f})",
            f"  activations    {self.activations}",
            f"  avg RBL        {self.avg_rbl:.2f}",
            f"  row energy     {self.row_energy_nj / 1e3:.2f} uJ",
            f"  coverage       {self.coverage:.1%}"
            f"  (drops {self.requests_dropped})",
            f"  BW utilisation {self.bwutil:.1%}",
            f"  L2 hit rate    {self.l2.hit_rate:.1%}",
        ]
        if self.application_error is not None:
            lines.append(f"  app error      {self.application_error:.2%}")
        if self.ecc is not None:
            lines.append(
                f"  ECC ({self.ecc.code})  corrected {self.ecc.words_corrected}"
                f"  detected {self.ecc.words_detected}"
                f"  silent {self.ecc.words_silent}"
                f"  FIT {self.ecc.fit:.3g}"
            )
        if self.tenants is not None:
            lines.append(f"  tenants ({self.tenants.arbiter})")
            energy_shares = self.tenants.row_energy_shares()
            for tenant, share in zip(self.tenants.tenants, energy_shares):
                slow = (
                    f"  slowdown {tenant.slowdown:.2f}"
                    if tenant.slowdown is not None else ""
                )
                lines.append(
                    f"    {tenant.name} [{tenant.tenant_class}]"
                    f"  served {tenant.requests_served}"
                    f"  drops {tenant.requests_dropped}"
                    f"  row-energy {share:.1%}{slow}"
                )
            if self.tenants.jain_fairness is not None:
                lines.append(
                    f"    Jain fairness  {self.tenants.jain_fairness:.3f}"
                )
        if self.timeline is not None:
            lines.append(
                f"  telemetry      {len(self.timeline)} windows "
                f"of {self.timeline.window_cycles} cycles"
            )
        return "\n".join(lines)
