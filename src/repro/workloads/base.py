"""Workload abstraction: a numpy kernel + a trace generator + annotations.

Each of the paper's twenty applications subclasses :class:`Workload`,
providing

* ``_build()`` — allocate the kernel's input/output arrays (seeded, so a
  workload instance is fully deterministic) and register them in the
  :class:`~repro.workloads.layout.AddressSpace`, marking the
  programmer-annotated approximable arrays (paper Listing 1);
* ``warp_streams()`` — the per-warp memory trace over those arrays,
  which callers read through ``trace()`` (built once per address
  mapping and shared by every run of the instance);
* ``run_kernel()`` — the real computation, used both for the reference
  output and for the approximation replay (dropped lines' values replaced
  by the VP's donor lines).
"""

from __future__ import annotations

import abc
from typing import ClassVar, Optional, Sequence

import numpy as np

from repro.config.address import AddressMapping
from repro.config.gpu import GPUConfig
from repro.errors import WorkloadError
from repro.gpu.warp import WarpOp
from repro.workloads.layout import AddressSpace


class Workload(abc.ABC):
    """One GPGPU application of Table II."""

    #: Table II abbreviation, e.g. "SCP".
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    #: Input kind from Table II ("Matrix", "Image", ...).
    input_kind: ClassVar[str] = ""
    #: Result-presentation group (1-4) from Section V.
    group: ClassVar[int] = 0

    def __init__(
        self,
        *,
        scale: float = 1.0,
        seed: int = 7,
        parallelism: float = 1.0,
        compute_scale: float = 1.0,
    ) -> None:
        if scale <= 0:
            raise WorkloadError("scale must be positive")
        if parallelism <= 0 or compute_scale <= 0:
            raise WorkloadError("parallelism/compute_scale must be positive")
        self.scale = scale
        self.seed = seed
        self.parallelism = parallelism
        self.compute_scale = compute_scale
        self.rng = np.random.default_rng(seed)
        self.space = AddressSpace()
        self.arrays: dict[str, np.ndarray] = {}
        self._exact: Optional[np.ndarray] = None
        self._traces: dict[AddressMapping, list[list[WarpOp]]] = {}
        self._build()
        if not self.arrays:
            raise WorkloadError(f"{self.name}: _build registered no arrays")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def dim(self, n: int, *, multiple: int = 1, minimum: int = 1) -> int:
        """Scale a problem dimension, rounded to ``multiple``."""
        scaled = int(round(n * self.scale / multiple)) * multiple
        return max(scaled, max(minimum, multiple))

    def dim2(self, n: int, *, multiple: int = 1, minimum: int = 1) -> int:
        """Scale a 2-D side length so the *footprint* scales linearly
        with ``scale`` (side scales with sqrt(scale))."""
        side = n * self.scale**0.5
        scaled = int(round(side / multiple)) * multiple
        return max(scaled, max(minimum, multiple))

    def dim3(self, n: int, *, multiple: int = 1, minimum: int = 1) -> int:
        """Scale a 3-D side length (side scales with cbrt(scale))."""
        side = n * self.scale ** (1.0 / 3.0)
        scaled = int(round(side / multiple)) * multiple
        return max(scaled, max(minimum, multiple))

    def warps(self, n: int) -> int:
        """Scale a warp count by the parallelism knob and the workload
        scale (kept even, >= 2, within the SM array's 30 x 48 slots).

        Warp counts follow the problem size so that ops-per-warp — and
        with it the steady-state queue behaviour the calibration relies
        on — is preserved across scales.
        """
        scaled = int(round(n * self.parallelism * min(self.scale, 2.0) / 2))
        return min(max(scaled * 2, 2), 1440)

    def cycles(self, c: float) -> float:
        """Scale a per-op compute duration by the compute knob."""
        return c * self.compute_scale

    def register(
        self, name: str, array: np.ndarray, *, approximable: bool = False
    ) -> np.ndarray:
        """Place an array in the address space and remember its data."""
        contiguous = np.ascontiguousarray(array)
        self.space.add(name, contiguous, approximable=approximable)
        self.arrays[name] = contiguous
        return contiguous

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build(self) -> None:
        """Allocate and register the kernel's arrays."""

    @abc.abstractmethod
    def warp_streams(self, config: GPUConfig) -> list[list[WarpOp]]:
        """The per-warp memory trace (see :mod:`repro.workloads.traces`)."""

    @abc.abstractmethod
    def run_kernel(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """Execute the computation on the given array values."""

    def trace(self, config: GPUConfig) -> list[list[WarpOp]]:
        """The trace for ``config``: :meth:`warp_streams`, built once per
        ``config.mapping`` (the only field a trace builder reads).

        Every run of this instance shares the lists; the simulator only
        iterates them, and ops and accesses are frozen.
        """
        streams = self._traces.get(config.mapping)
        if streams is None:
            streams = self._traces[config.mapping] = self.warp_streams(config)
        return streams

    # ------------------------------------------------------------------
    # Output-quality pipeline
    # ------------------------------------------------------------------
    def run_exact(self) -> np.ndarray:
        """Reference output on the unperturbed inputs (cached)."""
        if self._exact is None:
            self._exact = self.run_kernel(self.arrays)
        return self._exact

    def run_approx(self, perturbed: dict[str, np.ndarray]) -> np.ndarray:
        """Output with approximated inputs (from the replay pipeline)."""
        return self.run_kernel(perturbed)

    def output_error(self, exact: np.ndarray, approx: np.ndarray) -> float:
        """Application error: mean relative error of the output
        (paper Section II-D). Subclasses with discrete outputs override
        this (e.g. mismatch rate for intersection tests)."""
        e = np.asarray(exact, dtype=np.float64).ravel()
        a = np.asarray(approx, dtype=np.float64).ravel()
        if e.shape != a.shape:
            raise WorkloadError("output shapes differ between exact/approx")
        denom = np.maximum(np.abs(e), 1e-6)
        return float(np.mean(np.abs(a - e) / denom))

    # ------------------------------------------------------------------
    def trace_footprint(self, config: GPUConfig) -> dict[str, int]:
        """Static summary of the trace (diagnostics): ops, accesses."""
        streams = self.trace(config)
        ops = sum(len(s) for s in streams)
        accesses = sum(len(op.accesses) for s in streams for op in s)
        reads = sum(
            1
            for s in streams
            for op in s
            for a in op.accesses
            if not a.is_write
        )
        return {
            "warps": len(streams),
            "ops": ops,
            "accesses": accesses,
            "reads": reads,
            "writes": accesses - reads,
        }
