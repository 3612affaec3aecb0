"""Name-based registry of the twenty Table II applications."""

from __future__ import annotations

from typing import Callable

from repro.errors import WorkloadError
from repro.workloads.base import Workload

_REGISTRY: dict[str, Callable[..., Workload]] = {}


def _ensure_loaded() -> None:
    # Import side effects populate the registry lazily.
    if _REGISTRY:
        return
    from repro.workloads.kernels import (  # noqa: F401
        atax,
        bicg,
        blackscholes,
        cons,
        conv3d,
        fwt,
        gemm,
        inversek2j,
        jmein,
        laplacian,
        lps,
        meanfilter,
        mm2,
        mm3,
        mvt,
        newtonraph,
        ray,
        scp,
        sla,
        srad,
    )

    from repro.workloads import synthetic

    for module in (
        atax, bicg, blackscholes, cons, conv3d, fwt, gemm, inversek2j,
        jmein, laplacian, lps, meanfilter, mm2, mm3, mvt, newtonraph,
        ray, scp, sla, srad, synthetic,
    ):
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, Workload)
                and obj is not Workload
                and obj.name
            ):
                _REGISTRY.setdefault(obj.name, obj)


def list_workloads() -> list[str]:
    """Names of all registered applications (Table II order not implied)."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_workload(
    name: str,
    *,
    scale: float = 1.0,
    seed: int = 7,
    parallelism: float | None = None,
    compute_scale: float | None = None,
) -> Workload:
    """Instantiate a registered workload by its Table II abbreviation.

    Calibrated parallelism/compute multipliers from
    :mod:`repro.workloads.tuning` are applied unless overridden.
    """
    from repro.workloads.tuning import TUNING

    _ensure_loaded()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise WorkloadError(f"unknown workload {name!r} (known: {known})")
    tuned_p, tuned_c = TUNING.get(name, (1.0, 1.0))
    return factory(
        scale=scale,
        seed=seed,
        parallelism=tuned_p if parallelism is None else parallelism,
        compute_scale=tuned_c if compute_scale is None else compute_scale,
    )
