"""Multi-tenant simulation configuration.

A :class:`TenantMixSpec` describes N named tenants sharing one simulated
memory system: each tenant is a registered workload plus a *class*
describing its service contract —

* ``latency`` — latency-sensitive foreground traffic; never delayed by
  DMS gating, never dropped by AMS (its accesses are stripped of the
  approximable annotation before they reach a controller);
* ``bandwidth`` — throughput-oriented traffic; DMS gating applies but
  AMS never drops it;
* ``approx-batch`` — best-effort batch traffic that tolerates
  approximation; the only class whose reads AMS may drop.

The mix rides on :class:`~repro.sim.spec.SimSpec` as the optional
``tenants`` section, so it flows through the codec, the v4 full-payload
cache key, and ``simulate_spec`` automatically. ``arbiter`` names a
policy from the *arbiter* registry (:mod:`repro.sched.policies`), the
second string-keyed registry beside the selectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError

#: The three tenant service classes, strongest contract first.
TENANT_CLASSES = ("latency", "bandwidth", "approx-batch")

#: Classes whose requests the AMS unit may drop.
APPROXIMABLE_CLASSES = ("approx-batch",)

#: Classes exempt from DMS activation gating (never aged).
UNGATED_CLASSES = ("latency",)


def tenant_class_for_priority(priority: int) -> str:
    """Default tenant class for an HTTP job ``priority``.

    The service's priority queue and the DRAM arbiter speak the same
    language end to end: high-priority jobs (``>= 2``) map to the
    ``latency`` contract, normal jobs (``1``) to ``bandwidth``, and
    background jobs (``<= 0``) to ``approx-batch``.
    """
    if priority >= 2:
        return "latency"
    if priority >= 1:
        return "bandwidth"
    return "approx-batch"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a registered workload under a service class."""

    #: Display name (also the per-tenant report key); must be unique.
    name: str
    #: Registered workload name (``repro.workloads.registry``).
    workload: str
    #: Service class from :data:`TENANT_CLASSES`.
    tenant_class: str = "bandwidth"
    #: Per-tenant workload scale multiplier (on top of the run scale).
    scale: float = 1.0
    #: Per-tenant trace seed; ``None`` inherits the run seed.
    seed: Optional[int] = None

    def validate(self, path: str = "tenant") -> None:
        """Raise :class:`ConfigError` naming the key under ``path``."""
        if not self.name:
            raise ConfigError(f"{path}.name must be non-empty")
        if self.tenant_class not in TENANT_CLASSES:
            raise ConfigError(
                f"{path}.tenant_class: unknown tenant class "
                f"{self.tenant_class!r} for tenant {self.name!r} "
                f"(valid: {', '.join(TENANT_CLASSES)})"
            )
        # NaN and +-Infinity fail this comparison.
        if not 0 < self.scale < math.inf:
            raise ConfigError(
                f"{path}.scale must be positive and finite, "
                f"got {self.scale}"
            )
        # numpy's default_rng refuses negative seeds on the worker.
        if self.seed is not None and self.seed < 0:
            raise ConfigError(
                f"{path}.seed must be null or >= 0, got {self.seed}"
            )
        from repro.workloads.registry import list_workloads

        if self.workload not in list_workloads():
            raise ConfigError(
                f"{path}.workload: unknown workload {self.workload!r} "
                f"(known: {', '.join(list_workloads())})"
            )

    @property
    def approximable(self) -> bool:
        """Whether AMS may drop this tenant's reads."""
        return self.tenant_class in APPROXIMABLE_CLASSES

    @property
    def gated(self) -> bool:
        """Whether DMS activation gating applies to this tenant."""
        return self.tenant_class not in UNGATED_CLASSES


@dataclass(frozen=True)
class TenantMixSpec:
    """N tenants plus the arbiter that shares the controller among them."""

    #: The tenant roster; order defines the stable ``tenant_id`` space.
    tenants: tuple[TenantSpec, ...] = field(default_factory=tuple)
    #: Arbiter registry name (``shared-frfcfs`` / ``tenant-priority`` /
    #: ``batch-fair``).
    arbiter: str = "shared-frfcfs"

    def validate(self) -> None:
        if not self.tenants:
            raise ConfigError("a tenant mix needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"tenant names must be unique, got {names!r}"
            )
        for i, tenant in enumerate(self.tenants):
            tenant.validate(f"tenants.tenants[{i}]")
        from repro.sched.policies import arbiter_names

        if self.arbiter not in arbiter_names():
            raise ConfigError(
                f"unknown arbiter {self.arbiter!r}; registered: "
                + ", ".join(arbiter_names())
            )

    @property
    def multi(self) -> bool:
        """True when tenant machinery must actually engage (N >= 2).

        A single-tenant mix is pure composition sugar: it must simulate
        field-identically to the plain single-workload run, so nothing
        tenant-specific attaches for it.
        """
        return len(self.tenants) >= 2

    def classes(self) -> tuple[str, ...]:
        """Tenant classes in roster (tenant_id) order."""
        return tuple(t.tenant_class for t in self.tenants)
