"""Serialisable simulation specification.

A :class:`SimSpec` is the single value that says *how* to simulate:
which scheduler scheme, which DRAM device, any GPU-configuration
overrides, and the observability/error flags. It flows unchanged
through :func:`~repro.sim.system.simulate_spec`, the
:class:`~repro.harness.runner.Runner` (whose cells are its spec with the
scheme put in), the persistent result cache key, the service's job keys,
and the CLI's ``--device``/``--scheme`` options — one object, one JSON
form, one fingerprint.

Device semantics: ``device=None`` means "use the timings/energy/clock
embedded in ``config``" (the legacy path — bit-identical to the
pre-SimSpec simulator, and what tests passing custom configs rely on).
A named device resolves through :mod:`repro.dram.devices` and overrides
those three fields of the resolved config; the ``"gddr5"`` preset is
numerically identical to the defaults, so naming it changes nothing but
the fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.config.codec import decode, decode_optional, decode_value, encode
from repro.config.faults import FaultConfig
from repro.config.gpu import GPUConfig
from repro.config.scheduler import SchedulerConfig
from repro.config.tenants import TenantMixSpec
from repro.errors import ConfigError


@dataclass(frozen=True)
class SimSpec:
    """Everything but the workload: scheme + device + overrides + flags."""

    #: The full scheduler composition (selector + DMS + AMS + VP).
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: Registered DRAM device name, or None for config-embedded timings.
    device: Optional[str] = None
    #: GPU overrides; None means the Table I default :class:`GPUConfig`.
    config: Optional[GPUConfig] = None
    #: Replay the AMS drop log through the workload kernel afterwards.
    measure_error: bool = False
    #: Keep per-channel activation logs on the report (RBL histograms).
    record_activations: bool = True
    #: Attach a windowed-telemetry hub (``report.timeline``).
    telemetry: bool = False
    #: Registered ECC code protecting DRAM reads (``"none"`` = raw).
    ecc: str = "none"
    #: Timing-dependent bit-flip fault model (disabled by default).
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: Multi-tenant mix; ``None`` is the plain single-workload path.
    tenants: Optional[TenantMixSpec] = None

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the spec is resolvable; raise :class:`ConfigError`."""
        self.scheduler.validate()
        if self.device is not None:
            from repro.dram.devices import get_device

            get_device(self.device)  # raises ConfigError when unknown
        if self.config is not None:
            self.config.validate()
        from repro.dram.ecc import get_ecc

        get_ecc(self.ecc)  # raises ConfigError when unknown
        self.faults.validate()
        if self.tenants is not None:
            self.tenants.validate()

    def resolve_config(self) -> GPUConfig:
        """The concrete :class:`GPUConfig` this spec simulates on."""
        base = self.config if self.config is not None else GPUConfig()
        if self.device is None:
            return base
        from repro.dram.devices import get_device

        return get_device(self.device).apply(base)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready form (round-trips via :meth:`from_dict`).

        The ``tenants`` key is emitted only when a mix is present:
        single-tenant payloads (and therefore their v4 cache keys and
        the :meth:`content_seed` that anchors fault-injection sites)
        stay byte-identical to the pre-tenant format.
        """
        payload = {
            "scheduler": encode(self.scheduler),
            "device": self.device,
            "config": encode(self.config) if self.config is not None else None,
            "measure_error": self.measure_error,
            "record_activations": self.record_activations,
            "telemetry": self.telemetry,
            "ecc": self.ecc,
            "faults": encode(self.faults),
        }
        if self.tenants is not None:
            payload["tenants"] = encode(self.tenants)
        return payload

    def content_seed(self) -> int:
        """Deterministic 64-bit seed derived from the spec content.

        Seeds the fault injector so flip sites are a pure function of
        the spec — identical across serial and ``--jobs N`` execution,
        and stable across sessions (no Python hash randomisation
        involved).
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        A missing key takes its default, as does a ``null`` scheduler or
        faults section. Every other value must have its field's type:
        ``"false"`` is not a flag, and only ``device``, ``config`` and
        ``tenants`` may be ``null``.
        """
        if not isinstance(data, dict):
            raise ConfigError(
                f"SimSpec payload must be a dict, got {type(data).__name__}"
            )
        known = {
            "scheduler", "device", "config", "measure_error",
            "record_activations", "telemetry", "ecc", "faults", "tenants",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                "unknown SimSpec field(s) in payload: "
                + ", ".join(sorted(unknown))
            )
        scheduler = decode_optional(
            SchedulerConfig, data.get("scheduler"), path="scheduler"
        )
        return cls(
            scheduler=scheduler if scheduler is not None else SchedulerConfig(),
            device=decode_value(Optional[str], data.get("device"), "device"),
            config=decode_optional(
                GPUConfig, data.get("config"), path="config"
            ),
            measure_error=decode_value(
                bool, data.get("measure_error", False), "measure_error"
            ),
            record_activations=decode_value(
                bool, data.get("record_activations", True),
                "record_activations",
            ),
            telemetry=decode_value(
                bool, data.get("telemetry", False), "telemetry"
            ),
            ecc=decode_value(str, data.get("ecc", "none"), "ecc"),
            faults=(
                decode(FaultConfig, data["faults"], path="faults")
                if data.get("faults") is not None
                else FaultConfig()
            ),
            tenants=decode_optional(
                TenantMixSpec, data.get("tenants"), path="tenants"
            ),
        )
