"""SimSpec serialisation, config codec, and cache-v4 key tests."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.codec import decode, decode_optional, encode
from repro.config.faults import FaultConfig
from repro.config.gpu import GPUConfig
from repro.config.scheduler import (
    AMSConfig,
    AMSMode,
    DMSConfig,
    DMSMode,
    SchedulerConfig,
)
from repro.config.tenants import TenantMixSpec, TenantSpec
from repro.errors import ConfigError
from repro.harness.cache import CACHE_FORMAT_VERSION, ResultCache, cache_key
from repro.sim.report import SimReport
from repro.sim.spec import SimSpec

GOLDEN = Path(__file__).resolve().parent / "golden" / "seed_reports.json"


def fancy_spec() -> SimSpec:
    """A spec with every field away from its default."""
    return SimSpec(
        scheduler=SchedulerConfig(
            arbiter="frfcfs-cap",
            hit_streak_cap=2,
            dms=DMSConfig(mode=DMSMode.DYNAMIC, window_cycles=512),
            ams=AMSConfig(mode=AMSMode.STATIC, static_th_rbl=4),
        ),
        device="hbm",
        config=dataclasses.replace(GPUConfig(), num_sms=8),
        measure_error=True,
        record_activations=False,
        telemetry=True,
        ecc="secded",
        faults=FaultConfig(enabled=True, p_bit=1e-6, scale=2.0),
        tenants=TenantMixSpec(
            tenants=(
                TenantSpec(name="fg", workload="MVT",
                           tenant_class="latency"),
                TenantSpec(name="bg", workload="ATAX",
                           tenant_class="approx-batch", scale=0.5,
                           seed=3),
            ),
            arbiter="batch-fair",
        ),
    )


#: Random SimSpec generator: every field varied independently, so the
#: codec round-trip and key-coverage properties below hold over the
#: whole spec space, not just hand-picked examples.
random_specs = st.builds(
    SimSpec,
    scheduler=st.builds(
        SchedulerConfig,
        arbiter=st.sampled_from(["frfcfs", "fcfs", "frfcfs-cap"]),
        hit_streak_cap=st.integers(min_value=1, max_value=16),
        dms=st.builds(
            DMSConfig,
            mode=st.sampled_from(list(DMSMode)),
            static_delay=st.integers(min_value=0, max_value=512),
            window_cycles=st.integers(min_value=64, max_value=4096),
        ),
        ams=st.builds(
            AMSConfig,
            mode=st.sampled_from(list(AMSMode)),
            static_th_rbl=st.integers(min_value=1, max_value=32),
        ),
    ),
    device=st.sampled_from([None, "gddr5", "gddr5x", "hbm", "lpddr4"]),
    config=st.sampled_from(
        [None, dataclasses.replace(GPUConfig(), num_sms=8)]
    ),
    measure_error=st.booleans(),
    record_activations=st.booleans(),
    telemetry=st.booleans(),
    ecc=st.sampled_from(["none", "parity", "secded", "bch"]),
    faults=st.builds(
        FaultConfig,
        enabled=st.booleans(),
        p_bit=st.floats(min_value=0.0, max_value=1e-3),
        scale=st.floats(min_value=0.0, max_value=8.0),
        sensitivity=st.floats(min_value=0.0, max_value=2.0),
    ),
    tenants=st.one_of(
        st.none(),
        st.builds(
            TenantMixSpec,
            tenants=st.lists(
                st.builds(
                    TenantSpec,
                    name=st.uuids().map(lambda u: f"t{u.hex[:6]}"),
                    workload=st.sampled_from(["MVT", "ATAX", "SCP"]),
                    tenant_class=st.sampled_from(
                        ["latency", "bandwidth", "approx-batch"]
                    ),
                    scale=st.floats(min_value=0.25, max_value=2.0),
                    seed=st.one_of(
                        st.none(), st.integers(min_value=0, max_value=99)
                    ),
                ),
                min_size=1, max_size=3,
                unique_by=lambda t: t.name,
            ).map(tuple),
            arbiter=st.sampled_from(
                ["shared-frfcfs", "tenant-priority", "batch-fair"]
            ),
        ),
    ),
)


class TestCodec:
    def test_enum_fields_encode_to_values(self) -> None:
        payload = encode(DMSConfig(mode=DMSMode.STATIC))
        assert payload["mode"] == "static"

    def test_round_trip_nested_dataclass(self) -> None:
        original = fancy_spec().scheduler
        assert decode(SchedulerConfig, encode(original)) == original

    def test_unknown_keys_rejected(self) -> None:
        with pytest.raises(ConfigError, match="bogus"):
            decode(DMSConfig, {"bogus": 1})

    def test_missing_keys_use_defaults(self) -> None:
        cfg = decode(DMSConfig, {"mode": "dynamic"})
        assert cfg.mode is DMSMode.DYNAMIC
        assert cfg.window_cycles == DMSConfig().window_cycles

    def test_decode_optional_passes_none(self) -> None:
        assert decode_optional(GPUConfig, None) is None


class TestSimSpec:
    def test_round_trip_is_lossless(self) -> None:
        spec = fancy_spec()
        rebuilt = SimSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_round_trip_survives_json(self) -> None:
        spec = fancy_spec()
        rebuilt = SimSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_default_round_trip(self) -> None:
        assert SimSpec.from_dict(SimSpec().to_dict()) == SimSpec()

    def test_from_dict_rejects_non_dict(self) -> None:
        with pytest.raises(ConfigError, match="dict"):
            SimSpec.from_dict(["not", "a", "dict"])

    def test_resolve_without_device_returns_config_unchanged(self) -> None:
        custom = dataclasses.replace(GPUConfig(), num_sms=8)
        assert SimSpec(config=custom).resolve_config() is custom
        assert SimSpec().resolve_config() == GPUConfig()

    def test_resolve_with_device_overlays_timings(self) -> None:
        from repro.dram.devices import get_device

        custom = dataclasses.replace(GPUConfig(), num_sms=8)
        resolved = SimSpec(config=custom, device="hbm").resolve_config()
        assert resolved.num_sms == 8
        assert resolved.timings == get_device("hbm").timings
        assert resolved.mem_clock_mhz == get_device("hbm").mem_clock_mhz

    def test_validate_rejects_unknown_device(self) -> None:
        with pytest.raises(ConfigError, match="unknown DRAM device"):
            SimSpec(device="ddr3").validate()

    def test_validate_rejects_unknown_arbiter(self) -> None:
        with pytest.raises(ConfigError, match="arbiter"):
            SimSpec(scheduler=SchedulerConfig(arbiter="lifo")).validate()


class TestSpecProperties:
    """Randomised codec/key coverage — the whole spec space, not
    hand-picked examples."""

    @settings(max_examples=40, deadline=None)
    @given(spec=random_specs)
    def test_codec_round_trip_is_lossless(self, spec: SimSpec) -> None:
        rebuilt = SimSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec

    def test_to_dict_covers_every_dataclass_field(self) -> None:
        field_names = {f.name for f in dataclasses.fields(SimSpec)}
        assert set(fancy_spec().to_dict()) == field_names

    def test_every_spec_field_reaches_the_cache_key(self) -> None:
        # The v4 key embeds spec.to_dict() wholesale; perturbing any
        # single field must therefore change the key. The alternates
        # map is keyed by field name and checked for completeness, so
        # adding a SimSpec field without extending this audit fails
        # loudly instead of silently missing the cache key.
        base = fancy_spec()
        alternates = {
            "scheduler": SchedulerConfig(),
            "device": "gddr5",
            "config": dataclasses.replace(GPUConfig(), num_sms=16),
            "measure_error": False,
            "record_activations": True,
            "telemetry": False,
            "ecc": "bch",
            "faults": FaultConfig(),
            "tenants": None,
        }
        assert set(alternates) == {
            f.name for f in dataclasses.fields(SimSpec)
        }
        reference = cache_key(
            app="synthetic", scale=0.25, seed=11, spec=base
        )
        for name, value in alternates.items():
            variant = dataclasses.replace(base, **{name: value})
            key = cache_key(
                app="synthetic", scale=0.25, seed=11, spec=variant
            )
            assert key != reference, f"field {name!r} not part of the key"


class TestCacheV4:
    def test_format_version_is_4(self) -> None:
        assert CACHE_FORMAT_VERSION == 4

    def base_key(
        self, version: int = CACHE_FORMAT_VERSION, **fields
    ) -> str:
        """The key of a synthetic cell whose spec sets ``fields``."""
        return cache_key(
            app="synthetic", scale=0.25, seed=11,
            spec=SimSpec(**fields), version=version,
        )

    def test_device_is_part_of_the_key(self) -> None:
        # A named device must not collide with the bare default, even
        # for gddr5 where the resolved configs are identical.
        assert self.base_key() != self.base_key(device="gddr5")
        assert self.base_key(device="gddr5") != self.base_key(device="hbm")

    def test_selector_fields_are_part_of_the_key(self) -> None:
        assert self.base_key() != self.base_key(
            scheduler=SchedulerConfig(arbiter="fcfs")
        )
        assert self.base_key(
            scheduler=SchedulerConfig(arbiter="frfcfs-cap", hit_streak_cap=2)
        ) != self.base_key(
            scheduler=SchedulerConfig(arbiter="frfcfs-cap", hit_streak_cap=4)
        )

    def test_tenant_mix_is_part_of_the_key(self) -> None:
        # The whole tenants section reaches the key: roster, per-tenant
        # class/scale, and the arbiter each perturb it independently.
        mix = TenantMixSpec(
            tenants=(
                TenantSpec(name="a", workload="MVT",
                           tenant_class="latency"),
                TenantSpec(name="b", workload="ATAX",
                           tenant_class="approx-batch"),
            ),
        )
        with_mix = self.base_key(tenants=mix)
        assert with_mix != self.base_key()
        reclassed = dataclasses.replace(
            mix,
            tenants=(
                mix.tenants[0],
                dataclasses.replace(mix.tenants[1],
                                    tenant_class="bandwidth"),
            ),
        )
        assert with_mix != self.base_key(tenants=reclassed)
        rearbited = dataclasses.replace(mix, arbiter="batch-fair")
        assert with_mix != self.base_key(tenants=rearbited)
        rescaled = dataclasses.replace(
            mix,
            tenants=(
                dataclasses.replace(mix.tenants[0], scale=0.5),
                mix.tenants[1],
            ),
        )
        assert with_mix != self.base_key(tenants=rescaled)

    def test_old_format_version_key_differs(self) -> None:
        assert self.base_key() != self.base_key(
            version=CACHE_FORMAT_VERSION - 1
        )

    def test_previous_format_blob_is_a_miss(self, tmp_path) -> None:
        # A v3 blob written by the previous build must be a plain miss —
        # not an error and not quarantined (the blob is healthy).
        report = SimReport.from_dict(
            json.loads(GOLDEN.read_text(encoding="utf-8"))
                ["reports"]["frfcfs"]
        )
        cache = ResultCache(tmp_path, enabled=True)
        key = self.base_key()
        path = cache.store(key, report)
        assert cache.load(key) is not None

        blob = json.loads(path.read_text(encoding="utf-8"))
        blob["format_version"] = CACHE_FORMAT_VERSION - 1
        path.write_text(json.dumps(blob), encoding="utf-8")
        assert cache.load(key) is None
        assert cache.quarantined == 0
        assert path.exists()  # kept on disk: healthy, just older
