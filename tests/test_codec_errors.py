"""Codec error paths: every rejection names the offending key path.

A service client submitting a malformed nested SimSpec payload gets one
shot at fixing it; these tests pin that the :class:`ConfigError` message
carries the full dotted path (``scheduler.dms.mode``), not just the name
of the dataclass that choked.
"""

from __future__ import annotations

import pytest

from repro.config.codec import decode
from repro.config.scheduler import DMSConfig, SchedulerConfig
from repro.config.tenants import TenantMixSpec, TenantSpec
from repro.errors import ConfigError
from repro.harness.schemes import scheme_def
from repro.sim.spec import SimSpec

# ----------------------------------------------------------------------
# Unknown fields.


def test_unknown_top_level_field_names_the_key():
    with pytest.raises(ConfigError, match=r"\bbogus\b"):
        decode(SchedulerConfig, {"bogus": 1})


def test_unknown_nested_field_names_the_full_path():
    payload = {"dms": {"bogus": 1}}
    with pytest.raises(ConfigError, match=r"dms\.bogus"):
        decode(SchedulerConfig, payload)


def test_unknown_simspec_field_rejected():
    with pytest.raises(ConfigError, match="unknown SimSpec field"):
        SimSpec.from_dict({"xyz": True})


def test_simspec_nested_error_carries_scheduler_prefix():
    with pytest.raises(ConfigError, match=r"scheduler\.dms\.bogus"):
        SimSpec.from_dict({"scheduler": {"dms": {"bogus": 1}}})


def test_simspec_config_error_carries_config_prefix():
    with pytest.raises(ConfigError, match=r"config\."):
        SimSpec.from_dict({"config": {"not_a_gpu_field": 1}})


# ----------------------------------------------------------------------
# Wrong types and enum mismatches.


def test_wrong_primitive_type_names_path_and_types():
    with pytest.raises(
        ConfigError,
        match=r"dms\.bwutil_threshold.*expected float.*got str",
    ):
        decode(SchedulerConfig, {"dms": {"bwutil_threshold": "fast"}})


def test_invalid_enum_value_lists_valid_members():
    with pytest.raises(ConfigError) as excinfo:
        decode(SchedulerConfig, {"dms": {"mode": "turbo"}})
    message = str(excinfo.value)
    assert "dms.mode" in message
    assert "'turbo'" in message
    assert "'dynamic'" in message  # valid members are listed


def test_non_dict_subtree_names_the_path():
    with pytest.raises(ConfigError, match=r"\bdms\b"):
        decode(SchedulerConfig, {"dms": [1, 2, 3]})


def test_error_free_decode_still_round_trips():
    spec = SimSpec(scheduler=scheme_def("dyn-dms").build())
    assert SimSpec.from_dict(spec.to_dict()) == spec
    widened = decode(DMSConfig, {"bwutil_threshold": 1})
    assert isinstance(widened.bwutil_threshold, float)
    # int -> float widening stays allowed (JSON has no float literal
    # for whole numbers).


# ----------------------------------------------------------------------
# Null, missing and non-list values.


def test_null_for_a_required_field_names_the_path():
    with pytest.raises(ConfigError, match=r"dms\.window_cycles.*got null"):
        decode(SchedulerConfig, {"dms": {"window_cycles": None}})


def test_null_passes_through_an_optional_field():
    assert decode(TenantSpec, {"name": "a", "workload": "SCP",
                               "seed": None}).seed is None


def test_missing_field_without_default_names_the_path():
    with pytest.raises(ConfigError, match=r"tenants\[0\]\.workload"):
        decode(TenantMixSpec, {"tenants": [{"name": "a"}]})


def test_non_list_for_a_tuple_field_names_the_path():
    with pytest.raises(ConfigError, match=r"'tenants'.*expected list"):
        decode(TenantMixSpec, {"tenants": "a"})


def test_simspec_flags_are_type_checked_not_coerced():
    with pytest.raises(ConfigError, match="measure_error"):
        SimSpec.from_dict({"measure_error": "false"})
    with pytest.raises(ConfigError, match="device"):
        SimSpec.from_dict({"device": ["gddr5"]})
