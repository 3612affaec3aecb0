"""``dram_row_groups`` against the per-line loop it must reproduce.

:func:`oracle_row_groups` is the original implementation: decode every
line of the array with :meth:`AddressMapping.decode`, one call per line,
and group the lines by (channel, bank, row) in first-appearance order.
Every trace in the repository is built from these groups, so the
function under test must equal the oracle exactly: the same groups in
the same order, the same lines in the same order, and plain ``int``
elements (a numpy integer in a trace would change the report's JSON).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AddressMapping
from repro.workloads import get_workload, list_workloads
from repro.workloads.layout import ArraySpec
from repro.workloads.traces import dram_row_groups

MAPPINGS = {
    "bank_interleaved": AddressMapping(),
    "permuted": AddressMapping(scheme="permuted"),
}


def oracle_row_groups(space, name, mapping) -> list[list[int]]:
    """The array's lines grouped by DRAM row, decoded line by line."""
    spec = space.spec(name)
    first_line = spec.base - spec.base % space.line_bytes
    grouped: dict[tuple[int, int, int], list[int]] = {}
    for addr in range(first_line, spec.end, space.line_bytes):
        d = mapping.decode(addr)
        grouped.setdefault((d.channel, d.bank, d.row), []).append(addr)
    return list(grouped.values())


def assert_same_groups(space, name, mapping) -> None:
    got = dram_row_groups(space, name, mapping)
    assert got == oracle_row_groups(space, name, mapping)
    assert type(got) is list
    assert all(type(group) is list for group in got)
    assert all(type(line) is int for group in got for line in group)


class _OneArraySpace:
    """The two members of ``AddressSpace`` that ``dram_row_groups``
    reads, holding one array at any base (the allocator only produces
    256-byte-aligned bases)."""

    def __init__(self, spec: ArraySpec, line_bytes: int) -> None:
        self._spec = spec
        self.line_bytes = line_bytes

    def spec(self, name: str) -> ArraySpec:
        assert name == self._spec.name
        return self._spec


@st.composite
def mappings(draw) -> AddressMapping:
    """Any mapping ``AddressMapping.validate`` accepts, small enough that
    a drawn array spans many rows, banks and channels."""
    scheme = draw(st.sampled_from(["bank_interleaved", "permuted"]))
    access = draw(st.sampled_from([32, 64, 128]))
    groups = draw(st.sampled_from([1, 2, 4]))
    if scheme == "permuted":
        banks = groups * draw(st.sampled_from([1, 2, 4, 8]))
    else:
        banks = groups * draw(st.integers(1, 6))
    mapping = AddressMapping(
        num_channels=draw(st.integers(1, 7)),
        banks_per_channel=banks,
        bank_groups_per_channel=groups,
        interleave_bytes=access * draw(st.integers(1, 4)),
        row_size_bytes=access * draw(st.integers(1, 24)),
        access_bytes=access,
        scheme=scheme,
    )
    mapping.validate()
    return mapping


@st.composite
def placements(draw) -> _OneArraySpace:
    """One array at a drawn (often unaligned) base: no bytes, a few
    bytes inside one line, or many lines."""
    line_bytes = draw(st.sampled_from([32, 64, 128, 256]))
    base = draw(st.integers(0, 1 << 22))
    nbytes = draw(st.one_of(
        st.just(0),
        st.integers(1, line_bytes),
        st.integers(line_bytes, 48 * 1024),
    ))
    spec = ArraySpec(
        name="X", base=base, nbytes=nbytes, itemsize=4, approximable=False
    )
    return _OneArraySpace(spec, line_bytes)


@pytest.mark.parametrize("scheme", sorted(MAPPINGS))
@pytest.mark.parametrize("app", list_workloads())
def test_every_registered_array_matches_the_oracle(app, scheme) -> None:
    workload = get_workload(app, scale=0.05)
    for spec in workload.space.arrays:
        assert_same_groups(workload.space, spec.name, MAPPINGS[scheme])


@given(mapping=mappings(), space=placements())
@settings(max_examples=150, deadline=None)
def test_drawn_mappings_and_placements_match_the_oracle(
    mapping, space
) -> None:
    assert_same_groups(space, "X", mapping)


@pytest.mark.parametrize(
    "base, nbytes, lines",
    [(4096, 0, 0), (4096, 1, 1), (4100, 0, 1), (4100, 128, 2)],
)
def test_empty_and_single_line_arrays(base, nbytes, lines) -> None:
    spec = ArraySpec(
        name="X", base=base, nbytes=nbytes, itemsize=4, approximable=False
    )
    space = _OneArraySpace(spec, 128)
    groups = dram_row_groups(space, "X", AddressMapping())
    assert sum(len(g) for g in groups) == lines
    assert_same_groups(space, "X", AddressMapping())


@given(
    mapping=mappings(),
    addrs=st.lists(st.integers(0, 1 << 40), min_size=1, max_size=64),
)
@settings(max_examples=150, deadline=None)
def test_array_decode_matches_decode_field_for_field(mapping, addrs) -> None:
    channel, bank, row, column = mapping.decode_fields(
        np.array(addrs, dtype=np.int64)
    )
    for i, addr in enumerate(addrs):
        d = mapping.decode(addr)
        assert (d.channel, d.bank, d.row, d.column) == (
            channel[i], bank[i], row[i], column[i]
        )
        assert d.bank_group == mapping.bank_group_of(int(bank[i]))
