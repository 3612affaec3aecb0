"""Property test of the DRAM request builder.

:meth:`MemoryRequest.from_address` decodes an address on the simulator's
request path without building a :class:`DecodedAddress`; it must agree
field for field with :meth:`AddressMapping.decode` under both mapping
schemes and any valid geometry.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AddressMapping
from repro.dram import MemoryRequest


@st.composite
def mappings(draw) -> AddressMapping:
    """A valid mapping of either scheme (the permuted one needs a
    power-of-two bank count, so every geometry here has one)."""
    access = draw(st.sampled_from([32, 64, 128]))
    groups = 2 ** draw(st.integers(0, 2))
    mapping = AddressMapping(
        num_channels=draw(st.integers(1, 8)),
        banks_per_channel=groups * 2 ** draw(st.integers(0, 3)),
        bank_groups_per_channel=groups,
        interleave_bytes=access * 2 ** draw(st.integers(0, 3)),
        row_size_bytes=access * 2 ** draw(st.integers(0, 6)),
        access_bytes=access,
        scheme=draw(st.sampled_from(["bank_interleaved", "permuted"])),
    )
    mapping.validate()
    return mapping


@settings(max_examples=300, deadline=None)
@given(
    mapping=mappings(),
    addr=st.integers(min_value=0, max_value=2**40),
    is_write=st.booleans(),
    approximable=st.booleans(),
    arrival=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    tag=st.one_of(st.none(), st.tuples(st.text(max_size=3), st.integers())),
    tenant_id=st.integers(0, 7),
)
def test_from_address_agrees_with_decode(
    mapping, addr, is_write, approximable, arrival, tag, tenant_id
) -> None:
    request = MemoryRequest.from_address(
        addr, is_write=is_write, mapping=mapping, approximable=approximable,
        arrival_time=arrival, tag=tag, tenant_id=tenant_id,
    )
    decoded = mapping.decode(addr)
    assert (
        request.channel, request.bank, request.bank_group,
        request.row, request.column,
    ) == (
        decoded.channel, decoded.bank, decoded.bank_group,
        decoded.row, decoded.column,
    )
    assert request.bank_row == (request.bank, request.row)
    assert request.addr == addr and request.is_write is is_write
    # A write is never approximable, whatever the caller asked.
    assert request.approximable is (approximable and not is_write)
    assert request.arrival_time == request.enqueue_time == arrival
    assert request.tag is tag and request.tenant_id == tenant_id
