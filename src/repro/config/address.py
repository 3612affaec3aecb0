"""Global-to-DRAM address mapping.

Table I: "global linear address space is interleaved among partitions in
chunks of 256 bytes", 6 memory controllers, 16 banks per controller in
4 bank groups. Within a channel, consecutive row-sized regions are spread
across banks (bank-interleaved rows), the common GPU mapping that maximises
bank-level parallelism for streaming accesses.

The decode pipeline for a 128-byte request address is::

    chunk   = addr // 256
    channel = chunk % num_channels
    local   = (chunk // num_channels) * 256 + addr % 256
    row_blk = local // row_size_bytes
    bank    = row_blk % banks_per_channel
    row     = row_blk // banks_per_channel
    column  = (local % row_size_bytes) // access_bytes

:meth:`AddressMapping.decode_fields` is the one copy of this pipeline.
It decodes a single address, or an int64 numpy array of them in one
call (trace generation decodes an array's whole line range at once).
The simulator builds each DRAM request from it
(:meth:`~repro.dram.request.MemoryRequest.from_address`);
:meth:`AddressMapping.decode` wraps it in a :class:`DecodedAddress`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class DecodedAddress:
    """A request address after DRAM mapping."""

    channel: int
    bank: int
    bank_group: int
    row: int
    column: int


@dataclass(frozen=True, slots=True)
class AddressMapping:
    """Address interleaving configuration (Table I defaults).

    ``scheme`` selects the bank-index function:

    * ``"bank_interleaved"`` (default) — consecutive row-sized regions go
      to successive banks, the common GPU mapping;
    * ``"permuted"`` — the bank index is XOR-permuted with the low row
      bits (Zhang et al., MICRO 2000 — cited by the paper as a
      data-placement alternative for reducing row-buffer conflicts),
      which breaks power-of-two-stride bank camping.
    """

    num_channels: int = 6
    banks_per_channel: int = 16
    bank_groups_per_channel: int = 4
    interleave_bytes: int = 256
    row_size_bytes: int = 2048
    access_bytes: int = 128
    scheme: str = "bank_interleaved"

    def validate(self) -> None:
        """Check consistency; raise :class:`ConfigError` on violation."""
        if min(
            self.num_channels, self.banks_per_channel,
            self.bank_groups_per_channel, self.interleave_bytes,
            self.row_size_bytes, self.access_bytes,
        ) <= 0:
            raise ConfigError(
                "num_channels, bank counts and byte sizes must be positive"
            )
        if self.scheme not in {"bank_interleaved", "permuted"}:
            raise ConfigError(f"unknown mapping scheme: {self.scheme!r}")
        if self.scheme == "permuted" and (
            self.banks_per_channel & (self.banks_per_channel - 1)
        ):
            raise ConfigError(
                "the permuted scheme needs a power-of-two bank count"
            )
        if self.banks_per_channel % self.bank_groups_per_channel:
            raise ConfigError(
                "banks_per_channel must be a multiple of "
                "bank_groups_per_channel"
            )
        if self.row_size_bytes % self.access_bytes:
            raise ConfigError("row size must be a multiple of access size")
        if self.interleave_bytes % self.access_bytes:
            raise ConfigError(
                "interleave chunk must be a multiple of access size"
            )

    @property
    def banks_per_group(self) -> int:
        """Number of banks in each bank group."""
        return self.banks_per_channel // self.bank_groups_per_channel

    @property
    def columns_per_row(self) -> int:
        """Number of access-sized columns in one row."""
        return self.row_size_bytes // self.access_bytes

    def bank_group_of(self, bank: int) -> int:
        """Bank group index of ``bank`` (consecutive banks share a group)."""
        return bank // self.banks_per_group

    def _permute(self, bank_raw, row):
        if self.scheme == "permuted":
            return bank_raw ^ (row & (self.banks_per_channel - 1))
        return bank_raw

    def channel_of(self, addr: int) -> int:
        """Channel index of ``addr`` alone — the first stage of
        :meth:`decode`, for the request-routing hot path where the
        bank/row fields (and the :class:`DecodedAddress` allocation)
        are not needed."""
        return (addr // self.interleave_bytes) % self.num_channels

    def decode_fields(self, addr):
        """``(channel, bank, row, column)`` of ``addr``: a Python int, or
        an int64 numpy array decoded element-wise in one call.

        This is the one copy of the decode arithmetic; ``divmod``,
        ``%``, ``//``, ``^`` and ``&`` behave the same on both types.
        """
        chunk, offset = divmod(addr, self.interleave_bytes)
        channel = chunk % self.num_channels
        local = (chunk // self.num_channels) * self.interleave_bytes + offset
        row_blk, in_row = divmod(local, self.row_size_bytes)
        bank_raw = row_blk % self.banks_per_channel
        row = row_blk // self.banks_per_channel
        bank = self._permute(bank_raw, row)
        return channel, bank, row, in_row // self.access_bytes

    def decode(self, addr: int) -> DecodedAddress:
        """Decode a byte address into (channel, bank, bank group, row, column)."""
        channel, bank, row, column = self.decode_fields(addr)
        return DecodedAddress(
            channel=channel,
            bank=bank,
            bank_group=self.bank_group_of(bank),
            row=row,
            column=column,
        )

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (returns the lowest address of the access)."""
        # The XOR permutation is an involution for a fixed row.
        bank_raw = self._permute(decoded.bank, decoded.row)
        row_blk = decoded.row * self.banks_per_channel + bank_raw
        local = row_blk * self.row_size_bytes + decoded.column * self.access_bytes
        chunk, offset = divmod(local, self.interleave_bytes)
        return (
            (chunk * self.num_channels + decoded.channel) * self.interleave_bytes
            + offset
        )
