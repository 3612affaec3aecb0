"""Memory layout of a workload: arrays placed in the global address space.

Every workload registers its numpy arrays in an :class:`AddressSpace`.
The same layout serves two purposes:

* trace generation — element indices translate to byte addresses that the
  simulator decodes into (channel, bank, row, column);
* approximation replay — a dropped 128-byte line translates back to the
  array elements it covered, and a donor line's bytes supply the
  predicted values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.errors import WorkloadError

#: Alignment of array bases: one interleave chunk (256 B) so arrays start
#: at a channel boundary.
_BASE_ALIGN = 256


@dataclass(frozen=True, slots=True)
class ArraySpec:
    """One array's placement in the global address space."""

    name: str
    base: int
    nbytes: int
    itemsize: int
    #: Whether the programmer annotated this array approximable
    #: (paper Listing 1: ``#pragma pred_var{B}``).
    approximable: bool

    @property
    def end(self) -> int:
        """One past the last byte of the array."""
        return self.base + self.nbytes


class AddressSpace:
    """Sequential allocator + bidirectional address/element mapping."""

    def __init__(self, line_bytes: int = 128) -> None:
        self.line_bytes = line_bytes
        self._arrays: dict[str, ArraySpec] = {}
        self._order: list[ArraySpec] = []
        self._next_base = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def add(
        self, name: str, array: np.ndarray, *, approximable: bool = False
    ) -> ArraySpec:
        """Place ``array`` at the next aligned base address."""
        if name in self._arrays:
            raise WorkloadError(f"array {name!r} registered twice")
        base = -(-self._next_base // _BASE_ALIGN) * _BASE_ALIGN
        spec = ArraySpec(
            name=name,
            base=base,
            nbytes=array.nbytes,
            itemsize=array.itemsize,
            approximable=approximable,
        )
        self._arrays[name] = spec
        self._order.append(spec)
        self._next_base = spec.end
        return spec

    def spec(self, name: str) -> ArraySpec:
        """The placement of array ``name``."""
        try:
            return self._arrays[name]
        except KeyError:
            raise WorkloadError(f"unknown array {name!r}") from None

    @property
    def arrays(self) -> Iterable[ArraySpec]:
        """All registered arrays in allocation order."""
        return tuple(self._order)

    @property
    def footprint_bytes(self) -> int:
        """Total bytes spanned by the layout."""
        return self._next_base

    # ------------------------------------------------------------------
    # Element -> address
    # ------------------------------------------------------------------
    def addr_of(self, name: str, flat_index: int) -> int:
        """Byte address of element ``flat_index`` of array ``name``."""
        spec = self.spec(name)
        offset = flat_index * spec.itemsize
        if not 0 <= offset < spec.nbytes:
            raise WorkloadError(
                f"element {flat_index} out of range for array {name!r}"
            )
        return spec.base + offset

    def line_of(self, name: str, flat_index: int) -> int:
        """Line-aligned byte address covering the element."""
        addr = self.addr_of(name, flat_index)
        return addr - addr % self.line_bytes

    # ------------------------------------------------------------------
    # Address -> elements (replay direction)
    # ------------------------------------------------------------------
    def locate_line(
        self, line_addr: int
    ) -> Optional[tuple[ArraySpec, int, int]]:
        """Find the array overlapping a line.

        Returns ``(spec, byte_lo, byte_hi)`` — the overlap of
        ``[line_addr, line_addr + line_bytes)`` with the array's extent,
        as offsets into the array — or ``None`` for an unmapped line.
        """
        line_end = line_addr + self.line_bytes
        for spec in self._order:
            if spec.base < line_end and line_addr < spec.end:
                lo = max(line_addr, spec.base) - spec.base
                hi = min(line_end, spec.end) - spec.base
                return spec, lo, hi
        return None

    def read_line_bytes(
        self, arrays: dict[str, np.ndarray], line_addr: int
    ) -> bytes:
        """The ``line_bytes`` bytes backing a line (zeros where unmapped)."""
        out = bytearray(self.line_bytes)
        located = self.locate_line(line_addr)
        if located is not None:
            spec, lo, hi = located
            raw = (
                np.ascontiguousarray(arrays[spec.name])
                .view(np.uint8)
                .reshape(-1)
            )
            dst_off = spec.base + lo - line_addr
            out[dst_off:dst_off + (hi - lo)] = raw[lo:hi].tobytes()
        return bytes(out)

    def write_line_bytes(
        self, arrays: dict[str, np.ndarray], line_addr: int, data: bytes
    ) -> bool:
        """Overwrite the array bytes covered by a line with ``data``.

        Returns True when any bytes were written (the line was mapped).
        """
        located = self.locate_line(line_addr)
        if located is None:
            return False
        spec, lo, hi = located
        target = arrays[spec.name]
        if not target.flags["C_CONTIGUOUS"]:
            raise WorkloadError(
                f"array {spec.name!r} must be C-contiguous for replay"
            )
        raw = target.view(np.uint8).reshape(-1)
        src_off = spec.base + lo - line_addr
        raw[lo:hi] = np.frombuffer(
            data[src_off:src_off + (hi - lo)], dtype=np.uint8
        )
        return True
