"""Memory request objects flowing from the L2 caches to the DRAM."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.config.address import AddressMapping

#: The process's request-id stream (see :func:`reset_request_ids`).
_rids = itertools.count()


@dataclass(slots=True)
class MemoryRequest:
    """One 128-byte DRAM request (an L2 miss or a dirty write-back).

    Attributes
    ----------
    rid:
        Unique request id, used to correlate drops with workload elements.
    addr:
        Byte address of the access (line-aligned).
    is_write:
        True for write-backs, False for read fills.
    approximable:
        True when the request reads data the programmer annotated as
        error-tolerant (paper Listing 1). Writes are never approximable.
    arrival_time:
        Memory-cycle time the request arrived at the memory controller.
    enqueue_time:
        Memory-cycle time the request entered the FR-FCFS pending queue
        (equals arrival unless the queue was full). DMS ages are measured
        from this timestamp, matching the paper ("each request is assigned
        a time stamp when it enters the pending queue").
    channel/bank/bank_group/row/column:
        Decoded DRAM coordinates.
    tag:
        Opaque workload token mapping the request back to kernel data
        elements; used by the approximation-replay pipeline.
    tenant_id:
        Index of the owning tenant in the run's
        :class:`~repro.config.tenants.TenantMixSpec` roster; 0 for
        single-workload runs (the only tenant).
    """

    addr: int
    is_write: bool
    channel: int
    bank: int
    bank_group: int
    row: int
    column: int
    approximable: bool = False
    arrival_time: float = 0.0
    enqueue_time: float = 0.0
    tag: Any = None
    tenant_id: int = 0
    rid: int = field(default_factory=lambda: next(_rids))

    @classmethod
    def from_address(
        cls,
        addr: int,
        *,
        is_write: bool,
        mapping: AddressMapping,
        approximable: bool = False,
        arrival_time: float = 0.0,
        tag: Any = None,
        tenant_id: int = 0,
    ) -> "MemoryRequest":
        """Build a request by decoding ``addr`` with ``mapping``."""
        d = mapping.decode(addr)
        return cls(
            addr=addr,
            is_write=is_write,
            channel=d.channel,
            bank=d.bank,
            bank_group=d.bank_group,
            row=d.row,
            column=d.column,
            approximable=approximable and not is_write,
            arrival_time=arrival_time,
            enqueue_time=arrival_time,
            tag=tag,
            tenant_id=tenant_id,
        )

    @property
    def bank_row(self) -> tuple[int, int]:
        """The (bank, row) key used for row-hit matching within a channel."""
        return (self.bank, self.row)

    def age(self, now: float) -> float:
        """Cycles this request has spent in the pending queue."""
        return now - self.enqueue_time


def reset_request_ids() -> None:
    """Restart the process's request id counter.

    Called at the top of every simulated cell (and by tests needing
    isolation) so rids — and therefore the full report — depend only on
    the cell itself, in any process. A process simulates one cell at a
    time: the service daemon runs every job on its worker tier.
    """
    global _rids
    _rids = itertools.count()
