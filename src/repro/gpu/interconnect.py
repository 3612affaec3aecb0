"""Crossbar interconnect between SMs and memory partitions.

Table I: one crossbar per direction (30 SMs x 6 MCs) at 1400 MHz. We
model each direction as a fixed traversal latency plus an optional
per-partition injection serialisation (a packet occupies the output port
for ``port_cycles``), which captures first-order crossbar contention
without per-flit simulation.
"""

from __future__ import annotations

from repro.sim.engine import Engine


class Crossbar:
    """Latency + output-port serialisation model of one direction."""

    def __init__(
        self,
        engine: Engine,
        num_ports: int,
        *,
        latency_mem_cycles: float,
        port_cycles: float = 1.0,
    ) -> None:
        self._engine = engine
        self._latency = latency_mem_cycles
        self._port_cycles = port_cycles
        self._port_free = [0.0] * num_ports

    def deliver(self, port: int, fn) -> None:
        """Send a packet toward ``port``; ``fn`` runs on arrival."""
        now = self._engine.now
        start = max(now, self._port_free[port])
        self._port_free[port] = start + self._port_cycles
        self._engine.at(start + self._latency, fn)

