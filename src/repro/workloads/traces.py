"""Warp-trace pattern builders.

Each of the twenty applications (and ``synthetic``) builds its traces
from two generators over its *own arrays*, so every emitted address maps
back to real kernel data for approximation replay:

* :func:`row_visit_streams` visits each DRAM row an array covers in
  fixed doses: ``lines_per_visit`` lines per visit and
  ``visits_per_row`` visits, the later ones by a partner warp that
  starts ``skew_cycles`` later (the paper's Fig. 3 skew, which a DMS
  delay merges into one activation). Its knobs set the structural
  properties the paper's Tables II/III characterise: row locality and
  RBL, activation sensitivity (paired or repeated visits), thrashing
  (shuffled rows and single-line visits), and the read/write mix;
* :func:`interleave` merges several patterns round-robin, so different
  patterns land on different SMs.

All accesses are 128-byte line-granularity (post-coalescing, post-L1;
see DESIGN.md §5), and loads carry the programmer's approximable
annotation taken from the array's :class:`ArraySpec`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.gpu.warp import Access, WarpOp
from repro.workloads.layout import AddressSpace

WarpStream = list[WarpOp]


def idle_op(cycles: float) -> WarpOp:
    """Pure-compute op used to skew a warp's start (Fig. 3's offset)."""
    return WarpOp(compute_cycles=cycles, instructions=1)


def dram_row_groups(
    space: AddressSpace, name: str, mapping
) -> list[list[int]]:
    """The array's line addresses grouped by DRAM (channel, bank, row).

    Groups are ordered by first appearance in the address walk and lines
    are ascending within a group, so ``groups[i]`` is one DRAM row's worth
    (up to 16 lines) of this array.

    The whole line range is decoded in one numpy call and grouped by a
    stable sort on each line's group rank; the lists hold Python ints.
    """
    spec = space.spec(name)
    first_line = spec.base - spec.base % space.line_bytes
    lines = np.arange(first_line, spec.end, space.line_bytes, dtype=np.int64)
    channel, bank, row, _ = mapping.decode_fields(lines)
    # One int64 per (channel, bank, row); bounded by the line address.
    key = (row * mapping.banks_per_channel + bank) * mapping.num_channels \
        + channel
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    line_rank = rank[inverse.reshape(-1)]
    ordered = lines[np.argsort(line_rank, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(line_rank, minlength=first.size)).tolist()
    return [ordered[lo:hi] for lo, hi in zip([0] + ends, ends)]


def row_visit_streams(
    space: AddressSpace,
    name: str,
    mapping,
    *,
    n_warps: int,
    lines_per_visit: int,
    visits_per_row: int = 1,
    lines_per_op: int | None = None,
    skew_cycles: float | tuple[float, float] = 0.0,
    compute: float,
    instructions: int = 16,
    shuffle_seed: int | None = None,
    row_fraction: float = 1.0,
    row_range: tuple[float, float] | None = None,
    line_offset: int = 0,
    repeat_visits: bool = False,
    write: bool = False,
) -> list[WarpStream]:
    """Precise row-locality control: visit each DRAM row in fixed doses.

    Every DRAM row covered by the array is visited ``visits_per_row``
    times with ``lines_per_visit`` distinct lines per visit (so the
    baseline scheduler sees activations of RBL ``lines_per_visit``).
    With ``visits_per_row > 1`` warps work in pairs: the lead warp
    performs the first visits and its partner — starting ``skew_cycles``
    later — the second, recreating the paper's Fig. 3: a sufficient DMS
    delay merges both visits into a single activation.

    ``row_fraction`` limits coverage to a prefix of the rows;
    ``row_range`` selects a (lo, hi) fraction window of them (use
    disjoint windows to keep two patterns out of each other's rows);
    ``shuffle_seed`` randomises row order (irregular workloads).

    ``repeat_visits=True`` makes every visit re-read the *same* lines
    (data reuse whose refetches miss L2 once the working set exceeds it):
    this is how an application can have high activation sensitivity while
    every activation still serves >8 requests (3MM's Fig. 6(b) shape).

    ``lines_per_op`` splits each visit into consecutive ops of that many
    lines. This matters for delay tolerance: only the *first* op's
    request must age through a DMS gate — the follow-up ops arrive after
    the row has opened and issue as row hits, so a visit occupies queue
    slots for far less than X cycles. Real streaming kernels behave this
    way (a warp issues loads to a row across many instructions), which is
    precisely why the paper's latency-tolerant applications survive
    1024+-cycle delays.
    """
    if visits_per_row > 1 and n_warps % 2:
        raise WorkloadError("paired visits need an even warp count")
    groups = dram_row_groups(space, name, mapping)
    if row_range is not None:
        lo = int(len(groups) * row_range[0])
        hi = max(lo + 1, int(len(groups) * row_range[1]))
        groups = groups[lo:hi]
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        rng.shuffle(groups)
    groups = groups[: max(1, int(len(groups) * row_fraction))]
    if line_offset:
        groups = [g[line_offset:] for g in groups]
        groups = [g for g in groups if g]
    approx = space.spec(name).approximable

    chunk = lines_per_op or lines_per_visit

    def visit_ops(lines: list[int]) -> list[WarpOp]:
        ops = []
        for i in range(0, len(lines), chunk):
            accesses = tuple(
                Access(
                    addr=line,
                    is_write=write,
                    approximable=approx and not write,
                    tag=(name, line),
                )
                for line in lines[i:i + chunk]
            )
            ops.append(
                WarpOp(
                    compute_cycles=compute,
                    instructions=instructions,
                    accesses=accesses,
                )
            )
        return ops

    streams: list[WarpStream] = []
    if visits_per_row <= 1:
        for w in range(n_warps):
            ops: WarpStream = []
            for g in range(w, len(groups), n_warps):
                lines = groups[g][:lines_per_visit]
                if lines:
                    ops.extend(visit_ops(lines))
            streams.append(ops)
        return streams

    n_pairs = n_warps // 2
    for p in range(n_pairs):
        # A (lo, hi) skew spreads revisit distances across pairs, so
        # activation reduction grows gradually with the DMS delay (the
        # paper's Fig. 4(a) shape) instead of switching on at one knee.
        if isinstance(skew_cycles, tuple):
            lo, hi = skew_cycles
            skew = lo + (hi - lo) * (p / max(n_pairs - 1, 1))
        else:
            skew = skew_cycles
        lead: WarpStream = []
        trail: WarpStream = [idle_op(skew)] if skew else []
        for g in range(p, len(groups), n_pairs):
            lines = groups[g]
            lead_lines = lines[:lines_per_visit]
            if lead_lines:
                lead.extend(visit_ops(lead_lines))
            for v in range(1, visits_per_row):
                if repeat_visits:
                    part = lines[:lines_per_visit]
                else:
                    lo = v * lines_per_visit
                    part = lines[lo:lo + lines_per_visit]
                if part:
                    trail.extend(visit_ops(part))
        streams.append(lead)
        streams.append(trail)
    return streams


def interleave(*stream_groups: list[WarpStream]) -> list[WarpStream]:
    """Merge several pattern outputs into one warp-stream list,
    round-robin so different patterns land on different SMs."""
    merged: list[WarpStream] = []
    iters = [list(g) for g in stream_groups]
    while any(iters):
        for g in iters:
            if g:
                merged.append(g.pop(0))
    return merged
