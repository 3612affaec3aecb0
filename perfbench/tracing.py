"""Traced runs: spans around public calls, and a sampling profiler.

Nothing here changes the program.  In a traced run the benchmark
replaces a few public functions with wrappers that record a span per
call and restores them afterwards; outside a traced run nothing is
installed.  Two instruments:

* :class:`Spans` keeps ``(name, start, end, job, parent)`` records in
  memory.  A span's parent is the span open around it in the same
  thread or asyncio task, so self time is its duration minus its
  children's.  Spans of one service job carry the job id.  They are
  written as Chrome-trace JSON, which opens in Perfetto like the output
  of ``repro.telemetry.export``.
* :class:`Sampler` attributes host time to the repo's modules without
  hooking every call.  Deterministic ``cProfile`` stretches a sweep by
  about 2.5x and charges its per-call cost to call-heavy layers; a
  timer signal every millisecond of CPU time instead charges the wall
  time since the previous tick to the innermost frame that belongs to
  ``src/repro``.  Frames of the standard library or NumPy count for the
  repro frame that called them.  Ticks are delivered only between
  bytecodes, so a long C call (``json.load`` of a large blob) is seen
  once but with its whole duration as weight.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import json
import os
import signal
import threading
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

from common import now

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Spans:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: [id, parent id, name, start, end, job id, thread id]
        self.records: list[list] = []
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str, job: Optional[str]) -> tuple[list, Any]:
        parent = _current.get()
        if job is None and parent is not None:
            job = parent[5]
        with self._lock:
            record = [next(self._ids), parent[0] if parent else 0, name,
                      now(), 0.0, job, threading.get_ident()]
            self.records.append(record)
        return record, _current.set(record)

    @staticmethod
    def _close(record: list, token: Any) -> None:
        record[4] = now()
        _current.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, job: Optional[str] = None):
        """A span around the ``with`` body."""
        record, token = self._open(name, job)
        try:
            yield record
        finally:
            self._close(record, token)

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        job: Optional[Callable[..., Optional[str]]] = None,
        observe: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``job(args, kwargs, result)`` names the job a call belongs to
        (``result`` is None before the call); without it the call
        inherits the job of the enclosing span.  ``observe(args,
        kwargs, result)`` runs after each plain call, outside its span,
        to read counters off the arguments or result.  Plain functions,
        methods, classmethods, coroutine functions and generator
        functions are all handled.
        """
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        spans = self

        def job_id(args, kwargs, result=None):
            return job(args, kwargs, result) if job is not None else None

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                record, token = spans._open(name, job_id(args, kwargs))
                try:
                    return await func(*args, **kwargs)
                finally:
                    spans._close(record, token)
        elif inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                generator = func(*args, **kwargs)
                owner_job = job_id(args, kwargs)
                while True:
                    record, token = spans._open(name, owner_job)
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        spans._close(record, token)
                    yield item
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                record, token = spans._open(name, job_id(args, kwargs))
                try:
                    result = func(*args, **kwargs)
                finally:
                    spans._close(record, token)
                if record[5] is None and job is not None:
                    record[5] = job(args, kwargs, result)
                if observe is not None:
                    observe(args, kwargs, result)
                return result

        self._restore.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)

    def count_calls(self, owner: Any, attr: str, counter: list) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls
        (``counter[0] += 1``); for functions called 10^5+ times, where a
        span each would cost more than the call."""
        raw = inspect.getattr_static(owner, attr)
        func = raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return func(*args, **kwargs)

        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def closed(self) -> list[list]:
        return [r for r in self.records if r[4]]

    def by_name(self, name: str) -> list[float]:
        """Durations in seconds of every closed span called ``name``."""
        return [r[4] - r[3] for r in self.closed() if r[2] == name]

    def per_job(self, names: tuple[str, ...]) -> dict[str, float]:
        """Seconds spent in spans of ``names``, summed per job id.

        Only outermost spans of those names count, so a span nested in
        another of the same set is not charged twice.
        """
        closed = self.closed()
        kept = {r[0]: r for r in closed if r[2] in names}
        totals: dict[str, float] = defaultdict(float)
        for r in kept.values():
            if r[1] in kept or r[5] is None:
                continue
            totals[r[5]] += r[4] - r[3]
        return dict(totals)

    def first_start(self, name: str) -> dict[str, float]:
        """Start time of the first ``name`` span of each job."""
        starts: dict[str, float] = {}
        for r in self.closed():
            if r[2] == name and r[5] is not None:
                starts.setdefault(r[5], r[3])
        return starts

    def last_end(self, name: str) -> dict[str, float]:
        """End time of the last ``name`` span of each job."""
        ends: dict[str, float] = {}
        for r in self.closed():
            if r[2] == name and r[5] is not None:
                ends[r[5]] = max(ends.get(r[5], 0.0), r[4])
        return ends

    def dump(self, path: Path) -> None:
        """Write the spans as Chrome-trace JSON (one X event each)."""
        pid = os.getpid()
        events = [
            {
                "name": r[2], "ph": "X", "pid": pid, "tid": r[6],
                "ts": r[3] * 1e6, "dur": (r[4] - r[3]) * 1e6,
                "args": {"id": r[0], "parent": r[1], "job": r[5]},
            }
            for r in self.closed()
        ]
        path.write_text(json.dumps({"traceEvents": events}))

    @staticmethod
    def load(path: Path) -> "Spans":
        spans = Spans()
        for e in json.loads(path.read_text())["traceEvents"]:
            start = e["ts"] / 1e6
            spans.records.append([
                e["args"]["id"], e["args"]["parent"], e["name"], start,
                start + e["dur"] / 1e6, e["args"]["job"], e["tid"],
            ])
        return spans


# ----------------------------------------------------------------------
# Sampling attribution
# ----------------------------------------------------------------------
#: Layers are the top-level packages of ``src/repro``; the policy
#: registries get their own entry so selector/gate/drop work shows
#: apart from the controller that calls it.
LAYERS = (
    "workloads", "config", "sim", "gpu", "cache", "sched",
    "sched.policies", "dram", "vp", "approx", "harness", "service",
    "analytics", "telemetry",
)


def self_name(layer: str) -> str:
    """Metric name of a layer's self time (``sim`` -> ``sim.self_s``,
    ``sched.policies`` -> ``sched.policies_self_s``)."""
    return f"{layer}_self_s" if "." in layer else f"{layer}.self_s"


class Sampler:
    """Charges host time to layers by sampling the main thread's stack.

    Use :meth:`start`/:meth:`stop` around the timed ops only.  The
    weights are wall seconds, so a layer's self time and the
    ``unattributed`` remainder add up to the sampled wall time.
    """

    INTERVAL = 0.001

    def __init__(self, repro_root: Path) -> None:
        self._repro = str(repro_root) + os.sep
        self._here = str(Path(__file__).resolve())
        self._layer_of: dict[Any, Optional[str]] = {}
        self.weights: dict[str, float] = defaultdict(float)
        self.ticks = 0
        self.sampled_s = 0.0
        self._started = 0.0
        self._last = 0.0
        self._previous = None

    def _classify(self, filename: str) -> Optional[str]:
        """Layer of a source file; '' for frames to look through."""
        if filename == self._here:
            return "trace"
        if not filename.startswith(self._repro):
            return ""
        parts = filename[len(self._repro):].split(os.sep)
        if len(parts) == 1:
            return "other"
        if parts[0] == "sched" and len(parts) > 2 and parts[1] == "policies":
            return "sched.policies"
        return parts[0] if parts[0] in LAYERS else "other"

    def _tick(self, signum, frame) -> None:
        t = now()
        weight = t - self._last
        self._last = t
        self.ticks += 1
        layer_of = self._layer_of
        layer = ""
        while frame is not None:
            code = frame.f_code
            layer = layer_of.get(code)
            if layer is None:
                layer = layer_of[code] = self._classify(code.co_filename)
            if layer:
                break
            frame = frame.f_back
        self.weights[layer or "unattributed"] += weight

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.siginterrupt(signal.SIGPROF, False)
        self._started = self._last = now()
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        end = now()
        self.weights["unattributed"] += end - self._last
        self.sampled_s += end - self._started

    def record(self, out, ops: int, op: str) -> None:
        """Each layer's self time and the unattributed remainder, per
        ``op``, as metrics and as a printed table."""
        out.say(f"self time per {op}, {ops} traced, from {self.ticks} "
                f"samples over {self.sampled_s:.2f} s (wall-time weights):")
        for layer in LAYERS:
            seconds = self.weights.get(layer, 0.0) / ops
            out.metric(self_name(layer), seconds, "s")
            out.say(f"  {layer:<16} {seconds:8.3f} s")
        rest = sum(v for k, v in self.weights.items() if k not in LAYERS)
        out.metric("unattributed_s", rest / ops, "s")
        out.say(f"  {'unattributed':<16} {rest / ops:8.3f} s (benchmark, "
                "interpreter and span bookkeeping)")
