"""Shared plumbing of the benchmark: timing, statistics, output checks.

Everything here runs in the benchmark process.  Nothing imports the
program under test at module level, so ``run.py`` can first check that
the checkout holds ``src/repro`` and fail cleanly when it does not.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The Fig. 12 schemes every workload draws from, in table order.
SCHEMES = ("Baseline", "Dyn-DMS", "Static-AMS", "Dyn-DMS+Dyn-AMS")
COMBINED = "Dyn-DMS+Dyn-AMS"

#: AMS coverage bound of every scheme above (``SchemeDef.build`` default).
COVERAGE_BOUND = 0.10

#: Seed the pinned digests were taken at (``Runner``'s default seed).
DEFAULT_SEED = 7

#: How many times ``setup_s`` repeats the repeatable part of set-up.
SETUP_ROUNDS = 3

BENCH_DIR = Path(__file__).resolve().parent


def now() -> float:
    """The benchmark's one clock (monotonic, comparable across processes)."""
    return time.perf_counter()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-quantile of ``n``."""
    return n - max(1, math.ceil(q * n))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_digest(report) -> str:
    """Canonical digest of a report: sha256 of its sorted-key JSON."""
    canonical = json.dumps(
        report.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def report_invariant_errors(report) -> list[str]:
    """Model invariants that hold for every seed.

    Every request that reached a controller was either served by DRAM
    or answered by the value predictor, and AMS never dropped more than
    its coverage bound of the arrived reads.
    """
    errors = []
    for ch, stats in enumerate(report.channel_stats):
        arrived = stats.reads_arrived + stats.writes_arrived
        handled = stats.requests_served + stats.requests_dropped
        if handled != arrived:
            errors.append(
                f"channel {ch}: served+dropped {handled} != arrived {arrived}"
            )
    if report.coverage > COVERAGE_BOUND:
        errors.append(
            f"coverage {report.coverage:.4f} above {COVERAGE_BOUND}"
        )
    return errors


def import_seconds(own: float, modules: list[str], src: Path) -> float:
    """Median import time of the program over this process and
    ``SETUP_ROUNDS - 1`` fresh interpreters importing the same modules.

    Imports happen once per process, so repeating them is the only way
    to give that part of ``setup_s`` a median too.
    """
    code = (
        "import importlib, sys, time\n"
        "t = time.perf_counter()\n"
        f"sys.path[:0] = [{str(src)!r}, {str(BENCH_DIR)!r}]\n"
        f"for m in {modules!r}: importlib.import_module(m)\n"
        "print(time.perf_counter() - t)\n"
    )
    samples = [own]
    for _ in range(SETUP_ROUNDS - 1):
        child = subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True, timeout=120)
        samples.append(float(child.stdout))
    return median(samples)


def keep_going(started: float, seconds: float, op_times: list[float]) -> bool:
    """Whether a closed loop should start another op.

    It stops once the next op, at the mean op time so far, would end
    more than half an op past the deadline; long ops then neither
    overrun by a whole op nor stop a whole op short.
    """
    elapsed = now() - started
    if not op_times:
        return True
    mean_op = sum(op_times) / len(op_times)
    return elapsed + 0.5 * mean_op < seconds


def _spin(n: int = 5000) -> int:
    """A fixed slice of interpreter work: loop, dict store and lookup."""
    total = 0
    table: dict[int, int] = {}
    for i in range(n):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 0) & 15
    return total


class SpeedProbe:
    """The host's single-thread interpreter speed, sampled in the
    background while a run sets up and measures.

    On a shared 2-vCPU VM (Xeon, 2.1 GHz) CPU speed was seen to change
    by up to 1.7x within seconds and by about a third for minutes at a
    time, in CPU time as well as wall time, so one run's host-time
    figures move with the host rather than the program.  A daemon thread times
    ``_spin`` in its own CPU time every ``PERIOD`` seconds (about 0.5 %
    of one CPU; time spent waiting for the interpreter lock or a CPU is
    not counted).  Host-time metrics are scaled by :meth:`factor` of the
    window they were measured in.  Runs print the raw values too.

    The probe is a yardstick, not a model of each workload: on that VM
    it tracked a sweep pass with correlation 0.9 and an ingest op with
    0.7.  How far each workload follows the probe differs: regressing
    log op time on log probe time gave slopes of 0.65-0.77 within the
    usual spells, while across the fastest spell seen a sweep moved with
    slope 0.6 and the service hit rate with slope 1.  The factor is the
    probe's speed ratio to the power ``EXPONENT``, the value that kept
    every workload's medians closest across spells.  A JSON-encoding
    probe and a memory-bound pointer chase tracked the ingest op worse.
    """

    PERIOD = 0.2
    #: Probe time of the reference host, in seconds.
    REFERENCE = 0.001
    EXPONENT = 0.8

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-speed-probe", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD):
            start = time.thread_time()
            _spin()
            self.samples.append((now(), time.thread_time() - start))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """(REFERENCE / mean probe time within [start, end]) ** EXPONENT;
        below 1 when the host ran slow.  Times are multiplied by it,
        rates divided."""
        window = [v for t, v in self.samples if start <= t <= end]
        if not window:
            window = [v for _, v in self.samples[-3:]]
        return (self.REFERENCE / (sum(window) / len(window))) ** self.EXPONENT


def speed_note(factor: float, setup: float) -> str:
    """The human line naming the factors a run was scaled by."""
    return (f"host speed factor {factor:.4f} while measuring, {setup:.4f} "
            "in set-up (times x factor, rates / factor)")


def tail(latencies_ms: list[float], q: float) -> tuple[float, str]:
    """The ``q``-quantile of ``latencies_ms`` with a label naming the
    percentile and the sample count, and saying when fewer than ten
    samples lie beyond it.  Each workload fixes ``q`` for the run length
    BENCHMARK.json sets, so that at least ten do."""
    n = len(latencies_ms)
    beyond = samples_beyond(n, q)
    label = f"p{q * 100:g} of n={n}, {beyond} beyond"
    if beyond < 10:
        label += " (fewer than 10 beyond: run too short for this tail)"
    return percentile(latencies_ms, q), label


@dataclass
class Context:
    """One invocation of the benchmark."""

    #: Root of the checkout (holds ``src/`` and this directory).
    root: Path
    #: Scratch directory of this run, inside the checkout; removed at exit.
    work: Path
    #: Where traced runs leave their Chrome-trace JSON (kept).
    traces: Path
    seed: int
    seconds: float
    trace: bool
    #: Seconds from process start until the program's modules imported.
    import_s: float
    #: Host speed samples of this run (see :class:`SpeedProbe`).
    probe: SpeedProbe
    #: When the probe started: the start of set-up's window.
    setup_started: float


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` holds the values of the final JSON line, by name;
    ``lines`` is the human report printed above the final JSON line.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def say(self, line: str) -> None:
        self.lines.append(line)

    def host(self, metric: str, label: str, raw: float, factor: float,
             unit: str, shown: str, *, rate: bool = False,
             note: str = "") -> None:
        """Record a host-time metric scaled by a :class:`SpeedProbe`
        factor (rates are divided by it) and print it with its raw value."""
        value = raw / factor if rate else raw * factor
        self.metric(metric, value, unit)
        self.say(f"{label:<17} {value:10.4f} {shown:<8} (raw {raw:.4f}){note}")
