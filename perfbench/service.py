"""Workloads ``service-hit`` and ``service-cold``: the daemon over HTTP.

Both drive a daemon started by ``daemon.py`` in its own process, fresh
for every run, through ``ServiceClient`` from a closed loop of two
client threads (two open connections at most).

* ``service-hit`` warms 16 specs (SCP, GEMM, MVT, blackscholes x the
  four schemes, scale 0.25, blobs of 140-240 KB) and then re-submits
  them round-robin.  HTTP parsing, admission, the journal, the blob read
  and decode and the response encode do all the work; the simulator
  does none.  Cycling 16 keys means a gain has to come from per-request
  cost, not from caching one hot report.
* ``service-cold`` submits jobs whose (app, scheme, seed) never repeat,
  so neither the cache nor coalescing ever helps: the worker tier, its
  queue wait, the cache store and (for one job in four, which asks for
  telemetry and is followed over SSE like ``repro-harness watch``) the
  in-thread simulation and the event stream do the work.

The daemon keeps every job it has seen (``ServiceDaemon.jobs`` is never
evicted), so its memory grows with the hits served.  Runs are never
shortened and the daemon is never restarted mid-run to hide that; the
growth is reported as ``service.rss_mb_per_1k_hits``.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from common import (
    SCHEMES, SETUP_ROUNDS, Context, Outcome, median, now,
    report_invariant_errors, speed_note, tail,
)

PROGRAM_MODULES = (
    "repro.service.client", "repro.sim.spec", "repro.sim.system",
    "repro.harness.schemes", "repro.workloads.registry",
    "repro.dram.request",
)

APPS = ("SCP", "GEMM", "MVT", "blackscholes")
SCALE = 0.25
CLIENTS = 2
PAIRS = tuple((app, label) for app in APPS for label in SCHEMES)

#: Tail percentiles fixed for the 20 s runs BENCHMARK.json sets: hits
#: complete at 35-45 per second (700+ samples, 14+ beyond p98) and cold
#: jobs at 4.5-5.5 per second (90+ samples, 13+ beyond p85).
HIT_TAIL = 0.98
COLD_TAIL = 0.85

#: ``peak_rss_mb`` is read after this many measured ops (see
#: ``RssMilestone``), about half of what a 20 s run completes here.
RSS_AFTER = {"service-hit": 400, "service-cold": 50}

#: Cold jobs take ~0.4 s; polling every 20 ms keeps the quantisation of
#: their latency near 5 % (``ServiceClient.wait`` defaults to 100 ms).
POLL_SECONDS = 0.02
HEALTHZ_SAMPLES = 50
TERMINAL = ("done", "failed", "cancelled")


class Daemon:
    """The daemon process, driven over its stdin/stdout protocol."""

    def __init__(self, ctx: Context, spans: Path | None = None) -> None:
        self.work = Path(tempfile.mkdtemp(prefix="daemon-", dir=ctx.work))
        command = [sys.executable, str(Path(__file__).with_name("daemon.py")),
                   "--work", str(self.work)]
        if spans is not None:
            command += ["--spans", str(spans)]
        env = dict(os.environ, TMPDIR=str(self.work))
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=ctx.root, env=env, bufsize=0,
        )
        self._buffer = b""
        try:
            self.port = self._read(120.0)["port"]
        except BaseException:
            self.kill()
            raise

    def _read(self, timeout: float) -> dict:
        deadline = now() + timeout
        out = self.proc.stdout
        while b"\n" not in self._buffer:
            left = deadline - now()
            if left <= 0:
                raise TimeoutError("daemon did not answer in time")
            ready, _, _ = select.select([out], [], [], left)
            if ready:
                chunk = os.read(out.fileno(), 65536)
                if not chunk:
                    raise RuntimeError(
                        f"daemon exited with code {self.proc.wait()}"
                    )
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def _send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")

    def mark_rss_kb(self) -> int:
        self._send("mark")
        return self._read(30.0)["maxrss_kb"]

    def stop(self) -> dict:
        """Drain and stop; returns the daemon's final memory figures."""
        try:
            self._send("stop")
            self.proc.stdin.close()
            final = self._read(60.0)
            self.proc.wait(timeout=30.0)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class RssMilestone:
    """The daemon's peak RSS once the measured loop has completed ``n``
    ops.  Retention makes the end-of-run peak grow with however many ops
    the host had time for; the peak after a fixed count moves only with
    the program.  The run itself is never shortened."""

    def __init__(self, daemon: Daemon, n: int) -> None:
        self.daemon = daemon
        self.n = n
        self.count = 0
        self.kb: int | None = None
        self._lock = threading.Lock()

    def tick(self) -> None:
        with self._lock:
            self.count += 1
            if self.count == self.n:
                self.kb = self.daemon.mark_rss_kb()


def _client(port: int):
    from repro.service.client import ServiceClient

    return ServiceClient(port=port, timeout=120.0)


def _specs(telemetry: bool = False) -> list[dict]:
    from repro.harness.schemes import evaluation_schemes
    from repro.sim.spec import SimSpec

    catalogue = evaluation_schemes()
    return [SimSpec(scheduler=catalogue[label], telemetry=telemetry).to_dict()
            for _, label in PAIRS]


def _http_floor_ms(port: int) -> float:
    """Median ``/v1/healthz`` round trip: the protocol floor."""
    client = _client(port)
    samples = []
    for _ in range(HEALTHZ_SAMPLES):
        start = now()
        client.healthz()
        samples.append(1000.0 * (now() - start))
    return median(samples)


def _submit_and_wait(port: int, app: str, spec: dict, seed: int) -> dict:
    client = _client(port)
    job = client.submit(app, spec=spec, scale=SCALE, seed=seed, retry_busy=20)
    return client.wait(job["id"], poll_seconds=POLL_SECONDS, timeout=120.0)


def _closed_loop(op, seconds: float) -> tuple[list, float, float]:
    """Call ``op(client_index)`` on each client thread, one op after the
    other, until ``seconds`` have passed; returns (records, start, end)."""
    records: list = []
    started = now()
    deadline = started + seconds

    def loop(index: int) -> None:
        while now() < deadline:
            records.append(op(index))

    with ThreadPoolExecutor(CLIENTS) as pool:
        for future in [pool.submit(loop, i) for i in range(CLIENTS)]:
            future.result()
    return records, started, now()


# ----------------------------------------------------------------------
# service-hit
# ----------------------------------------------------------------------
def _references(seed: int) -> list:
    """The report of every hit spec, simulated here with
    ``simulate_spec``, as the JSON document a response carries."""
    from repro.dram.request import reset_request_ids
    from repro.sim.spec import SimSpec
    from repro.sim.system import simulate_spec
    from repro.workloads.registry import get_workload

    expected = []
    for (app, _), spec in zip(PAIRS, _specs()):
        reset_request_ids()
        report = simulate_spec(
            get_workload(app, scale=SCALE, seed=seed), SimSpec.from_dict(spec)
        )
        expected.append(json.loads(json.dumps(report.to_dict())))
    return expected


def _hit_setup(ctx: Context, specs: list[dict], spans: Path | None):
    """Start a daemon and warm the 16 hit specs on it."""
    daemon = Daemon(ctx, spans)
    try:
        with ThreadPoolExecutor(CLIENTS) as pool:
            docs = list(pool.map(
                lambda i: _submit_and_wait(
                    daemon.port, PAIRS[i][0], specs[i], ctx.seed),
                range(len(PAIRS)),
            ))
        bad = [d["id"] for d in docs if d.get("state") != "done"]
        if bad:
            raise RuntimeError(f"warming jobs did not finish: {bad}")
        return daemon, _http_floor_ms(daemon.port)
    except BaseException:
        daemon.kill()
        raise


def _run_hit(ctx: Context, out: Outcome, specs, expected, spans: Path | None,
             setup_s: list[float]) -> dict:
    rounds = SETUP_ROUNDS if spans is None and not ctx.trace else 1
    for round_no in range(rounds):
        start = now()
        daemon, floor_ms = _hit_setup(ctx, specs, spans)
        setup_s.append(now() - start)
        if round_no < rounds - 1:
            daemon.stop()
    try:
        mark_kb = daemon.mark_rss_kb()
        milestone = RssMilestone(daemon, RSS_AFTER["service-hit"])
        port = daemon.port

        slots = list(range(CLIENTS))
        response_kb: dict[int, float] = {}

        def one_hit(index: int):
            client = _client(port)
            i = slots[index] % len(PAIRS)
            slots[index] += CLIENTS
            start = now()
            try:
                job = client.submit(PAIRS[i][0], spec=specs[i], scale=SCALE,
                                    seed=ctx.seed)
            except Exception as exc:  # counted as a failed op
                return (now() - start, None, f"{type(exc).__name__}: {exc}")
            latency = now() - start
            if i not in response_kb:
                response_kb[i] = len(json.dumps(job)) / 1024.0
            ok = (job.get("outcome") == "cached" and job.get("state") == "done"
                  and job.get("result") == expected[i])
            milestone.tick()
            return (latency, job.get("id"),
                    None if ok else f"{PAIRS[i]}: response differs from "
                    "the simulate_spec reference")

        records, started, ended = _closed_loop(one_hit, ctx.seconds)
        stats = _client(port).stats()
    finally:
        final = daemon.stop()
    for _, _, error in records:
        out.attempted += 1
        if error:
            out.fail(error)
    done = [r for r in records if r[2] is None]
    return {
        "records": records, "done": done, "started": started,
        "ended": ended, "elapsed": ended - started, "stats": stats,
        "final": final, "mark_kb": mark_kb, "floor_ms": floor_ms,
        "work": daemon.work, "response_kb": response_kb,
        "milestone": milestone,
    }


# ----------------------------------------------------------------------
# service-cold
# ----------------------------------------------------------------------
def _cold_setup(ctx: Context, spans: Path | None) -> tuple[Daemon, float]:
    """Start a daemon and run one tiny job per tier worker, so spawning
    and first imports are paid before timing.  The tiny jobs use the
    synthetic workload, whose keys the measured jobs never share."""
    from repro.sim.spec import SimSpec

    daemon = Daemon(ctx, spans)
    try:
        client = _client(daemon.port)
        tiny = SimSpec().to_dict()
        with ThreadPoolExecutor(CLIENTS) as pool:
            list(pool.map(
                lambda i: client.wait(
                    client.submit("synthetic", spec=tiny, scale=0.05,
                                  seed=i)["id"],
                    poll_seconds=POLL_SECONDS, timeout=120.0),
                range(CLIENTS),
            ))
        return daemon, _http_floor_ms(daemon.port)
    except BaseException:
        daemon.kill()
        raise


def cold_stream(seed: int, i: int) -> tuple[int, int, bool]:
    """Job ``i`` of the cold stream: (pair index, seed, telemetry).

    Pairs cycle; the seed advances every cycle, so no (app, scheme,
    seed) repeats.  One job in four asks for telemetry, on a diagonal so
    each app and each scheme gets it once per cycle.
    """
    return i % len(PAIRS), seed + i // len(PAIRS), (i % 4) == (i // 4) % 4


def _run_cold(ctx: Context, out: Outcome, spans: Path | None,
              setup_s: list[float]) -> dict:
    from repro.sim.report import SimReport

    rounds = SETUP_ROUNDS if spans is None and not ctx.trace else 1
    for round_no in range(rounds):
        start = now()
        daemon, floor_ms = _cold_setup(ctx, spans)
        setup_s.append(now() - start)
        if round_no < rounds - 1:
            daemon.stop()
    specs = {False: _specs(False), True: _specs(True)}
    counter = [0]
    lock = threading.Lock()
    try:
        milestone = RssMilestone(daemon, RSS_AFTER["service-cold"])
        port = daemon.port

        def one_job(index: int):
            client = _client(port)
            with lock:
                i = counter[0]
                counter[0] += 1
            pair, seed, telemetry = cold_stream(ctx.seed, i)
            polls = frames = 0
            start = now()
            try:
                job = client.submit(PAIRS[pair][0], spec=specs[telemetry][pair],
                                    scale=SCALE, seed=seed)
                if telemetry:
                    for event, _ in client.watch(job["id"], timeout=120.0):
                        frames += event == "window"
                    latency = now() - start
                    doc = client.job(job["id"])
                else:
                    while True:
                        doc = client.job(job["id"])
                        polls += 1
                        if doc.get("state") in TERMINAL:
                            break
                        time.sleep(POLL_SECONDS)
                    latency = now() - start
            except Exception as exc:  # counted as a failed op
                return (now() - start, None, telemetry, polls, frames,
                        f"{type(exc).__name__}: {exc}")
            error = None
            if doc.get("state") != "done" or doc.get("result") is None:
                error = f"job {doc.get('id')} ended {doc.get('state')}"
            else:
                problems = report_invariant_errors(
                    SimReport.from_dict(doc["result"]))
                if problems:
                    error = f"{PAIRS[pair]} seed {seed}: {problems[0]}"
            milestone.tick()
            return (latency, job["id"], telemetry, polls, frames, error)

        records, started, ended = _closed_loop(one_job, ctx.seconds)
        stats = _client(port).stats()
    finally:
        final = daemon.stop()
    for record in records:
        out.attempted += 1
        if record[5]:
            out.fail(record[5])
    done = [r for r in records if r[5] is None]
    return {
        "records": records, "done": done, "started": started,
        "ended": ended, "elapsed": ended - started, "stats": stats,
        "final": final, "floor_ms": floor_ms, "work": daemon.work,
        "milestone": milestone,
    }


# ----------------------------------------------------------------------
def run(workload: str, ctx: Context) -> Outcome:
    out = Outcome()
    setup_s: list[float] = []
    hit = workload == "service-hit"
    if hit:
        # The reference reports check outputs; they are not the
        # program's set-up, so setup_s leaves them out.
        specs = _specs()
        expected = _references(ctx.seed)
        result = _run_hit(ctx, out, specs, expected, None, setup_s)
    else:
        result = _run_cold(ctx, out, None, setup_s)
    setup = ctx.import_s + median(setup_s)
    if not ctx.trace:
        _report_e2e(out, ctx, workload, result, setup)
        return out
    from service_trace import report_traced

    path = ctx.traces / f"{workload}-seed{ctx.seed}.json"
    if hit:
        traced = _run_hit(ctx, out, specs, expected, path, [])
    else:
        traced = _run_cold(ctx, out, path, [])
    report_traced(out, workload, traced, result, path, ctx.probe.factor)
    return out


def _report_e2e(out: Outcome, ctx: Context, workload: str, result: dict,
                setup_s: float) -> None:
    hit = workload == "service-hit"
    f_setup = ctx.probe.factor(ctx.setup_started, result["started"])
    f = ctx.probe.factor(result["started"], result["ended"])
    lat = [1000.0 * r[0] for r in result["done"]]
    tail_ms, label = tail(lat, HIT_TAIL if hit else COLD_TAIL)
    milestone = result["milestone"]
    end_mb = result["final"]["peak_rss_kb"] / 1024.0
    rss_mb = milestone.kb / 1024.0 if milestone.kb is not None else end_mb
    prefix = "hit" if hit else "cold"
    out.host("setup_s", "setup_s", setup_s, f_setup, "s", "s")
    out.metric("peak_rss_mb", rss_mb, "MB")
    out.say(f"peak_rss_mb       {rss_mb:10.4f} MB       (daemon, after "
            f"{milestone.n} ops{'' if milestone.kb else ': run fell short'}; "
            f"{end_mb:.1f} MB at the end of the run)")
    out.host("ops_per_s", "hit_rps" if hit else "cold_jobs_per_s",
             len(result["done"]) / result["elapsed"], f, "1/s",
             "req/s" if hit else "jobs/s", rate=True)
    out.host("op_p50_ms", f"{prefix}_p50_ms", median(lat), f, "ms", "ms")
    out.host("op_tail_ms", f"{prefix}_tail_ms", tail_ms, f, "ms", "ms",
             note=f"; {label}")
    out.say(speed_note(f, f_setup))
    out.say(f"http floor        {result['floor_ms']:10.4f} ms per /v1/healthz")
