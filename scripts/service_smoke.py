"""Black-box smoke test of the service daemon across a process boundary.

The in-process tests (``tests/test_service.py``) run the daemon's
asyncio loop in a thread of the test process; this script exercises the
deployment shape instead: it launches ``repro-harness serve`` as a real
subprocess, throws 8 concurrent duplicate submissions at it over
localhost HTTP, and checks the properties the service exists to
provide:

1. exactly **one** simulation ran (coalescing + cache, asserted via
   ``/v1/stats``),
2. all 8 clients received **byte-identical** result payloads,
3. a Dyn-DMS telemetry job, watched over SSE, runs on the worker tier
   (``/v1/healthz`` ``tier.dispatches`` grows by one) and streams
   window frames equal to its result's timeline samples,
4. a ``POST /v1/shutdown`` with ``drain=true`` lets the daemon exit
   cleanly (exit code 0) with nothing left in the queue.

Exits non-zero on any violation. Used by the CI service smoke job::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

APP = "synthetic"
SCALE = 0.1
SEED = 13
CLIENTS = 8
STARTUP_DEADLINE = 30.0
SHUTDOWN_DEADLINE = 60.0


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_healthy(client, deadline: float) -> None:
    last = None
    while time.monotonic() < deadline:
        try:
            if client.healthz().get("ok"):
                return
        except OSError as exc:
            last = exc
        time.sleep(0.1)
    raise SystemExit(f"daemon never became healthy: {last}")


def _telemetry_job(client) -> list[str]:
    """Run one Dyn-DMS telemetry job watched over SSE; returns the
    violations found (empty when it streamed its timeline on the tier)."""
    from repro.harness.schemes import scheme_def
    from repro.sim.spec import SimSpec

    dispatches = client.healthz()["tier"]["dispatches"]
    spec = SimSpec(scheduler=scheme_def("dyn-dms").build(), telemetry=True)
    job = client.submit(APP, spec=spec, scale=SCALE, seed=SEED)
    windows = []
    for event, data in client.watch(job["id"], timeout=300):
        if event == "window":
            data.pop("event_id", None)
            windows.append(data)
    doc = client.job(job["id"])
    grown = client.healthz()["tier"]["dispatches"] - dispatches
    print(f"telemetry job: state={doc['state']} windows={len(windows)} "
          f"tier_dispatches=+{grown}")
    if doc["state"] != "done":
        return [f"telemetry job failed: {doc.get('error')}"]
    problems = []
    if not windows or windows != doc["result"]["timeline"]["samples"]:
        problems.append("telemetry job's window frames differ from its "
                        "result's timeline samples")
    if grown != 1:
        problems.append(f"expected 1 tier dispatch for the telemetry "
                        f"job, got {grown}")
    return problems


def _smoke(port: int, tmp: str) -> int:
    """Run the daemon on ``port`` with its cache and journal in ``tmp``;
    returns the script's exit code."""
    from repro.service.client import ServiceClient

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_NO_CACHE", None)  # the cache is part of the test
    env["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.harness.cli", "serve",
            "--port", str(port), "--workers", "2",
            "--journal", os.path.join(tmp, "journal.jsonl"),
        ],
        env=env,
        cwd=REPO_ROOT,
    )
    client = ServiceClient(port=port)
    try:
        _wait_healthy(client, time.monotonic() + STARTUP_DEADLINE)

        def submit_and_wait(_):
            own = ServiceClient(port=port)
            job = own.submit(APP, scale=SCALE, seed=SEED, retry_busy=5)
            doc = own.wait(job["id"], timeout=300)
            if doc["state"] != "done":
                raise SystemExit(f"job failed: {doc.get('error')}")
            return json.dumps(doc["result"], sort_keys=True)

        with concurrent.futures.ThreadPoolExecutor(CLIENTS) as pool:
            payloads = list(
                pool.map(submit_and_wait, range(CLIENTS))
            )
        distinct = len(set(payloads))
        stats = client.stats()
        sims = stats["service"]["counters"].get(
            "service.simulations", 0.0
        )
        submitted = stats["service"]["counters"].get(
            "service.jobs.submitted", 0.0
        )
        print(
            f"submitted={submitted:g} simulations={sims:g} "
            f"distinct_payloads={distinct}"
        )
        ok = True
        if sims != 1.0:
            print(f"FAIL: expected exactly 1 simulation, got {sims:g}")
            ok = False
        if distinct != 1:
            print(f"FAIL: {distinct} distinct payloads across "
                  f"{CLIENTS} clients")
            ok = False
        # After the simulation count above, so it still expects 1.
        for problem in _telemetry_job(client):
            print(f"FAIL: {problem}")
            ok = False

        client.shutdown(drain=True)
        try:
            code = proc.wait(timeout=SHUTDOWN_DEADLINE)
        except subprocess.TimeoutExpired:
            print("FAIL: daemon did not exit after drain shutdown")
            proc.kill()
            return 1
        if code != 0:
            print(f"FAIL: daemon exited with code {code}")
            ok = False
        if ok:
            print("service smoke OK")
        return 0 if ok else 1
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


def main() -> int:
    sys.path.insert(0, str(SRC))
    tmp = tempfile.mkdtemp(prefix="repro-service-smoke-")
    try:
        return _smoke(_free_port(), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
