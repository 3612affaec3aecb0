"""End-to-end tests for the simulation-as-a-service daemon.

The invariants pinned down here, against a real in-process daemon
(asyncio loop in a background thread, HTTP over localhost):

1. **Coalescing is exact** — 8 concurrent submissions of the same
   SimSpec run exactly one simulation and all 8 clients receive
   byte-identical ``SimReport.to_dict()`` payloads.
2. **The cache outlives the daemon** — a warm resubmission after a
   restart is answered from the persistent cache without simulating.
3. **SSE carries the controller state** — a dyn-dms telemetry job
   streams at least one window sample with its per-channel Dyn-DMS
   ``X`` trajectory, followed by a terminal frame. The windows stream
   live from the worker tier, and they are the timeline of the one
   report the cell's key gives on every path.
4. **Backpressure is a protocol, not a crash** — a full queue is a 429
   with a Retry-After hint; a malformed spec is a 400 naming the
   offending key path.
5. **The journal resurrects queued work** — non-terminal jobs from a
   killed daemon re-enter the queue on restart and still finish.
"""

from __future__ import annotations

import concurrent.futures
import copy
import json
import math
import re
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.gpu import GPUConfig
from repro.config.tenants import TenantMixSpec, TenantSpec
from repro.errors import ConfigError, ServiceBusyError, ServiceError
from repro.harness.cache import ResultCache, encode_report
from repro.harness.runner import Runner
from repro.harness.schemes import scheme_def
from repro.service.client import ServiceClient
from repro.service.jobs import (
    Job,
    JobState,
    job_content_key,
    new_job_id,
    replay_journal,
)
from repro.service.queue import JobQueue
from repro.service.server import ServiceDaemon
from repro.sim.spec import SimSpec
from repro.telemetry.hub import SERVICE_SIMULATIONS

SCALE = 0.05
WAIT = 120.0


def _daemon(tmp_path, **kwargs) -> ServiceDaemon:
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault(
        "cache", ResultCache(tmp_path / "cache", enabled=True)
    )
    kwargs.setdefault("journal_path", tmp_path / "journal.jsonl")
    kwargs.setdefault("retry_backoff", 0.01)
    kwargs.setdefault("verbose", False)
    return ServiceDaemon(**kwargs)


def _simulations(daemon: ServiceDaemon) -> float:
    return daemon.hub.snapshot()["counters"].get(SERVICE_SIMULATIONS, 0.0)


# ----------------------------------------------------------------------
# The headline acceptance path.


def test_coalescing_runs_one_simulation_for_eight_clients(tmp_path):
    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        spec = SimSpec(scheduler=scheme_def("frfcfs").build())

        def submit_and_wait(_):
            client = ServiceClient(port=daemon.port)
            job = client.submit(
                "synthetic", spec=spec, scale=SCALE, seed=11
            )
            doc = client.wait(job["id"], timeout=WAIT)
            assert doc["state"] == "done", doc.get("error")
            return job["outcome"], json.dumps(
                doc["result"], sort_keys=True
            )

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(submit_and_wait, range(8)))

        payloads = {payload for _, payload in results}
        assert len(payloads) == 1  # byte-identical result documents
        assert _simulations(daemon) == 1
        outcomes = sorted(outcome for outcome, _ in results)
        # Exactly one primary actually entered the queue; every
        # duplicate either coalesced onto it or (if it finished first)
        # hit the cache. Never a second simulation.
        assert outcomes.count("queued") <= 1
        assert all(
            o in ("queued", "coalesced", "cached") for o in outcomes
        )
    finally:
        daemon.stop()


def test_warm_restart_serves_from_persistent_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    first = _daemon(tmp_path, cache=ResultCache(cache_dir, enabled=True))
    first.start_in_thread()
    try:
        client = ServiceClient(port=first.port)
        job = client.submit("synthetic", scale=SCALE, seed=5)
        report = client.wait_for_report(job["id"], timeout=WAIT)
        assert _simulations(first) == 1
    finally:
        first.stop()

    second = _daemon(
        tmp_path,
        cache=ResultCache(cache_dir, enabled=True),
        journal_path=tmp_path / "journal2.jsonl",
    )
    second.start_in_thread()
    try:
        client = ServiceClient(port=second.port)
        job = client.submit("synthetic", scale=SCALE, seed=5)
        assert job["outcome"] == "cached"
        assert job["state"] == "done"
        warm = client.wait_for_report(job["id"], timeout=WAIT)
        assert warm.to_dict() == report.to_dict()
        assert _simulations(second) == 0  # never touched a worker
    finally:
        second.stop()


def test_sse_streams_dyn_dms_window_trajectory(tmp_path):
    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        spec = SimSpec(
            scheduler=scheme_def("dyn-dms").build(), telemetry=True
        )
        job = client.submit("synthetic", spec=spec, scale=0.3, seed=3)
        windows = []
        terminal = None
        for event, data in client.events(job["id"], timeout=WAIT):
            if event == "window":
                windows.append(data)
            elif event in ("done", "failed", "cancelled"):
                terminal = (event, data)
        assert terminal is not None and terminal[0] == "done"
        assert len(windows) >= 1
        sample = windows[0]
        # The Fig. 10 observables ride in every window frame.
        assert "bwutil" in sample and "activations" in sample
        assert "drops" in sample
        assert isinstance(sample["dms_x"], list) and sample["dms_x"]
        assert isinstance(sample["th_rbl"], list) and sample["th_rbl"]
        # Terminal frame carries the summary metrics.
        assert terminal[1]["metrics"]["ipc"] > 0
    finally:
        daemon.stop()


def test_one_key_gives_one_telemetry_report_streamed_live(tmp_path):
    """A ``spec.telemetry`` cell gives one report, timeline included,
    from the runner and from the daemon; a watcher's window frames are
    that timeline, and they arrive while the job is still running."""
    scheme = scheme_def("dyn-dms").build()
    runner = Runner(
        scale=1.0, seed=3, spec=SimSpec(telemetry=True), cache=None,
        verbose=False, faults=None,
    )
    cell = runner.cell("synthetic", scheme)
    local = json.loads(encode_report(runner.run("synthetic", scheme)))
    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        job = client.submit(
            "synthetic", spec=cell.spec, scale=1.0, seed=3
        )
        windows, states = [], []
        for event, data in client.events(job["id"], timeout=WAIT):
            if event == "window":
                data.pop("event_id")
                windows.append(data)
                states.append(client.job(job["id"])["state"])
        doc = client.job(job["id"])
    finally:
        daemon.stop()
    assert doc["state"] == "done" and doc["key"] == cell.key
    assert doc["result"] == local
    assert len(windows) > 1
    assert windows == doc["result"]["timeline"]["samples"]
    assert "running" in states


def test_finished_telemetry_jobs_keep_no_windows(tmp_path):
    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        spec = SimSpec(
            scheduler=scheme_def("dyn-dms").build(), telemetry=True
        )
        jobs = [
            client.submit("synthetic", spec=spec, scale=0.3, seed=seed)
            for seed in (3, 4, 5)
        ]
        for job in jobs:
            assert client.wait(job["id"], timeout=WAIT)["state"] == "done"
        assert len(daemon.jobs) == 3
        assert not any(job.windows for job in daemon.jobs.values())
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# Protocol edges: backpressure, validation, cancellation.


def test_full_queue_answers_429_with_retry_after(tmp_path):
    daemon = _daemon(tmp_path, workers=0, queue_size=2)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        for seed in (1, 2):
            client.submit("synthetic", scale=SCALE, seed=seed)
        with pytest.raises(ServiceBusyError) as excinfo:
            client.submit("synthetic", scale=SCALE, seed=3)
        assert excinfo.value.retry_after >= 1.0
    finally:
        daemon.stop(drain=False)


def test_the_daemon_refuses_a_disabled_cache(tmp_path, monkeypatch):
    """Done jobs are served from the cache by key, so it must be on."""
    from repro.harness import cli

    with pytest.raises(ValueError, match="enabled result cache"):
        ServiceDaemon(
            port=0, cache=ResultCache(tmp_path / "cache", enabled=False),
            journal_path=tmp_path / "journal.jsonl", verbose=False,
        )

    def serving(self):
        raise AssertionError("serve --no-cache started a daemon")

    monkeypatch.setattr(ServiceDaemon, "run", serving)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["serve", "--no-cache", "--port", "0"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("plan", ["corrupt@0", "crash@0;corrupt@1"])
def test_the_daemon_refuses_a_corrupt_fault(tmp_path, monkeypatch, capsys,
                                           plan):
    """Only the runner's cache store acts on ``corrupt``; the tier
    fires only faults that come before a simulation."""
    from repro.harness import cli
    from repro.harness.faults import FaultPlan

    with pytest.raises(ValueError, match="corrupt"):
        ServiceDaemon(
            port=0, cache=ResultCache(tmp_path / "cache", enabled=True),
            journal_path=tmp_path / "journal.jsonl", verbose=False,
            chaos=FaultPlan.parse(plan),
        )

    started: list[FaultPlan] = []
    monkeypatch.setattr(ServiceDaemon, "run",
                        lambda self: started.append(self.chaos))
    argv = ["serve", "--port", "0", "--journal",
            str(tmp_path / "journal.jsonl"),
            "--cache-dir", str(tmp_path / "cache"), "--chaos"]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + [plan])
    assert excinfo.value.code == 2
    assert "corrupt" in capsys.readouterr().err
    assert started == []
    assert cli.main(argv + ["crash@0"]) == 0
    assert started == [FaultPlan.parse("crash@0")]


def test_malformed_spec_is_400_naming_the_key_path(tmp_path):
    daemon = _daemon(tmp_path, workers=0)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        with pytest.raises(ConfigError, match=r"scheduler\.dms\.bogus"):
            client.submit(
                "synthetic",
                spec={"scheduler": {"dms": {"bogus": 1}}},
            )
        with pytest.raises(ConfigError, match="unknown workload"):
            client.submit("no-such-app")
    finally:
        daemon.stop(drain=False)


@pytest.mark.parametrize("field, value", [
    ("scale", float("nan")), ("scale", float("inf")),
    ("scale", float("-inf")),
    ("spec", []), ("spec", [1]), ("spec", 0), ("spec", False),
    ("spec", ""),
    pytest.param("scale", 10 ** 400, id="scale-400-digit-int"),
    ("seed", -1),
])
def test_malformed_job_field_is_rejected_naming_it(field, value):
    with pytest.raises(ConfigError, match=f"job field '{field}'"):
        Job.from_request({"app": "SCP", field: value})


def test_null_or_absent_spec_is_the_default_spec():
    assert Job.from_request({"app": "SCP", "spec": None}).spec == SimSpec()
    assert Job.from_request({"app": "SCP"}).spec == SimSpec()


def test_nonfinite_scale_and_non_object_spec_are_400(tmp_path):
    # json.dumps writes NaN as a bare token, which json.loads accepts.
    daemon = _daemon(tmp_path, workers=0)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        with pytest.raises(ConfigError, match="job field 'scale'"):
            client.submit("SCP", scale=float("nan"))
        with pytest.raises(ConfigError, match="job field 'spec'"):
            client.submit("SCP", spec=[])
        # Too large for float(): once a 500 from the handler.
        with pytest.raises(ConfigError, match="job field 'scale'"):
            client.submit("SCP", scale=10 ** 400)
        # Once admitted, then FAILED on the tier by numpy's seeding.
        with pytest.raises(ConfigError, match="job field 'seed'"):
            client.submit("SCP", seed=-1)
        assert len(daemon.queue) == 0
    finally:
        daemon.stop(drain=False)


def _key_paths(node, path=()):
    """Every key path of a JSON tree: dict keys and list indices."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, value in items:
        yield path + (key,)
        yield from _key_paths(value, path + (key,))


def _floats(node):
    """Every float leaf of a JSON tree."""
    if isinstance(node, float):
        yield node
    children = (
        node.values() if isinstance(node, dict)
        else node if isinstance(node, list) else ()
    )
    for child in children:
        yield from _floats(child)


def _replaced(spec: dict, path: tuple, value) -> dict:
    spec = copy.deepcopy(spec)
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return spec


#: Top-level spec keys where ``null`` means the default.
NULLABLE = {("scheduler",), ("faults",), ("device",), ("config",),
            ("tenants",)}


@pytest.mark.parametrize(
    "path",
    [p for p in _key_paths(SimSpec().to_dict()) if p not in NULLABLE],
    ids=".".join,
)
def test_null_spec_value_is_rejected_naming_its_path(path):
    spec = _replaced(SimSpec().to_dict(), path, None)
    with pytest.raises(ConfigError, match=re.escape(".".join(path))):
        Job.from_request({"app": "SCP", "spec": spec})


#: Malformed nested spec fields, each with the key path its error names.
MALFORMED_SPECS = [
    ({"scheduler": {"dms": None}}, "scheduler.dms"),
    ({"scheduler": {"ams": {"static_th_rbl": None}}},
     "scheduler.ams.static_th_rbl"),
    ({"scheduler": {"hit_streak_cap": None}}, "scheduler.hit_streak_cap"),
    ({"faults": {"p_bit": None}}, "faults.p_bit"),
    ({"device": ["gddr5"]}, "device"),
    ({"device": {"name": "gddr5"}}, "device"),
    ({"tenants": "SCP"}, "tenants"),
    ({"tenants": {"tenants": "SCP"}}, "tenants.tenants"),
    ({"tenants": {"tenants": [{"workload": "SCP"}]}},
     "tenants.tenants[0].name"),
    ({"tenants": {"tenants": [{"name": "a"}]}},
     "tenants.tenants[0].workload"),
    ({"scheduler": {"dms": {"mode": "dynamic", "windows_per_phase": None}}},
     "scheduler.dms.windows_per_phase"),
    ({"measure_error": "false"}, "measure_error"),
    ({"telemetry": 1}, "telemetry"),
    ({"ecc": 3}, "ecc"),
    ({"config": {"l2": {"associativity": False}}},
     "config.l2.associativity"),
    # Values of the right type that used to be admitted and then fail,
    # or simulate silently, on the worker tier.
    ({"faults": {"enabled": True, "scale": float("nan")}}, "faults.scale"),
    ({"tenants": {"tenants": [
        {"name": "a", "workload": "SCP", "scale": float("nan")}]}},
     "tenants.tenants[0].scale"),
    ({"tenants": {"tenants": [
        {"name": "a", "workload": "SCP", "seed": -1}]}},
     "tenants.tenants[0].seed"),
    ({"tenants": {"tenants": [
        {"name": "a", "workload": "SCP"}, {"name": "b", "workload": "NOPE"}]}},
     "tenants.tenants[1].workload"),
    ({"config": {"core_clock_mhz": float("inf")}}, "config.core_clock_mhz"),
    ({"config": {"mem_clock_mhz": float("inf")}}, "config.mem_clock_mhz"),
]


@pytest.mark.parametrize(
    "spec, path", MALFORMED_SPECS, ids=[p for _, p in MALFORMED_SPECS]
)
def test_malformed_spec_field_is_rejected_naming_its_path(spec, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        Job.from_request({"app": "SCP", "spec": spec})


def test_zero_cache_or_mapping_geometry_is_rejected():
    for config in ({"l2": {"associativity": 0}},
                   {"mapping": {"access_bytes": 0}}):
        with pytest.raises(ConfigError, match="must be positive"):
            Job.from_request({"app": "SCP", "spec": {"config": config}})


#: The default spec with every optional section present, so that every
#: nested key path exists to be replaced.
FULL_SPEC = SimSpec(
    config=GPUConfig(),
    tenants=TenantMixSpec(tenants=(
        TenantSpec(name="a", workload="SCP"),
        TenantSpec(name="b", workload="MVT", seed=3),
    )),
).to_dict()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


#: ``json.loads`` admits NaN and +-Infinity; draw them often enough to
#: land on every float key path.
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@given(
    path=st.sampled_from(list(_key_paths(FULL_SPEC))),
    value=json_values | non_finite,
)
@settings(max_examples=300, deadline=None)
def test_any_one_replaced_spec_value_is_a_job_or_a_config_error(
    path, value
):
    try:
        job = Job.from_request(
            {"app": "SCP", "spec": _replaced(FULL_SPEC, path, value)}
        )
    except ConfigError:
        return
    # An admitted spec holds no NaN or infinity for the tier to trip on.
    assert all(map(math.isfinite, _floats(job.spec.to_dict()))), path


def test_malformed_spec_fields_are_400_over_http(tmp_path):
    daemon = _daemon(tmp_path, workers=0)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        for spec, path in MALFORMED_SPECS:
            with pytest.raises(ConfigError, match=re.escape(path)):
                client.submit("SCP", spec=spec)
        assert len(daemon.queue) == 0
    finally:
        daemon.stop(drain=False)


@pytest.mark.parametrize("length", ["-5", "abc"])
def test_malformed_content_length_is_400_naming_the_header(
    tmp_path, length
):
    daemon = _daemon(tmp_path, workers=0)
    daemon.start_in_thread()
    try:
        request = (
            "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        with socket.create_connection(
            (daemon.host, daemon.port), timeout=WAIT
        ) as sock:
            sock.sendall(request.encode("latin-1"))
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert "Content-Length" in json.loads(body)["error"]
    finally:
        daemon.stop(drain=False)


def test_cancel_queued_job_and_reject_double_cancel(tmp_path):
    daemon = _daemon(tmp_path, workers=0, queue_size=4)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        job = client.submit("synthetic", scale=SCALE, seed=21)
        doc = client.cancel(job["id"])
        assert doc["state"] == "cancelled"
        with pytest.raises(ServiceError):
            client.cancel(job["id"])  # already terminal -> 409
    finally:
        daemon.stop(drain=False)


def test_cancel_keeps_every_follower_one_hop_from_its_primary(tmp_path):
    daemon = _daemon(tmp_path, workers=0, queue_size=4)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        a, b, c = (
            client.submit("synthetic", scale=SCALE, seed=23)
            for _ in range(3)
        )
        assert [j["outcome"] for j in (a, b, c)] == \
            ["queued", "coalesced", "coalesced"]
        client.cancel(a["id"])
        # B takes over the key, and C now rides on B, not on A.
        assert client.job(b["id"])["coalesced_into"] is None
        assert client.job(c["id"])["coalesced_into"] == b["id"]
        primary = daemon.jobs[b["id"]]
        assert daemon._execution_of(daemon.jobs[c["id"]]) is primary
        assert client.cancel(c["id"])["state"] == "cancelled"
        assert primary.followers == []
        assert client.job(b["id"])["state"] == "queued"
    finally:
        daemon.stop(drain=False)


def test_unknown_job_is_404(tmp_path):
    daemon = _daemon(tmp_path, workers=0)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        with pytest.raises(ServiceError, match="404"):
            client.job("jdeadbeef0000")
    finally:
        daemon.stop(drain=False)


def test_healthz_and_stats_shapes(tmp_path):
    daemon = _daemon(tmp_path, workers=1)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        health = client.healthz()
        assert health["ok"] is True and health["serving"] is True
        job = client.submit("synthetic", scale=SCALE, seed=31)
        client.wait(job["id"], timeout=WAIT)
        stats = client.stats()
        assert stats["jobs"]["done"] >= 1
        assert stats["queue"]["workers"] == 1
        assert stats["cache"]["entries"] >= 1
        assert stats["service"]["counters"]["service.jobs.submitted"] >= 1
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# Journal recovery.


def test_restart_recovers_queued_jobs_from_journal(tmp_path):
    journal = tmp_path / "journal.jsonl"
    cache_dir = tmp_path / "cache"
    first = _daemon(
        tmp_path,
        workers=0,
        cache=ResultCache(cache_dir, enabled=True),
        journal_path=journal,
    )
    first.start_in_thread()
    try:
        client = ServiceClient(port=first.port)
        job_id = client.submit("synthetic", scale=SCALE, seed=41)["id"]
    finally:
        first.stop(drain=False)  # dies with the job still queued

    second = _daemon(
        tmp_path,
        workers=1,
        cache=ResultCache(cache_dir, enabled=True),
        journal_path=journal,
    )
    second.start_in_thread()
    try:
        client = ServiceClient(port=second.port)
        doc = client.wait(job_id, timeout=WAIT)
        assert doc["state"] == "done"
        assert doc["recovered"] is True
    finally:
        second.stop()


def test_replay_journal_tolerates_torn_tail(tmp_path):
    journal = tmp_path / "journal.jsonl"
    spec = SimSpec()
    job = Job(
        id=new_job_id(),
        app="synthetic",
        scale=SCALE,
        seed=1,
        spec=spec,
        key=job_content_key("synthetic", SCALE, 1, spec),
    )
    from repro.service.jobs import JobJournal

    log = JobJournal(journal)
    log.record_submit(job)
    job.transition(JobState.RUNNING)
    log.record_state(job)
    log.close()
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"torn": ')  # crash mid-write
    jobs = replay_journal(journal)
    assert len(jobs) == 1
    # Non-terminal state resets to QUEUED for re-execution.
    assert jobs[0].state is JobState.QUEUED
    assert jobs[0].recovered is True


# ----------------------------------------------------------------------
# Multi-tenant jobs: priority maps to the tenant service contract.


def test_priority_sets_tenant_contract_end_to_end(tmp_path):
    """A job's HTTP ``priority`` becomes the default tenant class, and
    the simulated mix honours the resulting contract: the same
    class-less two-tenant payload yields AMS drops as a background
    (``approx-batch``) job but none as a high-priority (``latency``)
    one, and an explicit class always survives the defaulting."""
    daemon = _daemon(tmp_path)
    daemon.start_in_thread()
    try:
        client = ServiceClient(port=daemon.port)
        from repro.config.codec import encode

        scheme = scheme_def("static-dms+static-ams").build()
        spec_doc = {
            "scheduler": encode(scheme),
            "tenants": {
                "arbiter": "shared-frfcfs",
                "tenants": [
                    {"name": "a", "workload": "blackscholes",
                     "scale": SCALE},
                    {"name": "b", "workload": "MVT", "scale": SCALE,
                     "tenant_class": "approx-batch"},
                ],
            },
        }

        def run(priority: int) -> dict:
            job = client.submit(
                "blackscholes", spec=spec_doc, seed=11,
                priority=priority,
            )
            doc = client.wait(job["id"], timeout=WAIT)
            assert doc["state"] == "done", doc.get("error")
            return doc["result"]

        background = run(priority=0)
        foreground = run(priority=2)

        bg = {t["name"]: t for t in background["tenants"]["tenants"]}
        fg = {t["name"]: t for t in foreground["tenants"]["tenants"]}
        # priority 0 -> both default to approx-batch, drops allowed.
        assert bg["a"]["tenant_class"] == "approx-batch"
        assert sum(t["requests_dropped"] for t in bg.values()) > 0
        # priority 2 -> class-less tenant becomes latency: no drops in
        # its stream; the explicit approx-batch choice is preserved.
        assert fg["a"]["tenant_class"] == "latency"
        assert fg["a"]["requests_dropped"] == 0
        assert fg["b"]["tenant_class"] == "approx-batch"
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# Queue unit behaviour (no HTTP, no simulations).


def _job(seed: int, priority: int = 0) -> Job:
    spec = SimSpec()
    return Job(
        id=new_job_id(),
        app="synthetic",
        scale=SCALE,
        seed=seed,
        spec=spec,
        key=job_content_key("synthetic", SCALE, seed, spec),
        priority=priority,
    )


def test_queue_orders_by_priority_then_fifo():
    import asyncio

    async def scenario():
        queue = JobQueue(maxsize=8, cache=ResultCache(enabled=False))
        low = _job(1, priority=0)
        high = _job(2, priority=5)
        low2 = _job(3, priority=0)
        for job in (low, high, low2):
            await queue.admit(job)
        order = [await queue.get() for _ in range(3)]
        return [j.id for j in order], [low.id, high.id, low2.id]

    order, (low_id, high_id, low2_id) = asyncio.run(scenario())
    assert order == [high_id, low_id, low2_id]


def test_queue_promotes_follower_when_primary_cancelled():
    import asyncio

    async def scenario():
        queue = JobQueue(maxsize=8, cache=ResultCache(enabled=False))
        primary = _job(7)
        duplicate = _job(7)
        assert (await queue.admit(primary)) == ("queued", None)
        assert (await queue.admit(duplicate)) == ("coalesced", None)
        assert duplicate.coalesced_into == primary.id
        await queue.cancel(primary)
        # The duplicate took over as the new primary for the key.
        promoted = await queue.get()
        return primary, duplicate, promoted

    import asyncio

    primary, duplicate, promoted = asyncio.run(scenario())
    assert primary.state is JobState.CANCELLED
    assert promoted.id == duplicate.id
    assert duplicate.coalesced_into is None
