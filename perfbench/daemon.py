"""The service daemon of the service workloads, in a process of its own.

Started by ``service.py``; never run by hand.  It serves exactly as
``repro-harness serve`` does by default (two supervised tier workers,
queue of 64, ``--journal-fsync always``), on a fresh cache and journal
under ``--work``.  It runs in its own process because an in-process
daemon would share the interpreter lock with the client threads that
decode 200 KB responses.

One JSON line per message on stdout; commands on stdin:

* at start-up it prints ``{"port": P}`` once it is serving;
* ``mark`` prints ``{"maxrss_kb": N}``, its peak resident memory so far;
* ``stop`` (or end of input) drains and stops the daemon, then prints
  ``{"peak_rss_kb", "children_peak_rss_kb"}``; the children are the
  tier workers, reaped by then.

With ``--spans PATH`` the public calls of the request path are wrapped
before the daemon serves (see ``install``); the spans stay in memory
and are written to PATH as Chrome-trace JSON at shutdown.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Spans  # noqa: E402


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def install(daemon) -> Spans:
    """Wrap the public calls a submission passes through.

    Each span carries the job id: taken from the job argument where the
    call has one, from the content key for cache calls outside any
    job's span (tier results are stored from an executor thread), and
    from the telemetry hub for in-thread simulations.
    """
    from repro.harness.cache import ResultCache
    from repro.service import server
    from repro.service.jobs import Job, JobJournal
    from repro.service.queue import JobQueue
    from repro.service.workers import WorkerTier
    from repro.sim.report import SimReport
    from repro.sim.spec import SimSpec

    spans = Spans()
    keys: dict[str, str] = {}  # content key -> id of the job admitting it

    def job_arg(args, kwargs, result):
        return args[1].id

    def admitted(args, kwargs, result):
        job = args[1]
        keys[job.key] = job.id
        return job.id

    def by_key(args, kwargs, result):
        return keys.get(args[1])

    def by_hub(args, kwargs, result):
        hub = kwargs.get("telemetry")
        for job in list(daemon.jobs.values()):
            if hub is not None and job.live_hub is hub:
                return job.id
        return None

    spans.wrap(Job, "from_request", "service.parse",
               job=lambda a, k, r: r.id if r is not None else None)
    spans.wrap(SimSpec, "from_dict", "config.spec_decode")
    spans.wrap(JobQueue, "admit", "service.admit", job=admitted)
    spans.wrap(ResultCache, "load", "harness.cache_load", job=by_key)
    spans.wrap(ResultCache, "store", "harness.cache_store", job=by_key)
    spans.wrap(SimReport, "from_dict", "sim.report_decode")
    spans.wrap(SimReport, "to_dict", "sim.report_encode")
    spans.wrap(JobJournal, "record_submit", "service.journal", job=job_arg)
    spans.wrap(JobJournal, "record_state", "service.journal", job=job_arg)
    spans.wrap(Job, "to_public_dict", "service.respond",
               job=lambda a, k, r: a[0].id)
    spans.wrap(WorkerTier, "execute", "service.tier", job=job_arg)
    spans.wrap(server, "simulate_spec", "service.inthread_sim", job=by_hub)
    return spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    work = Path(args.work)

    from repro.harness.cache import ResultCache
    from repro.service.server import ServiceDaemon

    daemon = ServiceDaemon(
        port=0,
        cache=ResultCache(work / "cache", enabled=True),
        journal_path=work / "journal.jsonl",
        warehouse_path=work / "warehouse.sqlite",
        verbose=False,
    )
    spans = install(daemon) if args.spans else None
    daemon.start_in_thread(timeout=120.0)
    emit({"port": daemon.port})
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            emit({"maxrss_kb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss})
        elif command == "stop":
            break
    daemon.stop(drain=True, timeout=60.0)
    if spans is not None:
        spans.uninstall()
        spans.dump(Path(args.spans))
    emit({
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_peak_rss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
