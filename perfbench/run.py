"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 20 --trace 0

Workloads: ``sweep``, ``service-hit``, ``service-cold`` and ``ingest``
(see NOTES.md for why each exists).  With ``--trace 0`` the run
measures the end-to-end metrics of BENCHMARK.json with no
instrumentation; with ``--trace 1`` it measures the workload untraced
and then traced, and prints the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Host-time metrics are scaled to a reference host speed measured while
the run goes (``common.SpeedProbe``); the raw values are printed too.
The program is imported from ``src/`` of the checkout this directory
sits in; scratch files go under ``.perfbench/`` there and are removed
at exit, except the Chrome-trace JSON of traced runs, which is kept in
``.perfbench/traces/`` for Perfetto.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload name -> module in this directory.
WORKLOADS = {
    "sweep": "sweep",
    "service-hit": "service",
    "service-cold": "service",
    "ingest": "ingest",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds NumPy generators)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _result_line(out, declared: list[dict], trace: bool) -> dict:
    """The final JSON object: every declared metric, in declared units.

    An end-to-end metric the workload did not measure is an error.  A
    per-layer metric of a layer the workload never enters reads 0.
    """
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in out.metrics:
            value, measured_unit = out.metrics[name]
            if measured_unit != unit:
                raise RuntimeError(
                    f"metric {name} measured in {measured_unit}, "
                    f"declared in {unit}"
                )
        elif trace:
            value = 0.0
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        if unit == "count":
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src}/repro not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    module = importlib.import_module(WORKLOADS[args.workload])
    for name in module.PROGRAM_MODULES:
        importlib.import_module(name)
    import_s = time.perf_counter() - _STARTED

    from common import Context, SpeedProbe, import_seconds, now

    probe = SpeedProbe()
    probe.start()
    setup_started = now()
    if not args.trace:
        import_s = import_seconds(
            import_s, [WORKLOADS[args.workload], *module.PROGRAM_MODULES], src
        )

    base = ROOT / ".perfbench"
    traces = base / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    ctx = Context(
        root=ROOT, work=work, traces=traces, seed=args.seed,
        seconds=args.seconds, trace=bool(args.trace), import_s=import_s,
        probe=probe, setup_started=setup_started,
    )
    try:
        out = module.run(args.workload, ctx)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
    key = "per_layer" if args.trace else "end_to_end"
    result = _result_line(out, declared[key], bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for line in out.lines:
        print(line)
    print(f"ops attempted {out.attempted}, failed {out.failed}; output "
          f"checks {'passed' if out.failed == 0 else 'FAILED'}")
    for error in out.errors:
        print(f"  check failed: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
