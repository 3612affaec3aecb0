"""Command-line entry point: regenerate any table or figure.

Examples::

    repro-harness fig04 --apps SCP,LPS --scale 0.5
    repro-harness fig12 --jobs 4
    repro-harness all --scale 0.25 --no-cache
    repro-harness cache info
    repro-harness cache clear
    repro-harness trace Dyn-DMS SCP --scale 0.5 --out-dir traces
    repro-harness table --device hbm --schemes frfcfs,fcfs,frfcfs-cap
    repro-harness matrix --devices gddr5,hbm --apps SCP
    repro-harness report ingest
    repro-harness report render --out report.md --html report.html
    repro-harness report diff --baseline snapshot.json
    repro-harness serve --port 8732 --workers 2
    repro-harness submit SCP --scheme dyn-dms --telemetry --wait
    repro-harness status j0123456789ab --json
    repro-harness watch j0123456789ab
    python -m repro.harness.cli table2

A flag two subcommands share is one entry of :data:`FLAGS`, parsed flags
become a :class:`Runner` only in :func:`_runner`, scheme names resolve
only through :func:`~repro.harness.schemes.resolve_scheme`, and
:data:`SUBCOMMANDS` maps each subcommand to its handler.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import sys
from pathlib import Path

from repro.config.faults import FaultConfig
from repro.config.scheduler import SchedulerConfig
from repro.dram.devices import device_names, get_device
from repro.errors import (
    CellFailedError,
    ConfigError,
    ServiceBusyError,
    ServiceError,
)
from repro.harness.cache import ResultCache
from repro.harness.experiments import EXPERIMENTS
from repro.harness.faults import (
    FaultPlan,
    check_run_limits,
    failure_manifest,
)
from repro.harness.runner import Runner
from repro.harness.schemes import WINDOW_CYCLES, resolve_scheme, scheme_ids
from repro.sim.spec import SimSpec
from repro.workloads.registry import list_workloads

#: Exit codes of the main experiment command (documented in README):
#: every requested cell produced a report.
EXIT_OK = 0
#: ``--keep-going`` salvaged a partial run; the manifest lists the rest.
EXIT_PARTIAL = 3
#: a cell failed all its attempts and ``--keep-going`` was off.
EXIT_FAILED = 4
#: ``report diff`` found a statistically significant regression.
EXIT_REGRESSION = 5

#: Help of every argument that names a scheme.
SCHEME_HELP = (
    "catalogue id (" + ", ".join(scheme_ids()) + "), Fig. 12 label "
    "(e.g. Dyn-DMS), or alias base / dms / ams / dmsN (Static-DMS with "
    "an N x 128-cycle delay)"
)
WORKLOAD_HELP = "Table II application abbreviation (e.g. SCP) or 'synthetic'"

#: Every flag more than one subcommand takes, as ``add_argument``
#: keyword arguments. A subcommand names the flags it takes
#: (:func:`_add_flags`) and overrides a default only where it differs.
FLAGS: dict[str, dict] = {
    "--apps": dict(
        default="SCP",
        help="comma-separated Table II applications (default: "
        "%(default)s)",
    ),
    "--scale": dict(
        type=float, default=1.0,
        help="workload size multiplier (default %(default)s; "
        "smaller = faster)",
    ),
    "--seed": dict(type=int, default=7, help="workload data/trace seed"),
    "--jobs": dict(
        type=int, default=1,
        help="simulate up to N cells in parallel worker processes",
    ),
    "--no-cache": dict(
        action="store_true",
        help="bypass the persistent result cache (same as "
        "REPRO_NO_CACHE=1)",
    ),
    "--quiet": dict(
        action="store_true",
        help="suppress progress output and logging",
    ),
    "--device": dict(
        default=None, choices=device_names(),
        help="DRAM device preset (default: config-embedded GDDR5)",
    ),
    "--devices": dict(
        default=",".join(device_names()),
        help="comma-separated device presets (default %(default)s)",
    ),
    "--json": dict(
        action="store_true",
        help="emit machine-readable JSON instead of text",
    ),
    "--measure-error": dict(
        action="store_true",
        help="replay AMS drops through the kernels and report the "
        "application error",
    ),
    "--retries": dict(
        type=int, default=1,
        help="extra attempts for a failing cell or job (default 1)",
    ),
    "--cell-timeout": dict(
        type=float, default=None, metavar="SECONDS",
        help="kill any attempt exceeding this wall-clock time (runs "
        "cells in the supervised pool)",
    ),
    "--chaos": dict(
        default=None, metavar="PLAN",
        help="deterministic fault plan kind@cell[/stride][:seconds][xN], "
        "e.g. 'crash@0;hang@1:30' (experiments default to "
        "$REPRO_CHAOS); for drills and tests of the recovery paths",
    ),
    "--cache-dir": dict(
        default=None,
        help="result cache root (default: $REPRO_CACHE_DIR or "
        ".repro-cache)",
    ),
    "--timeout": dict(
        type=float, default=600.0,
        help="seconds to wait for the job (default %(default)s)",
    ),
    "--host": dict(
        default="127.0.0.1", help="daemon address (serve binds to it)"
    ),
    # repro.service.server.DEFAULT_PORT; not imported, so that commands
    # other than the service ones start without loading the daemon.
    "--port": dict(
        type=int, default=8732,
        help="daemon port; serve picks a free one for 0 "
        "(default %(default)s)",
    ),
}
_SHORT = {"--jobs": ("-j",)}


def _add_flags(
    parser: argparse.ArgumentParser, *flags: str, **defaults
) -> None:
    """Add the shared ``flags`` to ``parser``; ``defaults`` maps a
    flag's dest to this subcommand's default where it differs."""
    for flag in flags:
        kwargs = FLAGS[flag]
        dest = flag[2:].replace("-", "_")
        if dest in defaults:
            kwargs = {**kwargs, "default": defaults[dest]}
        parser.add_argument(flag, *_SHORT.get(flag, ()), **kwargs)


def _split(text: str) -> list[str]:
    """A comma-separated flag value as its non-empty, stripped items."""
    return [item.strip() for item in text.split(",") if item.strip()]


@contextlib.contextmanager
def _usage_errors(parser: argparse.ArgumentParser):
    """Turn a bad flag value found in the block into a usage error."""
    try:
        yield
    except (ConfigError, ValueError) as exc:
        parser.error(str(exc))


#: Runner options a subcommand's flags may set; a flag the subcommand
#: does not take keeps the Runner default.
_RUNNER_FLAGS = ("jobs", "retries", "cell_timeout", "keep_going")


def _runner(args: argparse.Namespace, **spec_fields) -> Runner:
    """The one place parsed flags become a :class:`SimSpec` and a
    :class:`Runner`. ``spec_fields`` are the spec fields the subcommand
    sets beyond ``--device``. A subcommand without ``--no-cache``
    (``trace``) runs uncached; without ``--chaos``, ``$REPRO_CHAOS``
    applies."""
    flags = vars(args)
    check_run_limits(**{
        name: flags[name]
        for name in ("jobs", "retries", "cell_timeout", "scale", "seed")
        if name in flags
    })
    spec_fields.setdefault("device", flags.get("device"))
    chaos = flags.get("chaos")
    return Runner(
        scale=args.scale,
        seed=args.seed,
        spec=SimSpec(**spec_fields),
        verbose=not args.quiet,
        cache=None if flags.get("no_cache", True) else ResultCache(),
        faults=FaultPlan.parse(chaos) if chaos else FaultPlan.from_env(),
        **{name: flags[name] for name in _RUNNER_FLAGS if name in flags},
    )


def _cache_main(argv: list[str]) -> int:
    """The ``repro-harness cache <action>`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-harness cache",
        description="Manage the persistent simulation result cache.",
    )
    parser.add_argument(
        "action",
        choices=["clear", "info"],
        help="clear: delete all cached results; info: show size and count",
    )
    parser.add_argument(
        "--dir",
        default=None,
        help="cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    _add_flags(parser, "--json")
    args = parser.parse_args(argv)
    cache = ResultCache(args.dir, enabled=True)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
    else:
        # One atomic snapshot: entry count and byte total describe the
        # same listing even while another process mutates the cache.
        # The JSON form rides the same iter_blobs traversal as the
        # warehouse ingest, adding per-workload/per-scheme counts.
        info = cache.info(deep=args.json)
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
        else:
            print(
                f"{info['root']}: {info['entries']} cached result(s), "
                f"{info['size_bytes'] / 1e6:.2f} MB "
                f"(format v{info['format_version']})"
            )
    return 0


def _safe_label(label: str) -> str:
    """Scheme label as a filename fragment."""
    return (
        label.replace("+", "_plus_").replace("(", "").replace(")", "")
        .replace(" ", "_")
    )


def _trace_main(argv: list[str]) -> int:
    """The ``repro-harness trace <scheme> <workload>`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-harness trace",
        description=(
            "Run one (scheme, workload) cell with windowed telemetry and "
            "export a JSONL time series plus a Perfetto-loadable Chrome "
            "trace-event JSON."
        ),
    )
    parser.add_argument("scheme", help=f"scheduling scheme: {SCHEME_HELP}")
    parser.add_argument("workload", help=WORKLOAD_HELP)
    _add_flags(parser, "--scale", "--seed")
    parser.add_argument(
        "--window", type=int, default=WINDOW_CYCLES, metavar="CYCLES",
        help="telemetry window length in memory cycles (default: the "
        f"harness profiling window, {WINDOW_CYCLES})",
    )
    parser.add_argument(
        "--out-dir", default="traces",
        help="directory receiving the exported files",
    )
    parser.add_argument(
        "--no-chrome", action="store_true",
        help="skip the Chrome trace (JSONL only; much smaller)",
    )
    _add_flags(parser, "--quiet")
    args = parser.parse_args(argv)
    with _usage_errors(parser):
        label, scheme = resolve_scheme(args.scheme)
        if args.workload not in list_workloads():
            raise ConfigError(
                f"unknown workload {args.workload!r} "
                f"(known: {', '.join(list_workloads())})"
            )
        if args.window <= 0:
            raise ValueError(f"--window must be positive, got {args.window}")
        runner = _runner(args)

    from repro.telemetry.export import system_chrome_trace, write_chrome_trace
    from repro.telemetry.export import write_jsonl

    report, system = runner.run_traced(
        args.workload,
        scheme,
        window_cycles=args.window,
        log_commands=not args.no_chrome,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_{_safe_label(label)}"
    jsonl_path = out_dir / f"{stem}.telemetry.jsonl"
    windows = write_jsonl(report.timeline, jsonl_path)
    if not args.quiet:
        print(report.summary())
    print(f"wrote {jsonl_path} ({windows} windows)")
    if not args.no_chrome:
        trace_path = out_dir / f"{stem}.trace.json"
        document = system_chrome_trace(
            system, drops=report.drops, timeline=report.timeline
        )
        n_events = write_chrome_trace(document, trace_path)
        print(
            f"wrote {trace_path} ({n_events} events; open in "
            "https://ui.perfetto.dev)"
        )
    return 0


def _scheme_table(
    runner: Runner,
    apps: list[str],
    schemes: list[tuple[str, SchedulerConfig]],
    *,
    measure_error: bool,
) -> str:
    """Table-III-style comparison: every scheme vs. the FR-FCFS baseline.

    ``schemes`` are (label, config) pairs that include the Baseline,
    the normalisation reference.
    """
    result = runner.run_matrix(
        apps, dict(schemes), measure_error=measure_error
    )
    device = runner.spec.device
    device_line = "default (config-embedded GDDR5)"
    if device is not None:
        model = get_device(device)
        device_line = f"{device} — {model.description}"
    lines = [
        f"Scheme comparison on device: {device_line}",
        f"(scale={runner.scale}, seed={runner.seed}; "
        "normalised to Baseline=FR-FCFS per app)",
    ]
    header = (
        f"{'app':<12} {'scheme':<24} {'IPC':>8} {'IPC/b':>6} "
        f"{'acts':>9} {'acts/b':>6} {'rowE(uJ)':>9} {'rowE/b':>6} "
        f"{'cov%':>6}"
    )
    for app in apps:
        base = result[(app, "Baseline")]
        lines.append("")
        lines.append(header)
        lines.append("-" * len(header))
        for label, _ in schemes:
            report = result[(app, label)]
            err = report.application_error
            cov = 100.0 * report.coverage
            lines.append(
                f"{app:<12} {label:<24} {report.ipc:>8.3f} "
                f"{report.normalized_ipc(base):>6.3f} "
                f"{report.activations:>9d} "
                f"{report.normalized_activations(base):>6.3f} "
                f"{report.row_energy_nj / 1e3:>9.2f} "
                f"{report.normalized_row_energy(base):>6.3f} "
                f"{cov:>6.2f}"
                + (f"  err={err:.4g}" if err is not None else "")
            )
    return "\n".join(lines)


def _sweep_main(argv: list[str], *, matrix: bool) -> int:
    """The ``table`` and ``matrix`` subcommands: the scheme comparison
    on every requested device, ``table`` being the one-device case."""
    name = "matrix" if matrix else "table"
    parser = argparse.ArgumentParser(
        prog=f"repro-harness {name}",
        description=(
            "Cross-device sensitivity sweep: the scheme comparison of "
            "'table' repeated on every requested DRAM device preset."
            if matrix else
            "Compare scheduling schemes (including the fcfs and "
            "frfcfs-cap baselines) on one DRAM device, Table-III style: "
            "IPC, activations, and row energy normalised to FR-FCFS."
        ),
    )
    _add_flags(parser, "--devices" if matrix else "--device", "--apps")
    parser.add_argument(
        "--schemes", "--scheme", dest="schemes", default=None,
        metavar="NAMES",
        help=f"comma-separated schemes, each a {SCHEME_HELP} (default: "
        "every catalogue id; the Baseline is always simulated)",
    )
    _add_flags(
        parser, "--scale", "--seed", "--jobs", "--no-cache",
        "--measure-error", "--quiet", scale=0.25,
    )
    args = parser.parse_args(argv)
    names = scheme_ids() if args.schemes is None else _split(args.schemes)
    devices = _split(args.devices) if matrix else [args.device]
    with _usage_errors(parser):
        schemes = [resolve_scheme(n) for n in names]
        if matrix:
            for device in devices:
                get_device(device)
    if all(label != "Baseline" for label, _ in schemes):
        schemes.insert(0, resolve_scheme("frfcfs"))
    apps = _split(args.apps)
    exit_code = EXIT_OK
    for device in devices:
        with _usage_errors(parser):
            runner = _runner(args, device=device)
        try:
            print(
                _scheme_table(
                    runner, apps, schemes, measure_error=args.measure_error
                )
            )
        except CellFailedError as exc:
            exit_code = _cells_failed(runner.failures or exc.failures)
        else:
            if matrix:
                print()
    return exit_code


def _pareto_main(argv: list[str]) -> int:
    """The ``repro-harness pareto`` subcommand: reliability sweep.

    Sweeps scheme x device x ECC code with the bit-flip fault injector
    enabled and prints the row-energy x application-error x FIT
    frontier table (plus the carbon-per-GiB-year estimate per cell).
    """
    from repro.dram.ecc import ecc_names, get_ecc
    from repro.harness.pareto import (
        DEFAULT_SWEEP_P_BIT,
        format_pareto_table,
        run_pareto,
    )

    parser = argparse.ArgumentParser(
        prog="repro-harness pareto",
        description=(
            "Reliability Pareto sweep: schemes x DRAM devices x ECC "
            "codes with timing-dependent bit-flip injection; emits the "
            "row-energy x app-error x FIT frontier with carbon "
            "estimates."
        ),
    )
    parser.add_argument(
        "--schemes", default="base,dms2,ams", metavar="NAMES",
        help=f"comma-separated schemes, each a {SCHEME_HELP} "
        "(default %(default)s)",
    )
    _add_flags(parser, "--devices", devices="gddr5,lpddr4")
    parser.add_argument(
        "--ecc", default="none,secded,bch",
        help="comma-separated ECC codes "
        f"(registered: {','.join(ecc_names())}; "
        "default none,secded,bch)",
    )
    _add_flags(parser, "--apps", "--scale", "--seed", scale=0.25)
    parser.add_argument(
        "--p-bit", type=float, default=DEFAULT_SWEEP_P_BIT,
        help="per-bit flip probability at nominal timings "
        f"(default {DEFAULT_SWEEP_P_BIT:g}; elevated so scaled-down "
        "traces still see flips)",
    )
    _add_flags(parser, "--jobs", "--no-cache", "--json", "--quiet")
    args = parser.parse_args(argv)
    scheme_names = _split(args.schemes)
    devices = _split(args.devices)
    ecc_codes = _split(args.ecc)
    apps = _split(args.apps)
    with _usage_errors(parser):
        check_run_limits(jobs=args.jobs, scale=args.scale, seed=args.seed)
        FaultConfig(enabled=True, p_bit=args.p_bit).validate()
        for scheme in scheme_names:
            resolve_scheme(scheme)
        for code in ecc_codes:
            get_ecc(code)
        for device in devices:
            get_device(device)
    if not (scheme_names and devices and ecc_codes and apps):
        parser.error("schemes, devices, ecc, and apps must be non-empty")
    try:
        rows = run_pareto(
            apps=apps,
            scheme_tokens=scheme_names,
            devices=devices,
            ecc_codes=ecc_codes,
            scale=args.scale,
            seed=args.seed,
            p_bit=args.p_bit,
            jobs=args.jobs,
            cache=None if args.no_cache else ResultCache(),
            verbose=not args.quiet,
        )
    except CellFailedError as exc:
        return _cells_failed(exc.failures)
    if args.json:
        print(json.dumps([row.to_dict() for row in rows], indent=2))
    else:
        print(format_pareto_table(rows))
    return EXIT_OK


def _report_main(argv: list[str]) -> int:
    """The ``repro-harness report <action>`` subcommand.

    ``ingest`` walks the result cache (plus optional failure manifests
    and BENCH histories) into the sqlite warehouse; ``query`` filters
    the flattened rows; ``render`` emits the templated markdown/HTML
    report and an optional pinnable snapshot; ``diff`` gates the
    current warehouse against a pinned snapshot, exiting
    ``EXIT_REGRESSION`` (5) on a significant regression.
    """
    from repro.analytics.report import (
        render_diff_markdown,
        render_html,
        render_markdown,
    )
    from repro.analytics.results import ExperimentResults, load_snapshot
    from repro.analytics.warehouse import (
        FILTER_COLUMNS,
        Warehouse,
        ingest_sources,
    )
    from repro.config.warehouse import WarehouseSpec

    parser = argparse.ArgumentParser(
        prog="repro-harness report",
        description="Query and render the experiment results warehouse.",
    )
    parser.add_argument(
        "action",
        choices=["ingest", "query", "render", "diff"],
        help=(
            "ingest: walk cache/manifests/bench into the warehouse; "
            "query: filter flattened experiment rows; "
            "render: emit the templated sweep report; "
            "diff: gate against a pinned baseline snapshot"
        ),
    )
    parser.add_argument(
        "--db",
        default=None,
        help=(
            "warehouse sqlite file (default: $REPRO_WAREHOUSE or "
            ".repro-warehouse.sqlite)"
        ),
    )
    _add_flags(parser, "--cache-dir")
    parser.add_argument(
        "--failures",
        action="append",
        default=[],
        metavar="MANIFEST",
        help="failure manifest JSON to ingest (repeatable)",
    )
    parser.add_argument(
        "--bench",
        action="append",
        default=[],
        metavar="BENCH_JSON",
        help="BENCH_*.json history to ingest (repeatable)",
    )
    for column in FILTER_COLUMNS:
        parser.add_argument(
            f"--{column}",
            type=int if column == "seed" else None,
            default=None,
            help=f"query filter: exact {column} match",
        )
    parser.add_argument(
        "--out",
        default=None,
        metavar="REPORT_MD",
        help="render: write the markdown report here (default: stdout)",
    )
    parser.add_argument(
        "--html",
        default=None,
        metavar="REPORT_HTML",
        help="render: also write a self-contained HTML report here",
    )
    parser.add_argument(
        "--snapshot-out",
        default=None,
        metavar="SNAPSHOT_JSON",
        help="render: pin the raw per-seed samples for future diffs",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="SNAPSHOT_JSON",
        help="diff: pinned snapshot to gate against (required)",
    )
    # WarehouseSpec fields with a flag of their own: (field, type, help).
    spec_defaults = WarehouseSpec()
    spec_flags = (
        ("baseline_scheme", None, "scheme label savings are computed against"),
        ("confidence", float, "bootstrap CI confidence level"),
        ("resamples", int, "bootstrap resample count"),
        ("alpha", float, "diff: significance level (Holm-adjusted)"),
        ("min_effect", float,
         "diff: minimum worse-direction relative mean delta"),
        ("min_samples", int,
         "diff: seeds per side below which the gate is delta-only"),
    )
    for field, kind, text in spec_flags:
        parser.add_argument(
            "--" + field.replace("_", "-"), type=kind,
            default=getattr(spec_defaults, field), help=text,
        )
    parser.add_argument(
        "--metrics",
        default=",".join(spec_defaults.metrics),
        help="diff: comma-separated metrics to gate",
    )
    _add_flags(parser, "--json")
    args = parser.parse_args(argv)
    spec = WarehouseSpec(
        db_path=args.db,
        cache_dir=args.cache_dir,
        metrics=tuple(_split(args.metrics)),
        **{field: getattr(args, field) for field, _, _ in spec_flags},
    )
    with _usage_errors(parser):
        spec.validate()

    with Warehouse(spec.db_path) as warehouse:
        if args.action == "ingest":
            cache = ResultCache(spec.cache_dir, enabled=True)
            try:
                ingested = ingest_sources(
                    warehouse,
                    cache=cache,
                    failure_manifests=args.failures,
                    bench_files=args.bench,
                )
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                print(f"ingest failed: {exc}", file=sys.stderr)
                return EXIT_FAILED
            doc = {"ingested": ingested, "totals": warehouse.counts()}
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True))
            else:
                print(
                    f"ingested {ingested['experiments']} experiment(s), "
                    f"{ingested['failures']} failure(s), "
                    f"{ingested['bench']} bench entr(ies) "
                    f"into {warehouse.path}"
                )
            return EXIT_OK

        if args.action == "query":
            filters = {
                column: getattr(args, column)
                for column in FILTER_COLUMNS
                if getattr(args, column) is not None
            }
            rows = warehouse.rows(**filters)
            if args.json:
                print(json.dumps(rows, indent=2, sort_keys=True))
            else:
                for row in rows:
                    print(
                        f"{row['app']:<6} {row['scheme']:<24} "
                        f"dev={row['device'] or '-':<8} "
                        f"ecc={row['ecc'] or '-':<10} "
                        f"seed={row['seed'] if row['seed'] is not None else '-'} "
                        f"rowE={row['row_energy_nj']:.4g}nJ "
                        f"ipc={row['ipc']:.3f}"
                    )
                print(f"{len(rows)} row(s)")
            return EXIT_OK

        results = ExperimentResults(warehouse, spec)
        if args.action == "render":
            summary = results.summary()
            markdown = render_markdown(summary)
            if args.out:
                Path(args.out).write_text(markdown, encoding="utf-8")
                print(f"wrote {args.out}")
            else:
                print(markdown)
            if args.html:
                Path(args.html).write_text(
                    render_html(summary), encoding="utf-8"
                )
                print(f"wrote {args.html}")
            if args.snapshot_out:
                Path(args.snapshot_out).write_text(
                    json.dumps(results.snapshot(), indent=2, sort_keys=True),
                    encoding="utf-8",
                )
                print(f"wrote {args.snapshot_out}")
            return EXIT_OK

        # diff
        if not args.baseline:
            parser.error("report diff requires --baseline SNAPSHOT_JSON")
        try:
            baseline = load_snapshot(args.baseline)
            regressions = [
                r.to_dict() for r in results.regressions_against(baseline)
            ]
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"diff failed: {exc}", file=sys.stderr)
            return EXIT_FAILED
        if args.json:
            print(json.dumps(regressions, indent=2, sort_keys=True))
        else:
            print(render_diff_markdown(regressions), end="")
        return EXIT_REGRESSION if regressions else EXIT_OK


def _serve_main(argv: list[str]) -> int:
    """The ``repro-harness serve`` subcommand: run the job daemon."""
    from repro.service.server import (
        DEFAULT_JOURNAL,
        DEFAULT_RING_EVENTS,
        ServiceDaemon,
    )

    parser = argparse.ArgumentParser(
        prog="repro-harness serve",
        description=(
            "Run the simulation-as-a-service daemon: accepts JSON "
            "SimSpec jobs over HTTP, coalesces duplicates, serves warm "
            "results from the persistent cache, and streams per-window "
            "telemetry over SSE."
        ),
    )
    _add_flags(parser, "--host", "--port")
    parser.add_argument(
        "--workers", type=int, default=2,
        help="supervised simulator worker processes (default 2)",
    )
    parser.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded queue depth before 429 backpressure (default 64)",
    )
    parser.add_argument(
        "--journal", default=DEFAULT_JOURNAL, metavar="PATH",
        help="JSONL job journal for restart recovery "
        f"(default {DEFAULT_JOURNAL})",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive terminal failures of one spec before its "
        "circuit opens (default 3)",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=60.0,
        metavar="SECONDS",
        help="seconds a tripped circuit stays open before one "
        "half-open probe is admitted (default 60)",
    )
    parser.add_argument(
        "--sse-ring-events", type=int, default=None, metavar="N",
        help="bounded per-job SSE replay ring size (events kept for "
        "Last-Event-ID reconnects; default 512)",
    )
    _add_flags(parser, "--chaos", "--cache-dir")
    parser.add_argument(
        "--warehouse", default=None, metavar="DB",
        help="results-warehouse sqlite file served by the read-only "
        "/v1/experiments routes (default: $REPRO_WAREHOUSE or "
        ".repro-warehouse.sqlite)",
    )
    _add_flags(parser, "--retries", "--cell-timeout", "--quiet")
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    if args.queue_size < 1:
        parser.error("--queue-size must be >= 1")
    if args.sse_ring_events is not None and args.sse_ring_events < 1:
        parser.error("--sse-ring-events must be >= 1")
    with _usage_errors(parser):
        check_run_limits(retries=args.retries, cell_timeout=args.cell_timeout)
        daemon = ServiceDaemon(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_size=args.queue_size,
            cache=ResultCache(args.cache_dir, enabled=True),
            journal_path=args.journal,
            sse_ring_events=args.sse_ring_events or DEFAULT_RING_EVENTS,
            retries=args.retries,
            cell_timeout=args.cell_timeout,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            chaos=FaultPlan.parse(args.chaos) if args.chaos else None,
            warehouse_path=args.warehouse,
            verbose=not args.quiet,
        )
    try:
        daemon.run()
    except KeyboardInterrupt:
        pass
    return 0


def _submit_main(argv: list[str]) -> int:
    """The ``repro-harness submit`` subcommand: one job over HTTP."""
    from repro.service.client import ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro-harness submit",
        description="Submit one (workload, scheme) job to a running "
        "repro-harness daemon.",
    )
    parser.add_argument("workload", help=WORKLOAD_HELP)
    parser.add_argument(
        "--scheme", default="frfcfs",
        help=f"scheme: a {SCHEME_HELP} (default %(default)s)",
    )
    _add_flags(parser, "--device", "--scale", "--seed")
    parser.add_argument(
        "--priority", type=int, default=0,
        help="larger runs earlier (default 0)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="run with windowed telemetry (enables live SSE windows)",
    )
    _add_flags(parser, "--measure-error")
    parser.add_argument(
        "--retry-busy", type=int, default=0, metavar="N",
        help="on 429, retry up to N times honouring Retry-After",
    )
    parser.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its summary",
    )
    _add_flags(parser, "--timeout", "--host", "--port")
    args = parser.parse_args(argv)
    with _usage_errors(parser):
        _, scheduler = resolve_scheme(args.scheme)
    spec = SimSpec(
        scheduler=scheduler,
        device=args.device,
        measure_error=args.measure_error,
        telemetry=args.telemetry,
    )
    client = ServiceClient(args.host, args.port)
    try:
        job = client.submit(
            args.workload,
            spec=spec,
            scale=args.scale,
            seed=args.seed,
            priority=args.priority,
            retry_busy=args.retry_busy,
        )
    except ServiceBusyError as exc:
        print(
            f"queue full; retry in {exc.retry_after:.0f}s",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    except (ConfigError, ServiceError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    print(
        f"{job['id']}  {job['outcome']}  state={job['state']}"
    )
    if not args.wait:
        return EXIT_OK
    try:
        report = client.wait_for_report(
            job["id"], timeout=args.timeout
        )
    except (ServiceError, TimeoutError) as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_FAILED
    print(report.summary())
    return EXIT_OK


def _status_main(argv: list[str]) -> int:
    """The ``repro-harness status [JOB_ID]`` subcommand."""
    from repro.service.client import ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro-harness status",
        description="Show a job's status, or (without an id) the "
        "daemon's health and stats.",
    )
    parser.add_argument(
        "job_id", nargs="?", default=None, help="job id from submit"
    )
    _add_flags(parser, "--json", "--host", "--port")
    args = parser.parse_args(argv)
    client = ServiceClient(args.host, args.port)
    try:
        if args.job_id is None:
            doc = {
                "healthz": client.healthz(),
                "stats": client.stats(),
            }
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True))
            else:
                health = doc["healthz"]
                stats = doc["stats"]
                print(
                    f"serving={health['serving']} "
                    f"queued={health['queued']} "
                    f"running={health['running']} "
                    f"uptime={health['uptime_seconds']:.0f}s"
                )
                for name, value in stats["service"]["counters"].items():
                    print(f"  {name} = {value:g}")
            return EXIT_OK
        doc = client.job(args.job_id)
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            line = (
                f"{doc['id']}  {doc['state']}  app={doc['app']} "
                f"attempts={doc['attempts']} cached={doc['cached']}"
            )
            if doc.get("coalesced_into"):
                line += f" coalesced_into={doc['coalesced_into']}"
            print(line)
            if doc.get("error"):
                print(
                    f"  error: {doc['error'].get('error_type')}: "
                    f"{doc['error'].get('message')}"
                )
        return EXIT_OK
    except (ServiceError, OSError) as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return EXIT_FAILED


def _watch_main(argv: list[str]) -> int:
    """The ``repro-harness watch JOB_ID`` subcommand: follow SSE."""
    from repro.service.client import ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro-harness watch",
        description="Stream a job's per-window telemetry (SSE) until "
        "it finishes.",
    )
    parser.add_argument("job_id", help="job id from submit")
    _add_flags(parser, "--timeout", "--host", "--port")
    args = parser.parse_args(argv)
    client = ServiceClient(args.host, args.port)
    try:
        for event, data in client.watch(
            args.job_id, timeout=args.timeout
        ):
            if event == "window" and isinstance(data, dict):
                dms_x = ",".join(f"{x:g}" for x in data.get("dms_x", []))
                th = ",".join(str(t) for t in data.get("th_rbl", []))
                print(
                    f"window {data.get('index'):>4}  "
                    f"bwutil={data.get('bwutil', 0.0):.3f}  "
                    f"acts={data.get('activations', 0):>6}  "
                    f"drops={data.get('drops', 0):>5}  "
                    f"X=[{dms_x}]  Th_RBL=[{th}]"
                )
            elif event == "state" and isinstance(data, dict):
                print(f"state: {data.get('state')}")
            else:
                print(f"{event}: {json.dumps(data)}")
    except (ServiceError, OSError) as exc:
        print(f"watch failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _parse_tenant_token(token: str):
    """Parse one ``--tenant NAME=WORKLOAD[:CLASS[:SCALE[:SEED]]]``
    (the mix's ``validate`` checks the class and scale)."""
    from repro.config.tenants import TenantSpec

    name, sep, rest = token.partition("=")
    parts = rest.split(":")
    if not sep or not name or not rest or len(parts) > 4:
        raise ConfigError(
            f"bad tenant {token!r}; expected "
            "NAME=WORKLOAD[:CLASS[:SCALE[:SEED]]]"
        )
    workload, tenant_class, scale, seed = parts + [""] * (4 - len(parts))
    try:
        return TenantSpec(
            name=name, workload=workload,
            tenant_class=tenant_class or "bandwidth",
            scale=float(scale) if scale else 1.0,
            seed=int(seed) if seed else None,
        )
    except ValueError as exc:
        raise ConfigError(f"bad tenant {token!r}: {exc}") from None


def _tenants_main(argv: list[str]) -> int:
    """The ``repro-harness tenants`` subcommand: shared-memory mix.

    Simulates one multi-tenant mix under one scheme, runs (or
    cache-loads) each tenant's class-scoped solo baseline, and prints
    the per-tenant slowdown / drop / row-energy-share table with the
    mix-wide Jain fairness index.
    """
    from repro.config.tenants import TenantMixSpec
    from repro.harness.tenants import attach_slowdowns, fairness_table
    from repro.sched.policies import arbiter_names

    parser = argparse.ArgumentParser(
        prog="repro-harness tenants",
        description=(
            "Simulate a multi-tenant shared-memory mix and report "
            "per-tenant slowdown, fairness, and row-energy shares."
        ),
    )
    parser.add_argument(
        "--tenant", action="append", default=[], metavar="SPEC",
        help="NAME=WORKLOAD[:CLASS[:SCALE[:SEED]]] (repeatable; "
        "CLASS is latency, bandwidth, or approx-batch)",
    )
    parser.add_argument(
        "--arbiter", default="shared-frfcfs", choices=arbiter_names(),
        help="multi-tenant channel arbiter (default: shared-frfcfs)",
    )
    parser.add_argument(
        "--scheme", default="static-dms+static-ams",
        help=f"scheme shared by all tenants: a {SCHEME_HELP} "
        "(default %(default)s)",
    )
    _add_flags(
        parser, "--device", "--scale", "--seed", "--jobs", "--no-cache"
    )
    parser.add_argument(
        "--no-baselines", action="store_true",
        help="skip the solo baselines (no slowdown/fairness columns)",
    )
    _add_flags(parser, "--json")
    parser.add_argument("--quiet", "-q", **FLAGS["--quiet"])
    args = parser.parse_args(argv)
    if not args.tenant:
        parser.error("at least one --tenant is required")
    with _usage_errors(parser):
        tenants = tuple(_parse_tenant_token(t) for t in args.tenant)
        mix = TenantMixSpec(tenants=tenants, arbiter=args.arbiter)
        mix.validate()
        _, scheme = resolve_scheme(args.scheme)
        runner = _runner(args, tenants=mix)
    label = "+".join(t.workload for t in tenants)
    try:
        report = runner.run(label, scheme)
        if report.tenants is not None and not args.no_baselines:
            attach_slowdowns(report, runner, mix, scheme)
    except CellFailedError as exc:
        return _cells_failed(runner.failures or exc.failures)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    print(f"mix {label}  scheme {scheme.name}"
          + (f"  device {args.device}" if args.device else ""))
    if report.tenants is None:
        # Single-tenant passthrough: the report has no tenant section
        # by design (it is field-identical to a plain run).
        print(report.summary())
    else:
        print(fairness_table(report.tenants))
    return EXIT_OK


def _experiments_main(argv: list[str]) -> int:
    """Run one experiment (or ``all``) and print its tables."""
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description=(
            "Regenerate the paper's tables and figures on the simulator. "
            "Without --apps each figure runs its own app set."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper figure/table) or 'all' "
        f"(other subcommands: {', '.join(SUBCOMMANDS)})",
    )
    _add_flags(
        parser, "--device", "--apps", "--scale", "--seed", "--jobs",
        apps=None,
    )
    _add_flags(parser, "--no-cache", "--retries", "--cell-timeout")
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="quarantine failing cells and finish the sweep with the "
        f"healthy ones (exit code {EXIT_PARTIAL} on partial results)",
    )
    _add_flags(parser, "--chaos")
    parser.add_argument(
        "--failures-out",
        default=None,
        metavar="PATH",
        help="write the structured failure manifest (JSON) here when any "
        "cell is quarantined",
    )
    _add_flags(parser, "--quiet")
    args = parser.parse_args(argv)
    with _usage_errors(parser):
        runner = _runner(args)
    apps = tuple(_split(args.apps)) if args.apps else ()
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    exit_code = EXIT_OK
    for name in names:
        fn = EXPERIMENTS[name]
        takes_apps = apps and "apps" in inspect.signature(fn).parameters
        if apps and not takes_apps:
            print(
                f"{name}: --apps does not apply (fixed app set)",
                file=sys.stderr,
            )
        try:
            result = fn(runner, **({"apps": apps} if takes_apps else {}))
        except CellFailedError as exc:
            if not args.keep_going:
                return _cells_failed(
                    runner.failures or exc.failures, args.failures_out
                )
            print(
                f"[partial] {name} incomplete: {exc}",
                file=sys.stderr,
            )
            exit_code = EXIT_PARTIAL
            continue
        print(result.text)
        print()
    if runner.failures:
        _cells_failed(runner.failures, args.failures_out)
        exit_code = EXIT_PARTIAL if args.keep_going else EXIT_FAILED
    return exit_code


def _cells_failed(failures, out_path: str | None = None) -> int:
    """Report quarantined cells (summary to stderr, manifest to disk);
    the exit code of a run that stopped on them."""
    manifest = failure_manifest(list(failures))
    print(
        f"{manifest['failed_cells']} cell(s) failed after retries:",
        file=sys.stderr,
    )
    for failure in failures:
        print(f"  {failure.summary()}", file=sys.stderr)
    if out_path:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        print(f"failure manifest written to {path}", file=sys.stderr)
    return EXIT_FAILED


#: Every subcommand but the experiments, by its first argument.
SUBCOMMANDS = {
    "cache": _cache_main,
    "trace": _trace_main,
    "table": functools.partial(_sweep_main, matrix=False),
    "matrix": functools.partial(_sweep_main, matrix=True),
    "pareto": _pareto_main,
    "report": _report_main,
    "serve": _serve_main,
    "submit": _submit_main,
    "status": _status_main,
    "watch": _watch_main,
    "tenants": _tenants_main,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, or one experiment (or ``all``)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    return _experiments_main(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
