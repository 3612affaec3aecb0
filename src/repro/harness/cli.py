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
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.dram.devices import device_names, get_device
from repro.errors import CellFailedError, ConfigError
from repro.harness.cache import ResultCache
from repro.harness.experiments import EXPERIMENTS
from repro.harness.faults import FaultPlan, failure_manifest
from repro.harness.runner import Runner
from repro.harness.schemes import (
    WINDOW_CYCLES,
    evaluation_schemes,
    scheme_def,
    scheme_ids,
)
from repro.sim.spec import SimSpec

#: Exit codes of the main experiment command (documented in README):
#: every requested cell produced a report.
EXIT_OK = 0
#: ``--keep-going`` salvaged a partial run; the manifest lists the rest.
EXIT_PARTIAL = 3
#: a cell failed all its attempts and ``--keep-going`` was off.
EXIT_FAILED = 4
#: ``report diff`` found a statistically significant regression.
EXIT_REGRESSION = 5


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
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the info snapshot as machine-readable JSON",
    )
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
    schemes = evaluation_schemes()
    parser = argparse.ArgumentParser(
        prog="repro-harness trace",
        description=(
            "Run one (scheme, workload) cell with windowed telemetry and "
            "export a JSONL time series plus a Perfetto-loadable Chrome "
            "trace-event JSON."
        ),
    )
    parser.add_argument(
        "scheme",
        choices=sorted(schemes),
        help="scheduling scheme (paper Fig. 12 legend label)",
    )
    parser.add_argument(
        "workload",
        help="Table II application abbreviation (e.g. SCP) or 'synthetic'",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size multiplier (smaller = faster)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload data/trace seed"
    )
    parser.add_argument(
        "--window", type=int, default=WINDOW_CYCLES,
        help="telemetry window length, memory cycles",
    )
    parser.add_argument(
        "--out-dir", default="traces",
        help="directory receiving the exported files",
    )
    parser.add_argument(
        "--no-chrome", action="store_true",
        help="skip the Chrome trace (JSONL only; much smaller)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the report summary"
    )
    args = parser.parse_args(argv)

    from repro.telemetry.export import system_chrome_trace, write_chrome_trace
    from repro.telemetry.export import write_jsonl

    runner = Runner(
        scale=args.scale, seed=args.seed, verbose=not args.quiet, cache=None
    )
    report, system, hub = runner.run_traced(
        args.workload,
        schemes[args.scheme],
        window_cycles=args.window,
        log_commands=not args.no_chrome,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_{_safe_label(args.scheme)}"
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


def _parse_scheme_ids(spec: str | None) -> list[str]:
    """Comma-separated scheme ids -> validated id list (None = all)."""
    if spec is None:
        return scheme_ids()
    ids = [token.strip() for token in spec.split(",") if token.strip()]
    for scheme_id in ids:
        scheme_def(scheme_id)  # raises ConfigError on unknown ids
    return ids


def _scheme_table(
    runner: Runner,
    apps: list[str],
    ids: list[str],
    *,
    measure_error: bool,
) -> str:
    """Table-III-style comparison: every scheme vs. the FR-FCFS baseline.

    The ``frfcfs`` baseline is always simulated (it is the normalisation
    reference) even when absent from ``ids``, but only requested schemes
    appear as rows.
    """
    sim_ids = ids if "frfcfs" in ids else ["frfcfs", *ids]
    schemes = {scheme_def(i).label: scheme_def(i).build() for i in sim_ids}
    result = runner.run_matrix(apps, schemes, measure_error=measure_error)
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
        for scheme_id in sim_ids:
            label = scheme_def(scheme_id).label
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


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by the ``table`` and ``matrix`` subcommands."""
    parser.add_argument(
        "--apps", default="SCP",
        help="comma-separated Table II applications (default: SCP)",
    )
    parser.add_argument(
        "--schemes", "--scheme", dest="schemes", default=None,
        metavar="IDS",
        help="comma-separated scheme ids from the catalogue "
        f"({', '.join(scheme_ids())}); default: all",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="workload size multiplier (default 0.25: quick tables)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload data/trace seed"
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="simulate up to N matrix cells in parallel",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache",
    )
    parser.add_argument(
        "--measure-error", action="store_true",
        help="replay AMS drops through the kernels and report the "
        "application error",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress"
    )


def _table_main(argv: list[str]) -> int:
    """The ``repro-harness table`` subcommand: one device, all schemes."""
    parser = argparse.ArgumentParser(
        prog="repro-harness table",
        description=(
            "Compare scheduling schemes (including the fcfs and "
            "frfcfs-cap baselines) on one DRAM device, Table-III style: "
            "IPC, activations, and row energy normalised to FR-FCFS."
        ),
    )
    parser.add_argument(
        "--device", default=None, choices=device_names(),
        help="DRAM device preset (default: config-embedded GDDR5)",
    )
    _add_sweep_arguments(parser)
    args = parser.parse_args(argv)
    try:
        ids = _parse_scheme_ids(args.schemes)
    except ConfigError as exc:
        parser.error(str(exc))
    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    runner = Runner(
        scale=args.scale, seed=args.seed, spec=SimSpec(device=args.device),
        verbose=not args.quiet, jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(),
    )
    try:
        print(
            _scheme_table(
                runner, apps, ids, measure_error=args.measure_error
            )
        )
    except CellFailedError as exc:
        _emit_failures(runner.failures or exc.failures, None)
        return EXIT_FAILED
    return EXIT_OK


def _matrix_main(argv: list[str]) -> int:
    """The ``repro-harness matrix`` subcommand: device x scheme sweep."""
    parser = argparse.ArgumentParser(
        prog="repro-harness matrix",
        description=(
            "Cross-device sensitivity sweep: the scheme comparison of "
            "'table' repeated on every requested DRAM device preset."
        ),
    )
    parser.add_argument(
        "--devices", default=",".join(device_names()),
        help="comma-separated device presets "
        f"(default: {','.join(device_names())})",
    )
    _add_sweep_arguments(parser)
    args = parser.parse_args(argv)
    try:
        ids = _parse_scheme_ids(args.schemes)
    except ConfigError as exc:
        parser.error(str(exc))
    devices = [d.strip() for d in args.devices.split(",") if d.strip()]
    for device in devices:
        if device not in device_names():
            parser.error(
                f"unknown device {device!r}; "
                f"registered: {', '.join(device_names())}"
            )
    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    cache = None if args.no_cache else ResultCache()
    exit_code = EXIT_OK
    for device in devices:
        runner = Runner(
            scale=args.scale, seed=args.seed, spec=SimSpec(device=device),
            verbose=not args.quiet, jobs=args.jobs, cache=cache,
        )
        try:
            print(
                _scheme_table(
                    runner, apps, ids, measure_error=args.measure_error
                )
            )
            print()
        except CellFailedError as exc:
            _emit_failures(runner.failures or exc.failures, None)
            exit_code = EXIT_FAILED
    return exit_code


def _pareto_main(argv: list[str]) -> int:
    """The ``repro-harness pareto`` subcommand: reliability sweep.

    Sweeps scheme x device x ECC code with the bit-flip fault injector
    enabled and prints the row-energy x application-error x FIT
    frontier table (plus the carbon-per-GiB-year estimate per cell).
    """
    from repro.dram.ecc import ecc_names
    from repro.harness.pareto import (
        DEFAULT_SWEEP_P_BIT,
        format_pareto_table,
        mark_frontier,
        resolve_scheme_token,
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
        "--schemes", default="base,dms2,ams", metavar="TOKENS",
        help="comma-separated scheme tokens: catalogue ids plus "
        "aliases base / dms / ams / dmsN (N x 128-cycle delay); "
        "default base,dms2,ams",
    )
    parser.add_argument(
        "--devices", default="gddr5,lpddr4",
        help="comma-separated device presets "
        f"(registered: {','.join(device_names())}; "
        "default gddr5,lpddr4)",
    )
    parser.add_argument(
        "--ecc", default="none,secded,bch",
        help="comma-separated ECC codes "
        f"(registered: {','.join(ecc_names())}; "
        "default none,secded,bch)",
    )
    parser.add_argument(
        "--apps", default="SCP",
        help="comma-separated Table II applications (default: SCP)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="workload size multiplier (default 0.25: quick sweeps)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload data/trace seed"
    )
    parser.add_argument(
        "--p-bit", type=float, default=DEFAULT_SWEEP_P_BIT,
        help="per-bit flip probability at nominal timings "
        f"(default {DEFAULT_SWEEP_P_BIT:g}; elevated so scaled-down "
        "traces still see flips)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="simulate up to N cells in parallel per (device, ecc) group",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the rows as machine-readable JSON instead of a table",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress"
    )
    args = parser.parse_args(argv)
    scheme_tokens = [t for t in args.schemes.split(",") if t.strip()]
    devices = [d.strip() for d in args.devices.split(",") if d.strip()]
    ecc_codes = [c.strip() for c in args.ecc.split(",") if c.strip()]
    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    try:
        for token in scheme_tokens:
            resolve_scheme_token(token)
        for code in ecc_codes:
            if code not in ecc_names():
                raise ConfigError(
                    f"unknown ECC code {code!r}; "
                    f"registered: {', '.join(ecc_names())}"
                )
        for device in devices:
            get_device(device)
    except ConfigError as exc:
        parser.error(str(exc))
    if not (scheme_tokens and devices and ecc_codes and apps):
        parser.error("schemes, devices, ecc, and apps must be non-empty")
    try:
        rows = run_pareto(
            apps=apps,
            scheme_tokens=scheme_tokens,
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
        _emit_failures(exc.failures, None)
        return EXIT_FAILED
    mark_frontier(rows)
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
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache root to ingest (default: $REPRO_CACHE_DIR or "
        ".repro-cache)",
    )
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
    spec_defaults = WarehouseSpec()
    parser.add_argument(
        "--baseline-scheme",
        default=spec_defaults.baseline_scheme,
        help="scheme label savings are computed against",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=spec_defaults.confidence,
        help="bootstrap CI confidence level",
    )
    parser.add_argument(
        "--resamples",
        type=int,
        default=spec_defaults.resamples,
        help="bootstrap resample count",
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=spec_defaults.alpha,
        help="diff: significance level (Holm-adjusted)",
    )
    parser.add_argument(
        "--min-effect",
        type=float,
        default=spec_defaults.min_effect,
        help="diff: minimum worse-direction relative mean delta",
    )
    parser.add_argument(
        "--min-samples",
        type=int,
        default=spec_defaults.min_samples,
        help="diff: seeds per side below which the gate is delta-only",
    )
    parser.add_argument(
        "--metrics",
        default=",".join(spec_defaults.metrics),
        help="diff: comma-separated metrics to gate",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of text",
    )
    args = parser.parse_args(argv)
    spec = WarehouseSpec(
        db_path=args.db,
        cache_dir=args.cache_dir,
        baseline_scheme=args.baseline_scheme,
        confidence=args.confidence,
        resamples=args.resamples,
        alpha=args.alpha,
        min_effect=args.min_effect,
        min_samples=args.min_samples,
        metrics=tuple(
            m.strip() for m in args.metrics.split(",") if m.strip()
        ),
    )
    try:
        spec.validate()
    except ConfigError as exc:
        parser.error(str(exc))

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
            if "seed" in filters:
                filters["seed"] = int(filters["seed"])
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

        results = ExperimentResults(
            warehouse,
            baseline_scheme=spec.baseline_scheme,
            confidence=spec.confidence,
            resamples=spec.resamples,
            alpha=spec.alpha,
            min_effect=spec.min_effect,
            min_samples=spec.min_samples,
            gate_metrics=spec.metrics,
        )
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


def _add_endpoint_arguments(parser: argparse.ArgumentParser) -> None:
    """Host/port options shared by the service client subcommands."""
    from repro.service.server import DEFAULT_PORT

    parser.add_argument(
        "--host", default="127.0.0.1", help="daemon host to contact"
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"daemon port (default {DEFAULT_PORT})",
    )


def _serve_main(argv: list[str]) -> int:
    """The ``repro-harness serve`` subcommand: run the job daemon."""
    from repro.service.server import (
        DEFAULT_JOURNAL,
        DEFAULT_PORT,
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
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port, 0 = pick a free one (default {DEFAULT_PORT})",
    )
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
        "--journal-fsync", choices=("always", "batch"),
        default="always",
        help="journal durability: fsync every record (always) or "
        "amortised every few dozen records (batch; default always)",
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
        "--shed-watermark", type=float, default=0.75,
        metavar="FRACTION",
        help="queue-depth fraction above which submissions are shed "
        "with 429 while all workers are busy (default 0.75)",
    )
    parser.add_argument(
        "--sse-ring-events", type=int, default=None, metavar="N",
        help="bounded per-job SSE replay ring size (events kept for "
        "Last-Event-ID reconnects; default 512)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="PLAN",
        help="deterministic fault plan injected into the worker tier "
        "(kind@cell[/stride][:seconds][xN]; e.g. exit@0/5 kills the "
        "worker of every 5th dispatch) — for drills and tests",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache root (default: $REPRO_CACHE_DIR or "
        ".repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without the persistent result cache",
    )
    parser.add_argument(
        "--warehouse", default=None, metavar="DB",
        help="results-warehouse sqlite file served by the read-only "
        "/v1/experiments routes (default: $REPRO_WAREHOUSE or "
        ".repro-warehouse.sqlite)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts per failing job (default 1)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="kill any non-telemetry job attempt exceeding this "
        "wall-clock bound (supervised pool)",
    )
    parser.add_argument(
        "--window", type=int, default=None, metavar="CYCLES",
        help="telemetry window for streaming jobs (default: harness "
        "profiling window)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress daemon logging"
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    if args.queue_size < 1:
        parser.error("--queue-size must be >= 1")
    if not 0.0 < args.shed_watermark <= 1.0:
        parser.error("--shed-watermark must be in (0, 1]")
    if args.sse_ring_events is not None and args.sse_ring_events < 1:
        parser.error("--sse-ring-events must be >= 1")
    chaos = None
    if args.chaos:
        from repro.harness.faults import FaultPlan

        try:
            chaos = FaultPlan.parse(args.chaos)
        except ValueError as exc:
            parser.error(str(exc))
    daemon = ServiceDaemon(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        cache=ResultCache(args.cache_dir, enabled=not args.no_cache),
        journal_path=args.journal,
        journal_fsync=args.journal_fsync,
        sse_ring_events=args.sse_ring_events or DEFAULT_RING_EVENTS,
        retries=args.retries,
        cell_timeout=args.cell_timeout,
        window_cycles=args.window or WINDOW_CYCLES,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        shed_watermark=args.shed_watermark,
        chaos=chaos,
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
    from repro.errors import ServiceBusyError, ServiceError
    from repro.service.client import ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro-harness submit",
        description="Submit one (workload, scheme) job to a running "
        "repro-harness daemon.",
    )
    parser.add_argument(
        "workload",
        help="Table II application abbreviation (e.g. SCP) or "
        "'synthetic'",
    )
    parser.add_argument(
        "--scheme", default="frfcfs",
        help="scheme id from the catalogue "
        f"({', '.join(scheme_ids())}; default frfcfs)",
    )
    parser.add_argument(
        "--device", default=None, choices=device_names(),
        help="DRAM device preset (default: config-embedded GDDR5)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size multiplier",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload data/trace seed"
    )
    parser.add_argument(
        "--priority", type=int, default=0,
        help="larger runs earlier (default 0)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="run with windowed telemetry (enables live SSE windows)",
    )
    parser.add_argument(
        "--measure-error", action="store_true",
        help="replay AMS drops through the kernel and report the "
        "application error",
    )
    parser.add_argument(
        "--retry-busy", type=int, default=0, metavar="N",
        help="on 429, retry up to N times honouring Retry-After",
    )
    parser.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its summary",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait timeout in seconds (default 600)",
    )
    _add_endpoint_arguments(parser)
    args = parser.parse_args(argv)
    try:
        definition = scheme_def(args.scheme)
    except ConfigError as exc:
        parser.error(str(exc))
    spec = SimSpec(
        scheduler=definition.build(),
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
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro-harness status",
        description="Show a job's status, or (without an id) the "
        "daemon's health and stats.",
    )
    parser.add_argument(
        "job_id", nargs="?", default=None, help="job id from submit"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the raw JSON document",
    )
    _add_endpoint_arguments(parser)
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
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro-harness watch",
        description="Stream a job's per-window telemetry (SSE) until "
        "it finishes.",
    )
    parser.add_argument("job_id", help="job id from submit")
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="stream read timeout in seconds",
    )
    _add_endpoint_arguments(parser)
    args = parser.parse_args(argv)
    client = ServiceClient(args.host, args.port)
    try:
        for event, data in client.events(
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
    """Parse one ``--tenant NAME=WORKLOAD[:CLASS[:SCALE[:SEED]]]``."""
    from repro.config.tenants import TENANT_CLASSES, TenantSpec

    name, sep, rest = token.partition("=")
    if not sep or not name or not rest:
        raise ConfigError(
            f"bad tenant {token!r}; expected "
            "NAME=WORKLOAD[:CLASS[:SCALE[:SEED]]]"
        )
    parts = rest.split(":")
    workload = parts[0]
    tenant_class = parts[1] if len(parts) > 1 and parts[1] else "bandwidth"
    if tenant_class not in TENANT_CLASSES:
        raise ConfigError(
            f"bad tenant class {tenant_class!r} in {token!r}; "
            f"known: {', '.join(TENANT_CLASSES)}"
        )
    try:
        scale = float(parts[2]) if len(parts) > 2 and parts[2] else 1.0
        seed = int(parts[3]) if len(parts) > 3 and parts[3] else None
    except ValueError as exc:
        raise ConfigError(f"bad tenant {token!r}: {exc}") from None
    if len(parts) > 4:
        raise ConfigError(
            f"bad tenant {token!r}; expected "
            "NAME=WORKLOAD[:CLASS[:SCALE[:SEED]]]"
        )
    return TenantSpec(
        name=name, workload=workload, tenant_class=tenant_class,
        scale=scale, seed=seed,
    )


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
        choices=scheme_ids(),
        help="scheduling scheme shared by all tenants",
    )
    parser.add_argument(
        "--device", default=None, choices=device_names(),
        help="DRAM device preset (default: config-embedded GDDR5)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="global workload size multiplier applied to every tenant",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="default data/trace seed (per-tenant seeds override)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="parallel workers for the solo-baseline sweep",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache",
    )
    parser.add_argument(
        "--no-baselines", action="store_true",
        help="skip the solo baselines (no slowdown/fairness columns)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full report as machine-readable JSON",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress per-cell progress logging",
    )
    args = parser.parse_args(argv)
    if not args.tenant:
        parser.error("at least one --tenant is required")
    try:
        tenants = tuple(_parse_tenant_token(t) for t in args.tenant)
        mix = TenantMixSpec(tenants=tenants, arbiter=args.arbiter)
        mix.validate()
    except ConfigError as exc:
        parser.error(str(exc))
    scheme = scheme_def(args.scheme).build()
    runner = Runner(
        scale=args.scale, seed=args.seed,
        spec=SimSpec(device=args.device, tenants=mix),
        verbose=not args.quiet, jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(),
    )
    label = "+".join(t.workload for t in tenants)
    try:
        report = runner.run(label, scheme)
        if report.tenants is not None and not args.no_baselines:
            attach_slowdowns(report, runner, mix, scheme)
    except CellFailedError as exc:
        _emit_failures(runner.failures or exc.failures, None)
        return EXIT_FAILED
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


def main(argv: list[str] | None = None) -> int:
    """Run one experiment (or ``all``) and print its tables."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "tenants":
        return _tenants_main(argv[1:])
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "table":
        return _table_main(argv[1:])
    if argv and argv[0] == "matrix":
        return _matrix_main(argv[1:])
    if argv and argv[0] == "pareto":
        return _pareto_main(argv[1:])
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "submit":
        return _submit_main(argv[1:])
    if argv and argv[0] == "status":
        return _status_main(argv[1:])
    if argv and argv[0] == "watch":
        return _watch_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description=(
            "Regenerate the paper's tables and figures on the simulator."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper figure/table) or 'all' "
        "(also: 'cache clear|info' to manage the result cache, "
        "'trace <scheme> <workload>' to export telemetry, "
        "'table'/'matrix' for scheme and device comparisons)",
    )
    parser.add_argument(
        "--device",
        default=None,
        choices=device_names(),
        help="DRAM device preset for every cell "
        "(default: config-embedded GDDR5)",
    )
    parser.add_argument(
        "--apps",
        default=None,
        help="comma-separated subset of Table II applications",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload size multiplier (smaller = faster)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload data/trace seed"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="simulate up to N matrix cells in parallel worker processes",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile every simulated cell with cProfile and report the "
        "top cumulative frames (forces serial execution)",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="write the per-cell profile report here (default: stderr)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent result cache (same as REPRO_NO_CACHE=1)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts for a failing matrix cell (default 1)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill any matrix cell exceeding this wall-clock time per "
        "attempt (forces the supervised pool even with --jobs 1)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="quarantine failing cells and finish the sweep with the "
        f"healthy ones (exit code {EXIT_PARTIAL} on partial results)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan, e.g. 'crash@0;hang@1:30' "
        "(default: $REPRO_CHAOS); for testing the recovery paths",
    )
    parser.add_argument(
        "--failures-out",
        default=None,
        metavar="PATH",
        help="write the structured failure manifest (JSON) here when any "
        "cell is quarantined",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress"
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        parser.error("--cell-timeout must be positive")
    try:
        faults = (
            FaultPlan.parse(args.chaos) if args.chaos
            else FaultPlan.from_env()
        )
    except ValueError as exc:
        parser.error(str(exc))
    runner = Runner(
        scale=args.scale,
        seed=args.seed,
        spec=SimSpec(device=args.device),
        verbose=not args.quiet,
        jobs=args.jobs,
        profile=args.profile,
        cache=None if args.no_cache else ResultCache(),
        retries=args.retries,
        cell_timeout=args.cell_timeout,
        keep_going=args.keep_going,
        faults=faults,
    )
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    exit_code = EXIT_OK
    for name in names:
        fn = EXPERIMENTS[name]
        try:
            if args.apps:
                apps = tuple(a.strip() for a in args.apps.split(","))
                try:
                    result = fn(runner, apps)
                except TypeError:
                    result = fn(runner)  # experiment with fixed app set
            else:
                result = fn(runner)
        except CellFailedError as exc:
            if not args.keep_going:
                _emit_failures(
                    runner.failures or exc.failures, args.failures_out
                )
                return EXIT_FAILED
            print(
                f"[partial] {name} incomplete: {exc}",
                file=sys.stderr,
            )
            exit_code = EXIT_PARTIAL
            continue
        print(result.text)
        print()
    if runner.profiles:
        _emit_profiles(runner.profiles, args.profile_out)
    if runner.failures:
        _emit_failures(runner.failures, args.failures_out)
        exit_code = EXIT_PARTIAL if args.keep_going else EXIT_FAILED
    return exit_code


def _emit_profiles(profiles: list[dict], out_path: str | None) -> None:
    """Write the per-cell cProfile report (``--profile``)."""
    sections = [
        f"== {p['app']} / {p['label']} ==\n{p['stats']}" for p in profiles
    ]
    text = "\n".join(sections)
    if out_path:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(
            f"profile report ({len(profiles)} cell(s)) written to {path}",
            file=sys.stderr,
        )
    else:
        print(text, file=sys.stderr)


def _emit_failures(failures, out_path: str | None) -> None:
    """Report quarantined cells: summary to stderr, manifest to disk."""
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
