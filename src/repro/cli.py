"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      one scenario, print summary metrics.
``compare``  all four methodologies on one route, print the comparison.
``table1``   regenerate the paper's Table I.
``cycles``   list the built-in drive cycles and their statistics.
``export``   run a scenario and write the full trace to CSV.
``batch``    fan a scenario grid out over worker processes, with caching.
``serve``    start the sweep service (durable store + HTTP API).
``submit``   submit a sweep to a running service (optionally wait).
``query``    query a sweep's status or rows from a running service.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.figures import ALL_METHODOLOGIES, METHOD_LABELS
from repro.analysis.report import render_table1
from repro.analysis.tables import table1_data
from repro.drivecycle.library import available_cycles, get_cycle
from repro.sim.batch import run_batch
from repro.sim.engine import SimulationResult
from repro.sim.scenario import METHODOLOGIES, Scenario, run_scenario
from repro.utils.units import kelvin_to_celsius


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OTEM (DATE 2016) reproduction - EV HEES thermal/energy management",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and print metrics")
    _add_scenario_args(run)

    compare = sub.add_parser("compare", help="run all methodologies on one route")
    _add_scenario_args(compare, methodology=False)

    table1 = sub.add_parser("table1", help="regenerate the paper's Table I")
    table1.add_argument("--repeat", type=int, default=2, help="cycle repetitions")

    sub.add_parser("cycles", help="list built-in drive cycles")

    export = sub.add_parser("export", help="run a scenario, write the trace to CSV")
    _add_scenario_args(export)
    export.add_argument("output", help="CSV file to write")

    batch = sub.add_parser(
        "batch",
        help="run a scenario grid across worker processes (cached)",
        description=(
            "Cross-product grid over the repeated flags below, executed by "
            "repro.sim.batch.run_batch with crash isolation per cell."
        ),
    )
    _add_grid_args(batch)
    batch.add_argument(
        "--workers",
        "-j",
        type=int,
        default=0,
        help="worker processes; 0 = serial in-process (default)",
    )
    batch.add_argument(
        "--store-dir",
        default=".repro_store",
        help=(
            "experiment-store directory, shared with serve "
            "(default: .repro_store)"
        ),
    )
    batch.add_argument(
        "--no-cache", action="store_true", help="run without the experiment store"
    )
    batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help=(
            "per-scenario wall-clock budget [s] (parallel mode); a cell over "
            "budget is marked failed, but the batch still waits for its worker"
        ),
    )
    batch.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write the batch's BENCH-format JSON payload to this file",
    )

    serve = sub.add_parser(
        "serve",
        help="start the sweep service (durable store + HTTP API)",
        description=(
            "Serve POST /sweeps, GET /sweeps/<id>[/rows], DELETE "
            "/sweeps/<id>, /healthz and /metrics over a persistent "
            "experiment store; restarts resume from stored results."
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8563, help="bind port (default: 8563)"
    )
    serve.add_argument(
        "--store-dir",
        default=".repro_store",
        help="experiment-store directory (default: .repro_store)",
    )
    serve.add_argument(
        "--job-workers",
        type=int,
        default=2,
        help="concurrent sweep jobs (default: 2)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="default per-job wall-clock budget [s] (default: none)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )

    submit = sub.add_parser(
        "submit",
        help="submit a sweep to a running service",
        description=(
            "Build a sweep spec from the grid flags (same semantics as "
            "'repro batch') or load one from --spec, POST it, and "
            "optionally wait for completion."
        ),
    )
    _add_grid_args(submit)
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8563",
        help="service base URL (default: http://127.0.0.1:8563)",
    )
    submit.add_argument(
        "--spec",
        default=None,
        help="JSON sweep-spec file ('-' for stdin); overrides the grid flags",
    )
    submit.add_argument(
        "--workers",
        "-j",
        type=int,
        default=0,
        help="worker processes for scalar cells (default: 0 = in-process)",
    )
    submit.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="whole-job wall-clock budget [s] (default: service default)",
    )
    submit.add_argument("--tag", default="", help="free-form label for the sweep")
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the sweep finishes and print a row summary",
    )
    submit.add_argument(
        "--poll-timeout",
        type=float,
        default=600.0,
        help="--wait polling budget [s] (default: 600)",
    )

    query = sub.add_parser(
        "query",
        help="query a sweep's status or rows from a running service",
        description=(
            "Without flags prints the sweep's status record; --rows fetches "
            "the tidy rows (key=value arguments filter by row fields)."
        ),
    )
    query.add_argument("sweep_id", nargs="?", help="sweep id (omit to list all)")
    query.add_argument(
        "--url",
        default="http://127.0.0.1:8563",
        help="service base URL (default: http://127.0.0.1:8563)",
    )
    query.add_argument(
        "--rows", action="store_true", help="fetch rows instead of status"
    )
    query.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the raw JSON payload",
    )
    query.add_argument(
        "--filter",
        dest="filters",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="row filter (repeatable; with --rows)",
    )

    return parser


def _add_grid_args(parser: argparse.ArgumentParser):
    """The cross-product grid flags shared by ``batch`` and ``submit``."""
    parser.add_argument(
        "--methodology",
        "-m",
        action="append",
        choices=METHODOLOGIES,
        help="methodology axis (repeatable; default: otem)",
    )
    parser.add_argument(
        "--cycle",
        "-c",
        action="append",
        help="drive-cycle axis (repeatable; default: us06)",
    )
    parser.add_argument(
        "--ucap-farads",
        action="append",
        type=float,
        help="bank-size axis [F] (repeatable; default: 25000)",
    )
    parser.add_argument(
        "--initial-temp-c",
        action="append",
        type=float,
        help="start-temperature axis [C] (repeatable; default: 24.85)",
    )
    parser.add_argument(
        "--rollout-backend",
        action="append",
        choices=("scalar", "vectorized"),
        help="MPC rollout-backend axis (repeatable; default: scalar)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=0,
        help="traffic-perturbation axis: members 0..N-1 (default: off)",
    )
    parser.add_argument(
        "--repeat", "-r", type=int, default=1, help="cycle repetitions (default: 1)"
    )


def _add_scenario_args(parser: argparse.ArgumentParser, methodology: bool = True):
    if methodology:
        parser.add_argument(
            "--methodology",
            "-m",
            choices=METHODOLOGIES,
            default="otem",
            help="management policy (default: otem)",
        )
    parser.add_argument(
        "--cycle", "-c", default="us06", help="drive cycle (default: us06)"
    )
    parser.add_argument(
        "--repeat", "-r", type=int, default=1, help="cycle repetitions (default: 1)"
    )
    parser.add_argument(
        "--ucap-farads",
        type=float,
        default=25_000.0,
        help="ultracapacitor bank size [F] (default: 25000)",
    )
    parser.add_argument(
        "--initial-temp-c",
        type=float,
        default=24.85,
        help="initial battery/coolant temperature [C] (default: 24.85 = 298 K)",
    )
    parser.add_argument(
        "--rollout-backend",
        choices=("scalar", "vectorized"),
        default="scalar",
        help=(
            "MPC rollout implementation: 'scalar' (reference) or "
            "'vectorized' (batched NumPy kernel, several times faster; "
            "default: scalar)"
        ),
    )


def _scenario_from_args(args, methodology: str | None = None) -> Scenario:
    return Scenario(
        methodology=methodology or args.methodology,
        cycle=args.cycle,
        repeat=args.repeat,
        ucap_farads=args.ucap_farads,
        initial_temp_k=args.initial_temp_c + 273.15,
        rollout_backend=args.rollout_backend,
    )


def _print_summary(result: SimulationResult, out):
    m = result.metrics
    print(f"controller:      {result.controller_name}", file=out)
    print(f"route:           {result.cycle_name} ({m.duration_s:.0f} s)", file=out)
    print(f"capacity loss:   {m.qloss_percent:.4f} %", file=out)
    print(f"BLT:             {m.blt_routes:,.0f} routes to end-of-life", file=out)
    print(f"HEES energy:     {m.hees_energy_j / 3.6e6:.2f} kWh", file=out)
    print(f"average power:   {m.average_power_w / 1000:.2f} kW", file=out)
    print(f"cooling energy:  {m.cooling_energy_j / 3.6e6:.2f} kWh", file=out)
    print(
        f"peak temp:       {kelvin_to_celsius(m.peak_temp_k):.1f} C "
        f"({m.time_above_safe_s:.0f} s unsafe)",
        file=out,
    )
    print(f"unmet demand:    {m.unmet_energy_j / 3.6e6:.4f} kWh", file=out)


def cmd_run(args, out) -> int:
    result = run_scenario(_scenario_from_args(args))
    _print_summary(result, out)
    return 0


def cmd_compare(args, out) -> int:
    grid = [_scenario_from_args(args, methodology=m) for m in ALL_METHODOLOGIES]
    cells = run_batch(grid).raise_on_failure().cells
    results = {cell.scenario.methodology: cell.metrics for cell in cells}
    base = results["parallel"].qloss_percent
    print(
        f"{'methodology':>14} {'Qloss [%]':>10} {'vs par':>8} "
        f"{'avg P [kW]':>11} {'peak T [C]':>11}",
        file=out,
    )
    for m, metrics in results.items():
        print(
            f"{METHOD_LABELS[m]:>14} {metrics.qloss_percent:>10.4f} "
            f"{100 * metrics.qloss_percent / base:>7.1f}% "
            f"{metrics.average_power_w / 1000:>11.2f} "
            f"{kelvin_to_celsius(metrics.peak_temp_k):>11.1f}",
            file=out,
        )
    return 0


def cmd_table1(args, out) -> int:
    print(render_table1(table1_data(repeat=args.repeat)), file=out)
    return 0


def cmd_cycles(args, out) -> int:
    print(
        f"{'cycle':>8} {'dur [s]':>8} {'dist [km]':>10} "
        f"{'vmax [km/h]':>12} {'vmean [km/h]':>13} {'stops':>6}",
        file=out,
    )
    for name in available_cycles():
        s = get_cycle(name).stats()
        print(
            f"{name:>8} {s.duration_s:>8.0f} {s.distance_km:>10.2f} "
            f"{s.max_speed_kmh:>12.1f} {s.mean_speed_kmh:>13.1f} {s.stop_count:>6}",
            file=out,
        )
    return 0


def cmd_export(args, out) -> int:
    from repro.analysis.export import write_trace_csv

    result = run_scenario(_scenario_from_args(args))
    write_trace_csv(result.trace, args.output)
    print(f"wrote {len(result.trace)} rows to {args.output}", file=out)
    _print_summary(result, out)
    return 0


def _spec_from_args(args, **execution):
    """The sweep spec of the shared grid flags (batch + submit)."""
    from repro.service import SweepSpec

    axes = {
        "methodology": args.methodology or ["otem"],
        "cycle": args.cycle or ["us06"],
        "ucap_farads": args.ucap_farads or [25_000.0],
        "initial_temp_k": [t + 273.15 for t in (args.initial_temp_c or [24.85])],
        "rollout_backend": args.rollout_backend or ["scalar"],
    }
    return SweepSpec(
        base=Scenario(repeat=args.repeat), axes=axes, seeds=args.seeds, **execution
    )


def _print_rows(rows, out):
    """The sweep-row table ``repro batch`` and ``repro query --rows`` print."""
    print(
        f"{'methodology':>12} {'cycle':>10} {'size [F]':>9} {'T0 [C]':>7} "
        f"{'Qloss [%]':>10} {'avg P [kW]':>11} {'peak T [C]':>11} "
        f"{'wall [s]':>9} {'engine':>9} {'':>6}",
        file=out,
    )
    for row in rows:
        cycle = row["cycle"]
        if row["perturb_seed"] is not None:
            cycle = f"{cycle}~{row['perturb_seed']}"
        knobs = (
            f"{row['methodology']:>12} {cycle:>10} {row['ucap_farads']:>9.0f} "
            f"{row['initial_temp_k'] - 273.15:>7.1f}"
        )
        if row["error"]:
            print(f"{knobs} FAILED: {row['error']}", file=out)
            continue
        tag = "cached" if row.get("cached") else ""
        print(
            f"{knobs} {row['qloss_percent']:>10.4f} "
            f"{row['average_power_w'] / 1000:>11.2f} "
            f"{kelvin_to_celsius(row['peak_temp_k']):>11.1f} "
            f"{row['wall_s']:>9.2f} {row['engine_backend']:>9} {tag:>6}",
            file=out,
        )


def cmd_batch(args, out) -> int:
    import json

    from repro.store import ExperimentStore

    try:
        grid = _spec_from_args(args).scenarios()
    except ValueError as exc:  # refused whole, as the sweep service refuses it
        print(f"FAILED: {exc}", file=out)
        return 1
    store = None if args.no_cache else ExperimentStore(args.store_dir)
    result = run_batch(
        grid,
        workers=args.workers,
        store=store,
        timeout_s=args.timeout,
    )
    _print_rows(result.rows(), out)
    print(
        f"{len(result)} cells in {result.wall_s:.2f} s "
        f"({result.workers or 1} worker(s), "
        f"{result.cache_hits} cache hit(s), {result.cache_misses} miss(es), "
        f"{len(result.failures)} failure(s))",
        file=out,
    )

    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(result.bench_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_path}", file=out)
    return 0 if result.ok else 1


def cmd_serve(args, out) -> int:
    from repro.service import SweepServer

    server = SweepServer(
        args.store_dir,
        host=args.host,
        port=args.port,
        worker_threads=args.job_workers,
        default_timeout_s=args.job_timeout,
        quiet=args.quiet,
    )
    print(
        f"serving sweeps on {server.url} "
        f"(store: {server.store.directory}, {args.job_workers} job worker(s))",
        file=out,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=out)
        server.shutdown()
    return 0


def _print_progress(record, out):
    print(
        f"  {record['status']}: {record['done_cells']}/{record['total']} cells "
        f"({record['failed_cells']} failed)",
        file=out,
    )


def cmd_submit(args, out) -> int:
    import json

    from repro.service import ServiceError, SweepClient, SweepSpec

    if args.spec:
        text = sys.stdin.read() if args.spec == "-" else Path(args.spec).read_text()
        spec = SweepSpec.from_json(text)
    else:
        spec = _spec_from_args(
            args, workers=args.workers, timeout_s=args.job_timeout, tag=args.tag
        )

    client = SweepClient(args.url)
    try:
        accepted = client.submit(spec.to_dict())
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=out)
        return 1
    sweep_id = accepted["sweep_id"]
    print(f"submitted {sweep_id} ({accepted['total']} cells)", file=out)
    if not args.wait:
        return 0

    last = {"done": -1}

    def on_progress(record):
        if record["done_cells"] != last["done"]:
            last["done"] = record["done_cells"]
            _print_progress(record, out)

    try:
        record = client.wait(
            sweep_id, timeout_s=args.poll_timeout, on_progress=on_progress
        )
    except TimeoutError as exc:
        print(f"wait aborted: {exc}", file=out)
        return 1
    rows = client.rows(sweep_id)["rows"]
    print(
        f"{record['status']}: {len(rows)} row(s), "
        f"{record['failed_cells']} failed cell(s)",
        file=out,
    )
    print(json.dumps(record["engine_backends"], sort_keys=True), file=out)
    return 0 if record["status"] == "done" else 1


def cmd_query(args, out) -> int:
    import json

    from repro.service import ServiceError, SweepClient

    client = SweepClient(args.url)
    try:
        if args.sweep_id is None:
            records = client.list()
            if args.as_json:
                print(json.dumps(records, indent=2, sort_keys=True), file=out)
                return 0
            print(f"{'sweep id':>14} {'status':>10} {'cells':>12} {'tag':>10}", file=out)
            for r in records:
                print(
                    f"{r['sweep_id']:>14} {r['status']:>10} "
                    f"{r['done_cells']}/{r['total']:<10} {r.get('tag', ''):>10}",
                    file=out,
                )
            return 0
        if not args.rows:
            record = client.status(args.sweep_id)
            print(json.dumps(record, indent=2, sort_keys=True), file=out)
            return 0
        filters = {}
        for pair in args.filters:
            if "=" not in pair:
                print(f"bad filter {pair!r} (expected field=value)", file=out)
                return 2
            key, value = pair.split("=", 1)
            filters[key] = value
        payload = client.rows(args.sweep_id, **filters)
    except ServiceError as exc:
        print(f"query failed: {exc}", file=out)
        return 1
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0
    rows = payload["rows"]
    _print_rows(rows, out)
    print(
        f"{len(rows)} row(s), status {payload['status']}"
        + ("" if payload["complete"] else " (incomplete)"),
        file=out,
    )
    return 0


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "table1": cmd_table1,
    "cycles": cmd_cycles,
    "export": cmd_export,
    "batch": cmd_batch,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "query": cmd_query,
}


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)
