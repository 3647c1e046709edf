"""Run one benchmark workload and print its metrics (see README.md here).

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's scenario list goes through
``repro.sim.batch.run_batch`` (serially, in this process) pass after pass
for ``--seconds``; the end-to-end metrics are medians over the passes.
With ``--trace 1`` one untraced and one traced pass run, and the
per-layer metrics come from the traced one.  Either way the outputs are
checked, a provenance stamp is printed and written with the run record
under ``.perfbench/``, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts the package import

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Metrics printed by name but left out of the result line: one short
#: segment per pass (a single lockstep group), too noisy on a shared host
#: to hold a bound.
PRINTED_ONLY = ("first_row_s",)


@dataclasses.dataclass
class Pass:
    """One timed ``run_batch`` call and what it returned."""

    wall_s: float
    first_row_s: float
    result: object  # the BatchResult; None once only its rows are compared
    rows: list
    errors: list  # error strings of the failed cells
    store_delta: dict


def stable(rows: list) -> list:
    """Rows without what may differ between passes (cell wall times, and
    whether a cell was served from the store)."""
    return [{k: v for k, v in r.items() if k not in ("wall_s", "cached")} for r in rows]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper_grid", "mc_ensemble", "store_resweep"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, runs: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "runs": runs,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_pass(workload, scenarios: list, state: dict) -> Pass:
    """Scenario list into ``run_batch``, to ``BatchResult`` rows out."""
    from repro.sim.batch import run_batch

    kwargs = workload.pass_kwargs(state)  # e.g. a fresh store copy: untimed
    store = kwargs.get("store")
    before = store.stats() if store is not None else None
    first: list = []

    def on_cell_done(cell) -> None:
        # the first computed row: a store hit is served in microseconds,
        # too little work to time steadily
        if not first and not cell.cached:
            first.append(time.perf_counter())

    gc.collect()
    t0 = time.perf_counter()
    result = run_batch(scenarios, workers=0, on_cell_done=on_cell_done, **kwargs)
    rows = result.rows()
    wall_s = time.perf_counter() - t0

    delta: dict = {}
    if store is not None:
        after = store.stats()
        lookups = (after.hits + after.misses) - (before.hits + before.misses)
        delta = {
            "bytes_written": after.total_bytes - before.total_bytes,
            "hit_ratio": (after.hits - before.hits) / lookups if lookups else 0.0,
        }
    errors = [c.error for c in result.failures]
    return Pass(wall_s, first[0] - t0, result, rows, errors, delta)


def checks_for(args, workload, scenarios: list, passes: list) -> list:
    """Row count, failures, identical rows in every pass, then the
    workload's own checks on the first pass (when no cell failed)."""
    reference = stable(passes[0].rows)
    errors = [e for p in passes for e in p.errors]
    checks = [
        (
            "row_count_equals_grid_size",
            all(len(p.rows) == len(scenarios) for p in passes),
            f"{len(scenarios)} cells",
        ),
        ("no_failed_cells", not errors, "; ".join(errors[:3])),
        (
            "rows_identical_across_passes",
            all(stable(p.rows) == reference for p in passes),
            f"{len(passes)} passes",
        ),
    ]
    if not errors:
        checks += workload.check(args.seed, scenarios, passes[0].result)
    return checks


def untraced(args, workload, scenarios: list, state: dict, setup_s: float) -> tuple:
    """Timed passes for ``--seconds``; the end-to-end metrics."""
    import workloads

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        latest = run_pass(workload, scenarios, state)
        if passes:
            # keep one copy of equal rows, so that peak memory does not
            # grow with the number of passes a run happens to fit in
            latest.result = None
            if stable(latest.rows) == stable(passes[0].rows):
                latest.rows = passes[0].rows
        passes.append(latest)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = checks_for(args, workload, scenarios, passes)
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "first_row_s": (statistics.median(p.first_row_s for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    ok_rows = [r for r in passes[0].rows if r["error"] is None]
    # a workload without OTEM cells reports the neutral 1.0, because every
    # run must carry every end-to-end metric; its printout leaves them out
    qloss, power = (
        workloads.otem_ratios(ok_rows, workload.reference)
        if workload.reference
        else (1.0, 1.0)
    )
    metrics["otem_qloss_ratio"] = (qloss, "ratio")
    metrics["otem_power_ratio"] = (power, "ratio")
    return passes, checks, metrics, None


def traced(args, workload, scenarios: list, state: dict) -> tuple:
    """One untraced and one traced pass; the per-layer metrics."""
    import spans

    plain = run_pass(workload, scenarios, state)
    recorder = spans.SpanRecorder()
    probe_list = spans.probes({id(s): i for i, s in enumerate(scenarios)})
    with spans.installed(recorder, probe_list):
        timed = run_pass(workload, scenarios, state)
    passes = [plain, timed]

    checks = checks_for(args, workload, scenarios, passes)
    problems = spans.coverage_guard(args.workload, recorder)
    checks.append(("coverage_guard", not problems, "; ".join(problems)))
    metrics = spans.layer_metrics(
        recorder, timed.rows, timed.wall_s, plain.wall_s, timed.store_delta
    )
    return passes, checks, metrics, recorder


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the package from src/: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = time.perf_counter()
        scenarios = workload.scenarios(args.seed)
        state = workload.prepare(scenarios, workdir)
        setup_s = import_s + (time.perf_counter() - t0)
        if args.trace:
            passes, checks, metrics, recorder = traced(args, workload, scenarios, state)
        else:
            passes, checks, metrics, recorder = untraced(
                args, workload, scenarios, state, setup_s
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = provenance(args, runs=len(passes))
    attempted = len(scenarios) * len(passes)
    failed = sum(len(p.errors) for p in passes)
    correct = failed == 0 and all(ok for _, ok, _ in checks)

    print("provenance " + json.dumps(stamp, sort_keys=True))
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
    print(f"error_rate = {failed / attempted!r} fraction ({failed} of {attempted} cells)")
    for name, (value, unit) in metrics.items():
        if name.startswith("otem_") and not workload.reference:
            continue
        print(f"{name} = {value!r} {unit}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": u}
            for k, (v, u) in metrics.items()
            if k not in PRINTED_ONLY
        },
    }
    pass_walls = [p.wall_s for p in passes]
    print(f"wall_s of each pass: {pass_walls!r} s")
    record = {"provenance": stamp, "checks": checks, "pass_wall_s": pass_walls, **result}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if recorder is not None:
        recorder.write(os.path.join(OUT_DIR, f"spans-{tag}.csv.gz"), json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
