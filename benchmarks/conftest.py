"""Benchmark-harness configuration.

Each bench regenerates one table or figure of the paper and prints the same
rows/series the paper reports (pytest -s shows them; they are also asserted
on shape).  Benchmarks run the real simulations once per measurement
(``rounds=1``): the quantity of interest is the experiment output, the
timing is a bonus.

Every :func:`run_once` measurement is also appended to the perf-trajectory
file ``BENCH_suite.json`` (via :mod:`repro.utils.perf`), each under its
bench module and function and with its own provenance stamp, so
successive PRs leave comparable machine-readable wall-clock records next
to the experiment outputs.  Set ``REPRO_BENCH_DIR`` to redirect the files.

Scale: the paper's temperature analyses drive US06 five times; benches use
the ``REPEAT_*`` constants below (3x for temperature figures, 1x for the
5-cycle and size sweeps) to keep the whole suite within minutes.  The
orderings are established well before the fifth repetition; EXPERIMENTS.md
records a full-scale run.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.utils.perf import record_timing

#: Repetitions for the temperature-trace figures (paper: 5).
REPEAT_THERMAL = 3

#: Repetitions for the 5-cycle and size sweeps (paper: "multiple").  At a
#: single repetition the pack barely warms on the mild cycles and the
#: thermal methodologies cannot differentiate; two repetitions is the
#: smallest scale where every paper ordering is established.
REPEAT_SWEEP = 2

#: Worker-process count for the batch-parallel sweeps (kept small so the
#: fast-bench CI job fits a 2-core runner).
BATCH_WORKERS = 2


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The wall-clock of the measured call is recorded into
    ``BENCH_suite.json`` under ``<bench module>.<function name>`` (two
    benches may time functions of the same name, or the same function),
    building the repo's perf trajectory as a side effect of running the
    bench suite.
    """
    start = time.perf_counter()
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    module = Path(benchmark.fullname.split("::")[0]).stem
    record_timing("suite", f"{module}.{fn.__name__}", time.perf_counter() - start)
    return result
