"""In-memory spans around the calls into each layer, and per-layer metrics.

The traced run replaces each layer's public functions with a timing
wrapper *from outside the package*: module functions are patched at the
name their caller looks up (``repro.sim.batch.run_scenario``,
``repro.core.mpc.minimize_lockstep``, ...), methods on the class that
defines them.  Every wrapped call becomes one span - name, start, end,
parent span and the cell or lockstep group it belongs to - kept in flat
arrays until the run ends.  A span's self time is its duration minus the
durations of its direct children; a layer's time is the self time of its
spans, so nested layers never count twice.

Nothing here runs unless a :class:`SpanRecorder` is installed with
:func:`installed`; the untraced benchmark passes call the package as is.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import itertools
import time
from array import array
from dataclasses import dataclass
from typing import Callable

#: Layer metric -> the span names whose self time it sums.  Spans that
#: belong to no layer (the per-cell and per-group context spans) still
#: count as parents, so their children's time is never booked twice.
LAYER_SPANS = {
    "drivecycle.request_s": (
        "drivecycle.get_cycle",
        "drivecycle.perturbed",
        "drivecycle.power_request",
    ),
    "controllers.control_s": ("controllers.control",),
    # the planner's own code, including the objective / evaluate callbacks
    # it hands to the solver drivers (stencils, denormalisation)
    "core.mpc.plan_s": (
        "core.mpc.plan",
        "core.mpc.plan_batch",
        "core.mpc.objective",
        "core.mpc.evaluate",
    ),
    "core.mpc.scipy_driver_s": ("core.mpc.scipy_minimize",),
    "core.rollout.cost_s": ("core.rollout.rollout_cost",),
    "core.rollout.detail_s": ("core.rollout.rollout",),
    "core.rollout_vec.kernel_s": (
        "core.rollout_vec.rollout_costs",
        "core.rollout_vec.rollout_costs_stacked",
    ),
    "core.lbfgsb_lockstep.driver_s": ("core.lbfgsb_lockstep.minimize_lockstep",),
    "hees.step_s": ("hees.step",),
    "cooling.step_s": ("cooling.step",),
    "sim.trace.record_s": ("sim.trace.record",),
    "sim.metrics.compute_s": ("sim.metrics.compute_metrics",),
    "sim.engine.self_s": ("sim.engine.run",),
    "sim.engine_vec.self_s": ("sim.engine_vec.run_lockstep_group",),
    "sim.batch.fingerprint_s": ("sim.batch.scenario_fingerprint",),
    "store.get_s": ("store.get",),
    "store.put_s": ("store.put",),
}

_ALL = frozenset({"paper_grid", "mc_ensemble", "store_resweep"})

#: Coverage guard: the workloads on which each layer must record calls.
#: On every other workload it must record none.  A layer that goes quiet
#: where it should run (a renamed function escaped its wrapper) or runs
#: where it should not (a workload stopped bypassing it) fails the run.
EXPECTED_CALLS = {
    "drivecycle.request_s": _ALL,
    "controllers.control_s": _ALL,
    "core.mpc.plan_s": {"paper_grid", "mc_ensemble"},
    "core.mpc.scipy_driver_s": {"paper_grid"},
    "core.rollout.cost_s": {"paper_grid"},
    "core.rollout.detail_s": {"paper_grid", "mc_ensemble"},
    "core.rollout_vec.kernel_s": {"mc_ensemble"},
    "core.lbfgsb_lockstep.driver_s": {"mc_ensemble"},
    "hees.step_s": _ALL,
    "cooling.step_s": _ALL,
    "sim.trace.record_s": {"paper_grid"},
    "sim.metrics.compute_s": _ALL,
    "sim.engine.self_s": {"paper_grid"},
    "sim.engine_vec.self_s": _ALL,
    "sim.batch.fingerprint_s": {"store_resweep"},
    "store.get_s": {"store_resweep"},
    "store.put_s": {"store_resweep"},
}


def self_times(names, starts, ends, parents) -> dict:
    """Total self time per span name.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Spans of one thread nest strictly, so the part of a span its children
    cover is the sum of their durations.
    """
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    totals: dict = collections.defaultdict(float)
    for i, name in enumerate(names):
        totals[name] += (ends[i] - starts[i]) - covered[i]
    return dict(totals)


def _intern(table: list, ids: dict, value: str) -> int:
    if value not in ids:
        ids[value] = len(table)
        table.append(value)
    return ids[value]


class SpanRecorder:
    """Collects the spans of wrapped calls (single-threaded use)."""

    def __init__(self):
        self._names: list = []
        self._name_ids: dict = {}
        self._contexts: list = [""]  # 0: batch level, no cell or group
        self._context_ids: dict = {"": 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.context = array("i")
        self.counts: collections.Counter = collections.Counter()
        self._stack: list = []

    def __len__(self) -> int:
        return len(self.name)

    def context_of(self, index: int) -> str:
        """The cell or group id of span ``index`` ("" at batch level)."""
        return self._contexts[self.context[index]]

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        count: Callable | None = None,
        context: Callable | None = None,
        callback: tuple | None = None,
    ) -> Callable:
        """``fn``, recording one span per call.

        ``count(args, result)`` returns ``{counter: n}`` increments;
        ``context(args)`` names the cell or group the span opens (children
        inherit it); ``callback=(position, span_name)`` also wraps the
        callable passed at that argument position (a solver objective).
        """
        nid = _intern(self._names, self._name_ids, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callback is not None:
                pos, cb_name = callback
                args = (*args[:pos], self.wrap(cb_name, args[pos]), *args[pos + 1 :])
            stack = self._stack
            parent = stack[-1] if stack else -1
            if context is not None:
                ctx = _intern(self._contexts, self._context_ids, context(args))
            else:
                ctx = self.context[parent] if parent >= 0 else 0
            idx = len(self.name)
            self.name.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(parent)
            self.context.append(ctx)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return traced

    def calls(self) -> dict:
        """Number of spans per span name."""
        tally = collections.Counter(self.name)
        return {self._names[i]: n for i, n in tally.items()}

    def self_times(self) -> dict:
        """Total self time per span name [s]."""
        names = [self._names[i] for i in self.name]
        return self_times(names, self.start, self.end, self.parent)

    def write(self, path: str, header: str) -> None:
        """Write every span as gzipped CSV, ``header`` as a comment line."""
        names = self._names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("id,name,start_s,end_s,parent,context\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{names[self.name[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{self.context_of(i)}\n"
                )


# ---------------------------------------------------------------------- #
# the probes: which function, patched where, under which span name


@dataclass(frozen=True)
class Probe:
    """One wrapped call site (see :meth:`SpanRecorder.wrap` for the hooks)."""

    span: str
    owner: object  # the module or class the caller looks the name up on
    attr: str
    count: Callable | None = None
    context: Callable | None = None
    callback: tuple | None = None


def _count_one(key: str) -> Callable:
    return lambda args, result: {key: 1}


def _kernel_rows(args, result) -> dict:
    """Leading dimension of the decision batch (``cap_bus``, argument 2)."""
    shape = getattr(args[2], "shape", ())
    return {"core.rollout_vec.kernel_rows": int(shape[0]) if len(shape) > 1 else 1}


def probes(cell_index: dict) -> list:
    """Every wrapped call site.

    ``cell_index`` maps ``id(scenario)`` to the scenario's grid index, so
    the spans of a scalar cell carry that cell's id.
    """
    import scipy.optimize

    from repro.controllers import batched
    from repro.controllers.cooling_only import CoolingOnlyController
    from repro.controllers.dual_threshold import DualThresholdController
    from repro.controllers.heuristic import HybridHeuristicController
    from repro.controllers.parallel_passive import ParallelPassiveController
    from repro.cooling.loop import CoolingLoop
    from repro.core import mpc
    from repro.core.otem import OTEMController
    from repro.core.rollout import PredictionModel
    from repro.core.rollout_vec import BatchPredictionModel
    from repro.drivecycle import perturb
    from repro.hees.dual import DualHEES, DualHEESVec
    from repro.hees.hybrid import HybridHEES, HybridHEESVec
    from repro.hees.parallel import ParallelHEES, ParallelHEESVec
    from repro.sim import batch, engine, engine_vec, scenario
    from repro.sim.trace import TraceRecorder
    from repro.store import ExperimentStore
    from repro.vehicle.powertrain import Powertrain

    group_ids = itertools.count()
    controls = [
        (cls, "control")
        for cls in (
            ParallelPassiveController,
            CoolingOnlyController,
            DualThresholdController,
            HybridHeuristicController,
            OTEMController,
            batched.BatchedParallelPassive,
            batched.BatchedCoolingOnly,
            batched.BatchedDualThreshold,
            batched.BatchedHybridHeuristic,
        )
    ] + [(batched.BatchedOTEM, "control_mpc")]
    plants = (
        ParallelHEES,
        DualHEES,
        HybridHEES,
        ParallelHEESVec,
        DualHEESVec,
        HybridHEESVec,
    )
    return [
        # context spans: one per scalar cell, one per lockstep group
        Probe(
            "sim.batch.run_scenario",
            batch,
            "run_scenario",
            context=lambda args: f"cell:{cell_index.get(id(args[0]), '?')}",
        ),
        Probe(
            "sim.batch.run_lockstep",
            batch,
            "run_lockstep",
            context=lambda args: f"group:{next(group_ids)}",
        ),
        # request building
        Probe("drivecycle.get_cycle", scenario, "get_cycle"),
        Probe("drivecycle.get_cycle", engine_vec, "get_cycle"),
        Probe("drivecycle.perturbed", perturb, "perturbed"),
        Probe(
            "drivecycle.power_request",
            Powertrain,
            "power_request",
            count=_count_one("drivecycle.requests"),
        ),
        # controllers and the MPC
        *(Probe("controllers.control", cls, attr) for cls, attr in controls),
        Probe("core.mpc.plan", mpc.MPCPlanner, "plan", count=_count_one("core.mpc.solves")),
        Probe(
            "core.mpc.plan_batch",
            mpc.MPCPlannerVec,
            "plan_batch",
            count=lambda args, result: {"core.mpc.solves": len(result)},
        ),
        Probe(
            "core.mpc.scipy_minimize",
            scipy.optimize,
            "minimize",
            callback=(0, "core.mpc.objective"),
        ),
        Probe(
            "core.lbfgsb_lockstep.minimize_lockstep",
            mpc,
            "minimize_lockstep",
            callback=(0, "core.mpc.evaluate"),
        ),
        Probe("core.rollout.rollout_cost", PredictionModel, "rollout_cost"),
        Probe("core.rollout.rollout", PredictionModel, "rollout"),
        Probe(
            "core.rollout_vec.rollout_costs",
            BatchPredictionModel,
            "rollout_costs",
            count=_kernel_rows,
        ),
        Probe(
            "core.rollout_vec.rollout_costs_stacked",
            BatchPredictionModel,
            "rollout_costs_stacked",
            count=_kernel_rows,
        ),
        # plant and thermal loop
        *(Probe("hees.step", cls, "step") for cls in plants),
        Probe("cooling.step", CoolingLoop, "step"),
        Probe("cooling.step", CoolingLoop, "step_batch"),
        # engines, trace, metrics
        Probe("sim.trace.record", TraceRecorder, "record"),
        Probe("sim.trace.record", TraceRecorder, "freeze"),
        Probe("sim.metrics.compute_metrics", engine, "compute_metrics"),
        Probe("sim.metrics.compute_metrics", engine_vec, "compute_metrics"),
        Probe(
            "sim.engine.run",
            engine.Simulator,
            "run",
            count=lambda args, result: {"sim.engine.steps": len(args[1])},
        ),
        Probe(
            "sim.engine_vec.run_lockstep_group",
            engine_vec,
            "run_lockstep_group",
            count=lambda args, result: {
                "sim.engine_vec.columns": len(args[0]),
                "sim.engine_vec.steps": max(len(r) for r in args[1]),
            },
        ),
        # batch runner and store
        Probe("sim.batch.scenario_fingerprint", batch, "scenario_fingerprint"),
        Probe("store.get", ExperimentStore, "get"),
        Probe("store.put", ExperimentStore, "put"),
    ]


@contextlib.contextmanager
def installed(recorder: SpanRecorder, probe_list: list):
    """Patch every probe's target with a recording wrapper; undo on exit."""
    saved = []
    try:
        for p in probe_list:
            if isinstance(p.owner, type):
                original = vars(p.owner)[p.attr]  # the class's own function
            else:
                original = getattr(p.owner, p.attr)
            saved.append((p.owner, p.attr, original))
            wrapped = recorder.wrap(
                p.span, original, count=p.count, context=p.context, callback=p.callback
            )
            setattr(p.owner, p.attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# per-layer metrics and the coverage guard


def layer_calls(recorder: SpanRecorder) -> dict:
    """Calls recorded per layer (summed over the layer's spans)."""
    calls = recorder.calls()
    return {
        layer: sum(calls.get(span, 0) for span in spans)
        for layer, spans in LAYER_SPANS.items()
    }


def coverage_guard(workload: str, recorder: SpanRecorder) -> list:
    """Layers whose call count contradicts :data:`EXPECTED_CALLS`."""
    problems = []
    for layer, n in layer_calls(recorder).items():
        expected = workload in EXPECTED_CALLS[layer]
        if expected and n == 0:
            problems.append(f"{layer}: no calls recorded, expected some")
        elif not expected and n > 0:
            problems.append(f"{layer}: {n} calls recorded, expected none")
    return problems


def layer_metrics(
    recorder: SpanRecorder,
    rows: list,
    traced_wall_s: float,
    untraced_wall_s: float,
    store_delta: dict,
) -> dict:
    """Every per-layer metric, as ``{name: (value, unit)}``."""
    own = recorder.self_times()
    counts = recorder.counts
    layer_s = {
        layer: sum(own.get(span, 0.0) for span in spans)
        for layer, spans in LAYER_SPANS.items()
    }
    n_calls = layer_calls(recorder)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solves = sum(r.get("solver_solves", 0) for r in rows)
    iterations = sum(r.get("solver_iterations", 0) for r in rows)
    warm_wins = sum(r.get("solver_wins_warm", 0) for r in rows)
    lockstep_rows = sum(r["engine_backend"] == "lockstep" for r in rows)

    def seconds(layer: str) -> tuple:
        return layer_s[layer], "s"

    return {
        "drivecycle.request_s": seconds("drivecycle.request_s"),
        "drivecycle.requests": (counts["drivecycle.requests"], "count"),
        "controllers.control_s": seconds("controllers.control_s"),
        "core.mpc.plan_s": seconds("core.mpc.plan_s"),
        "core.mpc.solves": (counts["core.mpc.solves"], "count"),
        "core.mpc.iters_per_solve": (ratio(iterations, solves), "ratio"),
        "core.mpc.warm_win_ratio": (ratio(warm_wins, solves), "ratio"),
        "core.mpc.scipy_driver_s": seconds("core.mpc.scipy_driver_s"),
        "core.rollout.cost_s": seconds("core.rollout.cost_s"),
        "core.rollout.cost_calls": (n_calls["core.rollout.cost_s"], "count"),
        "core.rollout.detail_s": seconds("core.rollout.detail_s"),
        "core.rollout_vec.kernel_s": seconds("core.rollout_vec.kernel_s"),
        "core.rollout_vec.kernel_calls": (n_calls["core.rollout_vec.kernel_s"], "count"),
        "core.rollout_vec.kernel_rows": (counts["core.rollout_vec.kernel_rows"], "count"),
        "core.lbfgsb_lockstep.driver_s": seconds("core.lbfgsb_lockstep.driver_s"),
        "hees.step_s": seconds("hees.step_s"),
        "hees.step_calls": (n_calls["hees.step_s"], "count"),
        "cooling.step_s": seconds("cooling.step_s"),
        "cooling.step_calls": (n_calls["cooling.step_s"], "count"),
        "sim.trace.record_s": seconds("sim.trace.record_s"),
        "sim.metrics.compute_s": seconds("sim.metrics.compute_s"),
        "sim.engine.self_s": seconds("sim.engine.self_s"),
        "sim.engine.step_us": (
            1e6 * ratio(layer_s["sim.engine.self_s"], counts["sim.engine.steps"]),
            "us",
        ),
        "sim.engine_vec.self_s": seconds("sim.engine_vec.self_s"),
        "sim.engine_vec.step_us": (
            1e6 * ratio(layer_s["sim.engine_vec.self_s"], counts["sim.engine_vec.steps"]),
            "us",
        ),
        "sim.engine_vec.group_size": (
            ratio(counts["sim.engine_vec.columns"], n_calls["sim.engine_vec.self_s"]),
            "count",
        ),
        "sim.batch.fingerprint_s": seconds("sim.batch.fingerprint_s"),
        "sim.batch.lockstep_share": (ratio(lockstep_rows, len(rows)), "ratio"),
        "store.get_s": seconds("store.get_s"),
        "store.get_calls": (n_calls["store.get_s"], "count"),
        "store.put_s": seconds("store.put_s"),
        "store.put_calls": (n_calls["store.put_s"], "count"),
        "store.bytes_written": (store_delta.get("bytes_written", 0), "bytes"),
        "store.hit_ratio": (store_delta.get("hit_ratio", 0.0), "ratio"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
        "trace.coverage": (ratio(sum(layer_s.values()), traced_wall_s), "ratio"),
        "trace.spans": (len(recorder), "count"),
    }
