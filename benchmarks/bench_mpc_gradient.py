"""Scalar MPC gradient: scipy's forward differences vs the exact reverse pass.

Solves the same cold horizon problems (N=12, default weights, default
budget of ``e`` evaluations per start) from seeded mid-route states two
ways, each a two-start L-BFGS-B race over :meth:`MPCPlanner._starts`:

* ``forward_difference`` - scipy's own 2-point differences at
  ``MPCPlanner.FD_EPS``, every stencil rollout charged to the budget, so
  a start gets ``e * (2N+1)`` function calls (the scalar solve before the
  reverse pass);
* ``exact`` - the rollout's reverse-pass gradient at ``e`` evaluations
  (the scalar solve as ``MPCPlanner`` runs it; the bench checks it
  returns what ``_solve_penalty`` returns).

The two solves of each state run back to back in interleaved repeats.
Records into ``BENCH_mpc.json`` (key ``gradient``) the median over states
of each side's solve time, the mean final cost, and how the starts ended:
converged, stopped by the evaluation budget, or abnormal (scipy's
``status`` 0 / 1 / 2).  No threshold: the record is the measurement.

A second bench records the budget frontier (key ``frontier``): the exact
solve of the same states at each of :data:`FRONTIER` evaluations per
start, with the spread over states of each state's solve time divided by
its time at the default budget, and Table I's four OTEM cells at each
budget.
"""

from __future__ import annotations

import statistics

import numpy as np
from scipy import optimize

from benchmarks.bench_mpc_solver import HORIZON, _make_planner
from benchmarks.conftest import (
    BATCH_WORKERS,
    REPEAT_SWEEP,
    interleaved,
    run_once,
    spread,
)
from repro.analysis.tables import TABLE1_SIZES_F
from repro.core.lbfgsb_lockstep import FTOL, GTOL, MAXITER
from repro.core.mpc import DEFAULT_MAX_EVALS, MPCPlanner
from repro.sim.batch import run_batch
from repro.sim.scenario import Scenario
from repro.utils.perf import provenance, record_bench

#: Seeded horizon problems (state and preview per seed).
STATES = 32

#: Interleaved repeats of each state's two solves.
REPEATS = 3

#: scipy's L-BFGS-B ``status`` codes.
ENDS = {0: "converged", 1: "budget_stop", 2: "abnormal"}

#: Evaluations per start the frontier sweeps, the default first.
FRONTIER = (DEFAULT_MAX_EVALS, 9, 12, 15, 18)


def _problems() -> list:
    """Seeded (state, preview) pairs: a warm pack under a varied load."""
    rng = np.random.default_rng(2016)
    problems = []
    for _ in range(STATES):
        tb = rng.uniform(300.0, 314.0)
        state = (
            tb,
            tb - rng.uniform(0.0, 3.0),
            rng.uniform(30.0, 90.0),
            rng.uniform(20.0, 100.0),
        )
        problems.append((state, rng.uniform(-10e3, 60e3, HORIZON)))
    return problems


def _solve(planner: MPCPlanner, state, preview, exact: bool) -> tuple:
    """One cold two-start solve; ``(best cost, best z, start statuses)``."""
    model, step, n = planner._model, planner.step_s, planner.horizon
    scale = np.repeat([planner._cap_scale, planner._inlet_scale], n)

    def cost(z):
        cap, inlet = planner._denormalize(z)
        return model.rollout_cost(state, cap, inlet, preview, step)

    def cost_and_gradient(z):
        cap, inlet = planner._denormalize(z)
        c, d_cap, d_inlet = model.rollout_cost(
            state, cap, inlet, preview, step, gradient=True
        )
        return c, np.array(d_cap + d_inlet) * scale

    planner.reset()
    best, statuses = None, []
    for _, z0, budget in planner._starts(state[1]):
        options = {"maxiter": MAXITER, "ftol": FTOL, "gtol": GTOL}
        if exact:
            fun, jac = cost_and_gradient, True
            options["maxfun"] = budget
        else:
            fun, jac = cost, None
            options.update(maxfun=budget * (2 * n + 1), eps=MPCPlanner.FD_EPS)
        result = optimize.minimize(
            fun,
            z0,
            jac=jac,
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * (2 * n),
            options=options,
        )
        statuses.append(int(result.status))
        if best is None or result.fun < best.fun:
            best = result
    return float(best.fun), best.x, statuses


def _side(times: list, results: list) -> dict:
    """One side's record: time spread, mean cost and the termination split."""
    ends = {name: 0 for name in ENDS.values()}
    for _, _, statuses in results:
        for status in statuses:
            ends[ENDS[status]] += 1
    return {
        "solve_s": spread(times),
        "mean_cost": statistics.fmean(r[0] for r in results),
        "starts": ends,
    }


def test_mpc_gradient_exact_vs_forward_difference(benchmark):
    planner = _make_planner("scalar")
    problems = _problems()
    times = {"forward_difference": [], "exact": []}
    results = {"forward_difference": [], "exact": []}
    for state, preview in problems:
        state_times, last = interleaved(
            {
                "forward_difference": lambda: _solve(planner, state, preview, False),
                "exact": lambda: _solve(planner, state, preview, True),
            },
            REPEATS,
        )
        for side in times:
            times[side].append(statistics.median(state_times[side]))
            results[side].append(last[side])
        # the bench's exact solve is the planner's own
        planner.reset()
        z, _, cost, _ = planner._solve_penalty(state, preview, planner.step_s)
        assert cost == last["exact"][0]
        assert np.array_equal(z, last["exact"][1])

    def solve_exact():
        state, preview = problems[0]
        return _solve(planner, state, preview, True)

    run_once(benchmark, solve_exact)

    fd = _side(times["forward_difference"], results["forward_difference"])
    exact = _side(times["exact"], results["exact"])
    ratios = spread(
        [a / b for a, b in zip(times["forward_difference"], times["exact"])]
    )
    path = record_bench(
        "mpc",
        {
            "gradient": {
                "solver": {
                    "horizon": HORIZON,
                    "method": "penalty",
                    "max_function_evals": DEFAULT_MAX_EVALS,
                    "weights": "default",
                    "fd_eps": MPCPlanner.FD_EPS,
                },
                "states": STATES,
                "repeats": REPEATS,
                "forward_difference": fd,
                "exact": exact,
                "speedup_pairs": ratios,
                "provenance": provenance(),
            }
        },
    )

    print()
    for name, side in (("forward difference", fd), ("exact", exact)):
        print(
            f"{name:>18}: {side['solve_s']['median'] * 1e3:6.1f} ms median solve, "
            f"mean cost {side['mean_cost']:.6g}, starts {side['starts']}"
        )
    print(f"per-state time ratio {ratios['median']:.2f}x -> {path}")


def _table1_otem(evals: int) -> dict:
    """Table I's OTEM cells at ``evals`` evaluations per start, per size."""
    batch = run_batch(
        [
            Scenario(
                cycle="us06",
                repeat=REPEAT_SWEEP,
                ucap_farads=size,
                mpc_max_evals=evals,
            )
            for size in TABLE1_SIZES_F
        ],
        workers=BATCH_WORKERS,
    ).raise_on_failure()
    return {
        f"{cell.scenario.ucap_farads:.0f}": {
            "qloss_percent": cell.metrics.qloss_percent,
            "average_power_w": cell.metrics.average_power_w,
        }
        for cell in batch.cells
    }


def test_mpc_budget_frontier(benchmark):
    """Solve quality, termination and time against the budget, and what
    each budget does to Table I's OTEM column.  No threshold."""
    problems = _problems()
    planners = {evals: _make_planner("scalar", evals) for evals in FRONTIER}
    times = {evals: [] for evals in FRONTIER}
    results = {evals: [] for evals in FRONTIER}
    for state, preview in problems:
        state_times, last = interleaved(
            {
                evals: lambda p=p: _solve(p, state, preview, True)
                for evals, p in planners.items()
            },
            REPEATS,
        )
        for evals in FRONTIER:
            times[evals].append(statistics.median(state_times[evals]))
            results[evals].append(last[evals])

    def table1_otem_frontier():
        return {evals: _table1_otem(evals) for evals in FRONTIER}

    table1 = run_once(benchmark, table1_otem_frontier)
    # each state's time over its own time at the default budget: the
    # budgets ran interleaved per state, so the ratio cancels most of the
    # host's load swing that moves the absolute times between runs
    base = times[DEFAULT_MAX_EVALS]
    frontier = {
        str(evals): {
            **_side(times[evals], results[evals]),
            "solve_ratio_to_default": spread(
                [t / t0 for t, t0 in zip(times[evals], base)]
            ),
            "table1_otem": table1[evals],
        }
        for evals in FRONTIER
    }
    path = record_bench(
        "mpc",
        {
            "frontier": {
                "solver": {
                    "horizon": HORIZON,
                    "method": "penalty",
                    "gradient": "exact",
                    "weights": "default",
                },
                "unit": "L-BFGS-B evaluations per start",
                "default": DEFAULT_MAX_EVALS,
                "states": STATES,
                "repeats": REPEATS,
                "table1": {"cycle": "us06", "repeat": REPEAT_SWEEP},
                "budgets": frontier,
                "provenance": provenance(),
            }
        },
    )

    print()
    for evals, row in frontier.items():
        cells = row["table1_otem"]
        print(
            f"{evals:>3} evals: {row['solve_s']['median'] * 1e3:6.1f} ms median "
            f"solve ({row['solve_ratio_to_default']['median']:.2f}x the "
            f"default's), mean cost {row['mean_cost']:.6g}, starts {row['starts']}; "
            "Table I OTEM qloss / kW "
            + ", ".join(
                f"{c['qloss_percent']:.4g} / {c['average_power_w'] / 1e3:.2f}"
                for c in cells.values()
            )
        )
    print(f"-> {path}")
