"""The benchmark's workloads: seeded scenario grids, warm-up and checks.

Each workload turns the benchmark seed into a list of
:class:`repro.sim.scenario.Scenario` - the only input the program sees -
and knows how to warm a process up, what each timed ``run_batch`` pass
needs, and how to check the cells that come back.  Why each workload
exists is recorded in ``BENCHMARK.json`` and in README.md next to this
file.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics

from repro.core.lbfgsb_lockstep import lockstep_available
from repro.service.jobs import service_row
from repro.sim.batch import run_batch, scenario_grid
from repro.sim.scenario import Scenario, run_scenario
from repro.store import ExperimentStore

#: Table I bank sizes [F], smallest first.
BANKS_F = (5_000.0, 10_000.0, 20_000.0, 25_000.0)

#: The paper's three baseline methodologies (Section IV-B).
BASELINES = ("parallel", "cooling", "dual")


def derived_seeds(workload: str, seed: int, count: int) -> list:
    """``count`` distinct route-perturbation seeds drawn from ``seed``.

    A string seed makes :class:`random.Random` hash with SHA-512, so the
    draw is the same in every process and on every platform.
    """
    return random.Random(f"{workload}:{seed}").sample(range(1_000_000), count)


def otem_ratios(rows: list, reference: str) -> tuple:
    """Mean OTEM / ``reference`` ratios of ``qloss_percent`` and
    ``average_power_w`` over cells matched on route and bank size."""

    def key(row):
        return row["cycle"], row["perturb_seed"], row["ucap_farads"]

    base = {key(r): r for r in rows if r["methodology"] == reference}
    pairs = [(r, base[key(r)]) for r in rows if r["methodology"] == "otem"]
    return (
        statistics.fmean(o["qloss_percent"] / b["qloss_percent"] for o, b in pairs),
        statistics.fmean(o["average_power_w"] / b["average_power_w"] for o, b in pairs),
    )


class PaperGrid:
    """Table I on the default path: US06 x1, four banks x four methodologies."""

    name = "paper_grid"
    reference = "parallel"

    def scenarios(self, seed: int) -> list:
        # the paper's own artefact is fixed; the seed changes nothing here
        return scenario_grid(
            Scenario(cycle="us06"),
            ucap_farads=BANKS_F,
            methodology=(*BASELINES, "otem"),
        )

    def prepare(self, scenarios: list, workdir: str) -> dict:
        lockstep_available()
        run_batch([s for s in scenarios if s.methodology == "parallel"])
        return {}

    def pass_kwargs(self, state: dict) -> dict:
        return {}

    def check(self, seed: int, scenarios: list, result) -> list:
        """The EXPERIMENTS.md Table I shape."""
        q = {
            (c.scenario.methodology, c.scenario.ucap_farads): c.metrics.qloss_percent
            for c in result.cells
        }
        otem_best = all(
            q[("otem", b)] < min(q[(m, b)] for m in BASELINES) for b in BANKS_F
        )
        grows = all(
            q[("parallel", small)] > q[("parallel", big)]
            for small, big in zip(BANKS_F, BANKS_F[1:])
        )
        losses = ", ".join(f"{q[('parallel', b)]:.4g}" for b in BANKS_F)
        return [
            ("table1_otem_lowest_qloss_at_every_size", otem_best, ""),
            ("table1_parallel_loss_grows_as_bank_shrinks", grows, f"parallel: {losses}"),
        ]


class MCEnsemble:
    """NYCC Monte-Carlo: {dual, vectorized OTEM} x 32 perturbed routes."""

    name = "mc_ensemble"
    reference = "dual"
    MEMBERS = 32
    #: lockstep OTEM columns the check re-runs on the scalar engine
    SAMPLED = 2

    def scenarios(self, seed: int) -> list:
        seeds = derived_seeds(self.name, seed, self.MEMBERS)
        dual = [Scenario(methodology="dual", cycle="nycc", perturb_seed=s) for s in seeds]
        otem = [
            Scenario(
                methodology="otem",
                cycle="nycc",
                rollout_backend="vectorized",
                perturb_seed=s,
            )
            for s in seeds
        ]
        return dual + otem

    def prepare(self, scenarios: list, workdir: str) -> dict:
        lockstep_available()
        m = self.MEMBERS
        run_batch(scenarios[:2] + scenarios[m : m + 2])
        return {}

    def pass_kwargs(self, state: dict) -> dict:
        return {}

    def check(self, seed: int, scenarios: list, result) -> list:
        """Sampled lockstep OTEM columns equal their scalar-engine runs:
        identical solver stats and ``qloss_percent`` within 1e-9 relative
        (the contract benchmarks/bench_mpc_ensemble.py uses)."""
        rng = random.Random(f"{self.name}:check:{seed}")
        out = []
        for i in rng.sample(range(self.MEMBERS, 2 * self.MEMBERS), self.SAMPLED):
            cell = result.cells[i]
            ref = run_scenario(scenarios[i])
            q_ref = ref.metrics.qloss_percent
            rel = abs(cell.metrics.qloss_percent - q_ref) / abs(q_ref)
            out.append(
                (
                    f"scalar_rerun_cell_{i}",
                    cell.engine_backend == "lockstep"
                    and cell.solver == ref.solver
                    and rel <= 1e-9,
                    f"{cell.engine_backend} column, qloss rel diff {rel:.3g}",
                )
            )
        return out


class StoreResweep:
    """Baselines x banks x 64 NYCC routes against a half-filled store."""

    name = "store_resweep"
    reference = None  # no OTEM cells, so no quality ratio
    SEEDS = 64

    def scenarios(self, seed: int) -> list:
        return scenario_grid(
            Scenario(cycle="nycc"),
            methodology=BASELINES,
            ucap_farads=BANKS_F,
            perturb_seed=derived_seeds(self.name, seed, self.SEEDS),
        )

    def prepare(self, scenarios: list, workdir: str) -> dict:
        """Fill a template store with every other cell; each pass copies it."""
        lockstep_available()
        template = os.path.join(workdir, "template")
        run_batch(scenarios[1::2], store=ExperimentStore(template))
        return {"template": template, "pass_dir": os.path.join(workdir, "pass")}

    def pass_kwargs(self, state: dict) -> dict:
        shutil.rmtree(state["pass_dir"], ignore_errors=True)
        shutil.copytree(state["template"], state["pass_dir"])
        # write the copy back now: left dirty, the file system flushes it
        # inside the timed pass, at the store's first commit
        os.sync()
        return {"store": ExperimentStore(state["pass_dir"])}

    def check(self, seed: int, scenarios: list, result) -> list:
        """Half the cells hit, half compute; the rows served equal a cold
        computation of the same cells (cell wall times aside)."""
        half = len(scenarios) // 2
        cold = run_batch(scenarios)

        def view(cell):
            row = service_row(cell)
            row.pop("wall_s")
            return row

        same = [view(a) == view(b) for a, b in zip(result.cells, cold.cells)]
        return [
            (
                "store_hits_and_misses",
                result.cache_hits == half and result.cache_misses == half,
                f"{result.cache_hits} hits, {result.cache_misses} misses",
            ),
            (
                "service_rows_equal_cold_computation",
                all(same),
                f"{same.count(False)} of {len(same)} rows differ",
            ),
        ]


WORKLOADS = {w.name: w for w in (PaperGrid(), MCEnsemble(), StoreResweep())}
