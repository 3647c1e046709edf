"""Self-tests of the benchmark's helpers.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import time
import types

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import spans  # noqa: E402
import workloads  # noqa: E402
from repro.sim.batch import scenario_fingerprint  # noqa: E402


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
        got = spans.self_times(
            names=["root", "a", "g", "b"],
            starts=[0.0, 1.0, 2.0, 5.0],
            ends=[10.0, 4.0, 3.0, 9.0],
            parents=[-1, 0, 1, 0],
        )
        assert got == {"root": 3.0, "a": 2.0, "g": 1.0, "b": 4.0}
        assert sum(got.values()) == 10.0  # self times tile the root span

    def test_spans_sharing_a_name_add_up(self):
        got = spans.self_times(
            names=["step", "step", "run"],
            starts=[1.0, 3.0, 0.0],
            ends=[2.0, 5.0, 6.0],
            parents=[2, 2, -1],
        )
        assert got == {"step": 3.0, "run": 3.0}

    def test_recorder_nests_wrapped_calls(self):
        rec = spans.SpanRecorder()
        inner = rec.wrap("inner", lambda: time.sleep(0.01))
        outer = rec.wrap("outer", lambda: inner(), count=lambda a, r: {"outer.n": 2})
        outer()
        outer()
        assert rec.calls() == {"outer": 2, "inner": 2}
        assert list(rec.parent) == [-1, 0, -1, 2]
        assert rec.counts["outer.n"] == 4
        own = rec.self_times()
        assert own["inner"] >= 0.02 > own["outer"] >= 0.0

    def test_callback_argument_is_traced_as_a_child(self):
        rec = spans.SpanRecorder()
        driver = rec.wrap(
            "driver", lambda fun, x: fun(x) + fun(x), callback=(0, "objective")
        )
        assert driver(lambda x: x * 2, 3) == 12
        assert rec.calls() == {"driver": 1, "objective": 2}
        assert list(rec.parent) == [-1, 0, 0]

    def test_context_is_inherited_by_children(self):
        rec = spans.SpanRecorder()
        leaf = rec.wrap("leaf", lambda: None)
        cell = rec.wrap("cell", lambda i: leaf(), context=lambda args: f"cell:{args[0]}")
        cell(7)
        leaf()
        assert [rec.context_of(i) for i in range(len(rec))] == ["cell:7", "cell:7", ""]


class TestProbes:
    def test_installed_patches_and_restores(self):
        class Plant:
            def step(self, x):
                return x + 1

        module = types.SimpleNamespace(run=lambda x: x * 10)
        original_step, original_run = Plant.__dict__["step"], module.run
        rec = spans.SpanRecorder()
        probe_list = [spans.Probe("plant", Plant, "step"), spans.Probe("run", module, "run")]
        with spans.installed(rec, probe_list):
            assert Plant().step(1) == 2 and module.run(2) == 20
        assert rec.calls() == {"plant": 1, "run": 1}
        assert Plant.__dict__["step"] is original_step and module.run is original_run

    def test_every_probe_target_exists(self):
        # a renamed or moved function fails here, before any benchmark run
        probe_list = spans.probes({})
        with spans.installed(spans.SpanRecorder(), probe_list):
            pass
        layer_spans = {s for group in spans.LAYER_SPANS.values() for s in group}
        callbacks = {p.callback[1] for p in probe_list if p.callback}
        assert layer_spans <= {p.span for p in probe_list} | callbacks

    def test_guard_table_covers_every_layer(self):
        assert set(spans.EXPECTED_CALLS) == set(spans.LAYER_SPANS)
        for expected in spans.EXPECTED_CALLS.values():
            assert set(expected) <= set(workloads.WORKLOADS)


def _fingerprints(workload, seed):
    return [scenario_fingerprint(s) for s in workload.scenarios(seed)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_fingerprints(name):
    workload = workloads.WORKLOADS[name]
    assert _fingerprints(workload, 11) == _fingerprints(workload, 11)


@pytest.mark.parametrize("name", ["mc_ensemble", "store_resweep"])
def test_seeded_workloads_change_with_the_seed(name):
    workload = workloads.WORKLOADS[name]
    assert set(_fingerprints(workload, 11)).isdisjoint(_fingerprints(workload, 12))


def test_grid_sizes():
    sizes = {name: len(w.scenarios(0)) for name, w in workloads.WORKLOADS.items()}
    assert sizes == {"paper_grid": 16, "mc_ensemble": 64, "store_resweep": 768}


def test_otem_ratios_pair_cells_on_route_and_bank():
    def row(methodology, bank, q, p):
        return {
            "methodology": methodology,
            "cycle": "us06",
            "perturb_seed": None,
            "ucap_farads": bank,
            "qloss_percent": q,
            "average_power_w": p,
        }

    rows = [
        row("parallel", 5e3, 2.0, 100.0),
        row("otem", 5e3, 1.0, 150.0),
        row("parallel", 25e3, 4.0, 100.0),
        row("otem", 25e3, 1.0, 50.0),
    ]
    assert workloads.otem_ratios(rows, "parallel") == (0.375, 1.0)
