"""Both engines against their recorded output (``engine_golden.json``).

``test_engine_vec.py`` compares the engines with each other, so a fault in
what they share passes it; this test pins each engine's absolute output.
Every cell's ``SummaryMetrics`` must match the fixture within 1e-12
relative (baselines) or 1e-9 (OTEM, the contract the ``mc_ensemble`` check
uses), with equal solve and iteration counts.  The channel digests in the
fixture are not compared here: NumPy's SIMD kernels round differently
across CPUs, so exact digests are for ``python -m tests.sim.engine_digest
--check`` on one machine.  Re-record with ``--write`` only for a change
that is meant to move the numbers.
"""

from __future__ import annotations

import json
import math

import pytest

from tests.sim.engine_digest import FIXTURE, run_set

RECORDED = json.loads(FIXTURE.read_text())["cells"]


@pytest.fixture(scope="module")
def cells():
    return run_set("golden")


def test_golden_set_is_the_recorded_set(cells):
    assert sorted(cells) == sorted(RECORDED)


@pytest.mark.parametrize("cid", sorted(RECORDED))
def test_cell_matches_golden(cells, cid):
    got, want = cells[cid], RECORDED[cid]
    rel_tol = 1e-9 if "/otem/" in cid else 1e-12
    for name, value in want["metrics"].items():
        expected = float.fromhex(value)
        actual = float.fromhex(got["metrics"][name])
        assert math.isclose(actual, expected, rel_tol=rel_tol, abs_tol=0.0), (
            f"{name}: {actual!r} != {expected!r}"
        )
    if want["solver"] is None:
        assert got["solver"] is None
    else:
        for key in ("solves", "total_iterations"):
            assert got["solver"][key] == want["solver"][key], key
