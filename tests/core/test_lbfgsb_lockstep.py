"""The lockstep L-BFGS-B driver: bitwise parity with scipy's wrapper.

``minimize_lockstep`` replays scipy's own reverse-communication loop
around ``_lbfgsb.setulb`` for S problems at once, so each problem's
iterate sequence - and therefore its solution, cost, iteration count, and
evaluation count - must be *bitwise* what ``scipy.optimize.minimize``
produces for that problem alone.  Anything less would make the batched
MPC planner a different solver rather than a faster one.
"""

import re

import numpy as np
import pytest
import scipy
from scipy import optimize
from scipy.optimize import _lbfgsb

from repro.core.lbfgsb_lockstep import (
    DriverResult,
    lockstep_available,
    minimize_lockstep,
)

NVAR = 6


def _objective(j):
    """Problem j: a shifted convex quartic with per-problem curvature."""

    center = 0.15 + 0.1 * j

    def f_and_g(x):
        d = x - center
        f = float(np.sum(d**4 + (0.5 + 0.1 * j) * d**2))
        g = 4.0 * d**3 + 2.0 * (0.5 + 0.1 * j) * d
        return f, g

    return f_and_g


def _batch_evaluate(X, idx):
    f = np.empty(X.shape[0])
    G = np.empty_like(X)
    for r in range(X.shape[0]):
        f[r], G[r] = _objective(int(idx[r]))(X[r])
    return f, G


def _reference(j, x0, maxfun):
    return optimize.minimize(
        _objective(j),
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, 1.0)] * NVAR,
        options={"maxfun": maxfun, "maxiter": 60, "ftol": 1e-12, "gtol": 1e-5},
    )


class TestBitwiseParity:
    def test_driver_is_available(self):
        """The probe must accept this scipy's setulb signature - otherwise
        every vectorized OTEM solve raises."""
        assert lockstep_available()

    def test_heterogeneous_problems_match_scipy(self):
        """7 problems, different objectives and starts, one shared loop."""
        rng = np.random.default_rng(7)
        x0s = rng.uniform(0.0, 1.0, size=(7, NVAR))
        results = minimize_lockstep(_batch_evaluate, x0s, [120] * 7)
        assert len(results) == 7
        for j, res in enumerate(results):
            ref = _reference(j, x0s[j], 120)
            assert isinstance(res, DriverResult)
            np.testing.assert_array_equal(res.x, np.asarray(ref.x))
            assert res.fun == float(ref.fun)
            assert res.nit == int(ref.nit)
            assert res.nfev == int(ref.nfev)
            assert res.converged == (ref.status == 0)

    def test_ragged_budgets(self):
        """Per-problem maxfun - the warm/cold race gives racers different
        budgets, and a starved problem must stop exactly where scipy's
        would."""
        rng = np.random.default_rng(3)
        x0s = rng.uniform(0.0, 1.0, size=(4, NVAR))
        budgets = [3, 10, 60, 120]
        results = minimize_lockstep(_batch_evaluate, x0s, budgets)
        for j, (res, budget) in enumerate(zip(results, budgets)):
            ref = _reference(j, x0s[j], budget)
            np.testing.assert_array_equal(res.x, np.asarray(ref.x))
            assert res.fun == float(ref.fun)
            assert res.nfev == int(ref.nfev)
        # the starved problems genuinely hit their budget, not convergence
        assert not results[0].converged

    def test_out_of_bounds_start_clipped_like_scipy(self):
        x0 = np.array([[-0.5, 1.5, 0.3, 0.3, 0.3, 0.3]])
        (res,) = minimize_lockstep(_batch_evaluate, x0, [80])
        ref = _reference(0, x0[0], 80)
        np.testing.assert_array_equal(res.x, np.asarray(ref.x))
        assert res.fun == float(ref.fun)

    def test_budget_mismatch_rejected(self):
        with pytest.raises(ValueError, match="maxfuns"):
            minimize_lockstep(_batch_evaluate, np.full((2, NVAR), 0.5), [10])

    def test_1d_x0_rejected(self):
        with pytest.raises(ValueError, match="x0s"):
            minimize_lockstep(_batch_evaluate, np.full(NVAR, 0.5), [10])


class TestProbe:
    """The driver has one path: a setulb it cannot drive is an error."""

    X0S = np.full((2, NVAR), 0.5)

    def test_setulb_signature_drift_raises(self, replace_setulb):
        def old_setulb(*args):
            raise TypeError(f"setulb() takes 18 arguments ({len(args)} given)")

        replace_setulb(old_setulb)
        with pytest.raises(TypeError, match="takes 18 arguments"):
            minimize_lockstep(_batch_evaluate, self.X0S, [40, 40])

    def test_setulb_protocol_drift_raises(self, replace_setulb):
        """A setulb that runs but steps elsewhere than scipy's own loop
        fails the bitwise probe, naming the installed scipy."""

        def drifting_setulb(m, x, *args):
            _lbfgsb.setulb(m, x, *args)
            x *= 1.0 - 1e-9

        replace_setulb(drifting_setulb)
        with pytest.raises(RuntimeError, match=re.escape(scipy.__version__)):
            minimize_lockstep(_batch_evaluate, self.X0S, [40, 40])
