"""Lockstep multi-problem L-BFGS-B driver.

Runs S *independent* bound-constrained minimizations simultaneously by
driving one reverse-communication L-BFGS-B state machine per problem
(``scipy.optimize._lbfgsb.setulb``) and batching the function+gradient
requests of every problem that needs one into a single stacked callback
call per round.  Each problem follows exactly the iteration protocol of
``scipy.optimize._lbfgsb_py._minimize_lbfgsb`` — same task codes, same
``maxiter``/``maxfun`` postponement points, same function-value cache of
one — so a problem advanced here produces the bitwise-identical iterate
sequence it would produce under ``scipy.optimize.minimize`` with the
same function.  The only thing that changes is *when* the evaluations
happen: grouped across problems instead of interleaved per problem.

Why this exists: the batched MPC solver (``repro.core.mpc``) wants to
solve one penalty program per scenario.  The programs are independent —
coupling them into one joint decision vector would let one scenario's
line search contaminate another's iterate sequence and break the
per-scenario equivalence contract.  Driving S state machines in lockstep
keeps every scenario's trajectory exactly what a scalar solve would
produce while still paying only ~max(rounds) stacked kernel calls
instead of sum(rounds) scalar ones.

Every problem lives in the unit box ``[0, 1]^nvar`` (the MPC's
normalized decision space) and runs under the MPC's fixed settings
(:data:`MAXITER`, :data:`FTOL`, :data:`GTOL`); only the per-problem
evaluation budget varies.

``setulb`` is a private scipy interface whose 17-argument form (ending
``maxls, ln_task``) arrived with scipy's C port of L-BFGS-B in 1.15.  The
driver therefore probes it once (first use) against
``scipy.optimize.minimize`` on a reference problem; a mismatch raises
``RuntimeError`` naming the installed scipy, and any error the probe hits
propagates.  There is no second path.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Sequence

import numpy as np
import scipy
from scipy import optimize
from scipy.optimize import _lbfgsb as _lbfgsb_mod

#: Maximum L-BFGS-B corrections (scipy's ``maxcor`` default).
MAXCOR = 10
#: Maximum line-search steps per iteration (scipy's ``maxls`` default).
MAXLS = 20
#: Iteration cap of every MPC penalty solve.
MAXITER = 60
#: Relative objective-decrease tolerance of every MPC penalty solve.
FTOL = 1e-12
#: Projected-gradient tolerance of every MPC penalty solve (scipy's default).
GTOL = 1e-5
# setulb takes the ftol as a multiple of machine epsilon
_FACTR = FTOL / np.finfo(float).eps

# evaluate(X: (B, nvar), idx: (B,)) -> (f: (B,), G: (B, nvar))
BatchEvaluate = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclasses.dataclass(frozen=True)
class DriverResult:
    """Per-problem outcome, mirroring the ``OptimizeResult`` fields we use."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    converged: bool


class _Problem:
    """One L-BFGS-B state machine, one scipy-equivalent iterate sequence.

    The function cache mirrors ``ScalarFunction``: it holds the (f, g)
    of the most recent distinct evaluation point, keyed by
    ``np.array_equal`` against that point, and ``nfev`` counts distinct
    evaluations including the eager one at x0.
    """

    def __init__(self, index: int, x0: np.ndarray, maxfun: int) -> None:
        n = x0.shape[0]
        m = MAXCOR
        self.index = index
        self.lower = np.zeros(n)
        self.upper = np.ones(n)
        self.x = np.clip(x0, 0.0, 1.0).astype(np.float64)
        self.f: np.ndarray | float = np.array(0.0, dtype=np.float64)
        self.g = np.zeros(n, dtype=np.float64)
        self.nbd = np.full(n, 2, dtype=np.int32)  # both bounds finite
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m, np.float64)
        self.iwa = np.zeros(3 * n, np.int32)
        self.task = np.zeros(2, np.int32)
        self.ln_task = np.zeros(2, np.int32)
        self.lsave = np.zeros(4, np.int32)
        self.isave = np.zeros(44, np.int32)
        self.dsave = np.zeros(29, np.float64)
        self.maxfun = maxfun
        self.n_iterations = 0
        self.nfev = 0
        self.done = False
        self.x_cache: np.ndarray | None = None
        self.f_cache = 0.0
        self.g_cache: np.ndarray | None = None

    def deliver(self, f: float, g: np.ndarray) -> None:
        """Record a fresh evaluation at the current x (one nfev)."""
        self.x_cache = self.x.copy()
        self.f_cache = float(f)
        self.g_cache = np.asarray(g, dtype=np.float64).copy()
        self.nfev += 1
        self.f = self.f_cache
        self.g = self.g_cache

    def advance(self) -> np.ndarray | None:
        """Run setulb until a *new* evaluation point or termination.

        Returns a snapshot of the point to evaluate, or None if the
        problem terminated (``self.done`` set).  Requests at the cached
        point are served inline without consuming budget, exactly as
        ``ScalarFunction.fun_and_grad`` would.
        """
        while True:
            _lbfgsb_mod.setulb(
                MAXCOR,
                self.x,
                self.lower,
                self.upper,
                self.nbd,
                self.f,
                np.asarray(self.g, dtype=np.float64),
                _FACTR,
                GTOL,
                self.wa,
                self.iwa,
                self.task,
                self.lsave,
                self.isave,
                self.dsave,
                MAXLS,
                self.ln_task,
            )
            if self.task[0] == 3:
                if self.x_cache is not None and np.array_equal(self.x, self.x_cache):
                    self.f = self.f_cache
                    self.g = self.g_cache
                    continue
                return self.x.copy()
            if self.task[0] == 1:
                self.n_iterations += 1
                if self.n_iterations >= MAXITER:
                    self.task[0] = 5
                    self.task[1] = 504
                elif self.nfev > self.maxfun:
                    self.task[0] = 5
                    self.task[1] = 502
                continue
            self.done = True
            return None

    def result(self) -> DriverResult:
        converged = bool(self.task[0] == 4)
        return DriverResult(
            x=self.x.copy(),
            fun=float(self.f),
            nit=self.n_iterations,
            nfev=self.nfev,
            converged=converged,
        )


def _run(
    evaluate: BatchEvaluate, x0s: np.ndarray, maxfuns: Sequence[int]
) -> list[DriverResult]:
    """The lockstep loop: :func:`minimize_lockstep` without its checks."""
    problems = [_Problem(j, x0, b) for j, (x0, b) in enumerate(zip(x0s, maxfuns))]
    # Round 0: ScalarFunction evaluates eagerly at x0 (one nfev each)
    # before the first setulb call; the first task==3 request is then
    # served from this cache.
    x_init = np.stack([p.x for p in problems])
    f0, g0 = evaluate(x_init, np.arange(len(problems)))
    for j, p in enumerate(problems):
        p.deliver(f0[j], g0[j])

    active = list(problems)
    while active:
        requests: list[tuple[_Problem, np.ndarray]] = []
        for p in active:
            point = p.advance()
            if point is not None:
                requests.append((p, point))
        active = [p for p in active if not p.done]
        if not requests:
            break
        batch = np.stack([point for _, point in requests])
        idx = np.array([p.index for p, _ in requests])
        fv, gv = evaluate(batch, idx)
        for row, (p, _) in enumerate(requests):
            p.deliver(fv[row], gv[row])
    return [p.result() for p in problems]


def _probe_driver() -> None:
    """Check the setulb protocol against optimize.minimize, bitwise.

    Runs a small convex-but-not-quadratic reference problem through both
    paths with an identical function and compares the full result tuple.
    Raises ``RuntimeError`` on a mismatch; errors either path hits (a
    changed ``setulb`` signature, say) propagate unchanged.
    """
    center = np.array([0.3, 0.85, 0.1, 0.6])
    x0 = np.array([0.9, 0.1, 0.7, 0.2])

    def fun_and_grad(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = z - center
        return np.sum(d**4 + 0.5 * d**2, axis=-1), 4.0 * d**3 + d

    def scalar(z: np.ndarray) -> tuple[float, np.ndarray]:
        f, g = fun_and_grad(z)
        return float(f), g

    (driven,) = _run(lambda batch, idx: fun_and_grad(batch), x0[None, :], [40])
    ref = optimize.minimize(
        scalar,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, 1.0)] * 4,
        options={"maxfun": 40, "maxiter": MAXITER, "ftol": FTOL, "gtol": GTOL},
    )
    if not (
        np.array_equal(driven.x, np.asarray(ref.x))
        and driven.fun == float(ref.fun)
        and driven.nit == int(ref.nit)
        and driven.nfev == int(ref.nfev)
    ):
        raise RuntimeError(
            f"the lockstep L-BFGS-B driver does not reproduce "
            f"scipy.optimize.minimize on scipy {scipy.__version__}; "
            "it needs the setulb protocol of scipy >= 1.15"
        )


@functools.cache
def lockstep_available() -> bool:
    """Probe the setulb driver once: ``True``, or the probe's error."""
    _probe_driver()
    return True


def minimize_lockstep(
    evaluate: BatchEvaluate, x0s: np.ndarray, maxfuns: Sequence[int]
) -> list[DriverResult]:
    """Minimize S independent problems over the unit box in lockstep.

    Parameters
    ----------
    evaluate
        Stacked objective: ``evaluate(X, idx) -> (f, G)`` where ``X`` is
        ``(B, nvar)``, ``idx`` maps each row to its problem index, and
        the return is ``(B,)`` values with ``(B, nvar)`` gradients.
    x0s
        ``(S, nvar)`` initial points (clipped to ``[0, 1]``, as scipy does).
    maxfuns
        Function-evaluation budget, one per problem.
    """
    x0s = np.asarray(x0s, dtype=np.float64)
    if x0s.ndim != 2:
        raise ValueError("x0s must be (S, nvar)")
    if len(maxfuns) != x0s.shape[0]:
        raise ValueError("len(maxfuns) must match the number of problems")
    lockstep_available()
    return _run(evaluate, x0s, maxfuns)
