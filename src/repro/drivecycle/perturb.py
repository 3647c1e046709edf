"""Deterministic traffic-variation ensembles of a drive cycle.

Real drivers never trace a cycle exactly; robustness studies need an
ensemble of plausible variations.  :func:`perturbed` produces a variant of
a cycle by (seeded, reproducible) random modulation of three traffic-like
degrees of freedom:

* **speed scaling** - a slowly varying multiplicative factor (traffic
  density ebbing and flowing),
* **stop jitter** - existing stops stretched or shortened (lights),
* **micro-ripple** - small band-limited speed flutter.

The perturbation preserves the cycle's gross structure: starts and ends
stopped, non-negative speeds, accelerations bounded by a physical cap.
"""

from __future__ import annotations

import numpy as np

from repro.drivecycle.cycle import DriveCycle
from repro.utils.validation import check_in_range, check_positive


def _smooth_noise(rng: np.random.Generator, n: int, period_s: int, dt: float) -> np.ndarray:
    """Band-limited unit-variance noise via coarse samples + interpolation."""
    knots = max(3, int(round(n * dt / period_s)) + 2)
    coarse = rng.standard_normal(knots)
    x_knots = np.linspace(0, n - 1, knots)
    return np.interp(np.arange(n), x_knots, coarse)


def perturbed(
    cycle: DriveCycle,
    seed: int,
    speed_scale_sigma: float = 0.06,
    stop_jitter_s: float = 8.0,
    ripple_sigma_mps: float = 0.25,
    max_accel_ms2: float = 4.0,
) -> DriveCycle:
    """A traffic-variation variant of ``cycle`` (deterministic per seed).

    Parameters
    ----------
    cycle:
        The base cycle.
    seed:
        Ensemble member index; the same seed always yields the same trace.
    speed_scale_sigma:
        Standard deviation of the slow multiplicative speed modulation.
    stop_jitter_s:
        Up to this many seconds added to (or removed from, where possible)
        each stopped interval.
    ripple_sigma_mps:
        Standard deviation of the micro-ripple [m/s].
    max_accel_ms2:
        Physical acceleration cap re-imposed after perturbation [m/s^2];
        a finite positive number.
    """
    check_in_range(speed_scale_sigma, 0.0, 0.5, "speed_scale_sigma")
    check_in_range(stop_jitter_s, 0.0, 120.0, "stop_jitter_s")
    check_in_range(ripple_sigma_mps, 0.0, 5.0, "ripple_sigma_mps")
    check_positive(max_accel_ms2, "max_accel_ms2")
    rng = np.random.default_rng(seed)
    speed = cycle.speed_mps.copy()
    n = speed.size
    dt = cycle.dt

    # 1. slow multiplicative modulation
    scale = 1.0 + speed_scale_sigma * _smooth_noise(rng, n, period_s=120, dt=dt)
    speed = speed * np.clip(scale, 0.5, 1.5)

    # 2. stop jitter: rebuild the trace with stretched/compressed stops
    stopped = speed <= DriveCycle.STOP_SPEED_MPS
    edges = (np.flatnonzero(stopped[1:] != stopped[:-1]) + 1).tolist()
    pieces = []
    for i, j in zip([0, *edges], [*edges, n]):
        segment = speed[i:j]
        if stopped[i] and i > 0 and j < n:
            delta = int(round(rng.uniform(-stop_jitter_s, stop_jitter_s) / dt))
            segment = np.zeros(max(1, segment.size + delta))
        pieces.append(segment)
    speed = np.concatenate(pieces)

    # 3. micro-ripple on moving samples only
    ripple = ripple_sigma_mps * _smooth_noise(rng, speed.size, period_s=15, dt=dt)
    moving = speed > DriveCycle.STOP_SPEED_MPS
    speed = np.where(moving, speed + ripple, speed)

    # restore invariants: non-negative, bounded acceleration, stopped ends
    speed = np.clip(speed, 0.0, None)
    speed[0] = 0.0
    speed[-1] = 0.0
    cap = max_accel_ms2 * dt
    # the passes' own comparisons, over the whole trace at once: where no
    # sample exceeds its neighbour by more than the cap, neither pass
    # changes a sample (the default cap never binds on the built-in cycles)
    if np.any(speed[1:] > speed[:-1] + cap) or np.any(speed[:-1] > speed[1:] + cap):
        # plain floats: indexing an array element by element costs more
        # than the comparison itself
        v = speed.tolist()
        for k in range(1, len(v)):  # forward pass caps accelerations
            if v[k] > v[k - 1] + cap:
                v[k] = v[k - 1] + cap
        for k in range(len(v) - 2, -1, -1):  # backward pass caps decelerations
            if v[k] > v[k + 1] + cap:
                v[k] = v[k + 1] + cap
        speed = np.array(v)

    return DriveCycle(f"{cycle.name}~{seed}", speed, dt)
