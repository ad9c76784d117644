"""Colored noise: the correlation kernel and exact path sampling.

The driving process is stationary Ornstein-Uhlenbeck with covariance
``alpha(t, s) = (gamma/2) * exp(-gamma |t - s|)``, which the sampler
discretizes exactly (the one-step transition is Gaussian with known mean
and variance, so no integrator error enters at any step size).  The
recursion is evaluated as a blocked scan over a batch of paths, which
rounds differently from stepping it node by node but discretizes the same
process.  Streams are
counter-based (Philox) and keyed by (master_seed, trajectory_index): paths
are reproducible across runs and independent of sampling order.  Both parts
of a key are integers in [0, 2**64), and every master seed keys its own
streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import TimeGrid, _as_int, _as_real, _decay_scan, _scan_growth


def exponential_kernel(gamma: float) -> float:
    """The rate gamma of alpha(t, s) as a float: the one check of a finite gamma."""
    return _as_real(gamma, "gamma", "positive")


def _ou_covariance(gamma: float, t, s) -> np.ndarray:
    """alpha(t, s) = gamma/2 e^{-gamma|t-s|}; arrays broadcast."""
    return 0.5 * gamma * np.exp(-gamma * np.abs(np.subtract(t, s, dtype=float)))


@dataclass(frozen=True)
class NoisePath:
    """One realization w(s_i) on a uniform grid; values[i] is w at node i."""

    grid: TimeGrid
    values: np.ndarray


def sample_exponential_noise(
    gamma: float,
    grid: TimeGrid,
    master_seed: int,
    trajectory_index: int = 0,
) -> NoisePath:
    """Draw one exact stationary OU path on the grid.

    w(0) ~ N(0, gamma/2); w_{k+1} = rho w_k + sqrt((gamma/2)(1-rho^2)) xi_k
    with rho = exp(-gamma dt) and 1 - rho^2 taken as -expm1(-2 gamma dt),
    which keeps its digits where gamma dt is small.  These are the exact
    marginals/transitions of the stationary process, so subsampling a path
    to a coarser node set yields a path with the law of the coarser-grid
    sampler.  The path is the one-row case of sample_exponential_noise_batch,
    which evaluates this recursion as a blocked scan.
    """
    w = sample_exponential_noise_batch(gamma, grid, master_seed, [trajectory_index])[0]
    return NoisePath(grid=grid, values=w)


def _step_deviation(gamma: float, dt: float) -> float:
    """sqrt((gamma/2)(1 - rho^2)), rho = e^{-gamma dt}: the deviation of one
    step of the OU recursion, without the cancellation of 1 - rho^2."""
    return math.sqrt((gamma / 2.0) * -math.expm1(-2.0 * gamma * dt))


def sample_exponential_noise_batch(
    gamma: float,
    grid: TimeGrid,
    master_seed: int,
    trajectory_indices: Iterable[int],
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rows of independent OU paths, row i keyed by trajectory_indices[i].

    The recursion of sample_exponential_noise runs as one blocked scan over
    all rows (_decay_scan), in place on the drawn normals: the same exact
    discretization, whose rounding differs from the step-by-step recursion
    by less than N ulps of the path's scale (mostly the recursion's own
    drift from raising a rounded rho to the k-th power one product at a
    time).  Each row depends on its key only,
    whatever the other rows of the batch.  The rows are written into out
    (C-contiguous float, one row per key, grid.n columns) when it is given,
    else into a new array; either is returned.  The master seed and every
    trajectory index must be an integer (not a bool) in [0, 2**64).
    """
    gamma = exponential_kernel(gamma)
    seed = _as_int(master_seed, "master_seed", 0, 2 ** 64)
    idx = [_as_int(i, "trajectory index", 0, 2 ** 64) for i in trajectory_indices]
    n = grid.n
    w = np.empty((len(idx), n)) if out is None else out
    # One Philox, reset to the fresh state of key (master_seed, i) per row.
    # The key is built as uint64: a list of Python ints above 2**63 would
    # pass through float64 and collide with other seeds.
    bits = np.random.Philox(counter=0, key=np.zeros(2, dtype=np.uint64))
    normals = np.random.Generator(bits)
    fresh = bits.state
    for r, i in enumerate(idx):
        fresh["state"]["key"] = np.array([seed, i], dtype=np.uint64)
        bits.state = fresh
        normals.standard_normal(n, out=w[r])
    # the scan's sources grown by e^{gamma dt i_j}, scaled in the same
    # multiply: sqrt(gamma/2) at node 0 (growth 1), the step deviation after
    z = gamma * grid.dt
    scale = _scan_growth(z, n)
    scale *= _step_deviation(gamma, grid.dt)
    scale[0] = math.sqrt(gamma / 2.0)
    w *= scale
    del scale       # before the scan makes its own table of the grid's length
    return _decay_scan(z, w)
