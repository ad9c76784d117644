"""Colored noise: correlation kernels, exact path sampling, covariance checks.

The driving process is stationary Ornstein-Uhlenbeck with covariance
``alpha(t, s) = (gamma/2) * exp(-gamma |t - s|)``, which the sampler
discretizes exactly (the one-step transition is Gaussian with known mean
and variance, so no integrator error enters at any step size).  The
recursion is evaluated as a blocked scan over a batch of paths, which
rounds differently from stepping it node by node but discretizes the same
process.  Streams are
counter-based (Philox) and keyed by (master_seed, trajectory_index): paths
are reproducible across runs and independent of sampling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import InvalidParameterError, TimeGrid, _decay_scan

__all__ = [
    "CorrelationKernel",
    "NoisePath",
    "kernel_eval",
    "sample_exponential_noise",
    "empirical_covariance",
]


@dataclass(frozen=True)
class CorrelationKernel:
    """Two-time covariance of the driving noise, alpha(t,s) = gamma/2 e^{-gamma|t-s|}."""

    gamma: float

    def __post_init__(self):
        g = self.gamma
        if not (math.isfinite(g) and g > 0):
            raise InvalidParameterError(f"exponential kernel needs gamma > 0, got {g!r}")


def exponential_kernel(gamma: float) -> CorrelationKernel:
    return CorrelationKernel(gamma=float(gamma))


def kernel_eval(kernel: CorrelationKernel, t: np.ndarray | float, s: np.ndarray | float):
    """Evaluate alpha(t, s); arrays broadcast."""
    lag = np.abs(np.asarray(t, dtype=float) - np.asarray(s, dtype=float))
    out = 0.5 * kernel.gamma * np.exp(-kernel.gamma * lag)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NoisePath:
    """One realization w(s_i) on a uniform grid, with its provenance key."""

    grid: TimeGrid
    values: np.ndarray
    master_seed: int
    trajectory_index: int

    def restrict(self, k: int) -> "NoisePath":
        """First k nodes of this path (consistent shorter-horizon view)."""
        return NoisePath(grid=self.grid.prefix(k), values=self.values[:k],
                         master_seed=self.master_seed, trajectory_index=self.trajectory_index)


def _generator(master_seed: int, trajectory_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[master_seed, trajectory_index]))


def sample_exponential_noise(
    gamma: float,
    grid: TimeGrid,
    master_seed: int,
    trajectory_index: int = 0,
) -> NoisePath:
    """Draw one exact stationary OU path on the grid.

    w(0) ~ N(0, gamma/2); w_{k+1} = rho w_k + sqrt((gamma/2)(1-rho^2)) xi_k
    with rho = exp(-gamma dt).  These are the exact marginals/transitions of
    the stationary process, so subsampling a path to a coarser node set
    yields a path with the law of the coarser-grid sampler.  The path is the
    one-row case of sample_exponential_noise_batch, which evaluates this
    recursion as a blocked scan.
    """
    w = sample_exponential_noise_batch(gamma, grid, master_seed, [trajectory_index])[0]
    return NoisePath(grid=grid, values=w, master_seed=master_seed,
                     trajectory_index=trajectory_index)


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
    else into a new array; either is returned.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise InvalidParameterError(f"gamma must be positive and finite, got {gamma!r}")
    idx = list(trajectory_indices)
    n = grid.n
    w = np.empty((len(idx), n)) if out is None else out
    for r, i in enumerate(idx):
        _generator(master_seed, i).standard_normal(n, out=w[r])
    rho = math.exp(-gamma * grid.dt)
    w[:, 0] *= math.sqrt(gamma / 2.0)
    w[:, 1:] *= math.sqrt((gamma / 2.0) * (1.0 - rho * rho))
    return _decay_scan(gamma * grid.dt, w)


def empirical_covariance(
    paths: np.ndarray,
    grid: TimeGrid,
    lags: Iterable[int] = (0, 1, 2, 4, 8),
) -> dict[int, float]:
    """Average of w_i(s) w_i(s+lag dt) over trajectories and s, per lag.

    Output maps lag (in steps) to the estimated covariance; compare against
    kernel_eval at the same lag.  Uses every admissible start node, so the
    estimator variance shrinks with both n_traj and grid length.
    """
    paths = np.atleast_2d(np.asarray(paths))
    out: dict[int, float] = {}
    for lag in lags:
        if lag >= grid.n:
            raise InvalidParameterError(f"lag {lag} too large for grid of {grid.n} nodes")
        prod = paths[:, : grid.n - lag] * paths[:, lag: grid.n]
        out[int(lag)] = float(prod.mean())
    return out
