"""Independent cross-check of the propagator coefficients.

Discretizes the path sum over polygonal paths on a uniform grid: kinetic
increments plus the noise drive plus the quadratic memory term, then
integrates out the interior nodes exactly (complex Gaussian reduction).
A..E are read off the Schur complement of the interior block.  On the grid
the stationarity equation of the path sum is the discrete kernel equation
(the interior block Q_ii is -dt times the collocation operator), so the
interior solves go to the collocation arbiter, kernels._collocation_solve,
in one O(n) call; no N x N array is formed, and assemble_action builds the
dense form (Q, L) as a reference.  Neither discrete route shares algebra with
the closed forms or with the single pass, so agreement with
greens_coefficients, whose C, D and E come from the ensemble's single pass,
is a genuine two-route check of the formulas every ensemble runs.
The reduction's measure factor pi^{k/2} / sqrt(det(-Q_ii)) depends on
neither the endpoints nor the noise and is left out, as the analytic E
vanishes at zero noise.  It depends on lam, though: it is the fluctuation
determinant that |B|/(2 pi) misses in the ensemble's norms (ROADMAP F12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameterError, PhysicalParams, TimeGrid
from .kernels import _check_horizon, _collocation_solve
# f_exponential and h_exponential are not called here; the benchmark's
# traced run wraps them here by name (guarded by tests/test_public_surface.py).
from .kernels import f_exponential, h_exponential  # noqa: F401
from .noise import NoisePath, _ou_covariance, exponential_kernel
from .propagator import GreensCoefficients, greens_coefficients

# Segment counts of oracle_convergence, coarsest first; each halves the step.
_LEVELS = (64, 128, 256, 512)


def _action_rows(params: PhysicalParams, gamma: float, noise: NoisePath,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The given rows of Q and all of L, see assemble_action."""
    gamma = exponential_kernel(gamma)
    grid = noise.grid
    n = grid.n
    eps = grid.dt
    s = grid.nodes()
    rho = np.ones(n)
    rho[0] = rho[-1] = 0.5

    alpha = _ou_covariance(gamma, s[rows, None], s[None, :])
    Q = (-params.lam * eps * eps * np.outer(rho[rows], rho) * alpha).astype(complex)
    kin = 1j * params.m / (2.0 * params.hbar * eps)
    at = np.arange(len(rows))
    Q[at, rows] += np.where((rows == 0) | (rows == n - 1), kin, 2.0 * kin)
    left, right = rows > 0, rows < n - 1
    Q[at[left], rows[left] - 1] -= kin
    Q[at[right], rows[right] + 1] -= kin

    L = eps * rho * math.sqrt(params.lam) * noise.values
    return Q, L.astype(complex)


def assemble_action(params: PhysicalParams, gamma: float,
                    noise: NoisePath) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic form (Q, L) of the discretized action exponent.

    For a polygonal path q on the noise grid the exponent is
    q^T Q q + L^T q with trapezoid weights rho on the time integrals:

        sum_j (i m / 2 hbar eps) (q_{j+1} - q_j)^2
      + sum_j eps rho_j sqrt(lam) w_j q_j
      - lam sum_{j,r} eps^2 rho_j rho_r alpha(s_j, s_r) q_j q_r
    """
    return _action_rows(params, gamma, noise, np.arange(noise.grid.n))


def _sweep_reduction(params: PhysicalParams, gamma: float, noise: NoisePath):
    """Endpoint exponent q_b^T S q_b + l^T q_b + c of the interior integral.

    With v = 2 Q_ib q_b + L_i the integral of exp(q^T Q q + L^T q) over q_i
    is exp(q_b^T Q_bb q_b + L_b^T q_b - v^T Q_ii^{-1} v / 4), so
    S = Q_bb - Q_bi Q_ii^{-1} Q_ib, l = L_b - Q_bi Q_ii^{-1} L_i and
    c = -L_i^T Q_ii^{-1} L_i / 4.  The interior rows of Q are -dt times the
    discrete kernel equation of the collocation arbiter, so one
    _collocation_solve with pinned ends gives all three: ends (1, 0) and
    (0, 1) with no interior source give the columns of S through the
    boundary rows of Q, and ends (0, 0) with the source -L_i/dt give
    Q_ii^{-1} L_i.
    """
    grid = noise.grid
    n = grid.n
    Qb, L = _action_rows(params, gamma, noise, np.array([0, n - 1]))
    rhs = np.zeros((3, n), dtype=complex)
    rhs[0, 0] = rhs[1, -1] = 1.0
    rhs[2, 1:-1] = -L[1:-1] / grid.dt
    v = _collocation_solve(params, gamma, grid, rhs).T
    Qv = Qb @ v
    return Qv[:, :2], L[[0, -1]] - Qv[:, 2], -0.25 * (L[1:-1] @ v[1:-1, 2])


@dataclass(frozen=True)
class OracleReport:
    """Reduced coefficients for one grid resolution."""

    n_segments: int
    coefficients: GreensCoefficients
    diag_asymmetry: float


def oracle_coefficients(t: float, params: PhysicalParams, gamma: float,
                        noise: NoisePath) -> OracleReport:
    """Read A..E from the discretized path sum on the noise's grid.

    The endpoint exponent q_b^T S q_b + l^T q_b + c matches
    -A (x0^2 + x^2) + B x0 x + C x0 + D x + E with A = -(S00 + S11)/2,
    B = 2 S01, (C, D) = l and E = c.  The propagator form has one A for
    both endpoints; diag_asymmetry = |S00 - S11| / max(|S00|, |S11|)
    measures how well the discrete sum respects that.
    """
    grid = noise.grid
    _check_horizon(t, grid)
    S, l, c = _sweep_reduction(params, gamma, noise)
    A, B = complex(-(S[0, 0] + S[1, 1]) / 2.0), complex(2.0 * S[0, 1])
    coeffs = GreensCoefficients(t=t, A=A, B=B, C=complex(l[0]), D=complex(l[1]),
                                E=complex(c), det=A * A - B * B / 4.0)
    asym = abs(S[0, 0] - S[1, 1]) / max(abs(S[0, 0]), abs(S[1, 1]))
    return OracleReport(n_segments=grid.n - 1, coefficients=coeffs,
                        diag_asymmetry=float(asym))


def oracle_convergence(t: float, params: PhysicalParams, gamma: float, noise: NoisePath):
    """Run the oracle at 64, 128, 256 and 512 segments, each against its own
    closed forms.

    The noise path must live on a grid of 512 segments; coarser levels take
    every 2^k-th node, which is an exact restriction of the Ornstein-Uhlenbeck
    path.  Each level is compared with greens_coefficients, the formulas the
    ensemble runs, on its own subsampled path, so both routes see the same
    noise samples.
    Returns a list of (report, per-coefficient relative errors, max
    relative error); a NaN error makes the max NaN.  At lambda = 0, and on
    a level whose noise path is zero, the noise coefficients C, D and E
    vanish identically and have no relative error, so both are refused.
    """
    if params.lam == 0.0:
        raise InvalidParameterError(
            "the oracle check needs lambda > 0: at lambda = 0 the noise "
            "coefficients C, D, E vanish and have no relative error")
    n_fine = noise.grid.n - 1
    if n_fine != _LEVELS[-1]:
        raise InvalidParameterError(
            f"noise grid has {n_fine} segments but the finest level is {_LEVELS[-1]}")
    out = []
    for n_seg in _LEVELS:
        coarse = TimeGrid(t_max=noise.grid.t_max, n=n_seg + 1)
        path = NoisePath(grid=coarse, values=noise.values[:: n_fine // n_seg])
        if not path.values.any():
            raise InvalidParameterError(
                "the oracle check needs a nonzero noise path: on a zero path the "
                "noise coefficients C, D, E vanish and have no relative error")
        ref = greens_coefficients(t, params, gamma, noise=path)
        report = oracle_coefficients(t, params, gamma, path)
        got = report.coefficients
        errs = {k: abs(getattr(got, k) - getattr(ref, k)) / abs(getattr(ref, k))
                for k in "ABCDE"}
        out.append((report, errs, float(np.max(list(errs.values())))))
    return out
