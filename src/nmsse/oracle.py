"""Independent cross-check of the propagator coefficients.

Discretizes the path sum over polygonal paths on a uniform grid: kinetic
increments plus the noise drive plus the quadratic memory term, then
integrates out the interior nodes exactly (complex Gaussian reduction).
A..E are read off the Schur complement of the interior block with no
reference to the kernel boundary-value machinery, so agreement is a
genuine two-route check rather than a reshuffling of the same formulas.
The reduction's measure factor pi^{k/2} / sqrt(det(-Q_ii)) depends on
neither the endpoints nor the noise and is left out, as the analytic E
vanishes at zero noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameterError, PhysicalParams, TimeGrid
from .kernels import _check_horizon, f_exponential, h_exponential
from .noise import CorrelationKernel, NoisePath, _ou_covariance, exponential_kernel
from .propagator import GreensCoefficients, greens_coefficients


def assemble_action(params: PhysicalParams, kernel: CorrelationKernel,
                    noise: NoisePath) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic form (Q, L) of the discretized action exponent.

    For a polygonal path q on the noise grid the exponent is
    q^T Q q + L^T q with trapezoid weights rho on the time integrals:

        sum_j (i m / 2 hbar eps) (q_{j+1} - q_j)^2
      + sum_j eps rho_j sqrt(lam) w_j q_j
      - lam sum_{j,r} eps^2 rho_j rho_r alpha(s_j, s_r) q_j q_r
    """
    grid = noise.grid
    n = grid.n
    eps = grid.dt
    s = grid.nodes()
    rho = np.ones(n)
    rho[0] = rho[-1] = 0.5

    kin = 1j * params.m / (2.0 * params.hbar * eps)
    Q = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    Q[idx, idx] = 2.0 * kin
    Q[0, 0] = kin
    Q[-1, -1] = kin
    Q[idx[:-1], idx[1:]] -= kin
    Q[idx[1:], idx[:-1]] -= kin

    alpha = _ou_covariance(kernel.gamma, s[:, None], s[None, :])
    Q = Q - params.lam * eps * eps * np.outer(rho, rho) * alpha

    L = eps * rho * math.sqrt(params.lam) * noise.values
    return Q, L.astype(complex)


def _reduce_interior(Q: np.ndarray, L: np.ndarray):
    """Endpoint exponent q_b^T S q_b + l^T q_b + c of the interior integral.

    With v = 2 Q_ib q_b + L_i the integral of exp(q^T Q q + L^T q) over q_i
    is exp(q_b^T Q_bb q_b + L_b^T q_b - v^T Q_ii^{-1} v / 4), so
    S = Q_bb - Q_bi Q_ii^{-1} Q_ib, l = L_b - Q_bi Q_ii^{-1} L_i and
    c = -L_i^T Q_ii^{-1} L_i / 4, all from one solve.
    """
    n = Q.shape[0]
    if n < 3:
        raise InvalidParameterError("need at least one interior node to reduce")
    b = [0, n - 1]
    inner = slice(1, n - 1)
    Qib = Q[inner][:, b]
    Li = L[inner]
    try:
        ys = np.linalg.solve(Q[inner, inner], np.column_stack([Qib, Li]))
    except np.linalg.LinAlgError as exc:
        raise InvalidParameterError(f"interior action matrix is singular: {exc}") from exc
    S = Q[np.ix_(b, b)] - Qib.T @ ys[:, :2]
    return S, L[b] - Qib.T @ ys[:, 2], -0.25 * (Li @ ys[:, 2])


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
    Q, L = assemble_action(params, exponential_kernel(gamma), noise)
    S, l, c = _reduce_interior(Q, L)
    A, B = complex(-(S[0, 0] + S[1, 1]) / 2.0), complex(2.0 * S[0, 1])
    coeffs = GreensCoefficients(t=t, A=A, B=B, C=complex(l[0]), D=complex(l[1]),
                                E=complex(c), det=A * A - B * B / 4.0)
    asym = abs(S[0, 0] - S[1, 1]) / max(abs(S[0, 0]), abs(S[1, 1]))
    return OracleReport(n_segments=grid.n - 1, coefficients=coeffs,
                        diag_asymmetry=float(asym))


def _subsample(noise: NoisePath, step: int) -> NoisePath:
    coarse = TimeGrid(t_max=noise.grid.t_max, n=(noise.grid.n - 1) // step + 1)
    return NoisePath(grid=coarse, values=noise.values[::step],
                     master_seed=noise.master_seed, trajectory_index=noise.trajectory_index)


def oracle_convergence(t: float, params: PhysicalParams, gamma: float,
                       noise: NoisePath, levels: tuple[int, ...] = (64, 128, 256, 512)):
    """Run the oracle at several resolutions, each against its own closed forms.

    The noise path must live on a grid whose segment count is the largest
    level; coarser levels take every 2^k-th node, which is an exact
    restriction of the Ornstein-Uhlenbeck path.  Each level is compared with
    the closed forms (f_exponential, h_exponential, greens_coefficients) on
    its own subsampled path, so both routes see the same noise samples.
    Returns a list of (report, per-coefficient relative errors, max
    relative error).  At lambda = 0 the noise coefficients C, D and E
    vanish identically and have no relative error, so that is refused.
    """
    if params.lam == 0.0:
        raise InvalidParameterError(
            "the oracle check needs lambda > 0: at lambda = 0 the noise "
            "coefficients C, D, E vanish and have no relative error")
    n_fine = noise.grid.n - 1
    if max(levels) != n_fine:
        raise InvalidParameterError(
            f"noise grid has {n_fine} segments but the finest level is {max(levels)}")
    out = []
    for n_seg in levels:
        if n_fine % n_seg:
            raise InvalidParameterError(f"level {n_seg} does not divide {n_fine}")
        path = _subsample(noise, n_fine // n_seg)
        f = f_exponential(t, params, gamma, path.grid)
        h = h_exponential(t, params, gamma, path)
        ref = greens_coefficients(t, params, gamma, grid=path.grid, noise=path, f=f, h=h)
        report = oracle_coefficients(t, params, gamma, path)
        got = report.coefficients
        errs = {k: abs(getattr(got, k) - getattr(ref, k)) / abs(getattr(ref, k))
                for k in "ABCDE"}
        out.append((report, errs, max(errs.values())))
    return out
