"""Monte Carlo layer: trajectory ensembles and their statistics.

Trajectories are sampled under the reference measure of the driving noise
(independent Gaussian paths), propagated in raw form, and normalized only
when moments are read off.  Ensemble averages come in two flavours:

``measure="physical"``
    Each trajectory is weighted by the squared norm of its raw state, the
    Born weight that a measuring device sees.  Classical laws (ballistic
    mean position, inverse-square-root mass scaling of the spread of the
    trajectory means) hold under this measure and only under it.

``measure="reference"``
    Flat weights over the sampled paths.  Kept for diagnostics; the mean
    position under this measure provably lags the classical value because
    high-norm trajectories are exactly the ones dragged furthest along the
    initial momentum.

Weights are formed per sample time with a log-sum-exp shift, so long
horizons degrade gracefully into a small effective sample size instead of
overflowing.  The per-time effective sample size 1/sum(w_i^2) is reported
alongside the statistics; treat results with ESS of a few dozen or less
as unresolved.

The position spread of the normalized state is noise independent, so it is
reported once per sample time rather than per trajectory.

Every sample horizon is served by one pass over the noise: per block of
trajectories and per characteristic root, a single forward convolution
over the grid up to the last horizon, from which each horizon reads its
kernel integrals in O(1) per trajectory (see _chunk_moments).  The
noise-free per-horizon work (boundary-problem scalars, f weights, the
quadratic part of the Gaussian update) is done once per run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidGridError,
    InvalidParameterError,
    PhysicalParams,
    TimeGrid,
    make_grid,
)
# f_exponential and h_exponential_batch are not called here any more; they
# stay bound because bench/workloads.py wraps them here by name, next to the
# sampler, when it traces the layers.
from .kernels import (  # noqa: F401
    _BVPScalars,
    _conv_forward,
    _cumtrapz,
    _h_boundary_solve,
    _h_particular_weights,
    f_exponential,
    h_exponential_batch,
)
from .noise import sample_exponential_noise_batch
from .propagator import GaussianState

_MEASURES = ("physical", "reference")

# Default node count when no grid is passed.  The single pass could afford
# a finer one; 513 keeps the default outputs where they have always been.
_DEFAULT_NODES = 513

# Trajectories per block of the single pass, so the working set is a few
# (_CHUNK_ROWS, N) arrays whatever the ensemble size.
_CHUNK_ROWS = 128


@dataclass(frozen=True)
class TrajectoryRecord:
    """Moment curves of one noise realization.

    ``log_norm_sq`` is log ||psi_t||^2 of the raw (unnormalized) state that
    the linear equation propagates from the normalized initial state along
    this noise path, with every factor included: the Gaussian integral over
    x0 and the propagator normalization |B|/(2 pi).  Its exponential
    weights the trajectory in physical-measure averages, and its mean under
    the reference measure is 1.
    """

    master_seed: int
    trajectory_index: int
    times: np.ndarray
    mean_position: np.ndarray
    mean_momentum: np.ndarray
    sigma_position: np.ndarray
    log_norm_sq: np.ndarray

    def to_csv(self) -> str:
        lines = ["t,mean_q,mean_p,sigma,log_norm_sq"]
        for k in range(self.times.size):
            lines.append(
                "%.17g,%.17g,%.17g,%.17g,%.17g"
                % (
                    self.times[k],
                    self.mean_position[k],
                    self.mean_momentum[k],
                    self.sigma_position[k],
                    self.log_norm_sq[k],
                )
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EnsembleStats:
    """Per-sample-time aggregates over an ensemble of trajectories.

    ``v_q`` is the dispersion of the per-trajectory mean positions,
    sqrt(weighted mean of squared deviations), population convention.
    ``ess`` is the effective sample size implied by the weights; under the
    reference measure it equals ``n_traj`` up to rounding.
    """

    times: np.ndarray
    mean_q: np.ndarray
    se_q: np.ndarray
    mean_p: np.ndarray
    se_p: np.ndarray
    v_q: np.ndarray
    se_vq: np.ndarray
    sigma_q: np.ndarray
    ess: np.ndarray
    n_traj: int
    master_seed: int
    measure: str

    def to_csv(self) -> str:
        lines = ["t,mean_q,se_q,mean_p,se_p,Vq,sigma,se_vq,ess"]
        for k in range(self.times.size):
            lines.append(
                "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
                % (
                    self.times[k],
                    self.mean_q[k],
                    self.se_q[k],
                    self.mean_p[k],
                    self.se_p[k],
                    self.v_q[k],
                    self.sigma_q[k],
                    self.se_vq[k],
                    self.ess[k],
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "times": self.times.tolist(),
            "mean_q": self.mean_q.tolist(),
            "se_q": self.se_q.tolist(),
            "mean_p": self.mean_p.tolist(),
            "se_p": self.se_p.tolist(),
            "Vq": self.v_q.tolist(),
            "se_vq": self.se_vq.tolist(),
            "sigma": self.sigma_q.tolist(),
            "ess": self.ess.tolist(),
            "n_traj": self.n_traj,
            "master_seed": self.master_seed,
            "measure": self.measure,
        }
        return json.dumps(payload, sort_keys=True)


def _sample_node_indices(grid: TimeGrid, n_times: int, log_times: bool) -> np.ndarray:
    """Pick n_times node indices in (0, t_max], linearly or log spaced.

    Indices are snapped to the grid and deduplicated, so the result may be
    shorter than requested on coarse grids.
    """
    if not 1 <= n_times <= grid.n - 1:
        raise InvalidGridError(
            f"n_times {n_times} outside [1, {grid.n - 1}] for this grid"
        )
    if log_times:
        targets = np.geomspace(grid.dt, grid.t_max, n_times)
    else:
        targets = np.linspace(grid.dt, grid.t_max, n_times)
    idx = np.rint(targets / grid.dt).astype(int)
    return np.unique(np.clip(idx, 1, grid.n - 1))


def _snap_indices(grid: TimeGrid, t_samples) -> np.ndarray:
    """Map requested sample times to grid node indices, strictly validated."""
    ts = np.asarray(t_samples, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise InvalidGridError("t_samples must be a nonempty 1-D sequence")
    if not np.all(np.diff(ts) > 0.0):
        raise InvalidGridError("t_samples must be strictly increasing")
    if ts[0] <= 0.0:
        raise InvalidGridError("t_samples must be positive")
    if ts[-1] > grid.t_max * (1.0 + 1e-12):
        raise InvalidGridError(
            f"t_samples exceed the grid horizon {grid.t_max!r}"
        )
    idx = np.clip(np.rint(ts / grid.dt).astype(int), 1, grid.n - 1)
    if np.unique(idx).size != idx.size:
        raise InvalidGridError("t_samples collide after snapping to the grid")
    return idx


class _Horizons:
    """Noise-free data of every sample horizon, computed once per run.

    Per horizon t_k: the boundary-problem scalars of both kernels (``sc``,
    stacked), the weights of f in the symmetric basis, e^{-u t_k} per root,
    and the parts of the Gaussian update that do not depend on the noise.
    Each is an array over the horizons, so a block of trajectories combines
    with it column by column.  Per root, the horizons with |u t_k| <= 1 come
    first; their odd-basis integrals use the node weights sinh(u s)/u and
    cosh(u s).
    """

    def __init__(self, params: PhysicalParams, gamma: float, grid: TimeGrid,
                 idx: np.ndarray, state0: GaussianState):
        self.idx = idx
        self.dt = grid.dt
        s = grid.nodes()[: idx[-1] + 1]
        t = s[idx]
        self.t = t
        omega = params.omega_collapse
        self.degenerate = omega < 1e-8 * gamma
        self.gamma = gamma
        self.sc = sc = _BVPScalars.stack([_BVPScalars(gamma, omega, float(tk)) for tk in t])
        self.u = (sc.roots.upsilon1, sc.roots.upsilon2)
        self.tau = (sc.tau1, sc.tau2)
        self.f_abcd = sc.f_coeffs()

        self.e_t, self.decay, self.n_small, self.sinh_w, self.cosh_w = [], [], [], [], []
        for u in self.u:
            self.e_t.append(np.exp(-u * t))
            self.decay.append(np.exp(-u * s))
            n_small = int(np.count_nonzero(np.abs(u * t) <= 1.0))
            head = s[: idx[n_small - 1] + 1] if n_small else s[:0]
            self.n_small.append(n_small)
            self.sinh_w.append(head.astype(complex) if u == 0 else np.sinh(u * head) / u)
            self.cosh_w.append(np.cosh(u * head))

        mu = 1j * params.m / (2.0 * params.hbar)
        self.A = mu * ((sc.P + sc.Q) / 2.0)
        self.B = 2.0 * mu * ((sc.P - sc.Q) / 2.0)
        # det = A^2 - B^2/4 in factored endpoint form; the naive difference
        # cancels catastrophically in SI-scale regimes.
        det = mu * mu * sc.P * sc.Q
        self.denom = state0.alpha + self.A
        self.alpha_t = (state0.alpha * self.A + det) / self.denom
        ar = self.alpha_t.real
        bad = np.flatnonzero(~(ar > 0.0))
        if bad.size:
            raise InvalidParameterError(
                f"propagated state not normalizable at t={float(t[bad[0]])!r}"
            )
        self.sigma = 0.5 / np.sqrt(ar)
        # |x0-integral|^2 and |propagator normalization|^2 = |B|/(2 pi): with
        # them exp(log_norm_sq) is the squared norm of the raw state.
        self.log_norm_const = (0.5 * np.log(np.pi / (2.0 * ar))
                               + np.log(np.abs(np.pi / self.denom))
                               + np.log(np.abs(self.B) / (2.0 * np.pi)))


def _trapz_at(y: np.ndarray, idx: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid integrals of y (last axis on the grid) over [0, t_k] per k in idx.

    Sums run between consecutive sample nodes and then accumulate over the
    few segments, so no full-length cumulative array is formed.
    """
    starts = np.concatenate(([0], idx[:-1] + 1))
    seg = np.add.reduceat(y[..., : idx[-1] + 1], starts, axis=-1)
    return dt * (np.cumsum(seg, axis=-1) - 0.5 * (y[..., :1] + y[..., idx]))


def _chunk_moments(params: PhysicalParams, hz: _Horizons, w: np.ndarray,
                   state0: GaussianState):
    """(q, p, log_norm_sq) at every horizon for a block of noise rows w.

    One forward convolution per root over the whole grid serves every
    horizon: under the trapezoid rule int_0^{t_k} w e^{-u(t_k-s)} = I(k),
    the backward convolution of horizon k starts at J_k(0) = V(k) (the
    cumulative trapezoid of w e^{-us}), and int w J_k = int w I + (dt^2/4)
    (w_0^2 - w_k^2).  The f and h integrals then follow from the even/odd
    basis integrals (I(k) +- V(k)) / (1 + e^{-u t_k}) and the per-horizon
    2x2 boundary solves that h_exponential_batch uses too.  Where |u t_k| <= 1 the odd
    one, (I - V) / (u (1 + e^{-u t_k})), would cancel to eps / |u t_k|, so
    it comes from int w sinh(us)/u - tanh(u t_k/2)/u int w cosh(us) instead.
    Only the sample columns of the cumulative sums are formed.
    """
    k = hz.idx
    dt = hz.dt
    t = hz.t
    w = w[:, : k[-1] + 1]
    mu = 1j * params.m / (2.0 * params.hbar)
    half_sl = 0.5 * math.sqrt(params.lam)
    pref = -1j * params.hbar * math.sqrt(params.lam) / params.m

    i_k, v_k, wi_k, even, odd = [], [], [], [], []
    for r, u in enumerate(hz.u):
        conv = _conv_forward(u, w, dt)
        ik = conv[:, k]
        vk = _trapz_at(w * hz.decay[r], k, dt)
        ev = (ik + vk) / (1.0 + hz.e_t[r])
        od = np.empty_like(ev)
        ns = hz.n_small[r]
        if ns:
            head = w[:, : k[ns - 1] + 1]
            od[:, :ns] = (_trapz_at(head * hz.sinh_w[r], k[:ns], dt)
                          - hz.tau[r][:ns] * _trapz_at(head * hz.cosh_w[r], k[:ns], dt))
        od[:, ns:] = (ik - vk)[:, ns:] / (u * (1.0 + hz.e_t[r][ns:]))
        if not hz.degenerate:
            wi_k.append(_trapz_at(w * conv, k, dt))
        i_k.append(ik)
        v_k.append(vk)
        even.append(ev)
        odd.append(od)

    af, bf, cf, df = hz.f_abcd
    int_f = af * even[0] + bf * odd[0] + cf * even[1] + df * odd[1]
    int_f_rev = af * even[0] - bf * odd[0] + cf * even[1] - df * odd[1]

    if hz.degenerate:
        # vanishing coupling: h'' = pref w with zero boundary values
        s = np.arange(w.shape[1]) * dt
        cw = _cumtrapz(w, dt)
        crw = _cumtrapz(s * w, dt)
        total = t * cw[:, k] - crw[:, k]
        h_d0 = pref * (-total / t)
        h_dt = pref * (cw[:, k] - total / t)
        int_h = pref * (_trapz_at(w * (s * cw - crw), k, dt) - total / t * crw[:, k])
    else:
        a, b, c, d, h_d0, h_dt = _h_boundary_solve(hz.sc, hz.gamma, pref, i_k, v_k)
        c1, c2 = _h_particular_weights(hz.sc)
        edge = (dt * dt / 4.0) * (w[:, :1] ** 2 - w[:, k] ** 2)
        int_h = (-pref * (c1 * (2.0 * wi_k[0] + edge) + c2 * (2.0 * wi_k[1] + edge))
                 + a * even[0] + b * odd[0] + c * even[1] + d * odd[1])

    C = -mu * h_d0 + half_sl * int_f
    D = mu * h_dt + half_sl * int_f_rev
    E = half_sl * int_h
    shift = C + state0.beta
    beta_t = D + hz.B * shift / (2.0 * hz.denom)
    g_t = state0.g + E + shift * shift / (4.0 * hz.denom)

    ar = hz.alpha_t.real
    br = beta_t.real
    q = br / (2.0 * ar)
    p = params.hbar * (beta_t.imag - hz.alpha_t.imag * br / ar)
    log_norm_sq = 2.0 * g_t.real + br * br / (2.0 * ar) + hz.log_norm_const
    return q, p, log_norm_sq


def _moment_curves(
    params: PhysicalParams,
    gamma: float,
    grid: TimeGrid,
    idx: np.ndarray,
    state0: GaussianState,
    master_seed: int,
    trajectory_indices,
):
    """Normalized-state moments and log norms at the given node indices.

    Trajectories are sampled and processed in blocks of _CHUNK_ROWS rows.
    Returns (q, p, sigma, log_norm_sq) where q, p, log_norm_sq have shape
    (n_traj, len(idx)) and sigma has shape (len(idx),); sigma is noise
    independent.
    """
    rows = list(trajectory_indices)
    hz = _Horizons(params, gamma, grid, idx, state0)
    q = np.empty((len(rows), idx.size))
    p = np.empty_like(q)
    log_norm_sq = np.empty_like(q)
    for lo in range(0, len(rows), _CHUNK_ROWS):
        hi = lo + _CHUNK_ROWS
        w = sample_exponential_noise_batch(gamma, grid, master_seed, rows[lo:hi])
        q[lo:hi], p[lo:hi], log_norm_sq[lo:hi] = _chunk_moments(params, hz, w, state0)
    return q, p, hz.sigma, log_norm_sq


def _normalized_weights(log_norm_sq_col: np.ndarray, measure: str) -> np.ndarray:
    if measure == "reference":
        n = log_norm_sq_col.size
        return np.full(n, 1.0 / n)
    shifted = log_norm_sq_col - log_norm_sq_col.max()
    wts = np.exp(shifted)
    return wts / wts.sum()


def run_trajectory(
    params: PhysicalParams,
    gamma: float,
    state0: GaussianState,
    t_samples,
    seed: int,
    *,
    grid: TimeGrid | None = None,
    trajectory_index: int = 0,
) -> TrajectoryRecord:
    """Propagate a single noise realization and record its moment curves.

    The realization is the one an ensemble with the same master seed would
    assign to ``trajectory_index``; the record reproduces that ensemble row
    up to elementwise rounding.  Sample times are snapped to the master
    grid so every horizon sees a prefix of one fixed noise path.
    """
    if grid is None:
        grid = make_grid(float(np.max(np.asarray(t_samples, dtype=float))), _DEFAULT_NODES)
    idx = _snap_indices(grid, t_samples)
    q, p, sigma, log_norm_sq = _moment_curves(params, gamma, grid, idx, state0, seed,
                                              [trajectory_index])
    return TrajectoryRecord(
        master_seed=seed,
        trajectory_index=trajectory_index,
        times=grid.nodes()[idx],
        mean_position=q[0],
        mean_momentum=p[0],
        sigma_position=sigma,
        log_norm_sq=log_norm_sq[0],
    )


def run_ensemble(
    params: PhysicalParams,
    gamma: float,
    state0: GaussianState,
    t_samples,
    n_traj: int,
    master_seed: int,
    *,
    grid: TimeGrid | None = None,
    measure: str = "physical",
) -> EnsembleStats:
    """Aggregate moment statistics over ``n_traj`` independent realizations.

    Trajectory i draws its path from the counter-based stream
    (master_seed, i), so results are independent of evaluation order and
    identical across batch sizes up to elementwise rounding.  A state that
    fails to normalize does so for every trajectory at once (the quadratic
    coefficient is noise independent), so that error aborts the run rather
    than producing a partial report.
    """
    if measure not in _MEASURES:
        raise InvalidParameterError(
            f"measure must be one of {_MEASURES}, got {measure!r}"
        )
    if n_traj < 1:
        raise InvalidParameterError(f"n_traj must be >= 1, got {n_traj}")
    if grid is None:
        grid = make_grid(float(np.max(np.asarray(t_samples, dtype=float))), _DEFAULT_NODES)
    idx = _snap_indices(grid, t_samples)
    q, p, sigma, log_norm_sq = _moment_curves(params, gamma, grid, idx, state0,
                                              master_seed, range(n_traj))

    n_out = idx.size
    mean_q = np.empty(n_out)
    se_q = np.empty(n_out)
    mean_p = np.empty(n_out)
    se_p = np.empty(n_out)
    v_q = np.empty(n_out)
    se_vq = np.empty(n_out)
    ess = np.empty(n_out)

    for j in range(n_out):
        wts = _normalized_weights(log_norm_sq[:, j], measure)
        ess[j] = 1.0 / np.sum(wts * wts)

        mean_q[j] = wts @ q[:, j]
        dq = q[:, j] - mean_q[j]
        se_q[j] = math.sqrt(np.sum((wts * dq) ** 2))

        mean_p[j] = wts @ p[:, j]
        dp = p[:, j] - mean_p[j]
        se_p[j] = math.sqrt(np.sum((wts * dp) ** 2))

        v2 = wts @ (dq * dq)
        v_q[j] = math.sqrt(v2)
        if v_q[j] > 0.0:
            se_v2 = math.sqrt(np.sum((wts * (dq * dq - v2)) ** 2))
            se_vq[j] = 0.5 * se_v2 / v_q[j]
        else:
            se_vq[j] = 0.0

    return EnsembleStats(
        times=grid.nodes()[idx],
        mean_q=mean_q,
        se_q=se_q,
        mean_p=mean_p,
        se_p=se_p,
        v_q=v_q,
        se_vq=se_vq,
        sigma_q=sigma,
        ess=ess,
        n_traj=n_traj,
        master_seed=master_seed,
        measure=measure,
    )
