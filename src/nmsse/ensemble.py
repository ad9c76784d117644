"""Monte Carlo layer: trajectory ensembles and their statistics.

Trajectories are sampled under the reference measure of the driving noise
(independent Gaussian paths), propagated in raw form, and normalized only
when moments are read off.  Ensemble averages are taken under the physical
measure: each trajectory is weighted by the squared norm of its raw state,
the Born weight that a measuring device sees.  Classical laws (ballistic
mean position, inverse-square-root mass scaling of the spread of the
trajectory means) hold under this measure and only under it; the flat
average over the sampled paths provably lags the classical mean position,
because high-norm trajectories are exactly the ones dragged furthest along
the initial momentum.

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
quadratic part of the Gaussian update) is done once per run, and so is the
workspace: one set of (rows, nodes) buffers that every block samples its
noise into, builds and scans its convolutions in, and forms its noise
products in, so the memory a run touches does not grow with its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidGridError,
    InvalidParameterError,
    PhysicalParams,
    TimeGrid,
    _closed_form_constants,
)
# f_exponential and h_exponential_batch are not called here; the benchmark's
# traced run wraps them here by name (guarded by tests/test_public_surface.py).
from .kernels import (  # noqa: F401
    _BVPScalars,
    _conv_forward,
    _cumtrapz,
    _degenerate_slopes,
    _h_boundary_solve,
    _h_particular_weights,
    f_exponential,
    h_exponential_batch,
)
from .noise import sample_exponential_noise_batch
from .propagator import (GaussianState, _gaussian_update, _noise_free_update,
                         mean_momentum, mean_position)

# Trajectories per block of the single pass, so the working set is a few
# (_CHUNK_ROWS, N) arrays whatever the ensemble size.
_CHUNK_ROWS = 128


@dataclass(frozen=True)
class EnsembleStats:
    """Per-sample-time aggregates over an ensemble of trajectories.

    ``v_q`` is the dispersion of the per-trajectory mean positions,
    sqrt(weighted mean of squared deviations), population convention.
    ``ess`` is the effective sample size implied by the physical weights.
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
    one _BVPScalars over the array of horizons), the weights of f in the
    symmetric basis, e^{-u t_k} per root, and the parts of the Gaussian
    update that do not depend on the noise.  Each is an array over the
    horizons, so a block of trajectories combines with it column by column.
    Per root, the horizons with |u t_k| <= 1 come first; their odd-basis
    integrals use the node weights sinh(u s)/u and cosh(u s).
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
        self.sc = sc = _BVPScalars(gamma, omega, t)
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

        self.A, self.B, self.det, self.alpha_t = _noise_free_update(state0, params, sc.P, sc.Q, t)
        ar = self.alpha_t.real
        self.sigma = 0.5 / np.sqrt(ar)
        # |x0-integral|^2 and |propagator normalization|^2 = |B|/(2 pi): with
        # them exp(log_norm_sq) is the squared norm of the raw state.
        self.log_norm_const = (0.5 * np.log(np.pi / (2.0 * ar))
                               + np.log(np.abs(np.pi / (state0.alpha + self.A)))
                               + np.log(np.abs(self.B) / (2.0 * np.pi)))


def _trapz_at(y: np.ndarray, idx: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid integrals of y (last axis on the grid) over [0, t_k] per k in idx.

    Sums run between consecutive sample nodes and then accumulate over the
    few segments, so no full-length cumulative array is formed.
    """
    starts = np.concatenate(([0], idx[:-1] + 1))
    seg = np.add.reduceat(y[..., : idx[-1] + 1], starts, axis=-1)
    return dt * (np.cumsum(seg, axis=-1) - 0.5 * (y[..., :1] + y[..., idx]))


class _Workspace:
    """The (rows, nodes) buffers of one run, reused by every block.

    ``noise`` holds a block's paths on the whole grid; ``conv`` a forward
    convolution up to the last horizon; ``prod`` the products of the noise
    with node weights or with that convolution; ``scratch`` the carry of a
    multi-block scan.  A block of m rows uses the first m rows of each.
    """

    def __init__(self, rows: int, n: int, n_conv: int):
        self.noise = np.empty((rows, n))
        self.conv = np.empty((rows, n_conv), dtype=complex)
        self.prod = np.empty_like(self.conv)
        self.scratch = np.empty_like(self.conv)


def _chunk_moments(params: PhysicalParams, hz: _Horizons, w: np.ndarray,
                   state0: GaussianState, ws: _Workspace):
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

    The convolution and the noise products are written into the run's
    workspace ws (in-place source build and scan, products with out=), so a
    block allocates nothing of its own size, and the values are those of
    the allocating forms bit for bit.
    """
    k = hz.idx
    dt = hz.dt
    t = hz.t
    m, n_conv = w.shape[0], k[-1] + 1
    w = w[:, :n_conv]
    conv, prod, scratch = ws.conv[:m], ws.prod[:m], ws.scratch[:m]
    mu, pref, half_sl = _closed_form_constants(params)

    i_k, v_k, wi_k, even, odd = [], [], [], [], []
    for r, u in enumerate(hz.u):
        _conv_forward(u, w, dt, out=conv, scratch=scratch)
        ik = conv[:, k]
        vk = _trapz_at(np.multiply(w, hz.decay[r], out=prod), k, dt)
        ev = (ik + vk) / (1.0 + hz.e_t[r])
        od = np.empty_like(ev)
        ns = hz.n_small[r]
        if ns:
            head = w[:, : k[ns - 1] + 1]
            part = prod[:, : head.shape[1]]
            od[:, :ns] = _trapz_at(np.multiply(head, hz.sinh_w[r], out=part), k[:ns], dt)
            od[:, :ns] -= hz.tau[r][:ns] * _trapz_at(np.multiply(head, hz.cosh_w[r], out=part),
                                                     k[:ns], dt)
        od[:, ns:] = (ik - vk)[:, ns:] / (u * (1.0 + hz.e_t[r][ns:]))
        if not hz.degenerate:
            wi_k.append(_trapz_at(np.multiply(w, conv, out=prod), k, dt))
        i_k.append(ik)
        v_k.append(vk)
        even.append(ev)
        odd.append(od)

    af, bf, cf, df = hz.f_abcd
    int_f = af * even[0] + bf * odd[0] + cf * even[1] + df * odd[1]
    int_f_rev = af * even[0] - bf * odd[0] + cf * even[1] - df * odd[1]

    if hz.degenerate:
        # vanishing coupling: h'' = pref w with zero boundary values, formed
        # in the real halves of conv and prod, which the roots are done with
        s = np.arange(n_conv) * dt
        lin = prod.view(float)[:, :n_conv]
        cw = _cumtrapz(w, dt, out=conv.view(float)[:, :n_conv])
        crw = _cumtrapz(np.multiply(w, s, out=lin), dt, out=conv.view(float)[:, n_conv:])
        total = t * cw[:, k] - crw[:, k]
        h_d0, h_dt = _degenerate_slopes(pref, t, cw[:, k], total)
        np.subtract(np.multiply(cw, s, out=lin), crw, out=lin)
        int_h = pref * (_trapz_at(np.multiply(w, lin, out=lin), k, dt) - total / t * crw[:, k])
    else:
        a, b, c, d, h_d0, h_dt = _h_boundary_solve(hz.sc, hz.gamma, pref, i_k, v_k)
        c1, c2 = _h_particular_weights(hz.sc)
        edge = (dt * dt / 4.0) * (w[:, :1] ** 2 - w[:, k] ** 2)
        int_h = (-pref * (c1 * (2.0 * wi_k[0] + edge) + c2 * (2.0 * wi_k[1] + edge))
                 + a * even[0] + b * odd[0] + c * even[1] + d * odd[1])

    C = -mu * h_d0 + half_sl * int_f
    D = mu * h_dt + half_sl * int_f_rev
    E = half_sl * int_h
    state = GaussianState(*_gaussian_update(state0, hz.A, hz.B, hz.det, C, D, E))
    br = state.beta.real
    log_norm_sq = 2.0 * state.g.real + br * br / (2.0 * state.alpha.real) + hz.log_norm_const
    return mean_position(state), mean_momentum(state, params), log_norm_sq


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

    Trajectories are sampled and processed in blocks of _CHUNK_ROWS rows,
    every block in the same workspace, which lives for this call only.
    Returns (q, p, sigma, log_norm_sq) where q, p, log_norm_sq have shape
    (n_traj, len(idx)) and sigma has shape (len(idx),); sigma is noise
    independent.  Row i depends on the key (master_seed,
    trajectory_indices[i]) only.  log_norm_sq is log ||psi_t||^2 of the raw
    state with every factor included (the x0 integral and |B|/(2 pi)), so
    its exponential is the physical weight and has reference mean 1.
    """
    rows = list(trajectory_indices)
    hz = _Horizons(params, gamma, grid, idx, state0)
    ws = _Workspace(min(len(rows), _CHUNK_ROWS), grid.n, idx[-1] + 1)
    q = np.empty((len(rows), idx.size))
    p = np.empty_like(q)
    log_norm_sq = np.empty_like(q)
    for lo in range(0, len(rows), _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, len(rows))
        w = sample_exponential_noise_batch(gamma, grid, master_seed, rows[lo:hi],
                                           out=ws.noise[: hi - lo])
        q[lo:hi], p[lo:hi], log_norm_sq[lo:hi] = _chunk_moments(params, hz, w, state0, ws)
    return q, p, hz.sigma, log_norm_sq


def run_ensemble(
    params: PhysicalParams,
    gamma: float,
    state0: GaussianState,
    t_samples,
    n_traj: int,
    master_seed: int,
    *,
    grid: TimeGrid,
) -> EnsembleStats:
    """Physical-measure moment statistics over ``n_traj`` independent realizations.

    Trajectory i draws its path on ``grid`` from the counter-based stream
    (master_seed, i), so results are independent of evaluation order and
    identical across batch sizes up to elementwise rounding.  The sample
    times snap to nodes of ``grid``.  A state that
    fails to normalize does so for every trajectory at once (the quadratic
    coefficient is noise independent), so that error aborts the run rather
    than producing a partial report.
    """
    if n_traj < 1:
        raise InvalidParameterError(f"n_traj must be >= 1, got {n_traj}")
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
        wts = np.exp(log_norm_sq[:, j] - log_norm_sq[:, j].max())
        wts /= wts.sum()
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
    )
