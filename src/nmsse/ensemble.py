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

This module samples the noise, applies the Gaussian update, forms the log
norms and takes the statistics.  The noise coefficients C, D and E of every
sample horizon come from the single pass of kernels._HorizonKernels, built
once per run: per characteristic root and block of trajectories, one
forward convolution (one cumulative sum per scan block) serves every
horizon, and the linear functionals of the noise are read from one weight
table, a matmul per row and segment between horizons.  The quadratic part
of the update is noise free and is also formed once per run.

The blocks are the tasks of a standard thread pool with up to one thread
per CPU the process may use (os.sched_getaffinity), waited for in row
order: whatever the thread timing, the lowest failing block raises.  A
running block holds one of as many noise buffers and convolution scratches
as there are threads, made by the calling thread and reused block after
block; the noise-free data are shared and only read.  The rows of all
blocks in flight add up to _CHUNK_ROWS, so the memory a run touches grows
neither with its size nor with the CPU count.  A row's arithmetic does not
depend on the other rows of its block, on the block size or on the thread,
so the outputs are the same bit for bit on any number of CPUs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import InvalidGridError, PhysicalParams, TimeGrid, _as_int
# f_exponential and h_exponential_batch are not called here; the benchmark's
# traced run wraps them here by name (guarded by tests/test_public_surface.py).
from .kernels import _HorizonKernels, f_exponential, h_exponential_batch  # noqa: F401
from .noise import sample_exponential_noise_batch
from .propagator import (GaussianState, _gaussian_update, _noise_free_update,
                         mean_momentum, mean_position)

# Trajectories in flight in the single pass, summed over its threads, so the
# working set is _CHUNK_ROWS x N noise values and as many convolution values,
# 24 B per node, whatever the ensemble size and the CPU count.
_CHUNK_ROWS = 128
# Fewest rows in a thread's block: at most _CHUNK_ROWS // _MIN_BLOCK_ROWS threads.
_MIN_BLOCK_ROWS = 32


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
    if not np.all(np.isfinite(ts)):
        raise InvalidGridError(f"t_samples must be finite, got {float(ts[~np.isfinite(ts)][0])!r}")
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


def _worker_count() -> int:
    """Threads W that share a run: one per CPU this process may run on, at
    most _CHUNK_ROWS // _MIN_BLOCK_ROWS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, _CHUNK_ROWS // _MIN_BLOCK_ROWS)


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

    Trajectories are sampled and processed in blocks of _CHUNK_ROWS // W
    rows, W = _worker_count(), one pool task per block.  The pool starts a
    thread per block up to W, so a run has no more threads than blocks.
    The calling thread makes one noise buffer and scratch per thread, and a
    block takes a set and puts it back; the sets live for this call only.
    Made by each call's new threads instead, a set would land in whichever
    malloc arena its thread got, and a process's peak memory would differ
    by one set from run to run.  The blocks are waited for in row order:
    the exception of the lowest failing block, whatever the thread timing,
    is raised here once the blocks not yet started are cancelled and the
    running ones have stopped.  Returns (q, p, sigma, log_norm_sq) where
    q, p, log_norm_sq have shape (n_traj, len(idx)) and sigma has shape
    (len(idx),); sigma is noise independent.  Row i depends on the key
    (master_seed, trajectory_indices[i]) only.  log_norm_sq is log
    ||psi_t||^2 of the raw state with the x0 integral and |B|/(2 pi), which
    misses the fluctuation determinant (ROADMAP F12): its reference mean is
    not 1 but 1 + 5.2e-5 at (lam, gamma, t) = (0.1, 1, 1), growing as
    lam^2.  Where B = mu (P - Q) rounds to 0 at long horizons (F11), |B| is
    floored at the smallest normal float, and the norm there is rounding.
    """
    # imported here: concurrent.futures loads logging and queue loads heapq,
    # milliseconds that every `import nmsse` would otherwise pay
    import queue
    from concurrent.futures import ThreadPoolExecutor

    rows = list(trajectory_indices)
    workers = _worker_count()
    block = min(len(rows), _CHUNK_ROWS // workers)
    kern = _HorizonKernels(params, gamma, grid, idx)
    A, B, det, alpha_t = _noise_free_update(state0, params, kern.sc.P, kern.sc.Q, kern.t)
    ar = alpha_t.real
    # |x0-integral|^2 and |propagator normalization|^2 = |B|/(2 pi): with
    # them exp(log_norm_sq) is the squared norm of the raw state.
    log_norm_const = (0.5 * np.log(np.pi / (2.0 * ar))
                      + np.log(np.abs(np.pi / (state0.alpha + A)))
                      + np.log(np.maximum(np.abs(B), np.finfo(float).tiny) / (2.0 * np.pi)))
    q = np.empty((len(rows), idx.size))
    p = np.empty_like(q)
    log_norm_sq = np.empty_like(q)
    starts = range(0, len(rows), block)
    spare = queue.SimpleQueue()
    for _ in range(min(workers, len(starts))):
        spare.put((np.empty((block, grid.n)), kern.scratch(block)))

    def run_block(lo: int):
        # rows lo:hi, slices no other block writes
        noise, scratch = spare.get()
        try:
            hi = min(lo + block, len(rows))
            w = sample_exponential_noise_batch(gamma, grid, master_seed, rows[lo:hi],
                                               out=noise[: hi - lo])
            state = GaussianState(*_gaussian_update(state0, A, B, det,
                                                    *kern.coefficients(w, scratch)))
            br = state.beta.real
            log_norm_sq[lo:hi] = (2.0 * state.g.real + br * br / (2.0 * state.alpha.real)
                                  + log_norm_const)
            q[lo:hi] = mean_position(state)
            p[lo:hi] = mean_momentum(state, params)
        finally:
            spare.put((noise, scratch))

    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(run_block, starts):
            pass
    return q, p, 0.5 / np.sqrt(ar), log_norm_sq


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
    the same bit for bit across block sizes and CPU counts.  The sample
    times snap to nodes of ``grid``.  A state that
    fails to normalize does so for every trajectory at once (the quadratic
    coefficient is noise independent), so that error aborts the run rather
    than producing a partial report.
    """
    n_traj = _as_int(n_traj, "n_traj", 1)
    idx = _snap_indices(grid, t_samples)
    q, p, sigma, log_norm_sq = _moment_curves(params, gamma, grid, idx, state0,
                                              master_seed, range(n_traj))

    # one column per sample time; moments of the offsets from the first row,
    # so that identical rows (lam = 0) give the row as mean and zero spreads
    wts = np.exp(log_norm_sq - log_norm_sq.max(axis=0))
    wts /= wts.sum(axis=0)
    q0, p0 = q[0], p[0]
    q, p = q - q0, p - p0
    mean_q = np.sum(wts * q, axis=0)
    mean_p = np.sum(wts * p, axis=0)
    dq = q - mean_q
    dq2 = dq * dq
    v2 = np.sum(wts * dq2, axis=0)
    v_q = np.sqrt(v2)
    se_v2 = np.sqrt(np.sum(np.square(wts * (dq2 - v2)), axis=0))
    se_vq = np.divide(0.5 * se_v2, v_q, out=np.zeros_like(v_q), where=v_q > 0.0)

    return EnsembleStats(
        times=grid.nodes()[idx],
        mean_q=mean_q + q0,
        se_q=np.sqrt(np.sum(np.square(wts * dq), axis=0)),
        mean_p=mean_p + p0,
        se_p=np.sqrt(np.sum(np.square(wts * (p - mean_p)), axis=0)),
        v_q=v_q,
        se_vq=se_vq,
        sigma_q=sigma,
        ess=1.0 / np.sum(wts * wts, axis=0),
        n_traj=n_traj,
    )
