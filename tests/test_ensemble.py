"""Trajectory statistics: measures, determinism, aggregation identities."""

import math
import sys
from statistics import NormalDist

import numpy as np
import pytest

from nmsse.core import InvalidGridError, InvalidParameterError, make_grid, make_params
from nmsse.ensemble import _CHUNK_ROWS, _moment_curves, run_ensemble
from nmsse.kernels import characteristic_roots, f_exponential, h_exponential_batch
from nmsse.noise import sample_exponential_noise_batch
from nmsse.propagator import gaussian_from_moments, greens_coefficients

CRIT = make_params(m=1.0, hbar=1.0, lam=0.1, unit_mode="scaled")
FREE = make_params(m=1.0, hbar=1.0, lam=0.0, unit_mode="scaled")


def _fixture_state(params):
    return gaussian_from_moments(1.0, 0.5, 1.0, params)


def test_free_particle_is_exactly_ballistic():
    grid = make_grid(1.0, 65)
    ts = [0.25, 0.5, 0.75, 1.0]
    state0 = _fixture_state(FREE)
    stats = run_ensemble(FREE, 1.0, state0, ts, 8, 42, grid=grid)
    for k, t in enumerate(ts):
        assert stats.mean_q[k] == pytest.approx(1.0 + 0.5 * t, rel=1e-12)
        assert stats.mean_p[k] == pytest.approx(0.5, rel=1e-12)
        want = math.sqrt(1.0 + (t / 2.0) ** 2)
        assert stats.sigma_q[k] == pytest.approx(want, rel=1e-12)
    # without coupling the noise never enters, so the spread of trajectory
    # means is zero and every weight is equal
    assert np.all(stats.v_q == 0.0)
    np.testing.assert_allclose(stats.ess, 8.0, rtol=1e-12)


def test_trajectory_reproduces_ensemble_rows():
    grid = make_grid(1.0, 257)
    ts = [0.25, 0.5, 1.0]
    idx = np.array([64, 128, 256])
    state0 = _fixture_state(CRIT)
    stats = run_ensemble(CRIT, 1.0, state0, ts, 3, 42, grid=grid)
    rows = [_moment_curves(CRIT, 1.0, grid, idx, state0, 42, [i]) for i in range(3)]
    assert np.array_equal(grid.nodes()[idx], stats.times)
    # the deterministic width channel is shared verbatim
    assert np.array_equal(rows[1][2], stats.sigma_q)

    # re-aggregate the rows, each computed alone, and compare with the
    # ensemble's statistics
    q, p, _, lns = (np.concatenate([r[k] for r in rows]) for k in range(4))
    for j in range(len(ts)):
        wts = np.exp(lns[:, j] - lns[:, j].max())
        wts /= wts.sum()
        assert stats.mean_q[j] == pytest.approx(float(wts @ q[:, j]), rel=1e-12)
        assert stats.mean_p[j] == pytest.approx(float(wts @ p[:, j]), rel=1e-12)
        assert stats.ess[j] == pytest.approx(1.0 / float(np.sum(wts * wts)), rel=1e-12)


def test_reruns_are_bit_identical():
    grid = make_grid(1.0, 257)
    state0 = _fixture_state(CRIT)
    a = run_ensemble(CRIT, 1.0, state0, [0.5, 1.0], 16, 7, grid=grid)
    b = run_ensemble(CRIT, 1.0, state0, [0.5, 1.0], 16, 7, grid=grid)
    for name in ("times", "mean_q", "se_q", "mean_p", "se_p", "v_q", "sigma_q", "ess"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_sigma_is_independent_of_the_seed():
    grid = make_grid(1.0, 257)
    state0 = _fixture_state(CRIT)
    a = run_ensemble(CRIT, 1.0, state0, [0.5, 1.0], 8, 1, grid=grid)
    b = run_ensemble(CRIT, 1.0, state0, [0.5, 1.0], 8, 2, grid=grid)
    assert np.array_equal(a.sigma_q, b.sigma_q)
    assert not np.array_equal(a.mean_q, b.mean_q)


def test_physical_and_reference_measures_disagree_as_predicted():
    # under the bare noise measure the mean of beta_t is B beta0 / (2 (alpha0
    # + A)) because the noise enters C and D linearly with zero mean; the
    # physical (norm-weighted) measure must instead track the classical line
    t = 1.0
    grid = make_grid(t, 257)
    state0 = _fixture_state(CRIT)
    ref = run_ensemble(CRIT, 1.0, state0, [t], 800, 5, grid=grid, measure="reference")
    phys = run_ensemble(CRIT, 1.0, state0, [t], 800, 5, grid=grid, measure="physical")

    coeffs = greens_coefficients(t, CRIT, 1.0, grid=grid)
    denom = state0.alpha + coeffs.A
    alpha_t = (state0.alpha * coeffs.A + coeffs.det) / denom
    beta_mean = coeffs.B * state0.beta / (2.0 * denom)
    want_ref = beta_mean.real / (2.0 * alpha_t.real)

    assert abs(ref.mean_q[0] - want_ref) <= 4.0 * ref.se_q[0]
    assert abs(phys.mean_q[0] - 1.5) <= 4.0 * phys.se_q[0]
    # the two targets are genuinely separated at this coupling
    assert want_ref < 1.4
    np.testing.assert_allclose(ref.ess, 800.0, rtol=1e-12)


def test_single_trajectory_ensemble_degenerates_cleanly():
    grid = make_grid(1.0, 257)
    state0 = _fixture_state(CRIT)
    stats = run_ensemble(CRIT, 1.0, state0, [0.5, 1.0], 1, 42, grid=grid)
    q = _moment_curves(CRIT, 1.0, grid, np.array([128, 256]), state0, 42, [0])[0]
    assert np.all(stats.se_q == 0.0)
    assert np.all(stats.v_q == 0.0)
    assert np.all(stats.ess == 1.0)
    np.testing.assert_allclose(stats.mean_q, q[0], rtol=5e-14)


def test_effective_sample_size_bounds():
    grid = make_grid(1.0, 257)
    state0 = _fixture_state(CRIT)
    stats = run_ensemble(CRIT, 1.0, state0, [1.0], 64, 3, grid=grid)
    assert np.all(stats.ess >= 1.0)
    assert np.all(stats.ess <= 64.0 * (1.0 + 1e-12))


@pytest.mark.parametrize("bad", [
    [],
    [0.5, 0.5],
    [-0.25, 0.5],
    [0.5, 2.0],
    [0.5, 0.5 + 1e-9],
])
def test_sample_time_validation(bad):
    grid = make_grid(1.0, 257)
    state0 = _fixture_state(CRIT)
    with pytest.raises(InvalidGridError):
        run_ensemble(CRIT, 1.0, state0, bad, 2, 42, grid=grid)


def test_run_ensemble_argument_validation():
    grid = make_grid(1.0, 257)
    state0 = _fixture_state(CRIT)
    with pytest.raises(InvalidParameterError):
        run_ensemble(CRIT, 1.0, state0, [1.0], 0, 42, grid=grid)
    with pytest.raises(InvalidParameterError):
        run_ensemble(CRIT, 1.0, state0, [1.0], 2, 42, grid=grid, measure="bogus")


def test_infinite_memory_rate_has_no_sampler():
    # the stationary variance gamma/2 diverges, so there is no pointwise
    # path to draw; the white-noise limit is reachable only through kernels
    grid = make_grid(1.0, 257)
    state0 = _fixture_state(CRIT)
    with pytest.raises(InvalidParameterError, match="finite"):
        run_ensemble(CRIT, math.inf, state0, [1.0], 2, 42, grid=grid)


def test_default_grid_is_built_from_the_last_sample():
    state0 = _fixture_state(CRIT)
    stats = run_ensemble(CRIT, 1.0, state0, [0.5, 1.0], 2, 42)
    assert stats.times[-1] == pytest.approx(1.0)
    assert stats.times.size == 2
    # the default grid has 513 nodes, so t = 0.5 is node 256 of it
    at_half = run_ensemble(CRIT, 1.0, state0, [0.5], 2, 42, grid=make_grid(0.5, 257))
    assert stats.mean_q[0] == pytest.approx(at_half.mean_q[0], rel=1e-12)


def _per_horizon_route(params, gamma, grid, w, idx, state0):
    """Moments by solving both kernels again on the prefix grid of every
    horizon, from the public kernel functions: an independent route to what
    the single pass in _moment_curves computes."""
    mu = 1j * params.m / (2.0 * params.hbar)
    half_sl = 0.5 * math.sqrt(params.lam)
    q = np.empty((w.shape[0], idx.size))
    p = np.empty_like(q)
    lns = np.empty_like(q)
    sigma = np.empty(idx.size)
    for j, k in enumerate(int(k) for k in idx):
        sub = grid.prefix(k + 1)
        t = sub.t_max
        f = f_exponential(t, params, gamma, sub)
        wk = w[:, : k + 1]
        hv, h_d0, h_dt = h_exponential_batch(t, params, gamma, sub, wk)
        trap = np.full(k + 1, sub.dt)
        trap[[0, -1]] *= 0.5
        A = mu * f.d_start
        B = 2.0 * mu * f.d_end
        C = -mu * h_d0 + half_sl * ((wk * f.values) @ trap)
        D = mu * h_dt + half_sl * ((wk * f.values[::-1]) @ trap)
        E = half_sl * ((hv * wk) @ trap)
        denom = state0.alpha + A
        alpha_t = (state0.alpha * A + mu * mu * f.d_sum * f.d_diff) / denom
        ar = alpha_t.real
        shift = C + state0.beta
        beta_t = D + B * shift / (2.0 * denom)
        g_t = state0.g + E + shift * shift / (4.0 * denom)
        br = beta_t.real
        q[:, j] = br / (2.0 * ar)
        p[:, j] = params.hbar * (beta_t.imag - alpha_t.imag * br / ar)
        # raw norm without the noise-free x0-integral and propagator factors
        lns[:, j] = 2.0 * g_t.real + br * br / (2.0 * ar) + 0.5 * math.log(math.pi / (2.0 * ar))
        sigma[j] = 0.5 / math.sqrt(ar)
    return q, p, sigma, lns


def _norm_constant(params, gamma, grid, idx, state0):
    """log|pi/(alpha0 + A)| + log(|B|/2pi) per horizon, from f_exponential."""
    mu = 1j * params.m / (2.0 * params.hbar)
    out = []
    for k in idx:
        f = f_exponential(int(k) * grid.dt, params, gamma, grid.prefix(int(k) + 1))
        denom = state0.alpha + mu * f.d_start
        out.append(math.log(abs(math.pi / denom)) + math.log(abs(2.0 * mu * f.d_end) / (2.0 * math.pi)))
    return np.array(out)


def _assert_routes_agree(params, gamma, grid, idx, state0, n_traj, seed, rel):
    q, p, sigma, lns = _moment_curves(params, gamma, grid, idx, state0, seed, range(n_traj))
    w = sample_exponential_noise_batch(gamma, grid, seed, range(n_traj))
    q0, p0, sigma0, lns0 = _per_horizon_route(params, gamma, grid, w, idx, state0)
    for new, old in ((q, q0), (p, p0)):
        scale = np.max(np.abs(old))
        err = np.max(np.abs(new - old), axis=0)
        assert np.all(err <= rel * scale), (err / scale, rel)
    lns0 = lns0 + _norm_constant(params, gamma, grid, idx, state0)
    np.testing.assert_allclose(lns, lns0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(sigma, sigma0, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("lam", [0.0, 1e-18, 1e-8, 1e-4, 0.1, 2.0])
@pytest.mark.parametrize("gamma", [0.3, 1.0, 30.0, 1e3])
@pytest.mark.parametrize("x0,p0", [(1.0, 0.5), (0.0, 0.0)])
def test_single_pass_matches_per_horizon_route(lam, gamma, x0, p0):
    # lam = 1e-18 puts h on its lam -> 0 branch; the noise-only state makes
    # q and p pure noise response.  Both routes lose eps/|u2 t| to rounding
    # at small |u2 t| (the per-horizon h documents it), hence the bound.
    params = make_params(m=1.0, hbar=1.0, lam=lam)
    grid = make_grid(1.0, 257)
    idx = np.unique(np.rint(np.geomspace(1, 256, 10)).astype(int))
    assert idx[0] == 1
    u2 = abs(characteristic_roots(gamma, params.omega_collapse).upsilon2)
    t = grid.nodes()[idx]
    rel = np.maximum(1e-12, 1e-15 / np.maximum(u2 * t, 1e-300))
    state0 = gaussian_from_moments(x0, p0, 1.0, params)
    _assert_routes_agree(params, gamma, grid, idx, state0, _CHUNK_ROWS + 3, 11, rel)


def test_single_pass_matches_at_the_benchmark_point():
    grid = make_grid(1.0, 2001)
    idx = np.array([1, 40, 500, 1333, 2000])
    _assert_routes_agree(CRIT, 1.0, grid, idx, _fixture_state(CRIT), 6, 3, 1e-12)


def test_free_particle_keeps_unit_norm():
    # without coupling the evolution is unitary: every raw norm is 1
    grid = make_grid(2.0, 129)
    idx = np.array([1, 7, 64, 128])
    for sigma0 in (1.0, 0.3):
        state0 = gaussian_from_moments(1.0, 0.5, sigma0, FREE)
        _, _, _, lns = _moment_curves(FREE, 1.0, grid, idx, state0, 4, range(20))
        assert np.max(np.abs(lns)) <= 1e-12


def test_reference_mean_of_the_squared_norm_is_one():
    # E_ref |psi_t|^2 = 1 for the linear equation (trace preservation of the
    # ensemble).  At lam = 1, gamma = 5 the weights degenerate and this
    # estimate goes unresolved, so the test stays at a well-sampled point.
    grid = make_grid(1.0, 257)
    idx = np.array([64, 128, 256])
    n_traj = 4000
    z = NormalDist().inv_cdf(1.0 - 1e-6 / (2.0 * 2 * idx.size))
    for sigma0 in (1.0, 0.3):
        state0 = gaussian_from_moments(1.0, 0.5, sigma0, CRIT)
        _, _, _, lns = _moment_curves(CRIT, 1.0, grid, idx, state0, 5, range(n_traj))
        norm_sq = np.exp(lns)
        se = norm_sq.std(axis=0, ddof=1) / math.sqrt(n_traj)
        assert np.all(np.abs(norm_sq.mean(axis=0) - 1.0) <= z * se), (norm_sq.mean(axis=0), se)


@pytest.mark.parametrize("n_traj", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
def test_block_rows_equal_single_trajectories(n_traj):
    # every block, the partial last one too, reuses one workspace; a row
    # must come out as it does alone, bit for bit
    grid = make_grid(1.0, 257)
    idx = np.array([3, 128, 192])
    state0 = _fixture_state(CRIT)
    q, p, _, lns = _moment_curves(CRIT, 1.0, grid, idx, state0, 9, range(n_traj))
    for i in {0, _CHUNK_ROWS - 1, _CHUNK_ROWS, n_traj - 1} & set(range(n_traj)):
        q1, p1, _, lns1 = _moment_curves(CRIT, 1.0, grid, idx, state0, 9, [i])
        assert np.array_equal(q1[0], q[i])
        assert np.array_equal(p1[0], p[i])
        assert np.array_equal(lns1[0], lns[i])


def test_runs_share_no_state():
    # different row counts, grids and horizons in one process, in both
    # orders: each run's stats are those of the run alone
    state0 = _fixture_state(CRIT)
    runs = {
        "a": lambda: run_ensemble(CRIT, 1.0, state0, [0.5, 1.0], 130, 7,
                                  grid=make_grid(1.0, 257)),
        "b": lambda: run_ensemble(CRIT, 1e3, state0, [0.01, 0.2, 0.3], 5, 8,
                                  grid=make_grid(0.4, 401)),
    }
    first = {name: run() for name, run in runs.items()}
    again = {name: run() for name, run in reversed(runs.items())}
    for name in runs:
        for field in ("times", "mean_q", "se_q", "mean_p", "se_p", "v_q", "se_vq",
                      "sigma_q", "ess"):
            assert np.array_equal(getattr(first[name], field),
                                  getattr(again[name], field)), (name, field)


def test_memory_touched_does_not_grow_with_the_ensemble():
    # a run's buffers are one workspace, so from 256 to 2048 trajectories
    # the minor page faults of a warm run_ensemble stay flat; allocating
    # (rows, N) temporaries per block costs about 90k more
    resource = pytest.importorskip("resource")
    if not sys.platform.startswith("linux"):
        pytest.skip("minor page fault counts are read on Linux")
    grid = make_grid(1.0, 2001)
    state0 = _fixture_state(CRIT)

    def faults(n_traj):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_ensemble(CRIT, 1.0, state0, [0.5, 1.0], n_traj, 3, grid=grid)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(256)
    growth = faults(2048) - faults(256)
    assert growth < 1000, growth
