"""Trajectory statistics: the physical measure, determinism, aggregation identities."""

import math
import sys
import threading
import time
from statistics import NormalDist

import numpy as np
import pytest

import nmsse.ensemble
from nmsse.core import InvalidGridError, InvalidParameterError, make_grid, make_params
from nmsse.ensemble import _CHUNK_ROWS, _moment_curves, _worker_count, run_ensemble
from nmsse.kernels import f_endpoint_scalars, f_exponential, h_exponential_batch
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


@pytest.mark.parametrize("n_traj", [64, 256])
def test_free_particle_statistics_are_exactly_those_of_one_row(n_traj):
    # every row is the same at lam = 0, and the statistics must say so
    # exactly: a weighted sum of the rows themselves misses them by a few
    # ulps on this grid, which reads as a nonzero spread with a tiny
    # standard error
    grid = make_grid(1.0, 2001)
    idx = np.rint(np.linspace(1, 2000, 8)).astype(int)
    state0 = _fixture_state(FREE)
    q, p, _, _ = _moment_curves(FREE, 1.0, grid, idx, state0, 42, [0])
    stats = run_ensemble(FREE, 1.0, state0, grid.nodes()[idx], n_traj, 42, grid=grid)
    assert np.array_equal(stats.mean_q, q[0])
    assert np.array_equal(stats.mean_p, p[0])
    for name in ("v_q", "se_q", "se_p", "se_vq"):
        assert np.all(getattr(stats, name) == 0.0), name


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

    # re-aggregate the rows, each computed alone, one sample time at a time,
    # and compare with the ensemble's statistics
    q, p, _, lns = (np.concatenate([r[k] for r in rows]) for k in range(4))
    for j in range(len(ts)):
        wts = np.exp(lns[:, j] - lns[:, j].max())
        wts /= wts.sum()
        mean_q, mean_p = float(wts @ q[:, j]), float(wts @ p[:, j])
        dq2 = (q[:, j] - mean_q) ** 2
        v2 = float(wts @ dq2)
        want = {
            "mean_q": mean_q,
            "se_q": math.sqrt(float(wts * wts @ dq2)),
            "mean_p": mean_p,
            "se_p": math.sqrt(float(wts * wts @ (p[:, j] - mean_p) ** 2)),
            "v_q": math.sqrt(v2),
            "se_vq": 0.5 * math.sqrt(float(wts * wts @ (dq2 - v2) ** 2)) / math.sqrt(v2),
            "ess": 1.0 / float(np.sum(wts * wts)),
        }
        for name, value in want.items():
            assert getattr(stats, name)[j] == pytest.approx(value, rel=1e-12), (name, j)


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
    # physical (norm-weighted) measure of run_ensemble must instead track
    # the classical line.  The flat reference average comes from the rows.
    t = 1.0
    grid = make_grid(t, 257)
    state0 = _fixture_state(CRIT)
    q = _moment_curves(CRIT, 1.0, grid, np.array([256]), state0, 5, range(800))[0][:, 0]
    ref_mean, ref_se = q.mean(), q.std() / math.sqrt(q.size)
    phys = run_ensemble(CRIT, 1.0, state0, [t], 800, 5, grid=grid)

    coeffs = greens_coefficients(t, CRIT, 1.0, grid=grid)
    denom = state0.alpha + coeffs.A
    alpha_t = (state0.alpha * coeffs.A + coeffs.det) / denom
    beta_mean = coeffs.B * state0.beta / (2.0 * denom)
    want_ref = beta_mean.real / (2.0 * alpha_t.real)

    assert abs(ref_mean - want_ref) <= 4.0 * ref_se
    assert abs(phys.mean_q[0] - 1.5) <= 4.0 * phys.se_q[0]
    # the two targets are genuinely separated at this coupling
    assert want_ref < 1.4


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
    for n_traj in (0, True, 2.0, 2.5, np.float64(2.0)):
        with pytest.raises(InvalidParameterError, match="n_traj"):
            run_ensemble(CRIT, 1.0, state0, [1.0], n_traj, 42, grid=grid)
    stats = run_ensemble(CRIT, 1.0, state0, [1.0], np.int64(2), 42, grid=grid)
    assert type(stats.n_traj) is int and stats.n_traj == 2


@pytest.mark.parametrize("seed", [1.5, True, -1, 2**64])
def test_run_ensemble_rejects_a_bad_master_seed(seed):
    grid = make_grid(1.0, 17)
    with pytest.raises(InvalidParameterError, match="master_seed"):
        run_ensemble(CRIT, 1.0, _fixture_state(CRIT), [1.0], 2, seed, grid=grid)


def test_infinite_memory_rate_has_no_sampler():
    # the stationary variance gamma/2 diverges, so there is no pointwise
    # path to draw; the white-noise limit is reachable only through kernels
    grid = make_grid(1.0, 257)
    state0 = _fixture_state(CRIT)
    with pytest.raises(InvalidParameterError, match="finite"):
        run_ensemble(CRIT, math.inf, state0, [1.0], 2, 42, grid=grid)


def test_an_early_horizon_matches_its_prefix_grid():
    # t = 0.5 is node 256 of the 513-node grid on [0, 1], so its statistics
    # are those of the 257-node grid on [0, 0.5]
    state0 = _fixture_state(CRIT)
    stats = run_ensemble(CRIT, 1.0, state0, [0.5, 1.0], 2, 42, grid=make_grid(1.0, 513))
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
        p_sum, q_diff = f_endpoint_scalars(t, params, gamma)
        alpha_t = (state0.alpha * A + mu * mu * p_sum * q_diff) / denom
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
    # lam = 1e-18 and 1e-8 put the early horizons, or all of them, on the
    # sinh kernel of h's particular part; the noise-only state makes q and p
    # pure noise response
    params = make_params(m=1.0, hbar=1.0, lam=lam)
    grid = make_grid(1.0, 257)
    idx = np.unique(np.rint(np.geomspace(1, 256, 10)).astype(int))
    assert idx[0] == 1
    state0 = gaussian_from_moments(x0, p0, 1.0, params)
    _assert_routes_agree(params, gamma, grid, idx, state0, _CHUNK_ROWS + 3, 11, 1e-12)


def test_single_pass_matches_at_the_benchmark_point():
    grid = make_grid(1.0, 2001)
    idx = np.array([1, 40, 500, 1333, 2000])
    _assert_routes_agree(CRIT, 1.0, grid, idx, _fixture_state(CRIT), 6, 3, 1e-12)


# run_ensemble outputs frozen at N = 257, 64 trajectories, master seed 2009
# and the fixture state, horizons at the nodes _PIN_NODES.
_PIN_NODES = [1, 4, 16, 50, 128, 200, 256]
_OUTPUT_PINS = {
    (0.1, 1.0): {
        "mean_q": [1.00195031501978, 1.007732768895381, 1.0311673941234276, 1.0938513446017186,
                1.2343613620365788, 1.3529591532515348, 1.4425167718135476],
        "se_q": [0.00021742642306404777, 0.0008698900982834916, 0.0033323656784362645, 0.010309335608231161,
                0.024594112762792265, 0.03864975564246267, 0.050957991402001926],
        "mean_p": [0.499999999287935, 0.4999997835845496, 0.49999992438378615, 0.4998737897188186,
                0.49894315527800936, 0.49594400465989175, 0.49260705496968943],
        "se_p": [1.0693413573145264e-07, 1.7014997341529625e-06, 2.5847947491727893e-05, 0.000255453809493747,
                0.001533209326114461, 0.0037644408713429166, 0.006299072143858378],
        "v_q": [0.0017397374658362531, 0.006963448403269393, 0.026713907783110728, 0.08309836084636119,
                0.19573113933672304, 0.29222329151331955, 0.3695255569206826],
        "se_vq": [0.00010917131662316001, 0.0004213234219213555, 0.001577875817057495, 0.005170605656947509,
                0.012790271013841047, 0.0192565840773563, 0.024196610012169113],
        "sigma_q": [1.0000003834548208, 1.0000062302259858, 1.0001056760356164, 1.0011897713743645,
                1.0098164863022083, 1.027314394437448, 1.047691523294822],
        "ess": [63.99980598573848, 63.99687694038136, 63.95314834173064, 63.52893740793697,
                61.16388692438623, 57.23018148022512, 53.075694294216675],
    },
    (2.0, 30.0): {
        "mean_q": [1.0020530940322456, 1.0003362100694126, 0.9918557582548151, 0.7412328610579715,
                0.41961259905334275, 0.36293837768973763, 0.19769092508651198],
        "se_q": [0.005265315829880822, 0.019927229627724308, 0.06139056249029053, 0.11978031451315017,
                0.3113279387818855, 0.18558143962890017, 0.10684319486144962],
        "mean_p": [0.5000001556694689, 0.4999785799032092, 0.4997992932122197, 0.4886682203904532,
                0.4070034411877934, 0.27639651213074923, 0.103226448857576],
        "se_p": [2.692806077443441e-06, 4.031493417294129e-05, 0.0006023798870971514, 0.0060294275771249186,
                0.03461085571712379, 0.1522070601023976, 0.13716212546524587],
        "v_q": [0.042242670551907925, 0.15764029677722094, 0.4117176588518431, 0.6432708460306693,
                0.8235541972730109, 0.661022746342705, 0.5508263573390316],
        "se_vq": [0.0024209463280832695, 0.011241742811684365, 0.03302542232496083, 0.07189080668883306,
                0.1681167609856403, 0.10104901502644878, 0.056243302690873444],
        "sigma_q": [0.999122280282814, 0.9876592200056927, 0.8863578589597569, 0.665413667328543,
                0.5195627572213734, 0.54281883158384, 0.5811294956676679],
        "ess": [63.8862436552495, 62.40764791682838, 50.497772958404155, 33.661988992856955,
                13.178110015644029, 21.32351866809918, 34.03444212115432],
    },
    (0.1, 1000.0): {
        "mean_q": [1.0028396594145652, 1.002898646767425, 1.0620494746684401, 1.1789626506348618,
                1.3560407620303252, 1.5745930588942514, 1.5809877422716414],
        "se_q": [0.005064395651214211, 0.014048634253261456, 0.03463302050764596, 0.0646125894582726,
                0.13031777094371777, 0.15667590795575922, 0.11737167703443568],
        "mean_p": [0.5000006474968637, 0.4999904242363594, 0.5002391408310398, 0.5025388686527557,
                0.5037912826470636, 0.5259720030227042, 0.5076691555904839],
        "se_p": [3.091930262010975e-06, 3.276067517901002e-05, 0.0003552660717790134, 0.0018900349511445616,
                0.006932695219452924, 0.02653981353673661, 0.017506250384264004],
        "v_q": [0.04057408047871254, 0.10939484314996228, 0.2489097632959475, 0.4346605763040873,
                0.6333952925804597, 0.7173282244848231, 0.7145756540499629],
        "se_vq": [0.0026873019218874904, 0.010222520124198053, 0.026325969532884536, 0.03620190774384983,
                0.07690536804463573, 0.05171951357189715, 0.0628239330203388],
        "sigma_q": [0.9994171470464985, 0.9971182571062246, 0.988408661340674, 0.9679736850128148,
                0.9431786173524326, 0.9444313292544863, 0.9586189097998317],
        "ess": [63.89473729513646, 63.21320487131985, 59.464328889970425, 49.926858827214005,
                32.192777727928586, 22.37143307647392, 29.07652587807086],
    },
}


@pytest.mark.parametrize("lam,gamma", list(_OUTPUT_PINS))
def test_outputs_match_frozen_values(lam, gamma):
    # a speed change that keeps the formulas moves these by rounding only;
    # gamma = 1e3 scans in blocks
    params = make_params(m=1.0, hbar=1.0, lam=lam)
    grid = make_grid(1.0, 257)
    stats = run_ensemble(params, gamma, _fixture_state(params), grid.nodes()[_PIN_NODES],
                         64, 2009, grid=grid)
    for field, want in _OUTPUT_PINS[lam, gamma].items():
        got = getattr(stats, field)
        bound = 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(got - np.array(want))) <= bound, field


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
    # The Van Vleck prefactor misses the fluctuation determinant (ROADMAP
    # F12), so the mean here is 1 + 5.2e-5 at t = 1, not 1; the test still
    # passes because its bound z * se (z = 5.2, se from 1.8e-3 to 9.5e-3)
    # is over 100 times that floor.
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


_ROW_COUNTS = [1, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1]
_THREE_HORIZONS = (3, 128, 192)
_FIFTY_HORIZONS = tuple(np.rint(np.linspace(1, 256, 50)).astype(int))


@pytest.mark.parametrize("gamma,nodes,n_traj", (
    [pytest.param(1.0, _THREE_HORIZONS, n, id=str(n)) for n in _ROW_COUNTS]
    # gamma dt = 3.9: the sampler and both convolutions scan in several blocks
    + [pytest.param(1e3, _THREE_HORIZONS, n, id=f"multi-block-{n}") for n in _ROW_COUNTS]
    + [pytest.param(1.0, _FIFTY_HORIZONS, n, id=f"50-horizons-{n}") for n in _ROW_COUNTS]))
def test_block_rows_equal_single_trajectories(monkeypatch, gamma, nodes, n_traj):
    # every block, the partial last one too, reuses its thread's workspace;
    # a row must come out as it does alone, bit for bit, on any number of
    # threads, also at the edges of a thread's block of _CHUNK_ROWS // W rows
    grid = make_grid(1.0, 257)
    idx = np.array(nodes)
    state0 = _fixture_state(CRIT)
    for workers in (1, 2, 3):
        monkeypatch.setattr(nmsse.ensemble, "_worker_count", lambda w=workers: w)
        q, p, _, lns = _moment_curves(CRIT, gamma, grid, idx, state0, 9, range(n_traj))
        edges = {0, _CHUNK_ROWS // workers - 1, _CHUNK_ROWS // workers,
                 _CHUNK_ROWS - 1, _CHUNK_ROWS, n_traj - 1}
        for i in edges & set(range(n_traj)):
            q1, p1, _, lns1 = _moment_curves(CRIT, gamma, grid, idx, state0, 9, [i])
            assert np.array_equal(q1[0], q[i]), (workers, i)
            assert np.array_equal(p1[0], p[i]), (workers, i)
            assert np.array_equal(lns1[0], lns[i]), (workers, i)


@pytest.mark.parametrize("gamma", [1.0, 1e3])
@pytest.mark.parametrize("n_traj", _ROW_COUNTS)
def test_outputs_do_not_depend_on_the_worker_count(monkeypatch, gamma, n_traj):
    # gamma = 1e3 scans in several blocks; up to four threads, more than the
    # CPUs of a small machine, switching every microsecond
    grid = make_grid(1.0, 257)
    state0 = _fixture_state(CRIT)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(nmsse.ensemble, "_worker_count", lambda w=workers: w)
            runs.append(_moment_curves(CRIT, gamma, grid, np.array(_THREE_HORIZONS), state0, 4,
                                       range(n_traj)))
    finally:
        sys.setswitchinterval(interval)
    for other in runs[1:]:
        for want, got in zip(runs[0], other):
            assert np.array_equal(want, got)


def _cpu_set(monkeypatch, cpus):
    monkeypatch.setattr(nmsse.ensemble.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


@pytest.mark.parametrize("cpus,workers", [(1, 1), (2, 2), (3, 3), (8, 4)])
def test_worker_count_follows_the_cpu_set(monkeypatch, cpus, workers):
    _cpu_set(monkeypatch, cpus)
    assert _worker_count() == workers


@pytest.mark.parametrize("cpus,n_traj,threads", [
    (2, 64, 1),      # one block of 64 rows: nothing to share
    (2, 200, 2),
    (3, 84, 2),      # two blocks of 42 rows start no third thread
    (3, 85, 3),
])
def test_a_run_starts_no_more_threads_than_blocks(monkeypatch, cpus, n_traj, threads):
    # the pause keeps each block busy long enough for every started thread
    # to take one
    sample = nmsse.ensemble.sample_exponential_noise_batch
    seen = set()

    def counting(*args, **kwargs):
        seen.add(threading.get_ident())
        time.sleep(0.02)
        return sample(*args, **kwargs)

    _cpu_set(monkeypatch, cpus)
    monkeypatch.setattr(nmsse.ensemble, "sample_exponential_noise_batch", counting)
    _moment_curves(CRIT, 1.0, make_grid(1.0, 65), np.array([64]), _fixture_state(CRIT), 3,
                   range(n_traj))
    assert len(seen) == threads


@pytest.mark.parametrize("cpus,n_traj,sets", [(2, 64, 1), (2, 200, 2), (3, 85, 3)])
def test_the_calling_thread_makes_one_buffer_set_per_thread(monkeypatch, cpus, n_traj, sets):
    # made by each call's new threads, a set would land in whichever malloc
    # arena its thread got, and peak memory would move by one set from run
    # to run
    scratch = nmsse.ensemble._HorizonKernels.scratch
    made_on = []

    def recording(self, rows):
        made_on.append(threading.current_thread())
        return scratch(self, rows)

    _cpu_set(monkeypatch, cpus)
    monkeypatch.setattr(nmsse.ensemble._HorizonKernels, "scratch", recording)
    _moment_curves(CRIT, 1.0, make_grid(1.0, 65), np.array([64]), _fixture_state(CRIT), 3,
                   range(n_traj))
    assert made_on == [threading.current_thread()] * sets


def test_a_failing_thread_surfaces_and_leaves_none_running(monkeypatch):
    # the block at row _CHUNK_ROWS // 2 is the second of eight; it fails
    # late, after the other thread has run blocks of its own, and the
    # calling thread runs none
    sample = nmsse.ensemble.sample_exponential_noise_batch
    failed_on = []

    def failing(gamma, grid, master_seed, rows, **kwargs):
        if rows[0] == _CHUNK_ROWS // 2:
            failed_on.append(threading.current_thread())
            time.sleep(0.1)
            raise InvalidParameterError("planted failure")
        return sample(gamma, grid, master_seed, rows, **kwargs)

    monkeypatch.setattr(nmsse.ensemble, "_worker_count", lambda: 2)
    monkeypatch.setattr(nmsse.ensemble, "sample_exponential_noise_batch", failing)
    before = threading.active_count()
    with pytest.raises(InvalidParameterError, match="planted failure"):
        run_ensemble(CRIT, 1.0, _fixture_state(CRIT), [0.5, 1.0], 4 * _CHUNK_ROWS, 7,
                     grid=make_grid(1.0, 257))
    assert failed_on and failed_on[0] is not threading.current_thread()
    assert threading.active_count() == before


def test_a_failing_block_cancels_the_blocks_not_started(monkeypatch):
    # the first block fails at once while the other thread's blocks take
    # 20 ms each: of 16 blocks, only those already running may still start
    sample = nmsse.ensemble.sample_exponential_noise_batch
    started = []

    def failing(gamma, grid, master_seed, rows, **kwargs):
        started.append(rows[0])
        if rows[0] == 0:
            raise InvalidParameterError("planted failure")
        time.sleep(0.02)
        return sample(gamma, grid, master_seed, rows, **kwargs)

    monkeypatch.setattr(nmsse.ensemble, "_worker_count", lambda: 2)
    monkeypatch.setattr(nmsse.ensemble, "sample_exponential_noise_batch", failing)
    with pytest.raises(InvalidParameterError, match="planted failure"):
        run_ensemble(CRIT, 1.0, _fixture_state(CRIT), [0.5, 1.0], 8 * _CHUNK_ROWS, 7,
                     grid=make_grid(1.0, 65))
    assert len(started) < 8, started


def test_the_first_failing_block_in_row_order_is_raised(monkeypatch):
    # the later block fails at once, the earlier one 50 ms later: the error
    # must not depend on which thread finishes first
    sample = nmsse.ensemble.sample_exponential_noise_batch

    def failing(gamma, grid, master_seed, rows, **kwargs):
        if rows[0] == 0:
            time.sleep(0.05)
            raise InvalidParameterError("earlier block")
        if rows[0] == _CHUNK_ROWS // 2:
            raise InvalidParameterError("later block")
        return sample(gamma, grid, master_seed, rows, **kwargs)

    monkeypatch.setattr(nmsse.ensemble, "_worker_count", lambda: 2)
    monkeypatch.setattr(nmsse.ensemble, "sample_exponential_noise_batch", failing)
    with pytest.raises(InvalidParameterError, match="earlier block"):
        run_ensemble(CRIT, 1.0, _fixture_state(CRIT), [0.5, 1.0], 4 * _CHUNK_ROWS, 7,
                     grid=make_grid(1.0, 65))


def test_statistics_stay_finite_where_b_rounds_to_zero():
    # at long horizons B = mu (P - Q) = 2 mu f'(t) is rounding, and at these
    # nodes exactly 0; an unfloored log|B| = -inf makes every weight NaN
    params = make_params(m=1.0, hbar=1.0, lam=2.0, unit_mode="scaled")
    grid = make_grid(30.0, 3001)
    nodes = grid.nodes()[1:]
    P, Q = f_endpoint_scalars(nodes, params, 30.0)
    ts = nodes[P == Q]
    assert ts.size > 0
    stats = run_ensemble(params, 30.0, gaussian_from_moments(1.0, 0.5, 1.0, params), ts, 8, 7,
                         grid=grid)
    for field in ("mean_q", "se_q", "mean_p", "se_p", "v_q", "se_vq", "sigma_q", "ess"):
        assert np.all(np.isfinite(getattr(stats, field))), field


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


@pytest.mark.parametrize("lam", [0.1, 1e-18])
def test_memory_touched_does_not_grow_with_the_ensemble(lam):
    # a run's buffers are one workspace, so from 256 to 2048 trajectories
    # the minor page faults of a warm run_ensemble stay flat; allocating
    # (rows, N) temporaries per block costs about 90k more.  lam = 1e-18
    # takes the vanishing-coupling branch of h.
    resource = pytest.importorskip("resource")
    if not sys.platform.startswith("linux"):
        pytest.skip("minor page fault counts are read on Linux")
    grid = make_grid(1.0, 2001)
    params = make_params(m=1.0, hbar=1.0, lam=lam)
    state0 = _fixture_state(params)

    def faults(n_traj):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_ensemble(params, 1.0, state0, [0.5, 1.0], n_traj, 3, grid=grid)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(256)
    growth = faults(2048) - faults(256)
    assert growth < 1000, growth
