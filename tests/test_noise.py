"""Correlated-noise sampling and the correlation kernel."""

import inspect
import math

import numpy as np
import pytest

import nmsse
from nmsse.core import InvalidParameterError, make_grid, make_params
from nmsse.ensemble import run_ensemble
from nmsse.kernels import (characteristic_roots, f_exponential, f_ratio_form, h_exponential,
                           kernel_residual, solve_f_numeric, solve_h_numeric)
from nmsse.noise import (NoisePath, _ou_covariance, _step_deviation, exponential_kernel,
                         sample_exponential_noise, sample_exponential_noise_batch)
from nmsse.oracle import assemble_action, oracle_coefficients, oracle_convergence
from nmsse.propagator import (asymptotic_spread, functional_derivative_coeffs,
                              gaussian_from_moments, greens_coefficients, spread_curve)


def test_same_key_is_bit_identical():
    grid = make_grid(1.0, 257)
    a = sample_exponential_noise(1.0, grid, 42, 3)
    b = sample_exponential_noise(1.0, grid, 42, 3)
    assert np.array_equal(a.values, b.values)


def test_different_trajectory_index_differs():
    grid = make_grid(1.0, 257)
    a = sample_exponential_noise(1.0, grid, 42, 0)
    b = sample_exponential_noise(1.0, grid, 42, 1)
    assert not np.array_equal(a.values, b.values)


def test_batch_rows_match_single_draws():
    grid = make_grid(1.0, 129)
    w = sample_exponential_noise_batch(2.0, grid, 7, [0, 5, 9])
    assert w.shape == (3, 129)
    for row, idx in zip(w, (0, 5, 9)):
        single = sample_exponential_noise(2.0, grid, 7, idx)
        assert np.array_equal(row, single.values)


def _step_recursion(gamma, grid, master_seed, keys):
    """The sampler's recursion w_k = rho w_{k-1} + sd xi_k stepped node by
    node on the Philox streams keyed (master_seed, key): an independent
    reference for the blocked scan."""
    xi = np.array([np.random.Generator(np.random.Philox(key=[master_seed, k]))
                   .standard_normal(grid.n) for k in keys])
    rho = math.exp(-gamma * grid.dt)
    sd = math.sqrt((gamma / 2.0) * -math.expm1(-2.0 * gamma * grid.dt))
    w = np.empty_like(xi)
    w[:, 0] = math.sqrt(gamma / 2.0) * xi[:, 0]
    for k in range(1, grid.n):
        w[:, k] = rho * w[:, k - 1] + sd * xi[:, k]
    return w


@pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
def test_step_deviation_matches_40_digits(gamma):
    # 1 - rho^2 formed as a difference lost log10(1/(2 gamma dt)) digits:
    # 6.3e-11 relative at gamma = 1e-3, 1.5e-14 at gamma = 1
    mpmath = pytest.importorskip("mpmath")
    dt = make_grid(1.0, 2001).dt
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        want = mpmath.sqrt(g / 2 * (1 - mpmath.exp(-2 * g * mpmath.mpf(dt))))
        err = abs((mpmath.mpf(_step_deviation(gamma, dt)) - want) / want)
    assert err <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3, 1e5])
def test_scan_matches_the_step_recursion(gamma):
    # gamma dt = 5e-4 gamma: one block up to gamma = 1, blocks of 80 nodes at
    # 1e3, blocks of one node at 1e5.  The reference multiplies by the
    # rounded rho once per step, so where rho^k stays near 1 (gamma t << 1)
    # it drifts by up to k eps/2 of the path (1.1e-13 at gamma = 1e-3 here);
    # the scan takes e^{-gamma dt m} from exp.  Bound: N eps of the path.
    grid = make_grid(1.0, 2001)
    keys = [0, 7, 2**40]
    got = sample_exponential_noise_batch(gamma, grid, 3, keys)
    want = _step_recursion(gamma, grid, 3, keys)
    bound = grid.n * np.finfo(float).eps * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("gamma", [1.0, 1e3, 1e5])
@pytest.mark.parametrize("size", [3, 128, 129])
def test_a_row_does_not_depend_on_its_batch(gamma, size):
    grid = make_grid(1.0, 2001)
    keys = [11] + list(range(100, 100 + size - 2)) + [12]
    batch = sample_exponential_noise_batch(gamma, grid, 5, keys)
    # into a workspace-like buffer: the first rows of a larger one
    buf = np.full((size + 4, grid.n), np.nan)
    into = sample_exponential_noise_batch(gamma, grid, 5, keys, out=buf[:size])
    assert into.base is buf
    for pos in (0, size - 1):
        alone = sample_exponential_noise_batch(gamma, grid, 5, [keys[pos]])[0]
        assert np.array_equal(batch[pos], alone)
        assert np.array_equal(buf[pos], alone)
    assert np.all(np.isnan(buf[size:]))


def test_master_seeds_keep_their_64_bits():
    # the key is built as uint64: through float64, 2**64 - 1 and 2**64 - 2
    # became key 0 and 2**63 + 1 became 2**63
    grid = make_grid(1.0, 65)
    draw = lambda seed: sample_exponential_noise_batch(1.0, grid, seed, [0, 1])
    seeds = [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]
    paths = [draw(seed) for seed in seeds]
    for i in range(len(seeds)):
        for j in range(i):
            assert not np.array_equal(paths[i], paths[j]), (seeds[i], seeds[j])


def test_rows_are_the_keyed_philox_streams():
    # gamma dt = 2500: rho = 0 and both scales are 1, so each row is its
    # standard normals.  One bit generator reset per key draws what a fresh
    # one per key draws, and below 2**63 what a list key always drew.
    grid = make_grid(1e4, 9)
    for seed, key in ((0, 0), (7, 3), (42, 3000), (2**63 + 1, 2), (2**64 - 1, 2**40)):
        row = sample_exponential_noise_batch(2.0, grid, seed, [5, key])[1]
        bits = np.random.Philox(key=np.array([seed, key], dtype=np.uint64))
        assert np.array_equal(row, np.random.Generator(bits).standard_normal(grid.n))
        if seed < 2**63:
            bits = np.random.Philox(key=[seed, key])
            assert np.array_equal(row, np.random.Generator(bits).standard_normal(grid.n))


@pytest.mark.parametrize("seed,index", [
    (1.5, 0), (1.0, 0), (np.float64(1.0), 0), (True, 0), (np.True_, 0), ("1", 0),
    (None, 0), (-1, 0), (2**64, 0), (0, 2.9), (0, True), (0, -1), (0, 2**64),
])
def test_keys_must_be_64_bit_unsigned_integers(seed, index):
    # 1.5 drew the noise of seed 1, index 2.9 that of index 2 and True that
    # of seed 1; -1 and 2**64 raised OverflowError
    grid = make_grid(1.0, 9)
    with pytest.raises(InvalidParameterError, match="2\\*\\*64"):
        sample_exponential_noise_batch(1.0, grid, seed, [3, index])
    with pytest.raises(InvalidParameterError, match="2\\*\\*64"):
        sample_exponential_noise(1.0, grid, seed, index)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 1, 2**64 - 1])
def test_integer_types_key_the_same_stream(seed):
    grid = make_grid(1.0, 33)
    want = sample_exponential_noise_batch(1.0, grid, seed, [0, 2**64 - 1])
    for kind in (np.uint64, np.int64) if seed < 2**63 else (np.uint64,):
        got = sample_exponential_noise_batch(1.0, grid, kind(seed),
                                             [kind(0), np.uint64(2**64 - 1)])
        assert np.array_equal(got, want)


def test_rejects_nonfinite_gamma():
    grid = make_grid(1.0, 9)
    with pytest.raises(InvalidParameterError):
        sample_exponential_noise(math.inf, grid, 0, 0)
    with pytest.raises(InvalidParameterError):
        sample_exponential_noise(0.0, grid, 0, 0)


_PARAMS = make_params(m=1.0, hbar=1.0, lam=0.1)
_GRID = make_grid(1.0, 9)
_NOISE = NoisePath(_GRID, np.ones(_GRID.n))
_FINE = NoisePath(make_grid(1.0, 513), np.ones(513))

# Every public route that takes gamma, by name.  The closed forms take
# gamma = inf as the white-noise limit (greens_coefficients without noise
# only); every other route refuses it.
GAMMA_ROUTES = {
    "exponential_kernel": exponential_kernel,
    "characteristic_roots": lambda g: characteristic_roots(g, 1.0),
    "f_exponential": lambda g: f_exponential(1.0, _PARAMS, g, _GRID),
    "f_ratio_form": lambda g: f_ratio_form(1.0, _PARAMS, g, _GRID),
    "h_exponential": lambda g: h_exponential(1.0, _PARAMS, g, _NOISE),
    "functional_derivative_coeffs": lambda g: functional_derivative_coeffs(
        1.0, _PARAMS, g, _NOISE),
    "spread_curve": lambda g: spread_curve([0.5, 1.0], _PARAMS, g, 1.0),
    "asymptotic_spread": lambda g: asymptotic_spread(_PARAMS, g),
    "greens_coefficients": lambda g: greens_coefficients(1.0, _PARAMS, g),
    "greens_coefficients with noise": lambda g: greens_coefficients(
        1.0, _PARAMS, g, noise=_NOISE),
    "sample_exponential_noise": lambda g: sample_exponential_noise(g, _GRID, 0),
    "sample_exponential_noise_batch": lambda g: sample_exponential_noise_batch(g, _GRID, 0, [0]),
    "run_ensemble": lambda g: run_ensemble(
        _PARAMS, g, gaussian_from_moments(0.0, 0.0, 1.0, _PARAMS), [1.0], 2, 0, grid=_GRID),
    "solve_f_numeric": lambda g: solve_f_numeric(1.0, _PARAMS, g, _GRID),
    "solve_h_numeric": lambda g: solve_h_numeric(1.0, _PARAMS, g, _NOISE),
    "kernel_residual": lambda g: kernel_residual(
        [f_exponential(1.0, _PARAMS, 1.0, _GRID)], _PARAMS, g),
    "assemble_action": lambda g: assemble_action(_PARAMS, g, _NOISE),
    "oracle_coefficients": lambda g: oracle_coefficients(1.0, _PARAMS, g, _NOISE),
    "oracle_convergence": lambda g: oracle_convergence(1.0, _PARAMS, g, _FINE),
}
WHITE_NOISE_ROUTES = {"f_exponential", "h_exponential", "functional_derivative_coeffs",
                      "spread_curve", "asymptotic_spread", "greens_coefficients"}


@pytest.mark.parametrize("route,gamma", [
    (route, gamma) for route in GAMMA_ROUTES
    for gamma in (0, -1.0, math.nan, True, math.inf, -math.inf)
    if not (gamma == math.inf and route in WHITE_NOISE_ROUTES)])
def test_every_route_checks_gamma_by_one_rule(route, gamma):
    with pytest.raises(InvalidParameterError, match="gamma must be positive and finite"):
        GAMMA_ROUTES[route](gamma)


def test_the_gamma_routes_are_every_public_route_that_takes_gamma():
    public = (getattr(nmsse, name) for name in nmsse.__all__)
    takes_gamma = {f.__name__ for f in public
                   if inspect.isfunction(f) and "gamma" in inspect.signature(f).parameters}
    # assemble_action, the oracle's dense reference, is not exported
    assert takes_gamma | {"assemble_action"} == {route.split()[0] for route in GAMMA_ROUTES}


def test_the_gamma_rule_returns_a_float():
    for g in (2, np.float64(2.0), np.int64(2), 2.0):
        assert type(exponential_kernel(g)) is float and exponential_kernel(g) == 2.0
    with pytest.raises(InvalidParameterError, match="gamma must be positive and finite"):
        exponential_kernel("2")


def test_ou_covariance_symmetric_and_decaying():
    t = np.array([0.0, 0.3, 1.0])
    s = np.array([0.5, 0.5, 0.5])
    assert np.array_equal(_ou_covariance(2.0, t, s), _ou_covariance(2.0, s, t))
    assert _ou_covariance(2.0, 0.7, 0.7) == 1.0  # gamma/2 at lag 0
    assert _ou_covariance(2.0, 0.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    nodes = np.linspace(0.0, 1.0, 7)
    mat = _ou_covariance(2.0, nodes[:, None], nodes[None, :])
    assert mat.shape == (7, 7)
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diff(mat[0]) < 0.0)


def test_empirical_covariance_tracks_the_kernel():
    # moderate size here; the 1e5-path version lives in the acceptance suite
    gamma = 1.5
    grid = make_grid(2.0, 65)
    w = sample_exponential_noise_batch(gamma, grid, 123, range(4000))
    for lag in (0, 1, 4, 16):
        got = float(np.mean(w[:, : grid.n - lag] * w[:, lag:]))
        want = 0.5 * gamma * math.exp(-gamma * lag * grid.dt)
        assert got == pytest.approx(want, rel=0.05)


def test_stationary_start_variance():
    gamma = 4.0
    grid = make_grid(1.0, 3)
    w = sample_exponential_noise_batch(gamma, grid, 99, range(20000))
    assert float(np.mean(w[:, 0] ** 2)) == pytest.approx(gamma / 2.0, rel=0.05)

