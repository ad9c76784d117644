"""Correlated-noise sampling and the correlation kernel."""

import math

import numpy as np
import pytest

from nmsse.core import InvalidParameterError, make_grid
from nmsse.noise import _ou_covariance, sample_exponential_noise, sample_exponential_noise_batch


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
    sd = math.sqrt((gamma / 2.0) * (1.0 - rho * rho))
    w = np.empty_like(xi)
    w[:, 0] = math.sqrt(gamma / 2.0) * xi[:, 0]
    for k in range(1, grid.n):
        w[:, k] = rho * w[:, k - 1] + sd * xi[:, k]
    return w


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


def test_rejects_nonfinite_gamma():
    grid = make_grid(1.0, 9)
    with pytest.raises(InvalidParameterError):
        sample_exponential_noise(math.inf, grid, 0, 0)
    with pytest.raises(InvalidParameterError):
        sample_exponential_noise(0.0, grid, 0, 0)


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

