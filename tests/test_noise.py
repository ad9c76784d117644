"""Correlated-noise sampling and the correlation kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmsse.core import InvalidParameterError, make_grid
from nmsse.noise import (
    empirical_covariance,
    exponential_kernel,
    kernel_eval,
    sample_exponential_noise,
    sample_exponential_noise_batch,
)


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


def test_restrict_is_a_prefix_view():
    grid = make_grid(2.0, 65)
    path = sample_exponential_noise(1.0, grid, 11, 0)
    sub = path.restrict(33)
    assert sub.grid.n == 33
    assert np.array_equal(sub.values, path.values[:33])
    assert np.array_equal(sub.grid.nodes(), grid.nodes()[:33])


def test_rejects_nonfinite_gamma():
    grid = make_grid(1.0, 9)
    with pytest.raises(InvalidParameterError):
        sample_exponential_noise(math.inf, grid, 0, 0)
    with pytest.raises(InvalidParameterError):
        sample_exponential_noise(0.0, grid, 0, 0)


def test_kernel_eval_symmetric_and_decaying():
    kern = exponential_kernel(2.0)
    t = np.array([0.0, 0.3, 1.0])
    s = np.array([0.5, 0.5, 0.5])
    fwd = kernel_eval(kern, t, s)
    rev = kernel_eval(kern, s, t)
    assert np.array_equal(fwd, rev)
    assert kernel_eval(kern, 0.7, 0.7) == pytest.approx(1.0)  # gamma/2 at lag 0
    assert kernel_eval(kern, 0.0, 1.0) == pytest.approx(math.exp(-2.0))


@given(
    gamma=st.floats(min_value=0.01, max_value=100.0),
    t=st.floats(min_value=0.0, max_value=10.0),
    s=st.floats(min_value=0.0, max_value=10.0),
)
def test_kernel_eval_matches_closed_form(gamma, t, s):
    kern = exponential_kernel(gamma)
    want = 0.5 * gamma * math.exp(-gamma * abs(t - s))
    assert kernel_eval(kern, t, s) == pytest.approx(want, rel=1e-12)


def test_empirical_covariance_tracks_the_kernel():
    # moderate size here; the 1e5-path version lives in the acceptance suite
    gamma = 1.5
    grid = make_grid(2.0, 65)
    w = sample_exponential_noise_batch(gamma, grid, 123, range(4000))
    cov = empirical_covariance(w, grid, lags=(0, 1, 4, 16))
    for lag, got in cov.items():
        want = 0.5 * gamma * math.exp(-gamma * lag * grid.dt)
        assert got == pytest.approx(want, rel=0.05)


def test_stationary_start_variance():
    gamma = 4.0
    grid = make_grid(1.0, 3)
    w = sample_exponential_noise_batch(gamma, grid, 99, range(20000))
    assert float(np.mean(w[:, 0] ** 2)) == pytest.approx(gamma / 2.0, rel=0.05)


def test_empirical_covariance_rejects_oversized_lag():
    grid = make_grid(1.0, 9)
    w = sample_exponential_noise_batch(1.0, grid, 0, range(3))
    with pytest.raises(InvalidParameterError):
        empirical_covariance(w, grid, lags=(9,))
