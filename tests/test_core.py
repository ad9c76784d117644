"""Parameter records, grids, and their validation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nmsse.core import (
    HBAR_SI,
    InvalidGridError,
    InvalidParameterError,
    TimeGrid,
    make_grid,
    make_params,
)


def test_make_params_freezes_inputs():
    p = make_params(m=2.0, hbar=0.5, lam=0.3, unit_mode="SI")
    assert (p.m, p.hbar, p.lam, p.unit_mode) == (2.0, 0.5, 0.3, "SI")


def test_omega_collapse_squared_is_two_hbar_lam_over_m():
    p = make_params(m=4.0, hbar=1.0, lam=0.25, unit_mode="scaled")
    # the frequency driving the kernel quartic
    assert p.omega_collapse_sq == pytest.approx(2.0 * 1.0 * 0.25 / 4.0, rel=1e-15)
    assert p.omega_collapse == pytest.approx(math.sqrt(0.125), rel=1e-15)


def test_lambda_zero_allowed():
    p = make_params(m=1.0, hbar=1.0, lam=0.0)
    assert p.omega_collapse == 0.0


@pytest.mark.parametrize("kwargs", [
    dict(m=0.0, hbar=1.0, lam=0.1),
    dict(m=-1.0, hbar=1.0, lam=0.1),
    dict(m=1.0, hbar=0.0, lam=0.1),
    dict(m=1.0, hbar=1.0, lam=-0.1),
    dict(m=math.inf, hbar=1.0, lam=0.1),
    dict(m=math.nan, hbar=1.0, lam=0.1),
])
def test_make_params_rejects_bad_numbers(kwargs):
    with pytest.raises(InvalidParameterError):
        make_params(**kwargs)


def test_make_params_rejects_bad_unit_mode():
    with pytest.raises(InvalidParameterError):
        make_params(m=1.0, hbar=1.0, lam=0.1, unit_mode="cgs")


def test_hbar_si_magnitude():
    assert 1.05e-34 < HBAR_SI < 1.06e-34


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(InvalidGridError):
        make_grid(0.0, 10)
    with pytest.raises(InvalidGridError):
        make_grid(-1.0, 10)
    with pytest.raises(InvalidGridError):
        make_grid(1.0, 1)
    with pytest.raises(InvalidGridError):
        make_grid(1.0, 2.5)


def test_grid_nodes_are_bitwise_reproducible():
    a = make_grid(0.7, 101).nodes()
    b = make_grid(0.7, 101).nodes()
    assert np.array_equal(a, b)
    assert a[0] == 0.0
    assert a[-1] == pytest.approx(0.7, rel=1e-15)


def test_prefix_takes_leading_nodes_exactly():
    grid = make_grid(2.0, 9)
    sub = grid.prefix(5)
    assert sub.n == 5
    assert np.array_equal(sub.nodes(), grid.nodes()[:5])


def test_prefix_bounds():
    grid = make_grid(1.0, 5)
    with pytest.raises(InvalidGridError):
        grid.prefix(1)
    with pytest.raises(InvalidGridError):
        grid.prefix(6)
    assert grid.prefix(5) == grid


@given(
    t_max=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    n=st.integers(min_value=2, max_value=400),
)
def test_grid_node_structure(t_max, n):
    grid = make_grid(t_max, n)
    nodes = grid.nodes()
    assert nodes.shape == (n,)
    assert np.all(np.diff(nodes) > 0)
    assert grid.dt == pytest.approx(t_max / (n - 1), rel=1e-15)
    # a prefix reproduces the leading nodes up to one rounding of its
    # re-derived step (its horizon is (k-1) dt rounded once more)
    k = 2 + (n - 2) // 2
    np.testing.assert_allclose(grid.prefix(k).nodes(), nodes[:k],
                               rtol=5e-16, atol=0.0)


def test_timegrid_is_value_like():
    assert TimeGrid(1.0, 5) == TimeGrid(1.0, 5)
    assert TimeGrid(1.0, 5) != TimeGrid(1.0, 6)
