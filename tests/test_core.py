"""Parameter records, grids, their validation, and the block tridiagonal solver."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nmsse.core import (
    HBAR_SI,
    InvalidGridError,
    InvalidParameterError,
    TimeGrid,
    _block_tridiag_solve,
    make_grid,
    make_params,
)
from nmsse.ensemble import run_ensemble
from nmsse.kernels import (characteristic_roots, f_exponential, h_exponential, solve_f_numeric,
                           solve_h_numeric)
from nmsse.noise import NoisePath, exponential_kernel, sample_exponential_noise_batch
from nmsse.oracle import oracle_coefficients
from nmsse.propagator import (functional_derivative_coeffs, gaussian_from_moments,
                              greens_coefficients, spread_curve)


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
    dict(m=1.0, hbar=True, lam=0.1),
    dict(m=1.0, hbar=1.0, lam=False),
    dict(m=np.True_, hbar=1.0, lam=0.1),
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
    # a bool is not a number here, though Python counts True as 1
    with pytest.raises(InvalidGridError):
        make_grid(True, 101)
    with pytest.raises(InvalidGridError):
        make_grid(1.0, True)


def test_numpy_scalars_give_the_records_of_python_numbers():
    p = make_params(m=np.float32(2.0), hbar=np.int64(1), lam=np.float64(0.25), unit_mode="SI")
    assert p == make_params(m=2.0, hbar=1.0, lam=0.25, unit_mode="SI")
    assert all(type(x) is float for x in (p.m, p.hbar, p.lam))
    g = make_grid(np.float32(0.5), np.int64(101))
    assert g == make_grid(0.5, 101)
    assert (type(g.t_max), type(g.n)) == (float, int)


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


def test_prefix_length_is_an_integer():
    # prefix(2.5) returned TimeGrid(t_max=0.1875, n=2.5)
    grid = make_grid(1.0, 9)
    with pytest.raises(InvalidGridError, match="prefix length must be an integer"):
        grid.prefix(2.5)
    assert grid.prefix(np.int64(5)) == grid.prefix(5)
    assert type(grid.prefix(np.int64(5)).n) is int


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


def _dense_block_matrix(lo, diag, up):
    """The (n b) x (n b) matrix of batch-last blocks (b, b, n)."""
    b, _, n = diag.shape
    dense = np.zeros((n * b, n * b), dtype=complex)
    for i in range(n):
        rows = slice(i * b, (i + 1) * b)
        dense[rows, rows] = diag[..., i]
        if i:
            dense[rows, (i - 1) * b:i * b] = lo[..., i]
        if i < n - 1:
            dense[rows, (i + 1) * b:(i + 2) * b] = up[..., i]
    return dense


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 65])
@pytest.mark.parametrize("k", [1, 3])
def test_block_tridiag_solve_matches_the_dense_solve(b, n, k):
    # odd and even sizes at every level of the reduction; lo[..., 0] and
    # up[..., -1] lie outside the matrix and hold NaN, so reading them shows
    rng = np.random.default_rng(100 * n + 10 * b + k)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    lo, up = draw(b, b, n), draw(b, b, n)
    diag = draw(b, b, n) + 4.0 * np.eye(b)[..., None]
    lo[..., 0] = up[..., -1] = np.nan
    y = draw(b, k, n)
    want = np.linalg.solve(_dense_block_matrix(lo, diag, up),
                           y.transpose(2, 0, 1).reshape(n * b, k))
    got = _block_tridiag_solve(lo, diag, up, y).transpose(2, 0, 1).reshape(n * b, k)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("singular", [0, 4, 7])
def test_block_tridiag_solve_raises_on_a_singular_block(singular):
    # a zero diagonal block with no coupling to the rest makes the system
    # singular whichever level of the reduction pivots on it
    n = 8
    diag = np.broadcast_to(np.eye(3, dtype=complex)[..., None], (3, 3, n)).copy()
    diag[..., singular] = 0.0
    lo, up = np.zeros((2, 3, 3, n), dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        _block_tridiag_solve(lo, diag, up, np.ones((3, 1, n), dtype=complex))


def test_the_routes_report_a_singular_system_as_a_parameter_error():
    # i m / 2 hbar dt underflows to 0 at m = 5e-324, hbar = 1e300, so with
    # lambda = 0 every interior block of the collocation system, whose
    # interior rows the oracle solves too, is singular
    params = make_params(m=5e-324, hbar=1e300, lam=0.0)
    grid = make_grid(1.0, 65)
    kern = exponential_kernel(1.0)
    noise = NoisePath(grid, np.ones(grid.n))
    for call, message in (
            (lambda: solve_f_numeric(1.0, params, kern, grid), "singular discretized kernel"),
            (lambda: solve_h_numeric(1.0, params, kern, noise), "singular discretized kernel"),
            (lambda: oracle_coefficients(1.0, params, 1.0, noise), "singular discretized kernel")):
        with pytest.raises(InvalidParameterError, match=message):
            call()


_PARAMS = make_params(m=1.0, hbar=1.0, lam=0.1)
_GRID = make_grid(1.0, 9)
_NOISE = NoisePath(_GRID, np.ones(_GRID.n))
_STATE = gaussian_from_moments(0.0, 0.0, 1.0, _PARAMS)

_POSITIVE = (True, math.nan, math.inf, -math.inf, 0.0, -1.0)
_NON_NEGATIVE = (True, math.nan, math.inf, -math.inf, -1.0)
_ANY_SIGN = (True, math.nan, math.inf, -math.inf)
_COUNT = (True, math.nan, math.inf, -math.inf, 2.5, 2.0)

# Every scalar input but gamma (tests/test_noise.py has GAMMA_ROUTES) on every
# route that takes it, as (input, route): the call with that input in place
# and the values it refuses (a sigma0 of 1e-200 squared to 0 and raised
# ZeroDivisionError).  The grid's inputs raise InvalidGridError, the
# others InvalidParameterError, with a message that names the input.
SCALAR_ROUTES = {
    ("m", "make_params"): (lambda v: make_params(v, 1.0, 0.1), _POSITIVE),
    ("hbar", "make_params"): (lambda v: make_params(1.0, v, 0.1), _POSITIVE),
    ("lambda", "make_params"): (lambda v: make_params(1.0, 1.0, v), _NON_NEGATIVE),
    ("t_max", "make_grid"): (lambda v: make_grid(v, 9), _POSITIVE),
    ("n", "make_grid"): (lambda v: make_grid(1.0, v), _COUNT + (1, 0)),
    ("prefix length", "TimeGrid.prefix"): (_GRID.prefix, _COUNT + (1, 10)),
    ("omega", "characteristic_roots"): (lambda v: characteristic_roots(1.0, v), _NON_NEGATIVE),
    ("horizon t", "f_exponential"): (lambda v: f_exponential(v, _PARAMS, 1.0, _GRID), _POSITIVE),
    ("horizon t", "h_exponential"): (lambda v: h_exponential(v, _PARAMS, 1.0, _NOISE), _POSITIVE),
    ("horizon t", "greens_coefficients"): (
        lambda v: greens_coefficients(v, _PARAMS, 1.0), _POSITIVE),
    ("horizon t", "solve_f_numeric"): (
        lambda v: solve_f_numeric(v, _PARAMS, 1.0, _GRID), _POSITIVE),
    ("horizon t", "functional_derivative_coeffs"): (
        lambda v: functional_derivative_coeffs(v, _PARAMS, 1.0, _NOISE), _POSITIVE),
    ("x0", "gaussian_from_moments"): (
        lambda v: gaussian_from_moments(v, 0.0, 1.0, _PARAMS), _ANY_SIGN),
    ("p0", "gaussian_from_moments"): (
        lambda v: gaussian_from_moments(0.0, v, 1.0, _PARAMS), _ANY_SIGN),
    ("sigma0", "gaussian_from_moments"): (
        lambda v: gaussian_from_moments(0.0, 0.0, v, _PARAMS), _POSITIVE + (1e-200,)),
    ("sigma0", "spread_curve"): (
        lambda v: spread_curve(1.0, _PARAMS, 1.0, v), _POSITIVE + (1e-200,)),
    ("n_traj", "run_ensemble"): (
        lambda v: run_ensemble(_PARAMS, 1.0, _STATE, [1.0], v, 0, grid=_GRID), _COUNT + (0,)),
    ("master_seed", "sample_exponential_noise_batch"): (
        lambda v: sample_exponential_noise_batch(1.0, _GRID, v, [0]), _COUNT + (-1, 2**64)),
    ("trajectory index", "sample_exponential_noise_batch"): (
        lambda v: sample_exponential_noise_batch(1.0, _GRID, 0, [0, v]), _COUNT + (-1, 2**64)),
}


@pytest.mark.parametrize("key,value", [
    (key, value) for key, (_, bad) in SCALAR_ROUTES.items() for value in bad],
    ids=lambda x: "-".join(x) if isinstance(x, tuple) else repr(x))
def test_every_route_checks_its_scalar_inputs_by_one_rule(key, value):
    name, route = key
    error = InvalidGridError if route in ("make_grid", "TimeGrid.prefix") else InvalidParameterError
    with pytest.raises(error, match=f"^{re.escape(name)} must be "):
        SCALAR_ROUTES[key][0](value)
