"""Boundary kernels: closed forms, collocation arbiter, frozen pins.

The complex literals below were frozen from a 50-digit extended-precision
solve of the quartic boundary problem and its endpoint derivatives, done
independently of the library code.  The float64 implementation is expected
to track them to a few ulps in every regime, including the severely
stiff SI-scale one.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nmsse.core import make_grid, make_params
from nmsse.kernels import (
    KernelSolution,
    characteristic_roots,
    f_endpoint_scalars,
    f_exponential,
    f_markovian,
    f_ratio_form,
    h_exponential,
    h_exponential_batch,
    kernel_residual,
    solve_f_numeric,
    solve_h_numeric,
)
from nmsse.noise import NoisePath, exponential_kernel, sample_exponential_noise

SCALED = make_params(m=1.0, hbar=1.0, lam=0.5, unit_mode="scaled")   # omega_c^2 = 1
CRIT = make_params(m=1.0, hbar=1.0, lam=0.1, unit_mode="scaled")     # omega_c^2 = 0.2
SI = make_params(m=1.0, hbar=1.0545718e-34, lam=1e-2, unit_mode="SI")
WHITE = make_params(m=1.0, hbar=1.0, lam=0.25, unit_mode="scaled")   # omega_c^2 = 0.5

# regime label -> (params, gamma, t, pins)
_PINS = {
    "scaled-generic": (SCALED, 1.0, 1.0, dict(
        u1=1.1710713749951751 - 0.26676876712420746j,
        u2=0.44326226683740908 + 0.70478651194667373j,
        d_start=-1.0029847777481825 - 0.097476894067774919j,
        d_end=-0.99703043609979565 + 0.086267734466358497j,
        d_sum=-2.0000152138479782 - 0.011209159601416422j,
        d_diff=-0.005954341648386868 - 0.18374462853413342j,
        interior={
            500: 0.74942063616316442 - 0.018270980070578759j,
            1000: 0.49921868290917397 - 0.023769867614199428j,
            1500: 0.24942235918860978 - 0.017085056170861932j,
        },
    )),
    "moderate-coupling": (CRIT, 1.0, 1.0, dict(
        u1=1.0209507160590054 - 0.091724065107528662j,
        u2=0.27965381106468928 + 0.33486312807556255j,
        d_start=-1.0001195138424796 - 0.019514108938398434j,
        d_end=-0.99988109471264074 + 0.017272272833713613j,
        d_sum=-2.0000006085551203 - 0.0022418361046848207j,
        d_diff=-0.00023841912983885109 - 0.036786381772112046j,
        interior={
            500: 0.74997680159667798 - 0.0036578355589547534j,
            1000: 0.499968715104094 - 0.0047588888859977425j,
            1500: 0.2499768705178322 - 0.0034206503039169972j,
        },
    )),
    "stiffer-memory": (SCALED, 2.0, 1.0, dict(
        u1=2.0606172603367907 - 0.22085123196912691j,
        u2=0.60579075278090208 + 0.75123276225845738j,
        d_start=-1.0073976560757384 - 0.15719281276115998j,
        d_end=-0.99272582737000924 + 0.12586195129309316j,
        interior={1000: 0.49799961976478532 - 0.037420212238933003j},
    )),
    "si-short-horizon": (SI, 10.0, 0.001, dict(
        u1=10.0 - 1.0545718e-37j,
        u2=1.0269234635550986e-18 + 1.0269234635550986e-18j,
        d_start=-1000.0 - 2.6294131854864722e-42j,
        d_end=-1000.0 + 2.6259134706038038e-42j,
        d_sum=-2000.0 - 3.4997148826684227e-45j,
        d_diff=-4.6056581320582745e-87 - 5.255326656090276e-42j,
        interior={500: 0.75 - 5.7760741586034314e-32j},
    )),
    "near-white": (WHITE, 10000.0, 1.0, dict(
        d_start=-1.0055423609454485 - 0.16637778280554387j,
        d_end=-0.99515197975921455 + 0.083077715355448156j,
        d_sum=-2.000694340704663 - 0.083300067450095713j,
        d_diff=-0.010390381186233903 - 0.24945549816099202j,
        interior={1000: 0.49837657847103181 - 0.031167474117704855j},
    )),
}


def _close(got: complex, want: complex, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("label", sorted(_PINS))
def test_characteristic_roots_match_frozen_values(label):
    params, gamma, t, pins = _PINS[label]
    if "u1" not in pins:
        pytest.skip("no root pin for this regime")
    roots = characteristic_roots(gamma, params.omega_collapse)
    assert _close(roots.upsilon1, pins["u1"], 1e-13)
    assert _close(roots.upsilon2, pins["u2"], 1e-13)


@pytest.mark.parametrize("label", sorted(_PINS))
def test_f_endpoint_derivatives_match_frozen_values(label):
    params, gamma, t, pins = _PINS[label]
    grid = make_grid(t, 2001)
    f = f_exponential(t, params, gamma, grid)
    assert _close(f.d_start, pins["d_start"], 1e-12)
    assert _close(f.d_end, pins["d_end"], 1e-12)
    if "d_sum" in pins:
        assert _close(f.endpoint_sum(), pins["d_sum"], 1e-12)
        assert _close(f.endpoint_diff(), pins["d_diff"], 1e-12)


@pytest.mark.parametrize("label", sorted(_PINS))
def test_f_interior_values_match_frozen_values(label):
    params, gamma, t, pins = _PINS[label]
    grid = make_grid(t, 2001)
    f = f_exponential(t, params, gamma, grid)
    for node, want in pins["interior"].items():
        assert _close(f.values[node], want, 1e-12)


def test_endpoint_scalars_agree_with_grid_route():
    for label, (params, gamma, t, _) in _PINS.items():
        grid = make_grid(t, 401)
        f = f_exponential(t, params, gamma, grid)
        p_sum, p_diff = f_endpoint_scalars(t, params, gamma)
        assert _close(p_sum, f.endpoint_sum(), 1e-14), label
        assert abs(p_diff - f.endpoint_diff()) <= 1e-14 * abs(p_sum), label


def test_endpoint_scalars_markovian_branch():
    grid = make_grid(1.0, 401)
    f = f_markovian(1.0, WHITE, grid)
    p_sum, p_diff = f_endpoint_scalars(1.0, WHITE, math.inf)
    assert _close(p_sum, f.endpoint_sum(), 1e-14)
    assert _close(p_diff, f.endpoint_diff(), 1e-14)


def test_f_boundary_values_are_snapped():
    grid = make_grid(1.0, 257)
    f = f_exponential(1.0, SCALED, 1.0, grid)
    assert f.values[0] == 1.0 + 0.0j
    assert f.values[-1] == 0.0 + 0.0j


def test_h_boundary_values():
    grid = make_grid(1.0, 257)
    noise = sample_exponential_noise(1.0, grid, 42, 0)
    h = h_exponential(1.0, CRIT, 1.0, noise)
    scale = float(np.max(np.abs(h.values)))
    assert abs(h.values[0]) <= 1e-12 * scale
    assert abs(h.values[-1]) <= 1e-12 * scale


def test_ratio_form_agrees_with_basis_form():
    # the raw hyperbolic-ratio diagnostic only holds water at moderate
    # |upsilon| t; the stiff regimes overflow it by design
    for label in ("scaled-generic", "moderate-coupling", "stiffer-memory"):
        params, gamma, t, _ = _PINS[label]
        grid = make_grid(t, 257)
        a = f_exponential(t, params, gamma, grid)
        b = f_ratio_form(t, params, gamma, grid)
        dev = np.max(np.abs(a.values - b))
        assert dev <= 1e-10, (label, dev)


def test_f_at_zero_coupling_is_the_free_chord():
    params = make_params(m=1.0, hbar=1.0, lam=0.0)
    grid = make_grid(1.0, 101)
    f = f_exponential(1.0, params, 3.0, grid)
    np.testing.assert_allclose(f.values, 1.0 - grid.nodes(), rtol=1e-14, atol=1e-15)
    assert f.d_start == pytest.approx(-1.0, rel=1e-13)
    assert f.d_end == pytest.approx(-1.0, rel=1e-13)


def test_h_at_zero_coupling_vanishes():
    params = make_params(m=1.0, hbar=1.0, lam=0.0)
    grid = make_grid(1.0, 101)
    noise = sample_exponential_noise(3.0, grid, 1, 0)
    h = h_exponential(1.0, params, 3.0, noise)
    assert np.all(h.values == 0.0)


def test_h_is_linear_in_the_noise():
    grid = make_grid(1.0, 201)
    s = grid.nodes()
    w1 = NoisePath(grid, np.sin(5.0 * s), 0, 0)
    w2 = NoisePath(grid, np.cos(2.0 * s) - 0.5 * s, 0, 1)
    mix = NoisePath(grid, 2.0 * w1.values - 3.0 * w2.values, 0, 2)
    h1 = h_exponential(1.0, CRIT, 1.5, w1)
    h2 = h_exponential(1.0, CRIT, 1.5, w2)
    hm = h_exponential(1.0, CRIT, 1.5, mix)
    combo = 2.0 * h1.values - 3.0 * h2.values
    scale = np.max(np.abs(combo))
    assert np.max(np.abs(hm.values - combo)) <= 1e-12 * scale


def test_h_batch_matches_single_paths():
    grid = make_grid(1.0, 201)
    rows = np.stack([
        sample_exponential_noise(1.0, grid, 42, i).values for i in range(4)
    ])
    vals, d0, dt_ = h_exponential_batch(1.0, CRIT, 1.0, grid, rows)
    assert vals.shape == (4, 201)
    for i in range(4):
        path = NoisePath(grid, rows[i], 42, i)
        single = h_exponential(1.0, CRIT, 1.0, path)
        np.testing.assert_allclose(vals[i], single.values, rtol=5e-14, atol=1e-300)
        assert abs(d0[i] - single.d_start) <= 5e-14 * abs(single.d_start)
        assert abs(dt_[i] - single.d_end) <= 5e-14 * abs(single.d_end)


def test_closed_forms_agree_with_collocation():
    grid = make_grid(1.0, 513)
    kern = exponential_kernel(1.0)
    f_c = f_exponential(1.0, CRIT, 1.0, grid)
    f_n = solve_f_numeric(1.0, CRIT, kern, grid)
    dev_f = np.max(np.abs(f_c.values - f_n.values)) / np.max(np.abs(f_c.values))
    assert dev_f <= 1e-4

    noise = sample_exponential_noise(1.0, grid, 42, 0)
    h_c = h_exponential(1.0, CRIT, 1.0, noise)
    h_n = solve_h_numeric(1.0, CRIT, kern, noise)
    dev_h = np.max(np.abs(h_c.values - h_n.values)) / np.max(np.abs(h_c.values))
    assert dev_h <= 1e-4


def test_driven_equation_residual_of_closed_form():
    grid = make_grid(1.0, 513)
    kern = exponential_kernel(1.0)
    noise = sample_exponential_noise(1.0, grid, 42, 0)
    h_c = h_exponential(1.0, CRIT, 1.0, noise)
    assert kernel_residual(h_c, CRIT, kern, noise) <= 1e-7


def test_markovian_kernel_is_the_large_gamma_limit():
    grid = make_grid(1.0, 513)
    limit = f_markovian(1.0, WHITE, grid)
    assert limit.values[0] == pytest.approx(1.0, abs=1e-14)
    assert abs(limit.values[-1]) <= 1e-14
    near = f_exponential(1.0, WHITE, 1e6, grid)
    dev = np.max(np.abs(near.values - limit.values))
    assert dev <= 1e-5


def test_kernel_solution_csv_roundtrip():
    grid = make_grid(1.0, 65)
    f = f_exponential(1.0, SCALED, 1.0, grid)
    back = KernelSolution.from_csv(f.to_csv())
    assert np.array_equal(back.values, f.values)
    assert back.d_start == f.d_start
    assert back.d_end == f.d_end


@given(
    gamma=st.floats(min_value=1e-3, max_value=1e5),
    omega=st.floats(min_value=0.0, max_value=1e4),
)
@example(gamma=248.0, omega=1.1077930798580083e-163)
def test_root_invariants(gamma, omega):
    roots = characteristic_roots(gamma, omega)
    u1, u2 = roots.upsilon1, roots.upsilon2
    g2 = gamma * gamma
    # for omega >> gamma the squares are large and cancel down to gamma^2,
    # so normalize by the biggest term rather than the tiny sum
    scale = max(g2, abs(u1 * u1), abs(u2 * u2))
    assert abs(u1 * u1 + u2 * u2 - g2) <= 1e-12 * scale
    # the product u1^2 u2^2 = i gamma^2 omega^2 underflows for tiny omega;
    # its square root u1 u2 = gamma omega e^{i pi/4} stays representable.
    # Where gamma omega is subnormal, u2 is resolved only to the subnormal
    # spacing, which |u1| scales.
    want = gamma * omega * cmath.exp(0.25j * math.pi)
    tol = 1e-12 * abs(want) + 4.0 * math.ulp(0.0) * abs(u1)
    assert abs(u1 * u2 - want) <= tol
    assert u1.real >= 0.0
    assert u2.real >= 0.0


@settings(max_examples=25, deadline=None)
@given(
    gamma=st.floats(min_value=0.1, max_value=50.0),
    lam=st.floats(min_value=1e-4, max_value=5.0),
    t=st.floats(min_value=0.1, max_value=5.0),
)
def test_f_values_are_grid_free(gamma, lam, t):
    # the closed form is analytic; evaluating on a refined grid must
    # reproduce the coarse nodes exactly up to rounding
    params = make_params(m=1.0, hbar=1.0, lam=lam)
    coarse = make_grid(t, 65)
    fine = make_grid(t, 129)
    fc = f_exponential(t, params, gamma, coarse)
    ff = f_exponential(t, params, gamma, fine)
    np.testing.assert_allclose(ff.values[::2], fc.values, rtol=1e-12, atol=1e-15)
    assert abs(ff.d_start - fc.d_start) <= 1e-12 * abs(fc.d_start)
