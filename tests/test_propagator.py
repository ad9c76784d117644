"""Gaussian propagation: free limits, moment maps, response identity."""

import math

import numpy as np
import pytest

from nmsse.core import InvalidParameterError, make_grid, make_params
from nmsse.kernels import f_exponential, h_exponential
from nmsse.noise import NoisePath, sample_exponential_noise
from nmsse.propagator import (
    GaussianState,
    asymptotic_alpha,
    asymptotic_spread,
    functional_derivative_coeffs,
    gaussian_from_moments,
    greens_coefficients,
    mean_momentum,
    mean_position,
    normalize,
    propagate_gaussian,
    spread_curve,
    spread_momentum,
    spread_position,
)

SCALED = make_params(m=1.0, hbar=1.0, lam=0.5, unit_mode="scaled")
CRIT = make_params(m=1.0, hbar=1.0, lam=0.1, unit_mode="scaled")
FREE = make_params(m=1.0, hbar=1.0, lam=0.0, unit_mode="scaled")
SI = make_params(m=1.0, hbar=1.0545718e-34, lam=1e-2, unit_mode="SI")


def test_free_particle_coefficients_are_analytic():
    t = 1.0
    grid = make_grid(t, 201)
    coeffs = greens_coefficients(t, FREE, 3.0, grid=grid)
    mu = 1j * FREE.m / (2.0 * FREE.hbar)
    assert abs(coeffs.A - (-mu / t)) <= 1e-14 * abs(mu / t)
    assert abs(coeffs.B - (-2.0 * mu / t)) <= 1e-14 * abs(2.0 * mu / t)
    assert coeffs.C == 0.0 and coeffs.D == 0.0 and coeffs.E == 0.0


def test_zero_noise_path_gives_zero_linear_terms():
    t = 1.0
    grid = make_grid(t, 201)
    noise = NoisePath(grid, np.zeros(201), 0, 0)
    coeffs = greens_coefficients(t, CRIT, 1.0, noise=noise)
    assert coeffs.C == 0.0 and coeffs.D == 0.0 and coeffs.E == 0.0
    assert coeffs.A != 0.0 and coeffs.B != 0.0


def test_moment_map_roundtrip():
    state = gaussian_from_moments(x0=1.5, p0=-0.7, sigma0=0.3, params=SCALED)
    assert mean_position(state) == pytest.approx(1.5, rel=1e-14)
    assert mean_momentum(state, SCALED) == pytest.approx(-0.7, rel=1e-14)
    assert spread_position(state) == pytest.approx(0.3, rel=1e-14)
    # minimum-uncertainty packet: sigma_p = hbar / (2 sigma_q)
    assert spread_momentum(state, SCALED) == pytest.approx(1.0 / 0.6, rel=1e-14)


def test_normalize_sets_unit_norm():
    raw = GaussianState(alpha=0.8 + 0.3j, beta=1.2 - 0.4j, g=5.0 + 2.0j)
    state = normalize(raw)
    ar, br = state.alpha.real, state.beta.real
    norm_sq = math.exp(2.0 * state.g.real + br * br / (2.0 * ar)) * math.sqrt(
        math.pi / (2.0 * ar))
    assert norm_sq == pytest.approx(1.0, rel=1e-13)
    assert state.alpha == raw.alpha and state.beta == raw.beta
    assert state.g.imag == raw.g.imag


def test_normalize_rejects_unnormalizable():
    bad = GaussianState(alpha=-1.0 + 0.0j, beta=0.0j, g=0.0j)
    assert not bad.is_normalizable()
    with pytest.raises(InvalidParameterError):
        normalize(bad)


def test_degenerate_propagation_raises():
    grid = make_grid(1.0, 101)
    coeffs = greens_coefficients(1.0, FREE, 1.0, grid=grid)
    state0 = GaussianState(alpha=-coeffs.A, beta=0.0j, g=0.0j)
    with pytest.raises(InvalidParameterError):
        propagate_gaussian(state0, coeffs)


def test_free_dispersion_matches_textbook_law():
    sigma0 = 0.5
    state0 = gaussian_from_moments(0.0, 0.0, sigma0, FREE)
    for t in (0.3, 1.0, 4.0):
        grid = make_grid(t, 201)
        coeffs = greens_coefficients(t, FREE, 1.0, grid=grid)
        state = propagate_gaussian(state0, coeffs)
        want = sigma0 * math.sqrt(1.0 + (t / (2.0 * sigma0 * sigma0)) ** 2)
        assert spread_position(state) == pytest.approx(want, rel=1e-12)


def test_spread_curve_matches_propagation_route():
    sigma0 = 0.7
    times = np.array([0.25, 1.0, 3.0])
    curve = spread_curve(times, CRIT, 1.0, sigma0)
    state0 = gaussian_from_moments(0.0, 0.0, sigma0, CRIT)
    for t, got in zip(times, curve):
        grid = make_grid(float(t), 401)
        coeffs = greens_coefficients(float(t), CRIT, 1.0, grid=grid)
        want = spread_position(propagate_gaussian(state0, coeffs))
        assert got == pytest.approx(want, rel=1e-12)


def test_spread_curve_validates_inputs():
    with pytest.raises(InvalidParameterError):
        spread_curve([1.0, -2.0], CRIT, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        spread_curve([1.0], CRIT, 1.0, 0.0)


def test_asymptotic_alpha_is_a_fixed_point():
    gamma = 1.0
    alpha_inf = asymptotic_alpha(SCALED, gamma)
    assert alpha_inf.real > 0.0
    t = 40.0
    grid = make_grid(t, 2001)
    coeffs = greens_coefficients(t, SCALED, gamma, grid=grid)
    state0 = GaussianState(alpha=alpha_inf, beta=0.0j, g=0.0j)
    state = propagate_gaussian(state0, coeffs)
    assert abs(state.alpha - alpha_inf) <= 1e-11 * abs(alpha_inf)


def test_asymptotic_spread_orders_with_memory_rate():
    # at scaled coupling the memory rate visibly widens the stationary
    # packet; the white-noise limit is the narrowest
    spreads = [asymptotic_spread(SCALED, g) for g in (0.5, 1.0, 2.0, 5.0, math.inf)]
    assert all(s > 0.0 for s in spreads)
    assert all(a > b for a, b in zip(spreads, spreads[1:]))
    # at SI scale the rate dependence sits ~18 digits down, far below
    # float64: all asymptotes must coincide to rounding
    si = [asymptotic_spread(SI, g) for g in (2.0, 10.0, 100.0, math.inf)]
    assert (max(si) - min(si)) <= 1e-12 * min(si)


def test_asymptotic_spread_rejects_zero_coupling():
    with pytest.raises(InvalidParameterError):
        asymptotic_spread(FREE, 1.0)


def test_form_determinant_survives_si_cancellation():
    # at SI scale A and B/2 agree to ~40 digits, so the naive determinant
    # A^2 - B^2/4 has an exactly zero real part in float64; the factored
    # form keeps it
    t = 1e-3
    grid = make_grid(t, 2001)
    coeffs = greens_coefficients(t, SI, 10.0, grid=grid)
    naive = coeffs.A * coeffs.A - coeffs.B * coeffs.B / 4.0
    assert naive.real == 0.0
    assert coeffs.form_det is not None
    assert coeffs.det().real != 0.0
    # the sane route still supports a normalizable propagated state
    state0 = gaussian_from_moments(0.0, 0.0, 1.0, SI)
    state = propagate_gaussian(state0, coeffs)
    assert state.is_normalizable()


def test_precomputed_kernels_shortcut_is_equivalent():
    t, gamma = 1.0, 1.0
    grid = make_grid(t, 201)
    noise = sample_exponential_noise(gamma, grid, 11, 0)
    f = f_exponential(t, CRIT, gamma, grid)
    h = h_exponential(t, CRIT, gamma, noise)
    a = greens_coefficients(t, CRIT, gamma, noise=noise)
    b = greens_coefficients(t, CRIT, gamma, noise=noise, f=f, h=h)
    for name in "ABCDE":
        assert getattr(a, name) == getattr(b, name)


def _raw_state(t, params, gamma, noise, state0):
    coeffs = greens_coefficients(t, params, gamma, noise=noise)
    return propagate_gaussian(state0, coeffs, renormalize=False)


def test_response_identity_against_finite_differences():
    t, gamma = 1.0, 1.0
    grid = make_grid(t, 201)
    noise = sample_exponential_noise(gamma, grid, 3, 0)
    state0 = gaussian_from_moments(0.3, -0.2, 0.8, CRIT)
    base = _raw_state(t, CRIT, gamma, noise, state0)
    prof = functional_derivative_coeffs(t, CRIT, gamma, noise)
    sl = math.sqrt(CRIT.lam)
    eps = 1e-6 * float(np.max(np.abs(noise.values)))
    for k in (50, 140):
        for sign, store in ((1.0, {}), (-1.0, {})):
            bumped = noise.values.copy()
            bumped[k] += sign * eps
            pert = _raw_state(t, CRIT, gamma, NoisePath(grid, bumped, 0, 0), state0)
            store["beta"], store["g"] = pert.beta, pert.g
            if sign > 0:
                plus = store
            else:
                minus = store
        d_beta = (plus["beta"] - minus["beta"]) / (2.0 * eps * grid.dt)
        d_g = (plus["g"] - minus["g"]) / (2.0 * eps * grid.dt)
        want_beta = sl * (prof.a[k] + 2j * CRIT.hbar * base.alpha * prof.b[k])
        want_g = sl * (prof.c[k] - 1j * CRIT.hbar * base.beta * prof.b[k])
        assert abs(d_beta - want_beta) <= 1e-5 * abs(want_beta)
        assert abs(d_g - want_g) <= 1e-5 * abs(want_g)


def test_greens_coefficients_requires_a_grid():
    with pytest.raises(InvalidParameterError):
        greens_coefficients(1.0, CRIT, 1.0)
