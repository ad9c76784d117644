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
    coeffs = greens_coefficients(t, FREE, 3.0)
    mu = 1j * FREE.m / (2.0 * FREE.hbar)
    assert abs(coeffs.A - (-mu / t)) <= 1e-14 * abs(mu / t)
    assert abs(coeffs.B - (-2.0 * mu / t)) <= 1e-14 * abs(2.0 * mu / t)
    assert coeffs.C == 0.0 and coeffs.D == 0.0 and coeffs.E == 0.0


def test_zero_noise_path_gives_zero_linear_terms():
    t = 1.0
    grid = make_grid(t, 201)
    noise = NoisePath(grid, np.zeros(201))
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
    with pytest.raises(InvalidParameterError):
        normalize(bad)


def test_degenerate_propagation_raises():
    coeffs = greens_coefficients(1.0, FREE, 1.0)
    state0 = GaussianState(alpha=-coeffs.A, beta=0.0j, g=0.0j)
    with pytest.raises(InvalidParameterError):
        propagate_gaussian(state0, coeffs)


def test_free_dispersion_matches_textbook_law():
    sigma0 = 0.5
    state0 = gaussian_from_moments(0.0, 0.0, sigma0, FREE)
    for t in (0.3, 1.0, 4.0):
        coeffs = greens_coefficients(t, FREE, 1.0)
        state = propagate_gaussian(state0, coeffs)
        want = sigma0 * math.sqrt(1.0 + (t / (2.0 * sigma0 * sigma0)) ** 2)
        assert spread_position(state) == pytest.approx(want, rel=1e-12)


def test_spread_curve_matches_propagation_route():
    sigma0 = 0.7
    for params, gamma, times in [
        (CRIT, 1.0, [0.25, 1.0, 3.0]),
        (CRIT, math.inf, [0.25, 1.0, 3.0]),
        (FREE, 1.0, [0.25, 2.0]),
        (FREE, math.inf, [0.25, 2.0]),
        (SI, 10.0, [1.0, 1e6, 4e18]),
        (SI, math.inf, [1.0, 1e6, 4e18]),
    ]:
        curve = spread_curve(np.array(times), params, gamma, sigma0)
        state0 = gaussian_from_moments(0.0, 0.0, sigma0, params)
        for t, got in zip(times, curve):
            coeffs = greens_coefficients(t, params, gamma)
            want = spread_position(propagate_gaussian(state0, coeffs))
            assert got == pytest.approx(want, rel=1e-12), (params.lam, gamma, t)


# sigma(t) at sigma0 = 1 from a 250-digit solve of the boundary problem of
# f: f'''' = gamma^2 f'' - i gamma^2 omega_c^2 f with f(0) = 1, f(t) = 0 and
# the memory conditions f'''(0) = gamma f''(0), f'''(t) = -gamma f''(t), in
# the decaying basis e^{-u s}, e^{-u (t - s)} (sinh(kappa (t - s))/sinh(kappa t)
# at gamma = inf), then the Gaussian update in the same arithmetic.
# (params label, gamma) -> {t: sigma}
_SIGMA_PINS = {
    ("SI", 2.0): {1.0: 0.98883640775441599481, 1e6: 0.0049999387511254457201,
                  1e12: 4.999999999938749948e-6, 4e18: 7.1631276825106776536e-9},
    ("SI", 10.0): {1.0: 0.98247177875643070607, 1e6: 0.0049999377511624945762,
                   1e12: 4.999999999937749948e-6, 4e18: 7.1631276825106776522e-9},
    ("SI", 100.0): {1.0: 0.9807693033113416847, 1e6: 0.0049999375261709132512,
                    1e12: 4.999999999937524948e-6, 4e18: 7.1631276825106776518e-9},
    ("SI", math.inf): {1.0: 0.98058067569092015923, 1e6: 0.0049999375011718505344,
                       1e12: 4.999999999937499948e-6, 4e18: 7.1631276825106776518e-9},
    ("CRIT", 1.0): {0.1: 1.0002825384145585517, 1.0: 1.0476915232948221615,
                    10.0: 1.4317469064239209037},
    ("WEAK", 1.0): {8.14e3: 3747.1337684017270416},
}
_SIGMA_PARAMS = {"SI": SI, "CRIT": CRIT, "WEAK": make_params(m=1.0, hbar=1.0, lam=1e-12)}


@pytest.mark.parametrize("key", sorted(_SIGMA_PINS, key=str))
def test_spread_curve_matches_frozen_values(key):
    label, gamma = key
    pins = _SIGMA_PINS[key]
    times = np.array(sorted(pins))
    curve = spread_curve(times, _SIGMA_PARAMS[label], gamma, 1.0)
    # at omega_c/gamma ~ 1e-6 the closed form of f loses digits like
    # eps/|u2 t|: f has no vanishing-coupling branch
    rel = 5e-13 if label == "WEAK" else 1e-14
    for t, got in zip(times, curve):
        assert got == pytest.approx(pins[t], rel=rel), t


def test_spread_curve_keeps_the_input_shape():
    times = np.array([[0.25, 1.0, 3.0], [0.5, 2.0, 4.0]])
    curve = spread_curve(times, CRIT, 1.0, 0.7)
    assert curve.shape == (2, 3)
    np.testing.assert_array_equal(curve.ravel(), spread_curve(times.ravel(), CRIT, 1.0, 0.7))
    one = spread_curve(2.0, CRIT, 1.0, 0.7)
    assert type(one) is float
    assert one == pytest.approx(curve[1, 1], rel=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -2.0])
def test_spread_curve_names_the_first_bad_horizon(bad):
    times = np.array([[0.25, 1.0], [bad, -7.0]])
    with pytest.raises(InvalidParameterError, match=f"got {bad!r}"):
        spread_curve(times, CRIT, 1.0, 1.0)


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
    coeffs = greens_coefficients(t, SCALED, gamma)
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
    coeffs = greens_coefficients(t, SI, 10.0)
    naive = coeffs.A * coeffs.A - coeffs.B * coeffs.B / 4.0
    assert naive.real == 0.0
    assert coeffs.det.real != 0.0
    # the sane route still supports a normalizable propagated state
    state0 = gaussian_from_moments(0.0, 0.0, 1.0, SI)
    state = propagate_gaussian(state0, coeffs)
    assert state.alpha.real > 0.0


def _node_value_route(t, params, gamma, noise):
    """C, D and E from trapezoid sums of w f, w f(t - s) and w h over the node
    values of f_exponential and h_exponential, and the size of their terms."""
    grid = noise.grid
    f = f_exponential(t, params, gamma, grid)
    h = h_exponential(t, params, gamma, noise)
    mu = 1j * params.m / (2.0 * params.hbar)
    half_sl = 0.5 * math.sqrt(params.lam)
    trap = np.full(grid.n, grid.dt)
    trap[[0, -1]] *= 0.5
    w = noise.values
    terms = ((-mu * h.d_start, w * f.values), (mu * h.d_end, w * f.values[::-1]),
             (0.0, w * h.values))
    return ([slope + half_sl * (y @ trap) for slope, y in terms],
            [abs(slope) + half_sl * (np.abs(y) @ trap) for slope, y in terms])


@pytest.mark.parametrize("lam", [0.0, 1e-18, 1e-8, 0.1, 2.0])
@pytest.mark.parametrize("gamma", [0.3, 1.0, 30.0, 1e3])
def test_noise_coefficients_match_the_node_value_route(lam, gamma):
    # greens_coefficients takes C, D and E from the ensemble's single pass.
    # Both routes take one formula for h at every coupling; a coefficient can
    # cancel below the size of its terms, so the bound is relative to it.
    params = make_params(m=1.0, hbar=1.0, lam=lam)
    t = 1.0
    grid = make_grid(t, 513)
    bound = 1e-12
    for seed in range(3):
        noise = sample_exponential_noise(gamma, grid, seed, 0)
        coeffs = greens_coefficients(t, params, gamma, noise=noise)
        values, sizes = _node_value_route(t, params, gamma, noise)
        for name, want, size in zip("CDE", values, sizes):
            got = getattr(coeffs, name)
            if lam == 0.0:
                assert got == 0.0 and want == 0.0, (name, seed)
            else:
                assert abs(got - want) <= bound * size, (name, seed, abs(got - want) / size)


# C, D and E at gamma = 1, t = 1, N = 257 on sample_exponential_noise(1.0,
# grid, 7, 0), at omega_c/gamma = key (lam = key^2/2): the 60-digit run that
# freezes _H_REFS in tests/test_kernels.py (its recipe is given there).
_NOISE_COEFF_REFS = {
    1e-2: (-0.0029749371898799702+9.745646686956015e-09j,
           -0.003263997506800685+9.78386042818368e-09j,
           5.240653451935138e-12+1.603822407951519e-06j),
    1e-4: (-2.974937189911959e-05+9.745646687060839e-15j,
           -3.263997506832679e-05+9.783860428288506e-15j,
           5.240653451991401e-20+1.6038224079686899e-10j),
    1e-6: (-2.974937189911959e-07+9.745646687060839e-21j,
           -3.263997506832679e-07+9.783860428288505e-21j,
           5.2406534519914005e-28+1.60382240796869e-14j),
    1e-8: (-2.974937189911959e-09+9.745646687060842e-27j,
           -3.2639975068326793e-09+9.783860428288508e-27j,
           5.240653451991402e-36+1.60382240796869e-18j),
    1e-10: (-2.974937189911959e-11+9.74564668706084e-33j,
            -3.2639975068326794e-11+9.783860428288507e-33j,
            5.240653451991401e-44+1.60382240796869e-22j),
    1e-12: (-2.974937189911959e-13+9.745646687060839e-39j,
            -3.263997506832679e-13+9.783860428288505e-39j,
            5.2406534519914e-52+1.6038224079686896e-26j),
}


@pytest.mark.parametrize("key", sorted(_NOISE_COEFF_REFS) + [0.0])
def test_noise_coefficients_match_60_digit_references(key):
    # to 1e-12 of the size of the terms, as the node-value route measures it
    # (the decaying kernel alone misses by 4.7e-8 at key = 1e-8); at lam = 0
    # every coefficient is exactly 0
    params = make_params(m=1.0, hbar=1.0, lam=key * key / 2.0)
    noise = sample_exponential_noise(1.0, make_grid(1.0, 257), 7, 0)
    coeffs = greens_coefficients(1.0, params, 1.0, noise=noise)
    _, sizes = _node_value_route(1.0, params, 1.0, noise)
    for name, want, size in zip("CDE", _NOISE_COEFF_REFS.get(key, (0.0,) * 3), sizes):
        got = getattr(coeffs, name)
        if key == 0.0:
            assert got == 0.0, name
        else:
            assert abs(got - want) <= 1e-12 * size, (name, abs(got - want) / size)


def test_greens_coefficients_needs_finite_gamma_with_noise():
    # the white-noise limit has closed forms for A and B only
    grid = make_grid(1.0, 65)
    assert greens_coefficients(1.0, CRIT, math.inf).A != 0.0
    with pytest.raises(InvalidParameterError):
        greens_coefficients(1.0, CRIT, math.inf, noise=NoisePath(grid, np.ones(grid.n)))


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
            pert = _raw_state(t, CRIT, gamma, NoisePath(grid, bumped), state0)
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


@pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
def test_greens_coefficients_needs_a_positive_finite_horizon(t):
    # without noise nothing else fixes the horizon
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        greens_coefficients(t, CRIT, 1.0)
