"""Gaussian-state propagation through the quadratic kernel coefficients.

The propagator for one noise realization is Gaussian:

    G(x, x0) = exp(-A (x0^2 + x^2) + B x0 x + C x0 + D x + E)

with A, B fixed by the endpoint derivatives of the homogeneous boundary
kernel and C, D, E by the noise-driven kernel plus noise integrals, which
greens_coefficients takes from the ensemble's single pass in kernels.py.
Applying it to exp(-alpha0 x^2 + beta0 x + g0) and completing the square
gives the exact update implemented once in _gaussian_update, which
propagate_gaussian, spread_curve and the ensemble share; the last two pass
all their horizons through it (and the kernel scalars) at once.

Numerical note: alpha_t is evaluated as (alpha0 A + det)/(alpha0 + A) with
det = A^2 - B^2/4 carried in cancellation-free form (mu^2 P Q from the
kernel's endpoint sum/difference).  At SI scales |A| can exceed alpha0 by
37 orders of magnitude while the physics lives in their interplay; the
naive A - B^2/(4(alpha0+A)) loses every significant digit there, the
det form loses none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameterError, PhysicalParams, _as_real, _closed_form_constants
from .kernels import (_check_horizon, _HorizonKernels, _kappa, characteristic_roots,
                      f_endpoint_scalars, f_exponential, h_exponential)
from .noise import NoisePath


@dataclass(frozen=True)
class GaussianState:
    """Wave function exp(-alpha x^2 + beta x + g); physical iff Re alpha > 0.

    The fields may hold arrays of states (a block of ensemble trajectories);
    mean_position and mean_momentum read those elementwise."""

    alpha: complex
    beta: complex
    g: complex


@dataclass(frozen=True)
class GreensCoefficients:
    """Quadratic-form coefficients of the propagator at horizon t.

    det is the determinant A^2 - B^2/4 of the quadratic form, which
    propagate_gaussian uses; greens_coefficients forms it without
    cancellation.
    """

    t: float
    A: complex
    B: complex
    C: complex
    D: complex
    E: complex
    det: complex


@dataclass(frozen=True)
class FunctionalDerivativeCoeffs:
    """Sampled coefficient profiles (a, b, c) of the response identity.

    The derivative of the unnormalized state with respect to a noise bump
    at s is sqrt(lam) (x a(s) + p b(s) + c(s)) applied to the state, i.e.
    d beta / d w_s = sqrt(lam) (a + 2 i hbar alpha_t b) and
    d g / d w_s = sqrt(lam) (c - i hbar beta_t b).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def gaussian_from_moments(x0: float, p0: float, sigma0: float,
                          params: PhysicalParams) -> GaussianState:
    """Normalized Gaussian with mean position x0, mean momentum p0,
    position spread sigma0."""
    sigma0 = _as_real(sigma0, "sigma0", "positive")
    x0, p0 = _as_real(x0, "x0"), _as_real(p0, "p0")
    if 4.0 * sigma0 * sigma0 == 0.0:
        raise InvalidParameterError(f"sigma0 must be large enough to square, got {sigma0!r}")
    alpha0 = 1.0 / (4.0 * sigma0 * sigma0)
    beta0 = complex(x0 / (2.0 * sigma0 * sigma0), p0 / params.hbar)
    return normalize(GaussianState(alpha=complex(alpha0), beta=beta0, g=0.0 + 0.0j))


def _trapz(y: np.ndarray, dt: float) -> complex:
    return complex(dt * (y.sum() - y[0] / 2.0 - y[-1] / 2.0))


def greens_coefficients(
    t: float,
    params: PhysicalParams,
    gamma: float,
    noise: NoisePath | None = None,
) -> GreensCoefficients:
    """Assemble A..E at horizon t, with noise the end of the noise's grid.

    A, B and det come from the endpoint scalars of f (f_endpoint_scalars),
    which need no grid; C, D and E from the ensemble's single pass
    (kernels._HorizonKernels) on the noise's grid at this one horizon, so
    the path-sum oracle checks the formulas every ensemble runs.  Without
    noise the linear and constant coefficients vanish identically and only
    A, B are nonzero; with noise gamma must be finite.
    """
    grid = None if noise is None else noise.grid
    _check_horizon(t, grid)
    A, B, det = _quadratic_coefficients(params, *f_endpoint_scalars(t, params, gamma))
    C = D = E = 0.0 + 0.0j
    if noise is not None:
        kern = _HorizonKernels(params, gamma, grid, np.array([grid.n - 1]))
        C, D, E = (x[0, 0] for x in kern.coefficients(noise.values[None], kern.scratch(1)))
    return GreensCoefficients(t=t, A=complex(A), B=complex(B), C=complex(C),
                              D=complex(D), E=complex(E), det=complex(det))


def _gaussian_update(state0: GaussianState, A, B, det, C=0.0, D=0.0, E=0.0):
    """(alpha_t, beta_t, g_t) of state0 under the propagator A..E, elementwise.

    alpha_t = (alpha0 A + det) / (alpha0 + A)
    beta_t  = D + B (C + beta0) / (2 (alpha0 + A))
    g_t     = g0 + E + (C + beta0)^2 / (4 (alpha0 + A))

    det = A^2 - B^2/4, cancellation-free where the caller has it.  Python
    scalars and broadcastable numpy arrays alike; callers validate
    alpha0 + A != 0 and Re alpha_t > 0.
    """
    denom = state0.alpha + A
    shift = C + state0.beta
    return ((state0.alpha * A + det) / denom,
            D + B * shift / (2.0 * denom),
            state0.g + E + shift * shift / (4.0 * denom))


def propagate_gaussian(state0: GaussianState, coeffs: GreensCoefficients,
                       renormalize: bool = True) -> GaussianState:
    """Exact Gaussian update under the quadratic propagator (_gaussian_update).

    With renormalize=True (the default) the result has unit norm; the raw
    update is what the linear response identity addresses, so tests pass
    renormalize=False there.
    """
    if state0.alpha + coeffs.A == 0:
        raise InvalidParameterError("degenerate propagation: alpha0 + A = 0")
    alpha_t, beta_t, g_t = _gaussian_update(state0, coeffs.A, coeffs.B, coeffs.det,
                                            coeffs.C, coeffs.D, coeffs.E)
    out = GaussianState(alpha=complex(alpha_t), beta=complex(beta_t), g=complex(g_t))
    return normalize(out) if renormalize else out


def normalize(state: GaussianState) -> GaussianState:
    """Set Re g so the state has unit L2 norm; alpha and beta untouched."""
    ar = state.alpha.real
    if not (ar > 0.0 and math.isfinite(ar)):
        raise InvalidParameterError(f"state not normalizable: Re alpha = {ar}")
    br = state.beta.real
    re_g = -br * br / (4.0 * ar) - 0.25 * math.log(math.pi / (2.0 * ar))
    return GaussianState(alpha=state.alpha,
                         beta=state.beta,
                         g=complex(re_g, state.g.imag))


def mean_position(state: GaussianState) -> float:
    return state.beta.real / (2.0 * state.alpha.real)


def spread_position(state: GaussianState) -> float:
    return 1.0 / (2.0 * math.sqrt(state.alpha.real))


def mean_momentum(state: GaussianState, params: PhysicalParams) -> float:
    a, b = state.alpha, state.beta
    return params.hbar * (b.imag - a.imag * b.real / a.real)


def spread_momentum(state: GaussianState, params: PhysicalParams) -> float:
    a = state.alpha
    return params.hbar * abs(a) / math.sqrt(a.real)


def asymptotic_alpha(params: PhysicalParams, gamma: float) -> complex:
    """Long-horizon limit of alpha_t: -i m/(2 hbar) (u1 + u2 - gamma).

    u1 - gamma is rationalized so the SI-regime value (where
    u1 - gamma ~ 1e-37 against gamma ~ 10) keeps full relative precision;
    gamma = inf returns the white-noise limit -i m/(2 hbar) kappa.
    """
    mu, _, _ = _closed_form_constants(params)
    if gamma == math.inf:
        return complex(-mu * _kappa(params))
    roots = characteristic_roots(gamma, params.omega_collapse)
    g2 = gamma * gamma
    w2 = params.omega_collapse_sq
    u1_minus_gamma = -2j * g2 * w2 / ((roots.zeta + g2) * (roots.upsilon1 + gamma))
    return complex(-mu * (u1_minus_gamma + roots.upsilon2))


def asymptotic_spread(params: PhysicalParams, gamma: float) -> float:
    """Stationary position spread 1/(2 sqrt(Re alpha_inf))."""
    ar = asymptotic_alpha(params, gamma).real
    if ar <= 0:
        raise InvalidParameterError("asymptotic alpha has no positive real part")
    return 1.0 / (2.0 * math.sqrt(ar))


def _quadratic_coefficients(params: PhysicalParams, p, q):
    """(A, B, det) of the propagator from the endpoint slope sum p and
    difference q of f, elementwise.

    det = mu^2 P Q is A^2 - B^2/4 in factored form; the naive difference
    cancels catastrophically at SI scales.
    """
    mu, _, _ = _closed_form_constants(params)
    return mu * (p + q) / 2.0, mu * (p - q), mu * mu * p * q


def _noise_free_update(state0: GaussianState, params: PhysicalParams, p, q, t):
    """(A, B, det, alpha_t) of state0 under the noise-free propagator with
    endpoint slope sum p and difference q, elementwise over the horizons t.

    Raises on the first horizon whose state cannot be normalized.
    """
    A, B, det = _quadratic_coefficients(params, p, q)
    alpha_t, _, _ = _gaussian_update(state0, A, B, det)
    bad = ~(np.real(alpha_t) > 0.0)
    if np.any(bad):
        raise InvalidParameterError(
            f"propagated state not normalizable at t={float(np.asarray(t)[bad][0])!r}")
    return A, B, det, alpha_t


def spread_curve(times, params: PhysicalParams, gamma: float,
                 sigma0: float) -> np.ndarray:
    """Deterministic position spread at each horizon, no noise involved.

    The width evolution is noise-independent (only the quadratic part of
    the propagator enters), so all horizons go through one array
    evaluation of the endpoint scalars P, Q and one _gaussian_update of the
    centred state with A = mu (P + Q)/2, B = mu (P - Q) and det = mu^2 P Q.
    Keeps the shape of times (a float for a scalar); horizons must be
    positive and finite.
    """
    centred = gaussian_from_moments(0.0, 0.0, sigma0, params)
    t = np.asarray(times, dtype=float)
    bad = ~((t > 0.0) & np.isfinite(t))
    if np.any(bad):
        raise InvalidParameterError(
            f"spread_curve horizons must be positive and finite, got {float(t[bad][0])!r}")
    p, q = f_endpoint_scalars(t, params, gamma)
    alpha_t = _noise_free_update(centred, params, p, q, t)[3]
    out = 0.5 / np.sqrt(np.real(alpha_t))
    return out if out.ndim else float(out)


def functional_derivative_coeffs(
    t: float,
    params: PhysicalParams,
    gamma: float,
    noise: NoisePath,
) -> FunctionalDerivativeCoeffs:
    """Coefficient profiles of the noise-response identity.

    a(s) = f(t-s) + (f'(0)/f'(t)) f(s)
    b(s) = f(s) / (m f'(t))
    c(s) = h(s) - f(s)/(2 f'(t)) * (h'(t) + pref int_0^t w(l) f(t-l) dl),
    pref = -i hbar sqrt(lam) / m

    c is equivalent to h(s) - D f(s)/B: the chain rule through the
    quadratic update leaves exactly that combination state-independent.
    """
    grid = noise.grid
    f = f_exponential(t, params, gamma, grid)
    h = h_exponential(t, params, gamma, noise)
    fv = f.values
    rev = fv[::-1]
    a = rev + (f.d_start / f.d_end) * fv
    b = fv / (params.m * f.d_end)
    mixed = _trapz(noise.values * rev, grid.dt)
    _, pref, _ = _closed_form_constants(params)
    c = h.values - fv / (2.0 * f.d_end) * (h.d_end + pref * mixed)
    return FunctionalDerivativeCoeffs(a=a, b=b, c=c)
