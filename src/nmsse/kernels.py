"""Boundary-value kernels of the memory-driven Gaussian propagator.

Two kernel families are produced here, both solving the same linear
integro-differential equation on [0, t]:

* the homogeneous boundary kernel (kind ``"F"``), driven only by its
  boundary values 1 and 0, whose endpoint derivatives feed the quadratic
  coefficients of the propagator;
* the noise-driven kernel (kind ``"H"``), same operator with the sampled
  noise as source and zero boundary values, feeding the linear coefficients.

For the exponential correlation kernel the equation reduces to a quartic
constant-coefficient problem.  The production evaluator solves it in the
symmetric basis cosh/sinh(u(s - t/2))/cosh(u t/2): the four boundary
conditions split into even/odd 2x2 systems whose closed-form solutions are
free of catastrophic cancellation in every parameter regime (verified to
<= 4e-16 relative against 50-digit arithmetic, including SI scales where
naive evaluation loses 40 digits).  An O(n) finite-difference collocation
solver is provided as an independent arbiter, along with a ratio-form
evaluator as a second cross-check of the homogeneous kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (InvalidGridError, InvalidParameterError, PhysicalParams, TimeGrid,
                   _closed_form_constants, _decay_scan)
from .noise import CorrelationKernel, NoisePath, _ou_covariance


# ---------------------------------------------------------------------------
# stable scalar primitives
# ---------------------------------------------------------------------------

def _cexpm1(z):
    """exp(z) - 1 for complex scalar or array, accurate near z = 0.

    numpy's expm1 is real-only; for |z| <= 0.5 a 14-term Horner series
    keeps full relative precision, above that exp(z) - 1 is already safe.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) <= 0.5
    zs = np.where(small, z, 0.0)   # Horner for z (1 + z/2 (1 + z/3 (...)))
    series = np.ones_like(z)
    for k in range(14, 1, -1):
        series = 1.0 + zs * series / k
    series = zs * series
    direct = np.exp(np.where(small, 0.0, z)) - 1.0
    out = np.where(small, series, direct)
    return out if out.ndim else complex(out)


def _tanh_ratio(z):
    """tanh(z)/z for complex z with Re z >= 0, elementwise; exact limit 1 at z = 0.

    Uses -expm1(-2z)/((1 + exp(-2z)) z) with the series expm1 above, which
    is cancellation-free for all magnitudes (both factors of z cancel
    analytically through the series' leading term).
    """
    z = np.asarray(z, dtype=complex)
    zero = z == 0.0
    z = np.where(zero, 1.0, z)
    out = np.where(zero, 1.0 + 0.0j, -_cexpm1(-2.0 * z) / ((1.0 + np.exp(-2.0 * z)) * z))
    return out[()]


# Taylor coefficients of tanh(sqrt(x))/sqrt(x) around x = 0.
_TANH_SQRT_COEFFS = (
    1.0,
    -0.33333333333333333333,
    0.13333333333333333333,
    -0.053968253968253968254,
    0.021869488536155202822,
    -0.0088632355299021965689,
    0.0035921280365724810169,
    -0.0014558343870513182682,
    0.00059002744094558598138,
    -0.00023912911424355248149,
    0.000096915379569294503256,
    -0.000039278323883316834053,
    0.000015918905069328964741,
    -6.4516892156554307632e-6,
    2.6147711512907545543e-6,
    -1.0597268320104654351e-6,
    4.2949110782738058548e-7,
    -1.740661896357164778e-7,
    7.0546369464009683252e-8,
)


def _tanh_sqrt_divdiff(z1, z2):
    """Divided difference (g(x1)-g(x2))/(x1-x2) of g(x) = tanh(sqrt x)/sqrt x
    at x_k = z_k^2, elementwise.

    Where both |x| < 0.25 the difference cancels catastrophically, so the
    series sum_k a_k h_{k-1}(x1, x2), h_j = x1 h_{j-1} + x2^j, is summed
    instead; outside, |x1 - x2| >= max|x| holds for every admissible root
    pair (|zeta| >= gamma^2), making the direct quotient safe.
    """
    x1 = np.square(np.asarray(z1, dtype=complex))
    x2 = np.square(np.asarray(z2, dtype=complex))
    series = np.maximum(np.abs(x1), np.abs(x2)) < 0.25
    # each branch sees only its own elements; the other gets harmless stand-ins
    s1 = np.where(series, x1, 0.0)
    s2 = np.where(series, x2, 0.0)
    h, p2 = [np.ones_like(s1)], np.ones_like(s2)
    for _ in _TANH_SQRT_COEFFS[2:]:
        p2 = p2 * s2
        h.append(s1 * h[-1] + p2)
    # sum_k a_k h_{k-1}, smallest terms first
    acc = sum(a_k * h_k for a_k, h_k in zip(_TANH_SQRT_COEFFS[:0:-1], h[::-1]))
    d1 = np.where(series, 1.0, z1)
    d2 = np.where(series, 2.0, z2)
    direct = (_tanh_ratio(d1) - _tanh_ratio(d2)) / (d1 * d1 - d2 * d2)
    return np.where(series, acc, direct)[()]


def _basis_even(u: complex, s: np.ndarray, t: float) -> np.ndarray:
    """cosh(u(s - t/2))/cosh(u t/2), evaluated overflow-free (Re u >= 0)."""
    return (np.exp(-u * (t - s)) + np.exp(-u * s)) / (1.0 + np.exp(-u * t))


def _basis_odd(u: complex, s: np.ndarray, t: float) -> np.ndarray:
    """sinh(u(s - t/2))/(u cosh(u t/2)); tends to s - t/2 as u -> 0."""
    s = np.asarray(s, dtype=float)
    if abs(u) * (t + 1.0) < 1e-250:
        return (s - t / 2.0).astype(complex)
    # select decaying-exponent arguments before evaluating, so neither
    # branch ever sees a positive real part (no overflow on stiff u)
    lower = s <= t / 2.0
    arg = u * np.where(lower, 2.0 * s - t, t - 2.0 * s)
    pre = np.where(lower, np.exp(-u * s), -np.exp(-u * (t - s)))
    num = pre * _cexpm1(arg)
    return num / (u * (1.0 + np.exp(-u * t)))


# ---------------------------------------------------------------------------
# characteristic roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacteristicRoots:
    """Decaying-mode roots of the quartic reduction.

    upsilon1, upsilon2 solve x^4 - gamma^2 x^2 + i gamma^2 omega^2 = 0 with
    Re >= 0 (principal branches); zeta = upsilon1^2 - upsilon2^2.
    """

    gamma: float
    omega: float
    zeta: complex
    upsilon1: complex
    upsilon2: complex


def characteristic_roots(gamma: float, omega: float) -> CharacteristicRoots:
    """Roots of the quartic x^4 - gamma^2 x^2 + i gamma^2 omega^2 = 0.

    upsilon2 is computed through the rationalized form
    gamma*omega*sqrt(2i)/sqrt(gamma^2 + zeta) so that the subtraction
    gamma^2 - zeta never cancels (Re zeta >= 0 always).  Each root is then
    correct to a few ulps in every regime (3.4e-16 relative against 50-digit
    roots over gamma/omega in [1e-8, 1e8]), so the Vieta sum
    upsilon1^2 + upsilon2^2 = gamma^2 holds to a few eps of
    |upsilon1|^2 + |upsilon2|^2, which exceeds gamma^2 about 2 omega/gamma
    times where omega >> gamma, and the product upsilon1^2 upsilon2^2 =
    i gamma^2 omega^2 to a few eps of itself.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise InvalidParameterError(f"gamma must be positive and finite, got {gamma!r}")
    if not (math.isfinite(omega) and omega >= 0):
        raise InvalidParameterError(f"omega must be non-negative and finite, got {omega!r}")
    g2 = gamma * gamma
    zeta = np.sqrt(complex(g2 * g2, 0.0) - 4j * g2 * omega * omega)
    u1 = np.sqrt((g2 + zeta) / 2.0)
    u2 = gamma * omega * np.sqrt(2j) / np.sqrt(g2 + zeta)
    return CharacteristicRoots(gamma=float(gamma), omega=float(omega),
                               zeta=complex(zeta), upsilon1=complex(u1),
                               upsilon2=complex(u2))


# ---------------------------------------------------------------------------
# kernel solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSolution:
    """Sampled kernel with exact endpoint derivatives.

    kind "F" carries boundary values (1, 0); kind "H" carries (0, 0).
    d_sum and d_diff are d_start + d_end and d_start - d_end, cancellation
    free where the producing route has them exactly (the closed forms of f);
    the other routes form the plain sum and difference.
    """

    grid: TimeGrid
    values: np.ndarray
    d_start: complex
    d_end: complex
    kind: str
    d_sum: complex
    d_diff: complex


# ---------------------------------------------------------------------------
# closed-form scalars of the quartic boundary problem
# ---------------------------------------------------------------------------

class _BVPScalars:
    """Everything the closed forms need at (gamma, omega), for a float t or
    elementwise over an array of horizons t (so are the methods below).

    The even/odd 2x2 systems share the determinant factors D_e and D_o
    (the common zeta is cancelled analytically), and P = f'(0) + f'(t),
    Q = f'(0) - f'(t) come out as explicit ratios with the upsilon2^2
    smallness carried exactly through Vieta's product.
    """

    def __init__(self, gamma: float, omega: float, t):
        roots = characteristic_roots(gamma, omega)
        self.roots = roots
        u1, u2, zeta = roots.upsilon1, roots.upsilon2, roots.zeta
        g2 = gamma * gamma
        self.u1sq = u1 * u1
        self.u2sq = (1j * g2 * omega * omega) / self.u1sq if omega > 0 else 0.0 + 0.0j
        z1 = u1 * t / 2.0
        z2 = u2 * t / 2.0
        self.g1 = _tanh_ratio(z1)
        self.g2 = _tanh_ratio(z2)
        self.tau1 = self.g1 * t / 2.0
        self.tau2 = self.g2 * t / 2.0
        self.gdd = _tanh_sqrt_divdiff(z1, z2)
        self.K1 = self.u1sq * (self.u1sq * self.tau1 + gamma)
        self.K2 = self.u2sq * (self.u2sq * self.tau2 + gamma)
        self.L1 = self.u1sq * (1.0 + gamma * self.tau1)
        self.L2 = self.u2sq * (1.0 + gamma * self.tau2)
        # zeta-cancelled determinants: K1-K2 = zeta*D_e, tau1 L2 - tau2 L1 = zeta*D_o
        self.D_e = gamma + g2 * t * self.g1 / 2.0 + self.u2sq * self.u2sq * t ** 3 * self.gdd / 8.0
        self.D_o = self.u2sq * t ** 3 * self.gdd / 8.0 - t * self.g2 / 2.0 - gamma * self.tau1 * self.tau2
        bad = (self.D_e == 0) | (self.D_o == 0)
        if np.any(bad):
            raise InvalidParameterError(f"degenerate kernel boundary problem at gamma={gamma}, "
                                        f"omega={omega}, t={np.extract(bad, t)[0]}")
        self.Q = (1j * g2 * omega * omega) * (gamma * t ** 3 * self.gdd / 8.0
                                              - self.tau1 * self.tau2) / self.D_e
        self.P = (1.0 + gamma * t * self.g1 / 2.0
                  + gamma * self.u2sq * t ** 3 * self.gdd / 8.0) / self.D_o

    def f_coeffs(self) -> tuple[complex, complex, complex, complex]:
        """Basis weights (a, b, c, d) of the homogeneous boundary kernel."""
        zeta = self.roots.zeta
        a = -self.K2 / (2.0 * zeta * self.D_e)
        c = self.K1 / (2.0 * zeta * self.D_e)
        b = -self.L2 / (2.0 * zeta * self.D_o)
        d = self.L1 / (2.0 * zeta * self.D_o)
        return a, b, c, d

    def solve_even(self, rhs_val: complex, rhs_rob: complex) -> tuple[complex, complex]:
        """Solve a + c = rhs_val, K1 a + K2 c = rhs_rob."""
        det = self.roots.zeta * self.D_e  # == K1 - K2 without cancellation
        a = (rhs_rob - self.K2 * rhs_val) / det
        return a, rhs_val - a

    def solve_odd(self, rhs_val: complex, rhs_rob: complex) -> tuple[complex, complex]:
        """Solve tau1 b + tau2 d = rhs_val, L1 b + L2 d = rhs_rob."""
        det = self.roots.zeta * self.D_o  # == tau1 L2 - tau2 L1
        b = (rhs_val * self.L2 - self.tau2 * rhs_rob) / det
        d = (self.tau1 * rhs_rob - self.L1 * rhs_val) / det
        return b, d


def _check_horizon(t: float, grid: TimeGrid):
    if not (math.isfinite(t) and t > 0):
        raise InvalidParameterError(f"horizon t must be positive and finite, got {t!r}")
    if abs(grid.t_max - t) > 1e-12 * max(t, grid.t_max):
        raise InvalidParameterError(
            f"grid horizon {grid.t_max} does not match requested t={t}")


# ---------------------------------------------------------------------------
# production closed forms
# ---------------------------------------------------------------------------

def f_exponential(t: float, params: PhysicalParams, gamma: float,
                  grid: TimeGrid) -> KernelSolution:
    """Homogeneous boundary kernel for the exponential correlation kernel.

    Closed form in the symmetric hyperbolic basis; exact for every gamma,
    collapse strength, and horizon, including the white-noise limit
    (gamma = inf dispatches to the dedicated closed form).  The lam = 0
    limit degenerates smoothly to the straight line 1 - s/t.
    """
    if math.isinf(gamma):
        return f_markovian(t, params, grid)
    _check_horizon(t, grid)
    sc = _BVPScalars(gamma, params.omega_collapse, t)
    a, b, c, d = sc.f_coeffs()
    s = grid.nodes()
    u1, u2 = sc.roots.upsilon1, sc.roots.upsilon2
    vals = (a * _basis_even(u1, s, t) + b * _basis_odd(u1, s, t)
            + c * _basis_even(u2, s, t) + d * _basis_odd(u2, s, t))
    vals[0] = 1.0
    vals[-1] = 0.0
    return KernelSolution(grid=grid, values=vals,
                          d_start=complex((sc.P + sc.Q) / 2.0),
                          d_end=complex((sc.P - sc.Q) / 2.0),
                          kind="F", d_sum=complex(sc.P), d_diff=complex(sc.Q))


def f_endpoint_scalars(t, params: PhysicalParams, gamma: float):
    """Endpoint derivative sum and difference (f'(0)+f'(t), f'(0)-f'(t)).

    Grid-free and elementwise in t (a float or an array of horizons):
    everything the deterministic spread evolution needs, at any horizon,
    for the cost of a handful of array evaluations.
    """
    if math.isinf(gamma):
        k = _kappa(params)
        t = np.asarray(t, dtype=float)
        tiny = abs(k) * t < 1e-250          # straight line: P = -2/t, Q = 0
        g = _tanh_ratio(np.where(tiny, 0.0, k * t / 2.0))
        return ((-2.0 / (t * g))[()],                                # -kappa coth(kappa t / 2)
                np.where(tiny, 0.0j, -(k * k) * t / 2.0 * g)[()])    # -kappa tanh(kappa t / 2)
    sc = _BVPScalars(gamma, params.omega_collapse, t)
    return sc.P, sc.Q


def f_ratio_form(t: float, params: PhysicalParams, gamma: float,
                 grid: TimeGrid) -> np.ndarray:
    """Cross-check evaluator built from the explicit hyperbolic ratio.

    Independent of the basis solve above: numerator and denominator are
    assembled from the root polynomials directly.  Uses raw cosh/sinh, so
    it is intended for moderate |upsilon| t only (scaled-unit regimes);
    the production route is f_exponential.
    """
    _check_horizon(t, grid)
    roots = characteristic_roots(gamma, params.omega_collapse)
    u = (roots.upsilon1, roots.upsilon2)
    zeta = roots.zeta
    g = gamma
    cc = u[0] ** 3 * u[1] ** 3
    s = grid.nodes().astype(complex)

    def series(sv):
        total = 0.0 + 0.0j
        for k in (0, 1):
            kb = 1 - k
            sign = 1.0 if kb == 0 else -1.0  # zeta enters the first root's weight with +
            a_kb = g * u[kb] ** 3 * (u[kb] ** 2 + sign * zeta)
            b_kb = u[kb] ** 2 * (u[kb] ** 4 + sign * g * g * zeta)
            r_k = a_kb * np.cosh(u[kb] * t) + b_kb * np.sinh(u[kb] * t)
            d_k = -g * u[k] ** 3 * u[kb] ** 2
            u_t = d_k * np.sinh(u[kb] * t) - cc * np.cosh(u[kb] * t)
            u_s = d_k * np.sinh(u[kb] * sv) - cc * np.cosh(u[kb] * sv)
            total = total + (r_k * np.sinh(u[k] * (t - sv))
                             + u_t * np.cosh(u[k] * (t - sv)) - u_s)
        return total

    return series(s) / series(np.asarray(0.0 + 0.0j))


def h_exponential(t: float, params: PhysicalParams, gamma: float,
                  noise: NoisePath) -> KernelSolution:
    """Noise-driven kernel for the exponential correlation kernel.

    Particular solution by two-sided variation of parameters: only decaying
    convolutions I_k(s) = int_0^s e^{-u_k(s-r)} w dr and J_k(s) =
    int_s^t e^{-u_k(r-s)} w dr enter (trapezoid-exponential recursions,
    O(n), no noise derivatives), then the same even/odd 2x2 boundary solve
    as the homogeneous kernel.  Near the lam -> 0 degeneracy
    (omega_c < 1e-8 gamma) the double-integral limit form is used instead,
    and gamma = inf dispatches to the white-noise closed form.

    Relative accuracy degrades like eps/|u2 t| as omega_c t -> 0 between
    the two branches; irrelevant at the scaled-unit operating points.
    """
    grid = noise.grid
    _check_horizon(t, grid)
    # a one-row batch: with 0-d operands numpy switches to scalar arithmetic,
    # which rounds differently, and the path would not be its batch row
    vals, d_start, d_end = h_exponential_batch(t, params, gamma, grid, noise.values[None])
    vals, d_start, d_end = vals[0], complex(d_start[0]), complex(d_end[0])
    return KernelSolution(grid=grid, values=vals, d_start=d_start, d_end=d_end, kind="H",
                          d_sum=d_start + d_end, d_diff=d_start - d_end)


def h_exponential_batch(t: float, params: PhysicalParams, gamma: float,
                        grid: TimeGrid, w: np.ndarray):
    """Batched form of h_exponential over leading axes of w (..., n nodes).

    Returns (values, d_start, d_end) with the leading shape of w.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != grid.n:
        raise InvalidGridError(f"noise has {w.shape[-1]} nodes, grid has {grid.n}")
    _, pref, _ = _closed_form_constants(params)
    if math.isinf(gamma):
        return _h_markovian_core(t, params, grid, w, pref)
    if params.omega_collapse < 1e-8 * gamma:
        return _h_degenerate_core(t, grid, w, pref)
    sc = _BVPScalars(gamma, params.omega_collapse, t)
    u1, u2 = sc.roots.upsilon1, sc.roots.upsilon2
    dt = grid.dt
    i1 = _conv_forward(u1, w, dt)
    j1 = _conv_backward(u1, w, dt)
    i2 = _conv_forward(u2, w, dt)
    j2 = _conv_backward(u2, w, dt)
    c1, c2 = _h_particular_weights(sc)
    hp = pref * (c1 * (-i1 - j1) + c2 * (-i2 - j2))
    a, b, c, d, d_start, d_end = _h_boundary_solve(
        sc, gamma, pref, (i1[..., -1], i2[..., -1]), (j1[..., 0], j2[..., 0]))

    s = grid.nodes()
    a, b, c, d = (np.asarray(x, dtype=complex) for x in (a, b, c, d))
    vals = (a[..., None] * _basis_even(u1, s, t) + b[..., None] * _basis_odd(u1, s, t)
            + c[..., None] * _basis_even(u2, s, t) + d[..., None] * _basis_odd(u2, s, t)
            + hp)
    vals[..., 0] = 0.0
    vals[..., -1] = 0.0
    return vals, d_start, d_end


def _h_particular_weights(sc: _BVPScalars) -> tuple[complex, complex]:
    """c1, c2 of the particular solution h_p = pref sum_k c_k (-I_k - J_k)."""
    u1, u2, zeta = sc.roots.upsilon1, sc.roots.upsilon2, sc.roots.zeta
    return -sc.u2sq / (2.0 * u1 * zeta), sc.u1sq / (2.0 * u2 * zeta)


def _h_boundary_solve(sc: _BVPScalars, gamma: float, pref: complex, i_end, j_start):
    """Basis weights (a, b, c, d) and endpoint slopes (h'(0), h'(t)) of h.

    i_end = (I_1(t), I_2(t)) and j_start = (J_1(0), J_2(0)) are the
    convolution ends of both roots; I_k(0) and J_k(t) vanish.  Elementwise,
    so sc may also hold the scalars of an array of horizons with i_end,
    j_start holding one column per horizon.
    """
    u1, u2 = sc.roots.upsilon1, sc.roots.upsilon2
    c1, c2 = _h_particular_weights(sc)
    i1, i2 = i_end
    j1, j2 = j_start
    hp0 = -pref * (c1 * j1 + c2 * j2)
    hpt = -pref * (c1 * i1 + c2 * i2)
    hp_d0 = -pref * (c1 * u1 * j1 + c2 * u2 * j2)
    hp_dt = pref * (c1 * u1 * i1 + c2 * u2 * i2)
    # G := i omega_c^2 F accompanies each basis pair with weight u_k^2
    gp0 = -pref * (sc.u1sq * c1 * j1 + sc.u2sq * c2 * j2)
    gpt = -pref * (sc.u1sq * c1 * i1 + sc.u2sq * c2 * i2)
    gp_d0 = -pref * (sc.u1sq * u1 * c1 * j1 + sc.u2sq * u2 * c2 * j2)
    gp_dt = pref * (sc.u1sq * u1 * c1 * i1 + sc.u2sq * u2 * c2 * i2)

    rob0 = gp_d0 - gamma * gp0          # memory-boundary defect at s = 0
    robt = gp_dt + gamma * gpt          # and at s = t
    a, c = sc.solve_even(-(hp0 + hpt) / 2.0, -(robt - rob0) / 2.0)
    b, d = sc.solve_odd((hp0 - hpt) / 2.0, -(robt + rob0) / 2.0)
    d_start = (-a * sc.u1sq * sc.tau1 + b - c * sc.u2sq * sc.tau2 + d + hp_d0)
    d_end = (a * sc.u1sq * sc.tau1 + b + c * sc.u2sq * sc.tau2 + d + hp_dt)
    return a, b, c, d, d_start, d_end


def _conv_forward(u: complex, w: np.ndarray, dt: float, out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """I(s_j) = int_0^{s_j} e^{-u (s_j - r)} w(r) dr, trapezoid per cell.

    The cell sources are built in out (complex, w's shape, fresh if None)
    and scanned in place; scratch is passed on to _decay_scan.
    """
    e = np.exp(-u * dt)
    src = np.empty(w.shape, dtype=complex) if out is None else out
    src[..., 0] = 0.0
    cells = src[..., 1:]
    np.multiply(w[..., :-1], e, out=cells)
    cells += w[..., 1:]
    cells *= dt / 2.0
    return _decay_scan(u * dt, src, scratch)


def _conv_backward(u: complex, w: np.ndarray, dt: float) -> np.ndarray:
    """J(s_j) = int_{s_j}^t e^{-u (r - s_j)} w(r) dr, trapezoid per cell."""
    return _conv_forward(u, w[..., ::-1], dt)[..., ::-1]


def _h_degenerate_core(t: float, grid: TimeGrid, w: np.ndarray, pref: complex):
    """Vanishing-coupling limit: h'' = pref*w with zero boundary values."""
    s = grid.nodes()
    dt = grid.dt
    cw = _cumtrapz(w, dt)               # int_0^s w
    crw = _cumtrapz(s * w, dt)          # int_0^s r w
    lin = s * cw - crw                  # int_0^s (s - r) w dr
    total = t * cw[..., -1] - crw[..., -1]   # int_0^t (t - r) w dr
    total = np.asarray(total, dtype=complex)
    vals = pref * (lin - (s / t) * total[..., None])
    vals = vals.astype(complex)
    vals[..., 0] = 0.0
    vals[..., -1] = 0.0
    return (vals, *_degenerate_slopes(pref, t, cw[..., -1], total))


def _degenerate_slopes(pref: complex, t, cw_t, total):
    """h'(0), h'(t) of h'' = pref w with h(0) = h(t) = 0, from cw_t =
    int_0^t w and total = int_0^t (t - r) w dr; elementwise."""
    return pref * (-total / t), pref * (cw_t - total / t)


def _cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(np.asarray(y, dtype=y.dtype if np.iscomplexobj(y) else float))
    out[..., 1:] = np.cumsum((y[..., 1:] + y[..., :-1]) / 2.0, axis=-1) * dt
    return out


# ---------------------------------------------------------------------------
# white-noise (gamma = inf) closed forms
# ---------------------------------------------------------------------------

def _kappa(params: PhysicalParams) -> complex:
    """White-noise decay root: kappa^2 = i omega_c^2, Re kappa > 0."""
    return params.omega_collapse * np.exp(1j * math.pi / 4.0)


def f_markovian(t: float, params: PhysicalParams, grid: TimeGrid) -> KernelSolution:
    """Homogeneous kernel in the white-noise limit: sinh(k(t-s))/sinh(kt)."""
    _check_horizon(t, grid)
    k = _kappa(params)
    s = grid.nodes()
    p_sum, q_diff = (complex(x) for x in f_endpoint_scalars(t, params, math.inf))
    if abs(k) * t < 1e-250:
        vals = (1.0 - s / t).astype(complex)
        d_start = d_end = -1.0 / t + 0j
    else:
        den = -_cexpm1(-2.0 * k * t)
        vals = (np.exp(-k * s) - np.exp(-k * (2.0 * t - s))) / den
        vals[0] = 1.0
        vals[-1] = 0.0
        et = np.exp(-k * t)
        d_start = complex(-k * (1.0 + et * et) / den)
        d_end = complex(-2.0 * k * et / den)
    return KernelSolution(grid=grid, values=vals, d_start=d_start, d_end=d_end,
                          kind="F", d_sum=p_sum, d_diff=q_diff)


def _h_markovian_core(t: float, params: PhysicalParams, grid: TimeGrid,
                      w: np.ndarray, pref: complex):
    """Noise-driven kernel in the white-noise limit: h'' - kappa^2 h = pref w
    with zero boundary values, through the Dirichlet Green's function built
    from decaying exponentials only (four image terms), so it stays finite
    for arbitrarily stiff kappa t."""
    k = _kappa(params)
    if abs(k) * t < 1e-250:
        return _h_degenerate_core(t, grid, w, pref)
    s = grid.nodes()
    dt = grid.dt
    i_conv = _conv_forward(k, w, dt)
    j_conv = _conv_backward(k, w, dt)
    # V(s) = int_0^s e^{-k r} w dr; bounded weights, plain cumulative trapezoid
    v_cum = _cumtrapz(np.exp(-k * s) * w, dt)
    vt = v_cum[..., -1:]
    it = i_conv[..., -1:]
    e_s = np.exp(-k * s)
    e_ts = np.exp(-k * (t - s))
    et = np.exp(-k * t)
    e2 = et * et
    big_t = (i_conv + j_conv - e_s * vt - e_ts * it
             + e_ts * et * v_cum + et * e_s * it - e2 * i_conv)
    den = -_cexpm1(-2.0 * k * t)
    vals = -pref / (2.0 * k * den) * big_t
    vals[..., 0] = 0.0
    vals[..., -1] = 0.0
    d_start = -pref * (vt[..., 0] - et * it[..., 0]) / den
    d_end = -pref * (et * vt[..., 0] - it[..., 0]) / den
    return vals, d_start, d_end


# ---------------------------------------------------------------------------
# collocation arbiter
# ---------------------------------------------------------------------------

def solve_f_numeric(t: float, params: PhysicalParams, kernel: CorrelationKernel,
                    grid: TimeGrid) -> KernelSolution:
    """Arbiter route for the homogeneous kernel: collocation linear solve.

    O(n) in the grid size and second-order accurate in the grid step;
    raises on a numerically singular discretization.
    """
    _check_horizon(t, grid)
    rhs = np.zeros(grid.n, dtype=complex)
    rhs[0] = 1.0
    vals = _collocation_solve(params, kernel, grid, rhs)
    return _package_numeric(grid, vals, "F")


def solve_h_numeric(t: float, params: PhysicalParams, kernel: CorrelationKernel,
                    noise: NoisePath) -> KernelSolution:
    """Arbiter route for the noise-driven kernel: collocation linear solve."""
    grid = noise.grid
    _check_horizon(t, grid)
    rhs = (math.sqrt(params.lam) / 2.0) * noise.values.astype(complex)
    rhs[0] = 0.0
    rhs[-1] = 0.0
    vals = _collocation_solve(params, kernel, grid, rhs)
    return _package_numeric(grid, vals, "H")


def _collocation_solve(params: PhysicalParams, kernel: CorrelationKernel,
                       grid: TimeGrid, rhs: np.ndarray) -> np.ndarray:
    """Solve mu (v_{j-1} - 2 v_j + v_{j+1})/dt^2 + lam sum_r alpha(s_j, s_r)
    rho_r v_r = rhs_j (trapezoid weights rho) at interior nodes, with both
    ends pinned to rhs, in O(n) for every lam.

    The memory sum is F_j + B_j, with the sweeps F_j = a F_{j-1} + m rho_j v_j
    and B_j = a (B_{j+1} + m rho_{j+1} v_{j+1}), a = e^{-gamma dt},
    m = lam gamma/2.  In the unknowns x_j = (v_j, F_j, B_j) the system is
    block tridiagonal with 3x3 blocks: one block elimination and one back
    substitution.  m sits in the sweep rows, not the memory row, so that
    pivoting inside a block picks a sweep row where memory dominates.
    """
    if grid.n < 3:
        raise InvalidParameterError(
            f"the discrete kernel equation needs at least 3 grid nodes, got {grid.n}")
    n = grid.n
    dt = grid.dt
    c = 1j * params.m / (2.0 * params.hbar * dt ** 2)
    a = math.exp(-kernel.gamma * dt)
    m_rho = np.full(n, params.lam * kernel.gamma / 2.0 * dt)
    m_rho[[0, -1]] /= 2.0
    inner = np.arange(1, n - 1)
    lo, diag, up = np.zeros((3, n, 3, 3), dtype=complex)
    lo[inner, 0, 0] = up[inner, 0, 0] = c           # kinetic band
    diag[inner, 0, 0] = -2.0 * c
    diag[inner, 0, 1:] = 1.0                        # memory term F_j + B_j
    diag[[0, -1], 0, 0] = 1.0                       # pinned ends
    lo[1:, 1, 1] = -a                               # F_j - a F_{j-1} - m rho_j v_j = 0
    diag[:, 1, 0] = -m_rho
    diag[:, 1, 1] = 1.0
    up[:-1, 2, 0] = -a * m_rho[1:]                  # B_j - a B_{j+1} - a m rho_{j+1} v_{j+1} = 0
    up[:-1, 2, 2] = -a
    diag[:, 2, 2] = 1.0
    y = np.zeros((n, 3), dtype=complex)
    y[:, 0] = rhs
    inv = np.empty((n, 3, 3), dtype=complex)
    try:
        for j in range(n):
            if j:
                w = lo[j] @ inv[j - 1]
                diag[j] -= w @ up[j - 1]
                y[j] -= w @ y[j - 1]
            inv[j] = np.linalg.inv(diag[j])
    except np.linalg.LinAlgError as exc:
        raise InvalidParameterError(f"singular discretized kernel system: {exc}") from exc
    x = np.empty((n, 3), dtype=complex)
    x[-1] = inv[-1] @ y[-1]
    for j in range(n - 2, -1, -1):
        x[j] = inv[j] @ (y[j] - up[j] @ x[j + 1])
    if not np.isfinite(x).all():
        raise InvalidParameterError("discretized kernel solve produced non-finite values")
    return x[:, 0]


def _package_numeric(grid: TimeGrid, vals: np.ndarray, kind: str) -> KernelSolution:
    dt = grid.dt
    d_start = complex((-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * dt))
    d_end = complex((3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * dt))
    return KernelSolution(grid=grid, values=vals, d_start=d_start, d_end=d_end, kind=kind,
                          d_sum=d_start + d_end, d_diff=d_start - d_end)


# Interior rows of the memory operator that kernel_residual evaluates at a time.
_CHUNK_ROWS = 128

# Rounding that kernel_residual allows a defect, in eps of the size of its
# terms.  Where the defect of the closed forms is rounding alone (lambda = 0
# or 1e-30, N = 2001, t_max from 1e-6 to 100) it reaches 6.
_RESIDUAL_ULPS = 16.0


def kernel_residual(solutions: list[KernelSolution], params: PhysicalParams,
                    kernel: CorrelationKernel, noise: NoisePath | None = None) -> list[float]:
    """Normalized max interior defect of the discrete kernel equation, per
    solution of a batch on one grid; kind "H" needs the driving noise.

    Applies the discrete operator of the numeric solver (central difference
    + trapezoid memory quadrature) and reports the largest defect in excess
    of the rounding of its terms, _RESIDUAL_ULPS eps max_j size_j with
    size_j = |mu| (|v_{j-1}| + 2|v_j| + |v_{j+1}|)/dt^2 + |mem_j| + |rhs_j|,
    relative to the largest result |mu v''_j|, |mem_j| or |rhs_j|.  The
    floor matters where a kernel is nearly linear (weak coupling, short
    horizons), as the second difference is then itself rounding.  Exact
    discrete solutions score 0, analytic ones their truncation O(dt^2), and
    a kernel of the wrong coupling O(1).  The memory sum stays a dense
    product with alpha evaluated pointwise, so it shares no algebra with the
    collocation sweeps it checks; it streams _CHUNK_ROWS rows of alpha at a
    time, each block evaluated once for the whole batch.
    """
    if noise is None and any(sol.kind == "H" for sol in solutions):
        raise InvalidParameterError("kind 'H' residual needs the driving noise")
    grids = {sol.grid for sol in solutions} | ({noise.grid} if noise is not None else set())
    grid = next(iter(grids)) if solutions and len(grids) == 1 else None
    if grid is None or grid.n < 3:
        raise InvalidParameterError(
            f"kernel residual needs a batch on one grid of at least 3 grid nodes, got {grids}")
    n, s, dt = grid.n, grid.nodes(), grid.dt
    v = np.array([sol.values for sol in solutions])
    weighted = np.r_[dt / 2.0, np.full(n - 2, dt), dt / 2.0] * v
    mem = np.empty((len(solutions), n - 2), dtype=complex)
    inner = s[1:-1, None]
    for lo in range(0, n - 2, _CHUNK_ROWS):
        alpha = _ou_covariance(kernel.gamma, inner[lo:lo + _CHUNK_ROWS], s).astype(complex)
        for row, w in zip(mem, weighted):
            row[lo:lo + _CHUNK_ROWS] = params.lam * (alpha @ w)
    mu = 1j * params.m / (2.0 * params.hbar)
    lapl = mu * (v[:, :-2] - 2.0 * v[:, 1:-1] + v[:, 2:]) / dt ** 2
    drive = 0.0 if noise is None else (math.sqrt(params.lam) / 2.0) * noise.values[1:-1]
    rhs = np.where([[sol.kind == "H"] for sol in solutions], drive, 0.0)
    av = np.abs(v)
    size = (abs(mu) * (av[:, :-2] + 2.0 * av[:, 1:-1] + av[:, 2:]) / dt ** 2
            + np.abs(mem) + np.abs(rhs))
    floor = _RESIDUAL_ULPS * np.finfo(float).eps * np.max(size, axis=1)
    excess = np.maximum(np.max(np.abs(lapl + mem - rhs), axis=1) - floor, 0.0)
    scale = np.max([np.max(np.abs(x), axis=1) for x in (lapl, mem, rhs)], axis=0)
    return (excess / np.maximum(scale, 1e-300)).tolist()
