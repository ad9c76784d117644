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

The propagator's noise coefficients C, D and E are formed in one place, the
single pass (_HorizonKernels): for a block of noise paths, one forward
convolution per root serves every sample horizon, without node values of
f or h.  The ensemble and greens_coefficients both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (InvalidGridError, InvalidParameterError, PhysicalParams, TimeGrid,
                   _as_real, _block_tridiag_solve, _closed_form_constants, _decay_scan,
                   _scan_block, _scan_growth)
from .noise import NoisePath, _ou_covariance, exponential_kernel


# ---------------------------------------------------------------------------
# stable scalar primitives
# ---------------------------------------------------------------------------

def _tanh_ratio(z):
    """tanh(z)/z for complex z with Re z >= 0, elementwise; exact limit 1 at z = 0.

    numpy's complex tanh keeps full relative precision from |z| = 1e-300 to
    1e300 and tends to +-1 without overflow, so the quotient loses nothing.
    """
    z = np.asarray(z, dtype=complex)
    zero = z == 0.0
    z = np.where(zero, 1.0, z)
    return np.where(zero, 1.0 + 0.0j, np.tanh(z) / z)[()]


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
    num = pre * np.expm1(arg)
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
    gamma = exponential_kernel(gamma)
    omega = _as_real(omega, "omega", "non-negative")
    g2 = gamma * gamma
    zeta = np.sqrt(complex(g2 * g2, 0.0) - 4j * g2 * omega * omega)
    u1 = np.sqrt((g2 + zeta) / 2.0)
    u2 = gamma * omega * np.sqrt(2j) / np.sqrt(g2 + zeta)
    return CharacteristicRoots(zeta=complex(zeta), upsilon1=complex(u1), upsilon2=complex(u2))


# ---------------------------------------------------------------------------
# kernel solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSolution:
    """Sampled kernel with exact endpoint derivatives.

    kind "F" solves for boundary values (1, 0), kind "H" for (0, 0); the
    ends of values are the solve's, not the targets.  The cancellation-free
    sum and difference of f's endpoint slopes come from f_endpoint_scalars.
    """

    grid: TimeGrid
    values: np.ndarray
    d_start: complex
    d_end: complex
    kind: str


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

    def solve_even(self, rhs_val: complex, rhs_rob: complex) -> tuple[complex, complex]:
        """Solve a + c = rhs_val, K1 a + K2 c = rhs_rob."""
        det = self.roots.zeta * self.D_e  # == K1 - K2 without cancellation
        return (rhs_rob - self.K2 * rhs_val) / det, (self.K1 * rhs_val - rhs_rob) / det

    def solve_odd(self, rhs_val: complex, rhs_rob: complex) -> tuple[complex, complex]:
        """Solve tau1 b + tau2 d = rhs_val, L1 b + L2 d = rhs_rob."""
        det = self.roots.zeta * self.D_o  # == tau1 L2 - tau2 L1
        b = (rhs_val * self.L2 - self.tau2 * rhs_rob) / det
        d = (self.tau1 * rhs_rob - self.L1 * rhs_val) / det
        return b, d


def _check_horizon(t: float, grid: TimeGrid | None):
    _as_real(t, "horizon t", "positive")
    if grid is not None and abs(grid.t_max - t) > 1e-12 * max(t, grid.t_max):
        raise InvalidParameterError(
            f"grid horizon {grid.t_max} does not match requested t={t}")


# ---------------------------------------------------------------------------
# production closed forms
# ---------------------------------------------------------------------------

def f_exponential(t: float, params: PhysicalParams, gamma: float,
                  grid: TimeGrid) -> KernelSolution:
    """Homogeneous boundary kernel for the exponential correlation kernel.

    Closed form in the symmetric hyperbolic basis, weighted by the even/odd
    2x2 solves h uses, with the boundary data (1, 0) and no source; exact
    for every gamma, collapse strength, and horizon, including the
    white-noise limit (gamma = inf is the one-root case, f_markovian).  The
    lam = 0 limit degenerates smoothly to the straight line 1 - s/t.
    """
    if gamma == math.inf:
        return f_markovian(t, params, grid)
    _check_horizon(t, grid)
    sc = _BVPScalars(gamma, params.omega_collapse, t)
    (a, c), (b, d) = sc.solve_even(0.5, 0.0), sc.solve_odd(-0.5, 0.0)
    s = grid.nodes()
    u1, u2 = sc.roots.upsilon1, sc.roots.upsilon2
    vals = (a * _basis_even(u1, s, t) + b * _basis_odd(u1, s, t)
            + c * _basis_even(u2, s, t) + d * _basis_odd(u2, s, t))
    return KernelSolution(grid=grid, values=vals,
                          d_start=complex((sc.P + sc.Q) / 2.0),
                          d_end=complex((sc.P - sc.Q) / 2.0),
                          kind="F")


def f_endpoint_scalars(t, params: PhysicalParams, gamma: float):
    """Endpoint derivative sum and difference (f'(0)+f'(t), f'(0)-f'(t)).

    Grid-free and elementwise in t (a float or an array of horizons):
    everything the deterministic spread evolution needs, at any horizon,
    for the cost of a handful of array evaluations.
    """
    if gamma == math.inf:
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

    Each root u_k drives its share of the particular solution, p_k'' -
    u_k^2 p_k = rho_k w, by trapezoid integrals of the noise (no noise
    derivatives); the even/odd 2x2 boundary solve of the homogeneous kernel
    then meets the boundary conditions.  One formula for every coupling: h
    is exactly 0 at lam = 0 and tends to the solution of h'' = pref w.
    gamma = inf takes the one-root white-noise case.
    """
    grid = noise.grid
    # a one-row batch: with 0-d operands numpy switches to scalar arithmetic,
    # which rounds differently, and the path would not be its batch row
    vals, d_start, d_end = h_exponential_batch(t, params, gamma, grid, noise.values[None])
    vals, d_start, d_end = vals[0], complex(d_start[0]), complex(d_end[0])
    return KernelSolution(grid=grid, values=vals, d_start=d_start, d_end=d_end, kind="H")


def h_exponential_batch(t: float, params: PhysicalParams, gamma: float,
                        grid: TimeGrid, w: np.ndarray):
    """Batched form of h_exponential over leading axes of w (..., n nodes).

    Returns (values, d_start, d_end) with the leading shape of w.
    """
    _check_horizon(t, grid)
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != grid.n:
        raise InvalidGridError(f"noise has {w.shape[-1]} nodes, grid has {grid.n}")
    _, pref, _ = _closed_form_constants(params)
    if gamma == math.inf:
        return _h_markovian_core(t, params, grid, w, pref)
    sc = _BVPScalars(gamma, params.omega_collapse, t)
    u1, u2 = sc.roots.upsilon1, sc.roots.upsilon2
    (p1, ends1), (p2, ends2) = (_particular_part(u, rho, t, grid, w)
                                for u, rho in zip((u1, u2), _h_weights(sc)))
    sums = np.zeros((2, 4) + w.shape[:-1], dtype=complex)
    _add_root_ends(sums, sc.u1sq, ends1)
    _add_root_ends(sums, sc.u2sq, ends2)
    a, b, c, d, d_start, d_end = _h_boundary_solve(sc, gamma, pref, sums)

    s = grid.nodes()
    a, b, c, d = (np.asarray(x, dtype=complex) for x in (a, b, c, d))
    vals = (a[..., None] * _basis_even(u1, s, t) + b[..., None] * _basis_odd(u1, s, t)
            + c[..., None] * _basis_even(u2, s, t) + d[..., None] * _basis_odd(u2, s, t)
            + pref * (p1 + p2))
    return vals, d_start, d_end


# Largest |u t| at which a root's share of h's particular part takes the
# kernel sinh(u|x|)/(2u), not the decaying -e^{-u|x|}/(2u).  The decaying
# kernel rounds h to about 2.4e-15/|u t| of its size, so at most 2.5e-13
# above this bound; the sinh kernel costs two cumulative integrals per row
# (16.5 ms against 2.5 ms for one root's scan of 128 x 2001 noise on a
# 2-vCPU VM), so it takes only the horizons where the decaying one loses
# digits (t <= 0.02 at lam = 0.1, gamma = 1).
_SINH_KERNEL_MAX = 1e-2


def _sinh_over(u: complex, x):
    """sinh(u x)/u, elementwise in x; x at u = 0."""
    return np.asarray(x, dtype=float) + 0j if u == 0 else np.sinh(u * x) / u


def _h_weights(sc: _BVPScalars) -> tuple[complex, complex]:
    """Shares rho_1 = -u2^2/zeta, rho_2 = u1^2/zeta of the noise that drive
    the roots' parts of h/pref (partial fractions; they sum to 1)."""
    zeta = sc.roots.zeta
    return -sc.u2sq / zeta, sc.u1sq / zeta


def _particular_ends(u: complex, rho: complex, t, sinh_kernel: bool, first, second):
    """(p(0), p(t), p'(0), p'(t)) of a particular solution of p'' - u^2 p =
    rho w on [0, t], elementwise over horizons t.  By the kernel
    -e^{-u|x|}/(2u), first and second are the trapezoid convolution ends I(t)
    and J(0); by sinh(u|x|)/(2u), entire in u, the trapezoid integrals
    int_0^t w cosh(ur) and int_0^t w sinh(ur)/u.  The kernels differ by
    cosh(ux)/(2u), a homogeneous solution the boundary solve absorbs, so
    both give the same discrete h."""
    half = rho / 2.0
    if not sinh_kernel:
        return -half / u * second, -half / u * first, -half * second, half * first
    sh, ch = _sinh_over(u, t), np.cosh(u * t)
    return (half * second, half * (sh * first - ch * second),
            -half * first, half * (ch * first - u * u * sh * second))


def _particular_part(u: complex, rho: complex, t: float, grid: TimeGrid, w: np.ndarray):
    """Node values and ends (_particular_ends) of the particular solution of
    p'' - u^2 p = rho w on the whole grid, t = its horizon; the sinh kernel
    where |u t| <= _SINH_KERNEL_MAX."""
    dt = grid.dt
    if abs(u * t) > _SINH_KERNEL_MAX:
        i, j = _conv_forward(u, w, dt), _conv_backward(u, w, dt)
        return -rho / (2.0 * u) * (i + j), _particular_ends(u, rho, t, False, i[..., -1], j[..., 0])
    s = grid.nodes()
    sh, ch = _sinh_over(u, s), np.cosh(u * s)
    c, sn = _cumtrapz(w * ch, dt), _cumtrapz(w * sh, dt)
    ends = _particular_ends(u, rho, t, True, c[..., -1], sn[..., -1])
    # split at r = s: sinh(u|s - r|) = +-(sinh(us) cosh(ur) - cosh(us) sinh(ur))
    values = (rho / 2.0) * (sh * (2.0 * c - c[..., -1:]) - ch * (2.0 * sn - sn[..., -1:]))
    return values, ends


def _add_root_ends(sums: np.ndarray, usq: complex, ends):
    """Add one root's _particular_ends into the zeroed boundary sums of h:
    sums[0] collects the ends and sums[1] the ends weighted by the root's
    u^2, with which G := i omega_c^2 F accompanies its share."""
    for i, x in enumerate(ends):
        sums[0, i, ...] += x
        sums[1, i, ...] += usq * x


def _h_boundary_solve(sc: _BVPScalars, gamma: float, pref: complex, sums: np.ndarray):
    """Basis weights (a, b, c, d) and endpoint slopes (h'(0), h'(t)) of h,
    from the boundary sums (2, 4, ...) of _add_root_ends, which are scaled by
    pref in place.  Elementwise, so sc may also hold the scalars of an array
    of horizons, the sums one column per horizon."""
    hp0, hpt, hp_d0, hp_dt = np.multiply(pref, sums, out=sums)[0]
    gp0, gpt, gp_d0, gp_dt = sums[1]

    rob0 = gp_d0 - gamma * gp0          # memory-boundary defect at s = 0
    robt = gp_dt + gamma * gpt          # and at s = t
    a, c = sc.solve_even(-(hp0 + hpt) / 2.0, -(robt - rob0) / 2.0)
    b, d = sc.solve_odd((hp0 - hpt) / 2.0, -(robt + rob0) / 2.0)
    d_start = (-a * sc.u1sq * sc.tau1 + b - c * sc.u2sq * sc.tau2 + d + hp_d0)
    d_end = (a * sc.u1sq * sc.tau1 + b + c * sc.u2sq * sc.tau2 + d + hp_dt)
    return a, b, c, d, d_start, d_end


def _conv_forward(u: complex, w: np.ndarray, dt: float) -> np.ndarray:
    """I(s_j) = int_0^{s_j} e^{-u (s_j - r)} w(r) dr, trapezoid per cell.

    The cell sources (dt/2)(e^{-u dt} w_{j-1} + w_j) enter _decay_scan grown
    by their block-local e^{u dt i_j}: with x_j = (dt/2) e^{u dt i_j} w_j, a
    cell inside a block is x_{j-1} + x_j, and only the cell that starts each
    later block is formed from w.
    """
    z = u * dt
    n = w.shape[-1]
    x = w * ((dt / 2.0) * _scan_growth(z, n))
    src = np.zeros_like(x)
    np.add(x[..., :-1], x[..., 1:], out=src[..., 1:])
    b = _scan_block(z, n)
    src[..., b::b] = (dt / 2.0) * (np.exp(-z) * w[..., b - 1:n - 1:b] + w[..., b::b])
    return _decay_scan(z, src)


def _conv_backward(u: complex, w: np.ndarray, dt: float) -> np.ndarray:
    """J(s_j) = int_{s_j}^t e^{-u (r - s_j)} w(r) dr, trapezoid per cell."""
    return _conv_forward(u, w[..., ::-1], dt)[..., ::-1]


def _cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid of y along the last axis."""
    out = np.empty_like(y, dtype=y.dtype if np.iscomplexobj(y) else float)
    out[..., 0] = 0.0
    body = np.add(y[..., 1:], y[..., :-1], out=out[..., 1:])
    np.cumsum(np.divide(body, 2.0, out=body), axis=-1, out=body)
    body *= dt
    return out


# ---------------------------------------------------------------------------
# the single pass: noise coefficients at many horizons
# ---------------------------------------------------------------------------

def _horizon_integrals(w: np.ndarray, y: np.ndarray, idx: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """Trapezoid integrals int_0^{t_k} w y_c per row of w, horizon k and
    column c of y, into out (rows, horizons, columns).

    y is (nodes, columns), shared by the rows, or (rows, nodes, columns),
    one per row, and carries the trapezoid weights: dt at every node, halved
    at node 0 and at each horizon node.  The closed segments [t_{k-1}, t_k]
    share their end nodes, so a horizon node weighs dt/2 at its own horizon
    and dt at later ones.  Each segment is one matmul per row, so a row's
    integrals do not depend on the other rows (a GEMM over the block rounds
    by its row count), and the segments accumulate across horizons.
    """
    a = 0
    for k, b in enumerate(idx):
        np.matmul(w[:, None, a:b + 1], y[..., a:b + 1, :], out=out[:, k, None])
        a = b
    return np.cumsum(out, axis=1, out=out)


# Most nodes in a time tile of the single pass: a block's convolutions are
# streamed through one (rows, _TILE_NODES) complex buffer, whatever N.  512
# nodes hold about 12 of the 40-node segments between the CLI's 50 horizons.
_TILE_NODES = 512


def _tile_plan(idx: np.ndarray, cap: int):
    """Time tiles of one root's convolution in the single pass, and the
    pieces of the segments between horizons that they hold.

    Nodes 0..idx[-1] are cut into tiles [lo, hi) of at most ``cap`` nodes; a
    tile ends after the last horizon node it can hold, if it holds one.
    Segment k owns the nodes (idx[k-1], idx[k]], segment 0 the nodes
    0..idx[0], and its piece in a tile is the owned nodes there.  Returns
    (tiles, ends): per tile (lo, hi, horizons, pieces), horizons the slice
    of idx inside it and pieces (p, a, b), piece p over nodes a..b, numbered
    in order across the tiles; ends[k] is the last piece of segment k.
    """
    n = idx[-1] + 1
    owned = np.concatenate(([0], idx[:-1] + 1))
    tiles, ends, count, lo = [], [], 0, 0
    while lo < n:
        hi = min(lo + cap, n)
        k0, k1 = (int(x) for x in np.searchsorted(idx, [lo, hi]))
        if k1 > k0:
            hi = int(idx[k1 - 1]) + 1
        pieces = []
        for s in range(k0, int(np.searchsorted(owned, hi))):
            pieces.append((count, max(int(owned[s]), lo), min(int(idx[s]), hi - 1)))
            if idx[s] < hi:
                ends.append(count)
            count += 1
        tiles.append((lo, hi, slice(k0, k1), pieces))
        lo = hi
    return tiles, np.array(ends)


@dataclass(frozen=True)
class _Scratch:
    """The buffers _HorizonKernels.coefficients writes a block into: conv,
    the one tile of the streamed convolutions; segments, their integrals
    per piece of the tile plans; squares, the sums of w^2 per horizon; lin
    and prod, the sinh kernel's cumulative sums; linear and wi, the horizon
    integrals.  None spans the grid: conv holds _TILE_NODES nodes of a row,
    and lin and prod the sinh kernel's nodes only, |u t| <= _SINH_KERNEL_MAX."""

    conv: np.ndarray
    segments: np.ndarray
    squares: np.ndarray
    lin: np.ndarray
    prod: np.ndarray
    linear: np.ndarray
    wi: np.ndarray


class _HorizonKernels:
    """C, D and E at every horizon t_k = grid node idx[k], for blocks of noise
    paths.

    Holds the noise-free data of every horizon (``sc``, one _BVPScalars over
    the horizons ``t``; f's basis weights; e^{-u t_k}), the weight table
    of every linear functional of the noise the horizons need, and per root
    the tile plan of its convolution (``plan``: the growth (dt/2) e^{z c}
    and weights 2 e^{-z c} of a tile's node c, z = u dt, and _tile_plan's
    tiles and ends).  They are only read after construction, so threads may
    share one instance; the buffers a block writes are a _Scratch
    (``scratch``) that no other running block holds.  The table's complex
    columns, stored as (real, imaginary) pairs of floats with the trapezoid
    weights of _horizon_integrals, are e^{-u s} for both roots, then per
    root sinh(u s)/u and cosh(u s) up to its last horizon with |u t_k| <= 1
    (those come first) and 0 beyond.
    The first ``n_sinh`` horizons of a root, |u t_k| <= _SINH_KERNEL_MAX,
    take the sinh kernel of h's particular part, with ``sinh_nodes`` the
    unweighted sinh and cosh columns up to the last one, cosh halved at
    node 0.
    """

    def __init__(self, params: PhysicalParams, gamma: float, grid: TimeGrid,
                 idx: np.ndarray):
        self.idx = idx
        self.dt = grid.dt
        s = grid.nodes()[: idx[-1] + 1]
        t = s[idx]
        self.t = t
        self.gamma = gamma
        self.constants = _closed_form_constants(params)
        self.sc = sc = _BVPScalars(gamma, params.omega_collapse, t)
        self.u = (sc.roots.upsilon1, sc.roots.upsilon2)
        self.rho = _h_weights(sc)
        self.usq = (sc.u1sq, sc.u2sq)
        self.tau = (sc.tau1, sc.tau2)
        self.f_even, self.f_odd = sc.solve_even(0.5, 0.0), sc.solve_odd(-0.5, 0.0)

        self.e_t, self.n_small, self.n_sinh, self.sinh_nodes, self.plan = [], [], [], [], []
        table = np.zeros((s.size, 6), dtype=complex)
        for r, u in enumerate(self.u):
            self.e_t.append(np.exp(-u * t))
            ns = int(np.count_nonzero(np.abs(u * t) <= 1.0))
            nd = int(np.count_nonzero(np.abs(u * t) <= _SINH_KERNEL_MAX))
            self.n_small.append(ns)
            self.n_sinh.append(nd)
            head = s[: idx[ns - 1] + 1] if ns else s[:0]
            table[:, r] = np.exp(-u * s)
            table[: head.size, 2 + 2 * r] = _sinh_over(u, head)
            table[: head.size, 3 + 2 * r] = np.cosh(u * head)
            stretch = idx[nd - 1] + 1 if nd else 0
            nodes = table[:stretch, 2 + 2 * r:4 + 2 * r].T.copy()
            nodes[1, :1] *= 0.5
            self.sinh_nodes.append(nodes)
            # a tile is a scan block: its growth stays within e^_SCAN_GROWTH
            z = u * self.dt
            c = np.arange(_scan_block(z, _TILE_NODES) + 1)
            self.plan.append(((self.dt / 2.0) * np.exp(z * c[:-1]), 2.0 * np.exp(-z * c),
                              *_tile_plan(idx, c.size - 1)))
        table *= self.dt
        table[0] *= 0.5
        table[idx] *= 0.5
        self.table = table.view(float)

    def scratch(self, rows: int) -> _Scratch:
        """Fresh buffers for blocks of up to ``rows`` noise paths."""
        stretch = (rows, max(x.shape[1] for x in self.sinh_nodes))
        pieces = max(ends[-1] + 1 for *_, ends in self.plan)
        return _Scratch(conv=np.empty((rows, min(_TILE_NODES, self.idx[-1] + 1)), dtype=complex),
                        segments=np.empty((rows, pieces, 2)),
                        squares=np.empty((rows, self.t.size)),
                        lin=np.empty(stretch, dtype=complex),
                        prod=np.empty(stretch, dtype=complex),
                        linear=np.empty((rows, self.t.size, self.table.shape[1])),
                        wi=np.empty((2, rows, self.t.size, 2)))

    def _stream(self, r: int, w: np.ndarray, scratch: _Scratch, integrals: bool):
        """(I(t_k), A_k or None) of root r for the noise rows w, the
        convolution streamed through the tiles of its plan: A_k =
        sum_{j <= idx[k]} w_j e^{-z c_j} (K + 2 S_j), see coefficients."""
        grown, weights, tiles, ends = self.plan[r]
        m = w.shape[0]
        segs = scratch.segments[:m]
        ik = np.empty((m, self.t.size), dtype=complex)
        for lo, hi, hz, pieces in tiles:
            n_t = hi - lo
            x = scratch.conv.reshape(-1)[:m * n_t].reshape(m, n_t)
            pairs = x.view(float).reshape(m, n_t, 2)
            np.copyto(x, w[:, lo:hi])
            x *= grown[:n_t]
            # seeded with K/2 the cumulative sum is S + K/2; K = -x_0 in the first tile
            if lo:
                x[:, 0] += half
            else:
                x[:, 0] *= 0.5
            np.cumsum(x, axis=1, out=x)
            nodes = self.idx[hz]
            c = nodes - lo
            ik[:, hz] = (2.0 * x[:, c] - w[:, nodes] * grown[c]) * (0.5 * weights[c])
            half = (0.5 * weights[n_t]) * x[:, -1]
            if integrals:
                x *= weights[:n_t]
                for p, a, b in pieces:
                    np.matmul(w[:, None, a:b + 1], pairs[:, a - lo:b - lo + 1],
                              out=segs[:, p, None])
        if not integrals:
            return ik, None
        n_p = ends[-1] + 1
        sums = np.cumsum(segs[:, :n_p], axis=1, out=segs[:, :n_p])[:, ends]
        return ik, sums.view(complex)[..., 0]

    def coefficients(self, w: np.ndarray, scratch: _Scratch):
        """(C, D, E), each (rows of w, horizons), for a block of noise rows w,
        at most as many as ``scratch`` was made for.

        One forward convolution per root up to the last horizon serves every
        horizon: under the trapezoid rule int_0^{t_k} w e^{-u(t_k-s)} = I(k),
        the backward convolution of horizon k starts at J_k(0) = V(k) (the
        trapezoid of w e^{-us}), and int w J_k = int w I + (dt^2/4) (w_0^2 -
        w_k^2).  The f and h integrals follow from the even/odd basis
        integrals (I(k) +- V(k)) / (1 + e^{-u t_k}) and the 2x2 boundary
        solves of h_exponential_batch.  Where |u t_k| <= 1 the odd one would
        cancel to eps / |u t_k|, so it comes from int w sinh(us)/u -
        tanh(u t_k/2)/u int w cosh(us) instead.  V(k) and those integrals
        are read from the weight table by _horizon_integrals.

        The convolution is never held whole: it streams through the time
        tiles of the root's plan (_tile_plan), each a block of the scan of
        core._decay_scan.  With z = u dt, c_j a node's place in its tile and
        x_j = (dt/2) e^{z c_j} w_j, the grown trapezoid cells x_{j-1} + x_j
        of a tile sum to G_j = K + 2 S_j - x_j, S_j the running sum of x from
        the tile's start, and I(j) = e^{-z c_j} G_j.  K is the tile's first
        cell less its x: -x_0 in the first tile, e^{-z n} (K + 2 S) at the
        end of the tile of n nodes before.  So a tile is one cumulative sum
        of its x seeded with K/2, which gives S + K/2, and no cell is
        formed.  In int w I = dt (sum_j w_j I(j) -
        w_k I(k)/2) over j <= idx[k], e^{-z c_j} w_j x_j = (dt/2) w_j^2 does
        not depend on the root: each tile scales S + K/2 by 2 e^{-z c_j} for
        one matmul per row and segment piece, and the sums of w_j^2 are
        taken once per block.  K is carried per row, so a row's result does
        not depend on the block size or the thread.

        On the sinh kernel's horizons the particular part's ends come from
        the sinh and cosh columns, and int w p = rho int w L, L(s) =
        int_0^s sinh(u(s - r))/u w dr, with no edge term.  The convolutions and
        integrals are written into scratch, so a block allocates nothing of
        its own length.
        """
        k = self.idx
        dt = self.dt
        t = self.t
        m, n_conv = w.shape[0], k[-1] + 1
        w = w[:, :n_conv]
        lin, prod = scratch.lin[:m], scratch.prod[:m]
        mu, pref, half_sl = self.constants

        # columns V_1, V_2, then per root sinh and cosh, which become the
        # root's odd and even integrals in place
        linear = _horizon_integrals(w, self.table, k, scratch.linear[:m]).view(complex)
        columns = np.moveaxis(linear, -1, 0)
        v_k, odd, even = columns[:2], columns[2::2], columns[3::2]
        sums = np.zeros((2, 4, m, t.size), dtype=complex)    # see _add_root_ends
        w_part = np.empty((2, m, t.size), dtype=complex)     # int w p per root
        need = [nd < t.size for nd in self.n_sinh]
        if any(need):
            # dt^2 times the edge term of int w J less the sum of w^2 / 2 in int w I
            sq, a = scratch.squares[:m], 0
            for j, b in enumerate(k):
                np.matmul(w[:, None, a:b + 1], w[:, a:b + 1, None], out=sq[:, j, None, None])
                a = b + 1
            wk = w[:, k]
            rest = (dt * dt) * ((w[:, :1] ** 2 - wk * wk) / 4.0 - np.cumsum(sq, axis=1, out=sq))
        for r, (u, rho, usq) in enumerate(zip(self.u, self.rho, self.usq)):
            ik, wi = self._stream(r, w, scratch, need[r])
            vk, od, ev = v_k[r], odd[r], even[r]
            nd, ns = self.n_sinh[r], self.n_small[r]
            _add_root_ends(sums[..., :nd], usq,
                           _particular_ends(u, rho, t[:nd], True, ev[:, :nd], od[:, :nd]))
            if need[r]:
                _add_root_ends(sums[..., nd:], usq,
                               _particular_ends(u, rho, t[nd:], False, ik[:, nd:], vk[:, nd:]))
                w_part[r, :, nd:] = -rho / (2.0 * u) * (
                    dt * (2.0 * wi[:, nd:] - wk[:, nd:] * ik[:, nd:]) + rest[:, nd:])
            if nd:
                # L/dt = sinh(us)/u c - cosh(us) s_n, with c and s_n the plain
                # cumulative sums of w cosh(ur) and w sinh(ur)/u, node 0 halved:
                # the trapezoid's half end terms cancel between the two
                sh, ch = self.sinh_nodes[r]
                n_l = sh.size
                wl, cw, sw = w[:, :n_l], lin[:, :n_l], prod[:, :n_l]
                np.cumsum(np.multiply(wl, ch, out=cw), axis=1, out=cw)
                np.cumsum(np.multiply(wl, sh, out=sw), axis=1, out=sw)
                np.subtract(np.multiply(cw, sh, out=cw), np.multiply(sw, ch, out=sw), out=cw)
                cw[:, k[:nd]] *= 0.5
                wl_int = _horizon_integrals(wl, cw.view(float).reshape(m, n_l, 2), k[:nd],
                                            scratch.wi[r, :m, :nd]).view(complex)[..., 0]
                w_part[r, :, :nd] = (rho * dt * dt) * wl_int
            od[:, :ns] -= self.tau[r][:ns] * ev[:, :ns]
            np.subtract(ik[:, ns:], vk[:, ns:], out=od[:, ns:])
            od[:, ns:] /= u * (1.0 + self.e_t[r][ns:])
            np.add(ik, vk, out=ev)
            ev /= 1.0 + self.e_t[r]

        (af, cf), (bf, df) = self.f_even, self.f_odd
        int_f = af * even[0] + bf * odd[0] + cf * even[1] + df * odd[1]
        int_f_rev = af * even[0] - bf * odd[0] + cf * even[1] - df * odd[1]
        a, b, c, d, h_d0, h_dt = _h_boundary_solve(self.sc, self.gamma, pref, sums)
        int_h = (pref * (w_part[0] + w_part[1])
                 + a * even[0] + b * odd[0] + c * even[1] + d * odd[1])

        return (-mu * h_d0 + half_sl * int_f,
                mu * h_dt + half_sl * int_f_rev,
                half_sl * int_h)


# ---------------------------------------------------------------------------
# white-noise (gamma = inf) closed forms
# ---------------------------------------------------------------------------

def _kappa(params: PhysicalParams) -> complex:
    """White-noise decay root: kappa^2 = i omega_c^2, Re kappa > 0."""
    return params.omega_collapse * np.exp(1j * math.pi / 4.0)


def f_markovian(t: float, params: PhysicalParams, grid: TimeGrid) -> KernelSolution:
    """Homogeneous kernel in the white-noise limit, sinh(kappa(t-s))/sinh(kappa t):
    the one-root case of f_exponential, basis weights 1/2 and -1/(2 tau), tau =
    tanh(kappa t/2)/kappa.  Its endpoint slopes are a second route to
    f_endpoint_scalars."""
    _check_horizon(t, grid)
    k = _kappa(params)
    s = grid.nodes()
    tau = t / 2.0 * _tanh_ratio(k * t / 2.0)
    vals = 0.5 * _basis_even(k, s, t) - _basis_odd(k, s, t) / (2.0 * tau)
    if abs(k) * t < 1e-250:
        d_start = d_end = -1.0 / t + 0j
    else:
        den = -np.expm1(-2.0 * k * t)
        et = np.exp(-k * t)
        d_start = complex(-k * (1.0 + et * et) / den)
        d_end = complex(-2.0 * k * et / den)
    return KernelSolution(grid=grid, values=vals, d_start=d_start, d_end=d_end, kind="F")


def _h_markovian_core(t: float, params: PhysicalParams, grid: TimeGrid,
                      w: np.ndarray, pref: complex):
    """Noise-driven kernel in the white-noise limit: h'' - kappa^2 h = pref w
    with zero boundary values, the one-root case of h_exponential_batch
    (weight 1, the even/odd basis zeroes both ends).  Only decaying
    exponentials enter, so it stays finite for arbitrarily stiff kappa t."""
    k = _kappa(params)
    part, ends = _particular_part(k, 1.0, t, grid, w)
    p0, pt, p_d0, p_dt = (pref * x for x in ends)
    tau = t / 2.0 * _tanh_ratio(k * t / 2.0)        # tanh(kappa t/2)/kappa
    a = np.asarray(-(p0 + pt) / 2.0, dtype=complex)
    b = np.asarray((p0 - pt) / (2.0 * tau), dtype=complex)
    s = grid.nodes()
    vals = a[..., None] * _basis_even(k, s, t) + b[..., None] * _basis_odd(k, s, t) + pref * part
    slope = a * k * k * tau                          # even basis: -+kappa tanh(kappa t/2)
    return vals, p_d0 - slope + b, p_dt + slope + b


# ---------------------------------------------------------------------------
# collocation arbiter
# ---------------------------------------------------------------------------

def solve_f_numeric(t: float, params: PhysicalParams, gamma: float,
                    grid: TimeGrid) -> KernelSolution:
    """Arbiter route for the homogeneous kernel: collocation linear solve.

    O(n) in the grid size and second-order accurate in the grid step;
    raises on a numerically singular discretization.
    """
    _check_horizon(t, grid)
    rhs = np.zeros((1, grid.n), dtype=complex)
    rhs[0, 0] = 1.0
    vals = _collocation_solve(params, gamma, grid, rhs)[0]
    return _package_numeric(grid, vals, "F")


def solve_h_numeric(t: float, params: PhysicalParams, gamma: float,
                    noise: NoisePath) -> KernelSolution:
    """Arbiter route for the noise-driven kernel: collocation linear solve."""
    grid = noise.grid
    _check_horizon(t, grid)
    rhs = (math.sqrt(params.lam) / 2.0) * noise.values[None].astype(complex)
    rhs[0, [0, -1]] = 0.0
    vals = _collocation_solve(params, gamma, grid, rhs)[0]
    return _package_numeric(grid, vals, "H")


def _collocation_solve(params: PhysicalParams, gamma: float, grid: TimeGrid,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve mu (v_{j-1} - 2 v_j + v_{j+1})/dt^2 + lam sum_r alpha(s_j, s_r)
    rho_r v_r = rhs_j (trapezoid weights rho) at interior nodes, with both
    ends pinned to rhs, in O(n) for every lam; one solution per row of the
    right-hand sides rhs (k, n), all from one factorization.

    The memory sum is F_j + B_j, with the sweeps F_j = a F_{j-1} + m rho_j v_j
    and B_j = a (B_{j+1} + m rho_{j+1} v_{j+1}), a = e^{-gamma dt},
    m = lam gamma/2.  In the unknowns x_j = (v_j, F_j, B_j) the system is
    block tridiagonal with 3x3 blocks, which core._block_tridiag_solve
    solves by block cyclic reduction and two refinement steps.  m sits in
    the sweep rows, not the memory row, so that pivoting inside a block
    picks a sweep row where memory dominates.
    """
    gamma = exponential_kernel(gamma)
    if grid.n < 3:
        raise InvalidParameterError(
            f"the discrete kernel equation needs at least 3 grid nodes, got {grid.n}")
    n = grid.n
    dt = grid.dt
    c = 1j * params.m / (2.0 * params.hbar * dt ** 2)
    a = math.exp(-gamma * dt)
    m_rho = np.full(n, params.lam * gamma / 2.0 * dt)
    m_rho[[0, -1]] /= 2.0
    inner = np.arange(1, n - 1)
    lo, diag, up = np.zeros((3, 3, 3, n), dtype=complex)
    lo[0, 0, inner] = up[0, 0, inner] = c           # kinetic band
    diag[0, 0, inner] = -2.0 * c
    diag[0, 1:, inner] = 1.0                        # memory term F_j + B_j
    diag[0, 0, [0, -1]] = 1.0                       # pinned ends
    lo[1, 1, 1:] = -a                               # F_j - a F_{j-1} - m rho_j v_j = 0
    diag[1, 0] = -m_rho
    diag[1, 1] = 1.0
    up[2, 0, :-1] = -a * m_rho[1:]                  # B_j - a B_{j+1} - a m rho_{j+1} v_{j+1} = 0
    up[2, 2, :-1] = -a
    diag[2, 2] = 1.0
    y = np.zeros((3, len(rhs), n), dtype=complex)
    y[0] = rhs
    try:
        x = _block_tridiag_solve(lo, diag, up, y)
    except np.linalg.LinAlgError as exc:
        raise InvalidParameterError(f"singular discretized kernel system: {exc}") from exc
    if not np.isfinite(x).all():
        raise InvalidParameterError("discretized kernel solve produced non-finite values")
    return x[0]


def _package_numeric(grid: TimeGrid, vals: np.ndarray, kind: str) -> KernelSolution:
    dt = grid.dt
    d_start = complex((-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * dt))
    d_end = complex((3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * dt))
    return KernelSolution(grid=grid, values=vals, d_start=d_start, d_end=d_end, kind=kind)


# Interior rows of the memory operator that kernel_residual evaluates at a time.
_CHUNK_ROWS = 128

# Rounding that kernel_residual allows a defect, in eps of the size of its
# terms.  Where the defect of the closed forms is rounding alone (lambda = 0
# or 1e-30, N = 2001, t_max from 1e-6 to 100) it reaches 6.
_RESIDUAL_ULPS = 16.0


def kernel_residual(solutions: list[KernelSolution], params: PhysicalParams,
                    gamma: float, noise: NoisePath | None = None) -> list[float]:
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
    product, so it shares no algebra with the collocation sweeps it checks.
    alpha(s_i, s_j) is read at the lag |i - j| dt: its rows are windows of
    one mirrored vector of lags.  The product streams _CHUNK_ROWS rows at a
    time, each block copied once as floats (8 B per entry, 2 MB at N =
    2001) and applied to the whole batch by one real matmul against the
    solutions' (real, imaginary) parts.
    """
    gamma = exponential_kernel(gamma)
    if noise is None and any(sol.kind == "H" for sol in solutions):
        raise InvalidParameterError("kind 'H' residual needs the driving noise")
    grids = {sol.grid for sol in solutions} | ({noise.grid} if noise is not None else set())
    grid = next(iter(grids)) if solutions and len(grids) == 1 else None
    if grid is None or grid.n < 3:
        raise InvalidParameterError(
            f"kernel residual needs a batch on one grid of at least 3 grid nodes, got {grids}")
    n, dt = grid.n, grid.dt
    v = np.array([sol.values for sol in solutions], dtype=complex)
    # weighted solutions one per column, last node first: window i of the
    # mirrored lags holds alpha(s_i, s_j) at column n - 1 - j
    weighted = (np.r_[dt / 2.0, np.full(n - 2, dt), dt / 2.0] * v)[:, ::-1].T.copy()
    lag = _ou_covariance(gamma, grid.nodes(), 0.0)
    windows = sliding_window_view(np.r_[lag[:0:-1], lag], n)
    mem = np.empty((n - 2, len(solutions)), dtype=complex)
    rows = np.empty((min(_CHUNK_ROWS, n - 2), n))
    for lo in range(1, n - 1, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n - 1)
        block = rows[:hi - lo]
        np.copyto(block, windows[lo:hi])   # overlapping rows: no BLAS layout
        np.matmul(block, weighted.view(float), out=mem[lo - 1:hi - 1].view(float))
    mem = params.lam * mem.T
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
