"""Boundary kernels: closed forms, collocation arbiter, frozen pins.

The complex literals below were frozen from a 50-digit extended-precision
solve of the quartic boundary problem and its endpoint derivatives, done
independently of the library code.  The float64 implementation is expected
to track them to a few ulps in every regime, including the severely
stiff SI-scale one.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nmsse.core import (HBAR_SI, InvalidParameterError, _decay_scan, _scan_block, _scan_growth,
                        make_grid, make_params)
from nmsse.kernels import (
    _RESIDUAL_ULPS,
    _TILE_NODES,
    KernelSolution,
    _basis_odd,
    _conv_forward,
    _horizon_integrals,
    _HorizonKernels,
    _tanh_ratio,
    _tanh_sqrt_divdiff,
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
from nmsse.noise import (NoisePath, _ou_covariance, exponential_kernel, sample_exponential_noise,
                         sample_exponential_noise_batch)

SCALED = make_params(m=1.0, hbar=1.0, lam=0.5, unit_mode="scaled")   # omega_c^2 = 1
FREE = make_params(m=1.0, hbar=1.0, lam=0.0, unit_mode="scaled")     # no coupling
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
        p_sum, q_diff = f_endpoint_scalars(t, params, gamma)
        assert _close(p_sum, pins["d_sum"], 1e-12)
        assert _close(q_diff, pins["d_diff"], 1e-12)


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
        assert _close(p_sum, f.d_start + f.d_end, 1e-14), label
        assert abs(p_diff - (f.d_start - f.d_end)) <= 1e-14 * abs(p_sum), label


def test_endpoint_scalars_markovian_branch():
    # f_markovian derives its endpoint slopes on its own, from the kernel
    # values' closed form
    grid = make_grid(1.0, 401)
    f = f_markovian(1.0, WHITE, grid)
    p_sum, p_diff = f_endpoint_scalars(1.0, WHITE, math.inf)
    assert _close(p_sum, f.d_start + f.d_end, 1e-14)
    assert _close(p_diff, f.d_start - f.d_end, 1e-14)


def _assert_elementwise(fn, *args):
    """fn on whole arrays equals fn on each element alone, to 2 ulp.

    The branch masks must not leak across elements (that would be an O(1)
    error); numpy's loops may round differently by array length."""
    got = np.broadcast_to(fn(*args), np.broadcast(*args).shape)
    for i in np.ndindex(got.shape):
        want = fn(*(np.broadcast_to(a, got.shape)[i] for a in args))
        assert abs(got[i] - want) <= 2.0 * np.finfo(float).eps * abs(want), (fn, i)


def test_elementwise_scalars_do_not_leak_across_elements():
    roots = characteristic_roots(1.0, CRIT.omega_collapse)
    t = np.array([1e-3, 0.3, 0.9, 2.0, 40.0, 1e3])
    z1 = roots.upsilon1 * t / 2.0
    z2 = roots.upsilon2 * t / 2.0
    series = np.maximum(np.abs(z1 * z1), np.abs(z2 * z2)) < 0.25
    assert series.any() and not series.all()
    _assert_elementwise(_tanh_sqrt_divdiff, z1, z2)
    # lam = 0 puts u2 = 0 next to the coupled pairs
    _assert_elementwise(_tanh_sqrt_divdiff, np.concatenate([z1, z1]),
                        np.concatenate([z2, 0.0 * z2]))
    _assert_elementwise(_tanh_ratio, np.concatenate([z1, [0.0], z2, [0.0]]))

    p_sum = lambda *a: f_endpoint_scalars(*a)[0]
    p_diff = lambda *a: f_endpoint_scalars(*a)[1]
    free = make_params(m=1.0, hbar=1.0, lam=0.0)
    cases = [
        (WHITE, math.inf, [1e-300, 0.5, 1e-260, 3.0]),   # the |kappa| t < 1e-250 guard
        (free, math.inf, [1e-300, 0.5, 3.0]),
        (free, 3.0, [1e-3, 0.5, 3.0]),
        (CRIT, 1.0, t),
    ]
    cases += [(SI, gamma, np.geomspace(1.0, 4e18, 9)) for gamma in (2.0, 10.0, 100.0, math.inf)]
    for params, gamma, horizons in cases:
        for fn in (p_sum, p_diff):
            _assert_elementwise(lambda tt: fn(tt, params, gamma), np.asarray(horizons))


def _keep_40_bits(x: float) -> float:
    m, e = math.frexp(x)
    return math.ldexp(round(m * 2.0 ** 40) / 2.0 ** 40, e)


def test_tanh_ratio_and_the_odd_basis_match_50_digits():
    # nine rays of the right half-plane, |z| from 1e-300 to 1e300.  The odd
    # basis takes u = z with 40-bit components at t = 1 and s in quarters, so
    # u s, u t and u (2 s - t) are exact and the reference sees the same floats.
    mpmath = pytest.importorskip("mpmath")
    s = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    with mpmath.workdps(50):
        for theta in np.linspace(-math.pi / 2.0, math.pi / 2.0, 9):
            for r in np.geomspace(1e-300, 1e300, 61):
                z = cmath.rect(r, theta)
                want = mpmath.tanh(z) / z
                assert float(abs(_tanh_ratio(z) - want) / abs(want)) <= 2e-15, z
                u = complex(_keep_40_bits(z.real), _keep_40_bits(z.imag))
                for got, sv in zip(_basis_odd(u, s, 1.0), s):
                    want = mpmath.sinh(u * (sv - 0.5)) / (u * mpmath.cosh(u / 2))
                    if abs(want) < 1e-290:     # below the float range, or 0 at t/2
                        assert abs(got) < 1e-290, (u, sv)
                    else:
                        assert float(abs(got - want) / abs(want)) <= 2e-15, (u, sv)


def test_f_boundary_values_come_from_the_solve():
    # no kernel writes over its ends, so these are the basis sums themselves
    # (about 1.4e-16 off at the first config)
    cases = [(SCALED, 1.0, 1.0)] + [(p, g, t) for p, g, t, _ in _PINS.values()]
    for params, gamma, t in cases + [(WHITE, math.inf, 1.0), (SI, math.inf, 1.0)]:
        f = f_exponential(t, params, gamma, make_grid(t, 257))
        assert abs(f.values[0] - 1.0) <= 1e-14, (params, gamma)
        assert abs(f.values[-1]) <= 1e-14, (params, gamma)


# sinh(kappa (t - s))/sinh(kappa t) at the interior nodes of make_grid(t, 5)
# for (lam, t), m = hbar = 1 ("SI": m = 1, hbar = HBAR_SI, lam = 1e-2), from
# 50-digit mpmath with kappa = omega_c e^{i pi/4}, omega_c = sqrt(2 hbar lam/m)
# of the float parameters; the ends are 1 and 0.  Most rows have |kappa t|
# far below 1, where a difference of exponentials, e^{-kappa s} -
# e^{-kappa(2t - s)}, would cancel to eps/|kappa t|.
_WHITE_F_REFS = {
    ("SI", 1.0): (0.75 - 1.1534379062499931e-37j, 0.5 - 1.3182147499999955e-37j,
                  0.25 - 8.2388421875e-38j),
    ("SI", 1e6): (0.75 - 1.1534379062500001e-25j, 0.5 - 1.31821475e-25j,
                  0.25 - 8.2388421875e-26j),
    ("SI", 1e12): (0.75 - 1.15343790625e-13j, 0.5 - 1.31821475e-13j,
                   0.25 - 8.2388421875e-14j),
    (1e-28, 1e-6): (0.75 - 1.093750000101108e-41j, 0.5 - 1.2500000000379318e-41j,
                    0.24999999999999994 - 7.812500000237072e-42j),
    (1e-28, 1.0): (0.75 - 1.09375e-29j, 0.5 - 1.25e-29j, 0.25 - 7.8125e-30j),
    (1e-20, 1e-6): (0.75 - 1.0937499999999998e-33j, 0.5 - 1.2499999999999999e-33j,
                    0.24999999999999994 - 7.812499999999997e-34j),
    (1e-20, 1.0): (0.75 - 1.09375e-21j, 0.5 - 1.25e-21j, 0.25 - 7.8125e-22j),
    (1e-12, 1e-6): (0.75 - 1.09375e-25j, 0.5 - 1.25e-25j,
                    0.24999999999999994 - 7.812499999999997e-26j),
    (1e-12, 1.0): (0.75 - 1.09375e-13j, 0.5 - 1.25e-13j, 0.25 - 7.8125e-14j),
    (0.1, 1e-6): (0.75 - 1.0937499999999999e-14j, 0.5 - 1.2499999999999999e-14j,
                  0.24999999999999994 - 7.812499999999998e-15j),
    (0.1, 1.0): (0.7498063911942277 - 0.010933712611785738j,
                 0.4997396906336395 - 0.012494707035567135j,
                 0.24982266681659113 - 0.007808795346206567j),
}


@pytest.mark.parametrize("lam, t", list(_WHITE_F_REFS))
def test_white_noise_f_matches_50_digit_references(lam, t):
    params = (make_params(m=1.0, hbar=HBAR_SI, lam=1e-2, unit_mode="SI") if lam == "SI"
              else make_params(m=1.0, hbar=1.0, lam=lam))
    grid = make_grid(t, 5)
    want = np.array([1.0, *_WHITE_F_REFS[lam, t], 0.0])
    for f in (f_markovian(t, params, grid), f_exponential(t, params, math.inf, grid)):
        assert np.max(np.abs(f.values - want)) <= 1e-14


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


@pytest.mark.parametrize("gamma", [3.0, math.inf])
def test_f_at_zero_coupling_is_the_free_chord(gamma):
    params = make_params(m=1.0, hbar=1.0, lam=0.0)
    grid = make_grid(2.0, 101)
    f = f_exponential(2.0, params, gamma, grid)
    np.testing.assert_allclose(f.values, 1.0 - grid.nodes() / 2.0, rtol=1e-14, atol=1e-15)
    assert f.d_start == pytest.approx(-0.5, rel=1e-13)
    assert f.d_end == pytest.approx(-0.5, rel=1e-13)


def test_f_exponential_dispatches_white_noise_to_f_markovian():
    grid = make_grid(1.0, 101)
    a, b = f_exponential(1.0, WHITE, math.inf, grid), f_markovian(1.0, WHITE, grid)
    assert np.array_equal(a.values, b.values)
    assert (a.d_start, a.d_end, a.kind) == (b.d_start, b.d_end, b.kind)


@pytest.mark.parametrize("gamma", [3.0, math.inf])
def test_h_at_zero_coupling_vanishes(gamma):
    params = make_params(m=1.0, hbar=1.0, lam=0.0)
    grid = make_grid(1.0, 101)
    noise = sample_exponential_noise(3.0, grid, 1, 0)
    h = h_exponential(1.0, params, gamma, noise)
    assert np.all(h.values == 0.0) and h.d_start == 0.0 and h.d_end == 0.0


def test_h_is_linear_in_the_noise():
    grid = make_grid(1.0, 201)
    s = grid.nodes()
    w1 = NoisePath(grid, np.sin(5.0 * s))
    w2 = NoisePath(grid, np.cos(2.0 * s) - 0.5 * s)
    mix = NoisePath(grid, 2.0 * w1.values - 3.0 * w2.values)
    h1 = h_exponential(1.0, CRIT, 1.5, w1)
    h2 = h_exponential(1.0, CRIT, 1.5, w2)
    hm = h_exponential(1.0, CRIT, 1.5, mix)
    combo = 2.0 * h1.values - 3.0 * h2.values
    scale = np.max(np.abs(combo))
    assert np.max(np.abs(hm.values - combo)) <= 1e-12 * scale


def test_h_batch_refuses_a_horizon_that_is_not_its_grid_end():
    grid = make_grid(1.0, 33)
    w = sample_exponential_noise_batch(1.0, grid, 1, [0])
    with pytest.raises(InvalidParameterError, match="does not match requested t=0.5"):
        h_exponential_batch(0.5, CRIT, 1.0, grid, w)
    # at its own horizon h meets h(t) = 0 to rounding; the batch used to
    # take t = 0.5 on this grid and end at 0.0027 - 0.0286i
    vals, _, _ = h_exponential_batch(1.0, CRIT, 1.0, grid, w)
    assert abs(vals[0, -1]) <= 1e-14 * np.max(np.abs(vals))


def test_h_batch_matches_single_paths():
    grid = make_grid(1.0, 201)
    rows = np.stack([
        sample_exponential_noise(1.0, grid, 42, i).values for i in range(4)
    ])
    vals, d0, dt_ = h_exponential_batch(1.0, CRIT, 1.0, grid, rows)
    assert vals.shape == (4, 201)
    for i in range(4):
        path = NoisePath(grid, rows[i])
        single = h_exponential(1.0, CRIT, 1.0, path)
        # the single path is a one-row batch, so its row agrees bit for bit
        assert np.array_equal(vals[i], single.values)
        assert d0[i] == single.d_start and dt_[i] == single.d_end


@pytest.mark.parametrize("gamma", [1.0, 1e3, 1e5])
def test_forward_convolution_matches_the_step_recursion(gamma):
    # u = upsilon1 ~ gamma and dt = 5e-4: one block at gamma = 1, blocks of
    # 80 nodes at 1e3, blocks of one node at 1e5, where every cell is one
    # that starts a block.  Bound: N eps of the convolution.
    grid = make_grid(1.0, 2001)
    dt = grid.dt
    u = characteristic_roots(gamma, CRIT.omega_collapse).upsilon1
    w = sample_exponential_noise_batch(gamma, grid, 4, [0, 9, 2**40])
    e = np.exp(-u * dt)
    want = np.zeros(w.shape, dtype=complex)
    for j in range(1, grid.n):
        want[:, j] = e * want[:, j - 1] + (dt / 2.0) * (e * w[:, j - 1] + w[:, j])
    got = _conv_forward(u, w, dt)
    bound = grid.n * np.finfo(float).eps * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("gamma", [1.0, 1e3])
def test_forward_convolution_forms_its_cells_from_grown_sources(gamma):
    # one scan block at gamma = 1, blocks of 80 nodes at 1e3; 128 rows.  The
    # cells of the closed-form h's convolution are the sums of a separate
    # grown source buffer bit for bit.
    grid = make_grid(1.0, 2001)
    dt, n = grid.dt, grid.n
    u = characteristic_roots(gamma, CRIT.omega_collapse).upsilon1
    z = u * dt
    w = sample_exponential_noise_batch(gamma, grid, 4, range(128))
    grown = w * ((dt / 2.0) * _scan_growth(z, n))
    src = np.zeros(w.shape, dtype=complex)
    src[:, 1:] = grown[:, :-1] + grown[:, 1:]
    b = _scan_block(z, n)
    assert (b < n) == (gamma > 1.0)
    src[:, b::b] = (dt / 2.0) * (np.exp(-z) * w[:, b - 1:n - 1:b] + w[:, b::b])
    want = _decay_scan(z, src)
    assert np.array_equal(_conv_forward(u, w, dt), want)


def _horizon_sets(n):
    # two segments longer than a tile at N = 2001, or the CLI's 50 short ones
    return {"long": np.array([(n - 1) * 3 // 10, n - 1]),
            "short": np.rint(np.linspace(1 / 50, 1.0, 50) * (n - 1)).astype(int)}


@pytest.mark.parametrize("horizons", ["long", "short"])
@pytest.mark.parametrize("n", [257, 2001])
@pytest.mark.parametrize("gamma", [1.0, 1e3, 1e5])
def test_streamed_convolution_matches_the_whole_grid_route(gamma, n, horizons):
    # The single pass streams each root's convolution through time tiles;
    # the closed-form h forms it whole (_conv_forward), and its integrals
    # then come from _horizon_integrals on I halved at the horizons.  Scan
    # blocks of upsilon1 ~ gamma: one at gamma = 1, 80 nodes at 1e3 and
    # N = 2001, one node at 1e5.  Bound: N eps of each quantity's scale.
    grid = make_grid(1.0, n)
    idx = _horizon_sets(n)[horizons]
    kern = _HorizonKernels(CRIT, gamma, grid, idx)
    w = sample_exponential_noise_batch(gamma, grid, 4, [0, 9, 2**40])
    eps = np.finfo(float).eps
    for r, u in enumerate(kern.u):
        ik, sums = kern._stream(r, w, kern.scratch(w.shape[0]), True)
        conv = _conv_forward(u, w, grid.dt)
        assert np.max(np.abs(ik - conv[:, idx])) <= n * eps * np.max(np.abs(conv))
        conv[:, idx] *= 0.5
        want = _horizon_integrals(w, conv.view(float).reshape(w.shape[0], n, 2), idx,
                                  np.empty((w.shape[0], idx.size, 2))).view(complex)[..., 0]
        # sum_j h_j w_j I_j = sums - (dt/2) sum_j w_j^2 - w_k I_k / 2 over j <= k
        got = sums - (grid.dt / 2.0) * np.cumsum(w * w, axis=1)[:, idx] - w[:, idx] * ik / 2.0
        scale = np.sum(np.abs(w * conv), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= n * eps * scale)


@pytest.mark.parametrize("gamma", [1.0, 1e3, 1e5])
def test_time_tiles_keep_the_horizon_segments_whole(gamma):
    # a tile is at most _TILE_NODES nodes and one block of the scan long,
    # and it ends after a horizon node when it holds one: the CLI's 50
    # segments of 40 nodes are then never split at gamma = 1
    grid = make_grid(1.0, 2001)
    for horizons, idx in _horizon_sets(grid.n).items():
        kern = _HorizonKernels(CRIT, gamma, grid, idx)
        for u, (grown, weights, tiles, ends) in zip(kern.u, kern.plan):
            cap = _scan_block(u * grid.dt, _TILE_NODES)
            assert grown.size == cap and weights.size == cap + 1
            assert tiles[0][0] == 0 and tiles[-1][1] == idx[-1] + 1
            for (lo, hi, hz, pieces), after in zip(tiles, tiles[1:] + [None]):
                assert 0 < hi - lo <= cap
                assert hi - 1 in idx or not np.any((idx >= lo) & (idx < hi))
                assert after is None or after[0] == hi
                assert [a for _, a, _ in pieces][1:] == [b + 1 for _, _, b in pieces][:-1]
            assert ends.size == idx.size
            if gamma == 1.0 and horizons == "short":
                assert np.array_equal(ends, np.arange(idx.size))


def test_scratch_does_not_grow_with_the_grid():
    # at lam = 0.1 no horizon takes the sinh kernel, so the scratch of a
    # block holds no complex array of the grid's length
    shapes = []
    for n in (2001, 8001):
        grid = make_grid(1.0, n)
        idx = np.array([(n - 1) // 2, n - 1])
        scratch = _HorizonKernels(CRIT, 1.0, grid, idx).scratch(64)
        shapes.append(scratch.conv.shape)
        assert all(a.shape[-1] <= _TILE_NODES for a in vars(scratch).values())
    assert shapes == [(64, _TILE_NODES)] * 2


def test_closed_forms_agree_with_collocation():
    grid = make_grid(1.0, 513)
    kern = exponential_kernel(1.0)
    noise = sample_exponential_noise(1.0, grid, 42, 0)
    # without coupling f is the straight line and h vanishes on both routes
    for params in (CRIT, FREE):
        f_c = f_exponential(1.0, params, 1.0, grid)
        f_n = solve_f_numeric(1.0, params, kern, grid)
        dev_f = np.max(np.abs(f_c.values - f_n.values)) / np.max(np.abs(f_c.values))
        assert dev_f <= 1e-4

        h_c = h_exponential(1.0, params, 1.0, noise)
        h_n = solve_h_numeric(1.0, params, kern, noise)
        dev_h = np.max(np.abs(h_c.values - h_n.values))
        assert dev_h <= 1e-4 * np.max(np.abs(h_c.values))


# v at _COLLOC_NODES of the collocation system (N = 129, t = 1): f, and h on
# sample_exponential_noise(gamma, grid, 7, 0), from a 40-digit LU solve of
# the dense collocation matrix.  Generated with mpmath 1.3 (about 45 s per
# (lam, gamma)):
#
#   mp.mp.dps = 40
#   grid, dt = make_grid(1.0, 129), mp.mpf(1) / 128
#   lam_, g = mp.mpf(lam), mp.mpf(gamma)
#   A = mp.matrix(129, 129)
#   A[0, 0] = A[128, 128] = 1
#   for j in range(1, 128):
#       for r in range(129):
#           rho = dt / 2 if r in (0, 128) else dt
#           A[j, r] = lam_ * g / 2 * mp.exp(-g * abs(j - r) * dt) * rho
#       for r, c in ((j - 1, 1), (j, -2), (j + 1, 1)):
#           A[j, r] += c * mp.mpc(0, 0.5) / dt ** 2
#   w = sample_exponential_noise(gamma, grid, 7, 0).values
#   rhs_f = mp.matrix([1] + [0] * 128)
#   rhs_h = mp.matrix([0] + [mp.sqrt(lam_) / 2 * mp.mpf(x) for x in w[1:-1]] + [0])
#   for rhs in (rhs_f, rhs_h):
#       v = mp.lu_solve(A, rhs)
#       print([complex(v[j]) for j in _COLLOC_NODES])
_COLLOC_NODES = (1, 8, 16, 32, 64, 96, 112, 120, 127)
_COLLOC_REFS = {
    (0.1, 1.0): dict(
        f=[0.9921865723442148 - 0.00015133186050790413j,
           0.937492923716181 - 0.0011464125477534106j,
           0.8749866667032633 - 0.0021415372942401533j,
           0.7499768017741453 - 0.0036579009863458895j,
           0.4999687152864432 - 0.0047589524696899565j,
           0.2499768707069665 - 0.003420680252603651j,
           0.12498672225042516 - 0.0019437920642855486j,
           0.062492956707932965 - 0.0010268245625042697j,
           0.007811577021519065 - 0.00013413168737225642j],
        h=[-4.750917725050266e-06 - 0.0007427288005101808j,
           -3.62660062148319e-05 - 0.005357331587777572j,
           -6.839617225521801e-05 - 0.009497373885677531j,
           -0.00011927221029347398 - 0.016040601582447495j,
           -0.00016180967829953154 - 0.024770630483328466j,
           -0.00012034155545977748 - 0.02008619340373117j,
           -6.924561565355391e-05 - 0.011914574990301125j,
           -3.6767414804947303e-05 - 0.006462823443203811j,
           -4.821696417787125e-06 - 0.000856033964283363j]),
    (2.0, 30.0): dict(
        f=[0.9897883070813733 - 0.008976504718503558j,
           0.9185399573567471 - 0.06706595362716683j,
           0.8381267126265727 - 0.12136970340745337j,
           0.6834734964304805 - 0.19225745817104628j,
           0.4109789650478767 - 0.2140237105553223j,
           0.1895975186182418 - 0.13125540323110924j,
           0.09265484707885854 - 0.06858286015602026j,
           0.04604289956435889 - 0.034673789507340375j,
           0.005740051342463589 - 0.004354655948940239j],
        h=[-0.0010119965860292135 + 0.001501658142429677j,
           -0.008144342674056565 + 0.01479634113138674j,
           -0.01650169356412226 + 0.02647959954330516j,
           -0.033771547353440644 - 0.03748430699564348j,
           -0.055914602198224896 - 0.16968530623442588j,
           -0.04103053739991002 - 0.10157393189123635j,
           -0.02241992202142339 - 0.0649891958661414j,
           -0.011486510707386379 - 0.03524488927401178j,
           -0.0014507261342102337 - 0.004119181621171499j]),
}


@pytest.mark.parametrize("lam, gamma", sorted(_COLLOC_REFS))
def test_collocation_matches_extended_precision_references(lam, gamma):
    params = make_params(m=1.0, hbar=1.0, lam=lam)
    grid = make_grid(1.0, 129)
    kern = exponential_kernel(gamma)
    noise = sample_exponential_noise(gamma, grid, 7, 0)
    refs = _COLLOC_REFS[(lam, gamma)]
    for sol, want in ((solve_f_numeric(1.0, params, kern, grid), refs["f"]),
                      (solve_h_numeric(1.0, params, kern, noise), refs["h"])):
        err = np.max(np.abs(sol.values[list(_COLLOC_NODES)] - np.array(want)))
        assert err <= 1e-13 * np.max(np.abs(sol.values))


# v at _FINE_NODES of the collocation system on N = 2001 nodes (t = 1), f
# and h on sample_exponential_noise(gamma, grid, 7, 0) as for _COLLOC_REFS,
# from a 30-digit block elimination node by node in the unknowns
# (v_j, F_j, B_j) of kernels._collocation_solve; a dense LU is out of reach at
# this size.  Generated with mpmath 1.3 (about 5 s per (lam, gamma)):
#
#   mp.mp.dps = 30
#   n, dt = 2001, mp.mpf(1) / 2000
#   c, a = mp.mpc(0, 0.5) / dt ** 2, mp.exp(-mp.mpf(gamma) * dt)
#   mr = [mp.mpf(lam) * gamma / 2 * dt / (2 if j in (0, n - 1) else 1) for j in range(n)]
#   inv, ys, ups = [], [], []
#   for j in range(n):                      # rhs_f, rhs_h as for _COLLOC_REFS
#       lo, dg, up = mp.matrix(3, 3), mp.matrix(3, 3), mp.matrix(3, 3)
#       if 0 < j < n - 1:
#           lo[0, 0] = up[0, 0] = c
#           dg[0, 0], dg[0, 1], dg[0, 2] = -2 * c, 1, 1
#       else:
#           dg[0, 0] = 1
#       if j:
#           lo[1, 1] = -a
#       dg[1, 0], dg[1, 1], dg[2, 2] = -mr[j], 1, 1
#       if j < n - 1:
#           up[2, 0], up[2, 2] = -a * mr[j + 1], -a
#       y = mp.matrix([rhs[j], 0, 0])
#       if j:
#           w = lo * inv[-1]
#           dg, y = dg - w * ups[-1], y - w * ys[-1]
#       inv.append(dg ** -1), ys.append(y), ups.append(up)
#   x = [inv[-1] * ys[-1]]
#   for j in range(n - 2, -1, -1):
#       x.insert(0, inv[j] * (ys[j] - ups[j] * x[0]))
#   print([complex(x[j][0]) for j in _FINE_NODES])
_FINE_NODES = (1, 100, 250, 500, 1000, 1500, 1750, 1900, 1999)
_FINE_REFS = {
    (0.1, 1.0): dict(
        f=[0.9994999402677344 - 9.752456280271886e-06j,
           0.9499942749388993 - 0.000928997705929421j,
           0.8749866665671169 - 0.002141494098438534j,
           0.749976801597405 - 0.0036578358269454044j,
           0.4999687151048411 - 0.004758889146436323j,
           0.249976870518607 - 0.0034206504265864228j,
           0.12498672210657048 - 0.0019437798515382107j,
           0.049994302149214236 - 0.0008300282170530711j,
           0.0004999405716955016 - 8.632833144432787e-06j],
        h=[-5.957325067821312e-07 - 9.965992837144042e-05j,
           -5.7092722919089135e-05 - 0.009537691868196094j,
           -0.00013294428728846374 - 0.022101284959221413j,
           -0.00023122757726077553 - 0.03698562675016451j,
           -0.00031159284679979735 - 0.04745844948534358j,
           -0.00023018759316811353 - 0.033764618077684015j,
           -0.00013209458066721 - 0.018460615944413297j,
           -5.66738016564737e-05 - 0.007575771666007838j,
           -5.910382061139064e-07 - 7.789455894452723e-05j]),
    (2.0, 30.0): dict(
        f=[0.9993475318032439 - 0.0005759777258021602j,
           0.9348966193785633 - 0.05440649489128633j,
           0.8384213072932477 - 0.12092165429337287j,
           0.6840028776525875 - 0.19158283683557992j,
           0.4116799291751416 - 0.21333398983306454j,
           0.19006925332047242 - 0.13085756931808804j,
           0.09290667376540786 - 0.06837877102306562j,
           0.036906720109954244 - 0.027697228185779924j,
           0.0003683167089613255 - 0.0002779789517116322j],
        h=[-7.240495982979347e-05 - 0.00048681513553145827j,
           -0.007124229559379999 - 0.045230546168278186j,
           -0.016876636494848045 - 0.09500983296325487j,
           -0.028807233254332612 - 0.08191955818271517j,
           -0.03551379738882729 - 0.10367101820107968j,
           -0.02011008908932564 - 0.01294201709396394j,
           -0.009449952012549343 + 0.02863203484124146j,
           -0.0036369878570796316 + 0.021115716511519826j,
           -3.5903926489996076e-05 + 0.00012473914690821968j]),
}


@pytest.mark.parametrize("lam, gamma", sorted(_FINE_REFS))
def test_collocation_is_exact_to_rounding_on_a_fine_grid(lam, gamma):
    # the refinement residual is formed from row sums and differences, so it
    # keeps the digits of a smooth solution: 9e-16 here.  The per-node
    # elimination read 5.7e-13, the cyclic reduction unrefined 1.7e-11, and
    # refined from plain block products 1.6e-12
    params = make_params(m=1.0, hbar=1.0, lam=lam)
    grid = make_grid(1.0, 2001)
    kern = exponential_kernel(gamma)
    noise = sample_exponential_noise(gamma, grid, 7, 0)
    refs = _FINE_REFS[(lam, gamma)]
    for sol, want in ((solve_f_numeric(1.0, params, kern, grid), refs["f"]),
                      (solve_h_numeric(1.0, params, kern, noise), refs["h"])):
        err = np.max(np.abs(sol.values[list(_FINE_NODES)] - np.array(want)))
        assert err <= 1e-14 * np.max(np.abs(sol.values)), (sol.kind, err)


def test_collocation_converges_in_the_stiff_memory_regime():
    # up to gamma dt = 1 on the coarsest grid: each halving of dt cuts the
    # deviation of both collocation kernels from the closed forms about 4x.
    # The noise is drawn on the finest grid and subsampled, so every level
    # sees the same path.
    for gamma in (30.0, 1e3):
        kern = exponential_kernel(gamma)
        path = sample_exponential_noise(gamma, make_grid(1.0, 4001), 7, 0).values
        for lam in (0.1, 2.0):
            params = make_params(m=1.0, hbar=1.0, lam=lam)
            devs = []
            for step in (4, 2, 1):
                grid = make_grid(1.0, 4000 // step + 1)
                noise = NoisePath(grid, path[::step])
                pairs = ((f_exponential(1.0, params, gamma, grid),
                          solve_f_numeric(1.0, params, kern, grid)),
                         (h_exponential(1.0, params, gamma, noise),
                          solve_h_numeric(1.0, params, kern, noise)))
                devs.append([np.max(np.abs(c.values - n.values)) / np.max(np.abs(c.values))
                             for c, n in pairs])
            for coarse, fine in zip(devs, devs[1:]):
                assert min(dc / df for dc, df in zip(coarse, fine)) >= 3.5, (gamma, lam, devs)


def test_driven_equation_residual_of_closed_form():
    grid = make_grid(1.0, 513)
    kern = exponential_kernel(1.0)
    noise = sample_exponential_noise(1.0, grid, 42, 0)
    h_c = h_exponential(1.0, CRIT, 1.0, noise)
    assert kernel_residual([h_c], CRIT, kern, noise)[0] <= 1e-7


def _kernel_batch(params, gamma, n):
    """Closed-form and collocation f and h on [0, 1] with n nodes, and the noise."""
    grid = make_grid(1.0, n)
    kern = exponential_kernel(gamma)
    noise = sample_exponential_noise(gamma, grid, 42, 0)
    batch = [f_exponential(1.0, params, gamma, grid), h_exponential(1.0, params, gamma, noise),
             solve_f_numeric(1.0, params, kern, grid), solve_h_numeric(1.0, params, kern, noise)]
    return batch, kern, noise


def _dense_terms(sol, params, kern, noise):
    """Per interior row, the defect |mu v'' + mem - rhs| and the size of its
    terms, and the largest result, with the whole (n-2) x n memory matrix
    held at once."""
    grid = sol.grid
    s = grid.nodes()
    dt = grid.dt
    v = sol.values
    rho = np.full(grid.n, dt)
    rho[[0, -1]] = dt / 2.0
    alpha = _ou_covariance(kern, s[1:-1, None], s[None, :])
    mu = 1j * params.m / (2.0 * params.hbar)
    lapl = mu * (v[:-2] - 2.0 * v[1:-1] + v[2:]) / dt ** 2
    mem = params.lam * (alpha @ (rho * v))
    rhs = (math.sqrt(params.lam) / 2.0 * noise.values[1:-1] if sol.kind == "H"
           else np.zeros(grid.n - 2))
    av = np.abs(v)
    size = abs(mu) * (av[:-2] + 2.0 * av[1:-1] + av[2:]) / dt ** 2 + np.abs(mem) + np.abs(rhs)
    scale = max(np.max(np.abs(lapl)), np.max(np.abs(mem)), np.max(np.abs(rhs)), 1e-300)
    return np.abs(lapl + mem - rhs), size, scale


def _dense_residual(sol, params, kern, noise):
    """The residual with the whole (n-2) x n memory matrix held at once."""
    defect, size, scale = _dense_terms(sol, params, kern, noise)
    floor = _RESIDUAL_ULPS * np.finfo(float).eps * np.max(size)
    return max(np.max(defect) - floor, 0.0) / scale


@pytest.mark.parametrize("lam, gamma", [(0.1, 1.0), (2.0, 30.0), (1e3, 1.0), (1e-8, 1e-6)])
def test_collocation_solve_is_backward_stable(lam, gamma):
    # the defect of the collocation f and h in their own discrete equation,
    # with no rounding floor taken off, stays within 2 eps of the largest
    # size of its terms: at most 0.4 eps here, against 0.9 eps for the
    # per-node elimination
    params = make_params(m=1.0, hbar=1.0, lam=lam)
    grid = make_grid(1.0, 2001)
    kern = exponential_kernel(gamma)
    noise = sample_exponential_noise(gamma, grid, 7, 0)
    for sol in (solve_f_numeric(1.0, params, kern, grid),
                solve_h_numeric(1.0, params, kern, noise)):
        defect, size, _ = _dense_terms(sol, params, kern, noise)
        ulps = np.max(defect) / (np.finfo(float).eps * np.max(size))
        assert ulps <= 2.0, (sol.kind, ulps)


def _line(grid):
    """The free chord f = 1 - s/t, which solves the discrete equation at lambda = 0."""
    t = grid.t_max
    return KernelSolution(grid=grid, values=(1.0 - grid.nodes() / t).astype(complex),
                          d_start=-1.0 / t + 0j, d_end=-1.0 / t + 0j, kind="F")


@pytest.mark.parametrize("t_max", [1e-6, 1.0, 100.0])
def test_residual_of_the_free_chord_is_zero_to_rounding(t_max):
    # its second difference is pure rounding, about eps/dt^2 of f, which is
    # no defect of the discrete equation
    grid = make_grid(t_max, 2001)
    kern = exponential_kernel(1.0)
    f_c = f_exponential(t_max, FREE, 1.0, grid)
    tiny = make_params(m=1.0, hbar=1.0, lam=1e-30)
    assert kernel_residual([_line(grid), f_c], FREE, kern) == [0.0, 0.0]
    real = KernelSolution(grid=grid, values=_line(grid).values.real, d_start=0j, d_end=0j,
                          kind="F")
    assert kernel_residual([real], FREE, kern) == [0.0]
    assert max(kernel_residual([_line(grid), f_exponential(t_max, tiny, 1.0, grid)],
                               tiny, kern)) <= 1e-12


def test_residual_sees_a_kernel_of_the_wrong_coupling():
    # the rounding floor is taken off the defect, not divided into it: f at
    # twice the coupling still scores O(1) against the results, where
    # dividing by the size of the terms scored it 2.6e-9
    grid = make_grid(1.0, 2001)
    right = f_exponential(1.0, CRIT, 1.0, grid)
    wrong = f_exponential(1.0, make_params(m=1.0, hbar=1.0, lam=0.2), 1.0, grid)
    res_right, res_wrong = kernel_residual([right, wrong], CRIT, exponential_kernel(1.0))
    assert res_right <= 1e-8
    assert res_wrong >= 0.1


def test_residual_of_the_closed_forms_is_truncation_on_a_coarse_grid():
    # at 33 nodes the O(dt^2) truncation clears the rounding floor; it
    # falls about fourfold per halving of dt
    res = []
    for n in (33, 65, 129):
        grid = make_grid(1.0, n)
        res.append(kernel_residual([f_exponential(1.0, CRIT, 1.0, grid)], CRIT,
                                   exponential_kernel(1.0))[0])
    assert 1e-8 < res[-1] < res[1] < res[0] <= 1e-3
    assert 3.5 <= res[0] / res[1] <= 4.5 and 3.5 <= res[1] / res[2] <= 4.5


# interior rows below, on and just past the edges of the 128-row blocks
@pytest.mark.parametrize("n", [3, 4, 129, 130, 131, 258, 2001])
def test_streamed_residual_matches_the_dense_product(n):
    for params in (CRIT, FREE):
        for gamma in (1.0, 30.0):
            batch, kern, noise = _kernel_batch(params, gamma, n)
            streamed = kernel_residual(batch, params, kern, noise)
            dense = [_dense_residual(sol, params, kern, noise) for sol in batch]
            assert np.max(np.abs(np.subtract(streamed, dense))) <= 1e-15, (params.lam, gamma)


def test_residual_rejects_malformed_batches():
    batch, kern, noise = _kernel_batch(CRIT, 1.0, 17)
    other, _, other_noise = _kernel_batch(CRIT, 1.0, 33)
    with pytest.raises(InvalidParameterError, match="one grid"):
        kernel_residual([], CRIT, kern, noise)
    with pytest.raises(InvalidParameterError, match="one grid"):
        kernel_residual([batch[0], other[0]], CRIT, kern)
    with pytest.raises(InvalidParameterError, match="needs the driving noise"):
        kernel_residual(batch, CRIT, kern)
    with pytest.raises(InvalidParameterError, match="one grid"):
        kernel_residual(batch, CRIT, kern, other_noise)


def test_discrete_kernel_equation_needs_an_interior_node():
    grid = make_grid(1.0, 2)
    kern = exponential_kernel(1.0)
    noise = sample_exponential_noise(1.0, grid, 42, 0)
    f_c = f_exponential(1.0, CRIT, 1.0, grid)
    for call in (lambda: solve_f_numeric(1.0, CRIT, kern, grid),
                 lambda: solve_h_numeric(1.0, CRIT, kern, noise),
                 lambda: kernel_residual([f_c], CRIT, kern)):
        with pytest.raises(InvalidParameterError, match="at least 3 grid nodes"):
            call()


def test_residual_batch_streams_the_memory_operator():
    # the whole (n-2) x n operator is 32 MB as float and 64 MB as complex;
    # one block of 128 rows as float is 2 MB, 3.2 MB in all, while complex
    # copies of a block would take it past 10 MB
    batch, kern, noise = _kernel_batch(CRIT, 1.0, 2001)
    tracemalloc.start()
    try:
        kernel_residual(batch, CRIT, kern, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6, peak / 1e6


def test_markovian_kernel_is_the_large_gamma_limit():
    grid = make_grid(1.0, 513)
    limit = f_markovian(1.0, WHITE, grid)
    assert limit.values[0] == pytest.approx(1.0, abs=1e-14)
    assert abs(limit.values[-1]) <= 1e-14
    near = f_exponential(1.0, WHITE, 1e6, grid)
    dev = np.max(np.abs(near.values - limit.values))
    assert dev <= 1e-5


@pytest.mark.parametrize("gamma", [1.0, math.inf])
def test_vanishing_coupling_h_matches_its_analytic_solution(gamma):
    # at lam = 1e-18 h solves h'' = pref w, h(0) = h(t) = 0 to within
    # omega_c^2 t^2 ~ 1e-18 of its size, for finite gamma and white noise
    # alike (the ensemble shares its endpoint slopes); for w = sin(5s) + 0.3
    # the solution is elementary, and the trapezoid integrals are off by O(dt^2)
    params = make_params(m=1.0, hbar=1.0, lam=1e-18)
    pref = -1j * math.sqrt(params.lam)
    t = 1.5
    part = lambda x: -np.sin(5.0 * x) / 25.0 + 0.15 * x * x
    slope = lambda x: -np.cos(5.0 * x) / 5.0 + 0.3 * x
    c = -(part(t) - part(0.0)) / t
    for n in (513, 2001):
        grid = make_grid(t, n)
        s = grid.nodes()
        h = h_exponential(t, params, gamma, NoisePath(grid, np.sin(5.0 * s) + 0.3))
        exact = pref * (part(s) - part(0.0) + c * s)
        tol = 2.0 * grid.dt ** 2
        assert np.max(np.abs(h.values - exact)) <= tol * np.max(np.abs(exact))
        for got, want in ((h.d_start, pref * (slope(0.0) + c)), (h.d_end, pref * (slope(t) + c))):
            assert abs(got - want) <= tol * abs(want)


def test_white_noise_h_is_the_large_gamma_limit():
    # gamma = inf takes the white-noise closed form of h; the finite-gamma
    # closed form approaches it like 1/gamma^2, i.e. 100x per decade
    grid = make_grid(1.0, 2001)
    noise = sample_exponential_noise(1.0, grid, 3, 0)
    limit = h_exponential(1.0, SCALED, math.inf, noise)
    devs = []
    for gamma in (1e2, 1e3, 1e4):
        h = h_exponential(1.0, SCALED, gamma, noise)
        devs.append(np.array([
            np.max(np.abs(h.values - limit.values)) / np.max(np.abs(limit.values)),
            abs(h.d_start - limit.d_start) / abs(limit.d_start),
            abs(h.d_end - limit.d_end) / abs(limit.d_end),
        ]))
    assert np.all(devs[-1] <= 2e-8)
    for coarse, fine in zip(devs, devs[1:]):
        assert np.all(50.0 * fine <= coarse)


# The discrete h on sample_exponential_noise(1.0, make_grid(1.0, 257), 7, 0):
# values at _H_REF_NODES, then h'(0) and h'(t), at omega_c = key (lam =
# key^2/2), for gamma = 1 (omega_c/gamma = key) and white noise (|kappa| t =
# key).  From a 60-digit evaluation of the trapezoid convolutions and the
# boundary solve in the decaying kernel, with mpmath 1.3 (about 1 s in all);
# the same run gives the C, D and E frozen in tests/test_propagator.py:
#
#   mp.mp.dps = 60
#   n, dt, t = 257, mp.mpf(1) / 256, mp.mpf(1)
#   w = [mp.mpf(x) for x in sample_exponential_noise(1.0, make_grid(1.0, n), 7, 0).values]
#   trap = [dt / 2 if j in (0, n - 1) else dt for j in range(n)]
#   def kernel(us, rho, pref, gamma, left):
#       # sum over roots u of p_u + a_u cosh(u(s - t/2)) + b_u sinh(u(s - t/2)),
#       # p_u = -pref rho_u (I + J)/(2u) from the trapezoid convolutions I, J of
#       # e^{-u|s - r|} w; rows: value ends (left, 0), and for two roots
#       # sum_u u^2 (phi_u' -+ gamma phi_u) = 0 at s = 0, t
#       rows, rhs, parts = [], [left, 0, 0, 0], []
#       for u, r in zip(us, rho):
#           e, i, j = mp.exp(-u * dt), [0] * n, [0] * n
#           for k in range(1, n):
#               i[k] = e * i[k - 1] + dt / 2 * (e * w[k - 1] + w[k])
#               j[-1 - k] = e * j[-k] + dt / 2 * (e * w[-k] + w[-1 - k])
#           p = [-pref * r * (i[k] + j[k]) / (2 * u) for k in range(n)] if pref else [0] * n
#           ends = (p[0], p[-1], -pref * r * j[0] / 2, pref * r * i[-1] / 2) if pref else (0,) * 4
#           basis = (lambda s, u=u: mp.cosh(u * (s - t / 2)),
#                    lambda s, u=u: mp.sinh(u * (s - t / 2)))
#           slope = (lambda s, u=u: u * mp.sinh(u * (s - t / 2)),
#                    lambda s, u=u: u * mp.cosh(u * (s - t / 2)))
#           for b, d in zip(basis, slope):
#               rows.append([b(0), b(t), u * u * (d(0) - gamma * b(0)),
#                            u * u * (d(t) + gamma * b(t))])
#           rhs = [x - y for x, y in zip(rhs, (ends[0], ends[1],
#                                              u * u * (ends[2] - gamma * ends[0]),
#                                              u * u * (ends[3] + gamma * ends[1])))]
#           parts.append((p, ends, basis, slope))
#       m = 2 * len(us)
#       ab = mp.lu_solve(mp.matrix(rows).T[:m, :m], mp.matrix(rhs[:m]))
#       vals = [sum(p[k] + ab[2 * q] * b(k * dt) + ab[2 * q + 1] * o(k * dt)
#                   for q, (p, _, (b, o), _) in enumerate(parts)) for k in range(n)]
#       d0, d1 = (sum(e[2 + z] + ab[2 * q] * sb(z * t) + ab[2 * q + 1] * so(z * t)
#                     for q, (_, e, _, (sb, so)) in enumerate(parts)) for z in (0, 1))
#       return vals, d0, d1
#   for key in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):     # gamma = 1
#       lam, g = mp.mpf(key * key / 2.0), mp.mpf(1)
#       z = mp.sqrt(1 - 8j * lam)
#       u1sq = (1 + z) / 2
#       u2sq = 2j * lam / u1sq
#       us, rho = (mp.sqrt(u1sq), mp.sqrt(u2sq)), (-u2sq / z, u1sq / z)
#       f = kernel(us, rho, 0, g, 1)[0]
#       h, d0, d1 = kernel(us, rho, -1j * mp.sqrt(lam), g, 0)
#       c = mp.sqrt(lam) / 2
#       C = -0.5j * d0 + c * mp.fsum(q * x * y for q, x, y in zip(trap, w, f))
#       D = 0.5j * d1 + c * mp.fsum(q * x * y for q, x, y in zip(trap, w, f[::-1]))
#       E = c * mp.fsum(q * x * y for q, x, y in zip(trap, w, h))
#       print([complex(h[j]) for j in _H_REF_NODES], complex(d0), complex(d1),
#             complex(C), complex(D), complex(E))
#   for key in (1.0, 1e-2, 1e-4, 1e-6):                    # gamma = inf
#       lam = mp.mpf(key * key / 2.0)
#       h, d0, d1 = kernel([key * mp.expjpi(0.25)], [1], -1j * mp.sqrt(lam), 0, 0)
#       print([complex(h[j]) for j in _H_REF_NODES], complex(d0), complex(d1))
_H_REF_NODES = (64, 128, 192)
_H_REFS = {
    (1.0, 1e-2): (-1.8951967280874955e-09-0.0005685224094971616j,
                  -2.562340932031585e-09-0.0007767835818525577j,
                  -1.899373936030313e-09-0.0005940494026794401j,
                  -9.745646686956015e-09-0.0029749371898799702j,
                  9.78386042818368e-09+0.003263997506800685j),
    (1.0, 1e-4): (-1.8951967281078658e-15-5.685224095033779e-06j,
                  -2.5623409320590973e-15-7.767835818609542e-06j,
                  -1.899373936050683e-15-5.940494026856571e-06j,
                  -9.745646687060839e-15-2.974937189911959e-05j,
                  9.783860428288506e-15+3.263997506832679e-05j),
    (1.0, 1e-6): (-1.8951967281078654e-21-5.685224095033779e-08j,
                  -2.562340932059097e-21-7.767835818609542e-08j,
                  -1.8993739360506827e-21-5.940494026856571e-08j,
                  -9.745646687060839e-21-2.974937189911959e-07j,
                  9.783860428288505e-21+3.263997506832679e-07j),
    (1.0, 1e-8): (-1.895196728107866e-27-5.685224095033779e-10j,
                  -2.5623409320590975e-27-7.767835818609542e-10j,
                  -1.8993739360506834e-27-5.940494026856571e-10j,
                  -9.745646687060842e-27-2.974937189911959e-09j,
                  9.783860428288508e-27+3.2639975068326793e-09j),
    (1.0, 1e-10): (-1.895196728107866e-33-5.685224095033779e-12j,
                   -2.5623409320590976e-33-7.767835818609542e-12j,
                   -1.8993739360506834e-33-5.940494026856571e-12j,
                   -9.74564668706084e-33-2.974937189911959e-11j,
                   9.783860428288507e-33+3.2639975068326794e-11j),
    (1.0, 1e-12): (-1.8951967281078653e-39-5.685224095033778e-14j,
                   -2.562340932059097e-39-7.767835818609541e-14j,
                   -1.899373936050683e-39-5.94049402685657e-14j,
                   -9.745646687060839e-39-2.974937189911959e-13j,
                   9.783860428288505e-39+3.263997506832679e-13j),
    (math.inf, 1.0): (-0.005660876051058129-0.05627795399619489j,
                      -0.007994822279404026-0.07686567433616288j,
                      -0.005728131758636773-0.0588289452652982j,
                      -0.025292476028258914-0.2949417468717531j,
                      0.025824949328359104+0.3238363288136085j),
    (math.inf, 1e-2): (-5.719106549276058e-09-0.000568522409445359j,
                       -8.077195365527466e-09-0.0007767835817788512j,
                       -5.786405531630546e-09-0.0005940494026274673j,
                       -2.5551170899464816e-08-0.00297493718965414j,
                       2.6083920656572902e-08+0.0032639975065737142j),
    (math.inf, 1e-4): (-5.719106549864343e-15-5.685224095033779e-06j,
                       -8.077195366359655e-15-7.767835818609542e-06j,
                       -5.786405532219264e-15-5.940494026856571e-06j,
                       -2.5551170902078333e-14-2.974937189911959e-05j,
                       2.6083920659189182e-14+3.263997506832679e-05j),
    (math.inf, 1e-6): (-5.719106549864342e-21-5.685224095033779e-08j,
                       -8.077195366359652e-21-7.767835818609542e-08j,
                       -5.786405532219263e-21-5.940494026856571e-08j,
                       -2.5551170902078327e-20-2.974937189911959e-07j,
                       2.6083920659189177e-20+3.263997506832679e-07j),
}


@pytest.mark.parametrize("gamma, key", sorted(_H_REFS))
def test_h_matches_60_digit_references_at_small_coupling(gamma, key):
    # the values to 1e-12 of max|h|, the slopes of the larger slope; the
    # decaying kernel alone misses by 2e-7 (gamma = 1, key = 1e-8), and the
    # white-noise image sum by 6e-4 (key = 1e-6)
    noise = sample_exponential_noise(1.0, make_grid(1.0, 257), 7, 0)
    params = make_params(m=1.0, hbar=1.0, lam=key * key / 2.0)
    h = h_exponential(1.0, params, gamma, noise)
    *values, d0, d1 = _H_REFS[(gamma, key)]
    err = np.max(np.abs(h.values[list(_H_REF_NODES)] - np.array(values)))
    assert err <= 1e-12 * np.max(np.abs(h.values)), err / np.max(np.abs(h.values))
    slope_err = max(abs(h.d_start - d0), abs(h.d_end - d1))
    assert slope_err <= 1e-12 * max(abs(d0), abs(d1)), slope_err / max(abs(d0), abs(d1))


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


@given(
    gamma=st.floats(min_value=1e-6, max_value=1e6),
    omega=st.floats(min_value=0.0, max_value=1e8),
)
def test_fastest_root_decays_at_least_at_gamma(gamma, omega):
    # Re zeta >= gamma^2, so |upsilon1| >= gamma: the residual cap of
    # `nmsse kernels`, 5 (max |upsilon| dt)^2, is never below 5 (gamma dt)^2
    roots = characteristic_roots(gamma, omega)
    rate = max(abs(roots.upsilon1), abs(roots.upsilon2))
    assert rate >= gamma * (1.0 - 4.0 * np.finfo(float).eps)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_roots_match_50_digit_roots(scale):
    # error model of the kernels CLI check root-sum-invariant: roots good to
    # a few ulps leave u1^2 + u2^2 - gamma^2 a few eps of |u1|^2 + |u2|^2,
    # which exceeds gamma^2 about 2 omega/gamma times where omega >> gamma
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for ratio in np.geomspace(1e-8, 1e8, 33):
            gamma, omega = scale, scale / ratio
            roots = characteristic_roots(gamma, omega)
            g2 = mpmath.mpf(gamma) ** 2
            zeta = mpmath.sqrt(g2 * g2 - 4j * g2 * mpmath.mpf(omega) ** 2)
            for got, want in ((roots.upsilon1, mpmath.sqrt((g2 + zeta) / 2)),
                              (roots.upsilon2, mpmath.sqrt((g2 - zeta) / 2))):
                assert float(abs(mpmath.mpc(got) - want) / abs(want)) <= 4.0 * eps, ratio
            u1, u2 = roots.upsilon1, roots.upsilon2
            dev = abs(u1 * u1 + u2 * u2 - gamma * gamma)
            assert dev <= 8.0 * eps * (abs(u1) ** 2 + abs(u2) ** 2), ratio


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
