"""Acceptance gate: twelve end-to-end criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion; each test prints its measured numbers as well.

Two criteria assert physical expectations that the exact dynamics does not
satisfy, and they are written to the stated claims anyway:

* test_05: the deterministic width is claimed to decrease monotonically to
  its asymptote.  In fact it rings: it undershoots the asymptote by about
  14 percent before relaxing back from below.  The ordering and asymptote
  clauses hold; the monotonicity clause fails.
* test_06: a macroscopic 1 m wave packet is claimed to collapse below
  0.1 um within a millisecond at gamma = 10 in SI units.  The computed
  width after a millisecond is still essentially 1 m; localization at
  these parameters takes cosmological times, so the inequality fails.

Both failures are intentional records, not regressions; the computed
values are printed by the tests.
"""

import math
import time

import numpy as np

from nmsse.core import make_grid, make_params
from nmsse.ensemble import run_ensemble
from nmsse.kernels import (
    f_exponential,
    f_markovian,
    h_exponential,
    kernel_residual,
    solve_f_numeric,
    solve_h_numeric,
)
from nmsse.noise import (
    NoisePath,
    exponential_kernel,
    sample_exponential_noise,
    sample_exponential_noise_batch,
)
from nmsse.oracle import oracle_convergence
from nmsse.propagator import (
    asymptotic_spread,
    functional_derivative_coeffs,
    gaussian_from_moments,
    greens_coefficients,
    propagate_gaussian,
    spread_curve,
)

FREE = make_params(m=1.0, hbar=1.0, lam=0.0, unit_mode="scaled")
CRIT = make_params(m=1.0, hbar=1.0, lam=0.1, unit_mode="scaled")
WHITE = make_params(m=1.0, hbar=1.0, lam=0.25, unit_mode="scaled")
SI = make_params(m=1.0, hbar=1.0545718e-34, lam=1e-2, unit_mode="SI")


def test_01_free_propagator_reduction():
    t = 1.0
    grid = make_grid(t, 2001)
    mu = 1j / 2.0
    want_a = -mu / t
    want_b = -2.0 * mu / t

    t0 = time.perf_counter()
    coeffs = greens_coefficients(t, FREE, 1.0, grid=grid,
                                 noise=NoisePath(grid, np.zeros(grid.n), 0, 0))
    kern = exponential_kernel(1.0)
    f_n = solve_f_numeric(t, FREE, kern, grid)
    h_n = solve_h_numeric(t, FREE, kern, NoisePath(grid, np.zeros(grid.n), 0, 0))
    a_num = mu * f_n.d_start
    b_num = 2.0 * mu * f_n.d_end
    c_num = -mu * h_n.d_start
    d_num = mu * h_n.d_end
    elapsed = time.perf_counter() - t0

    err_a = abs(coeffs.A - want_a) / abs(want_a)
    err_b = abs(coeffs.B - want_b) / abs(want_b)
    err_an = abs(a_num - want_a) / abs(want_a)
    err_bn = abs(b_num - want_b) / abs(want_b)
    print(f"criterion 1: analytic errs A={err_a:.2e} B={err_b:.2e}; "
          f"numeric errs A={err_an:.2e} B={err_bn:.2e}; runtime {elapsed:.3f} s")

    assert err_a <= 1e-12 and err_b <= 1e-12
    assert coeffs.C == 0.0 and coeffs.D == 0.0 and coeffs.E == 0.0
    assert err_an <= 1e-6 and err_bn <= 1e-6
    scale = abs(want_a)
    assert abs(c_num) <= 1e-6 * scale and abs(d_num) <= 1e-6 * scale
    assert elapsed < 1.0


def test_02_path_sum_oracle_equivalence():
    # every seed, not a pinned one: each halving of the segment width must
    # cut the max relative error by >= 3.5 (observed order 2)
    t = 1.0
    grid = make_grid(t, 513)
    seeds = list(range(30)) + [42]

    t0 = time.perf_counter()
    table = {}
    for seed in seeds:
        noise = sample_exponential_noise(1.0, grid, seed, 0)
        rows = oracle_convergence(t, CRIT, 1.0, noise, levels=(64, 128, 256, 512))
        table[seed] = [row[2] for row in rows]
    elapsed = time.perf_counter() - t0

    ratios = {s: [a / b for a, b in zip(m, m[1:])] for s, m in table.items()}
    print("criterion 2: seed 42 max rel errors over segments 64/128/256/512: "
          + ", ".join(f"{e:.3e}" for e in table[42])
          + f"; over {len(seeds)} seeds the smallest per-halving ratio is "
          + f"{min(min(r) for r in ratios.values()):.3f} and the largest final "
          + f"error {max(m[-1] for m in table.values()):.2e}; runtime {elapsed:.1f} s")
    assert [s for s, r in ratios.items() if min(r) < 3.5] == []
    assert max(m[-1] for m in table.values()) <= 1e-3
    assert elapsed < 120.0


def test_03_kernel_cross_validation():
    t = 1.0
    grid = make_grid(t, 2001)
    kern = exponential_kernel(1.0)
    noise = sample_exponential_noise(1.0, grid, 42, 0)

    t0 = time.perf_counter()
    f_c = f_exponential(t, CRIT, 1.0, grid)
    f_n = solve_f_numeric(t, CRIT, kern, grid)
    h_c = h_exponential(t, CRIT, 1.0, noise)
    h_n = solve_h_numeric(t, CRIT, kern, noise)
    dev_f = np.max(np.abs(f_c.values - f_n.values)) / np.max(np.abs(f_c.values))
    dev_h = np.max(np.abs(h_c.values - h_n.values)) / np.max(np.abs(h_c.values))
    res_h_closed, res_h_colloc, res_f_closed = kernel_residual([h_c, h_n, f_c], CRIT, kern, noise)
    elapsed = time.perf_counter() - t0

    print(f"criterion 3: route deviations f={dev_f:.3e} h={dev_h:.3e}; "
          f"driven-equation residuals closed={res_h_closed:.3e} "
          f"colloc={res_h_colloc:.3e}; homogeneous residual {res_f_closed:.3e} "
          f"(trapezoid-limited); runtime {elapsed:.1f} s")
    assert dev_f <= 1e-4
    assert dev_h <= 1e-4
    assert res_h_closed <= 1e-8
    assert res_h_colloc <= 1e-8
    # the homogeneous equation's residual is dominated by the trapezoid
    # rule across the correlation kernel's diagonal corner; tracked as a
    # regression bound rather than a criterion tolerance
    assert res_f_closed <= 1e-6
    assert elapsed < 60.0


def _one_sided(vals: np.ndarray, dt: float, order: int, npts: int = 9) -> complex:
    """One-sided derivative at the first node via a Taylor-system stencil."""
    M = np.array([[j ** k / math.factorial(k) for j in range(npts)]
                  for k in range(npts)])
    w = np.linalg.solve(M, np.eye(npts)[order])
    return complex(w @ vals[:npts]) / dt ** order


def test_04_boundary_and_third_derivative_conditions():
    t = 1.0
    fine = make_grid(t, 51)  # dt = 0.02 balances stencil truncation and roundoff
    coarse = make_grid(t, 2001)
    worst = 0.0
    for params, gamma in ((CRIT, 1.0), (make_params(m=1.0, hbar=1.0, lam=0.5), 2.0)):
        f = f_exponential(t, params, gamma, coarse)
        assert abs(f.values[0] - 1.0) <= 1e-10
        assert abs(f.values[-1]) <= 1e-10
        noise = sample_exponential_noise(gamma, coarse, 42, 0)
        h = h_exponential(t, params, gamma, noise)
        assert abs(h.values[0]) <= 1e-10
        assert abs(h.values[-1]) <= 1e-10

        ff = f_exponential(t, params, gamma, fine)
        d2_0 = _one_sided(ff.values, fine.dt, 2)
        d3_0 = _one_sided(ff.values, fine.dt, 3)
        rev = ff.values[::-1]
        d2_t = _one_sided(rev, fine.dt, 2)
        d3_t = -_one_sided(rev, fine.dt, 3)
        err0 = abs(d3_0 - gamma * d2_0) / abs(gamma * d2_0)
        errt = abs(d3_t + gamma * d2_t) / abs(gamma * d2_t)
        worst = max(worst, err0, errt)
        assert err0 <= 1e-6
        assert errt <= 1e-6
    print(f"criterion 4: third-derivative conditions hold, worst rel dev {worst:.2e}")


def test_05_spread_curves_qualitative():
    gammas = (2.0, 10.0, 100.0, math.inf)
    times = np.geomspace(1.0, 4e18, 200)

    t0 = time.perf_counter()
    curves = {g: spread_curve(times, SI, g, 1.0) for g in gammas}
    elapsed = time.perf_counter() - t0

    failures = []
    for g in gammas:
        c = curves[g]
        lab = "inf" if math.isinf(g) else "%g" % g
        sig_inf = asymptotic_spread(SI, g)
        i_min = int(np.argmin(c))
        final_dev = abs(c[-1] - sig_inf) / sig_inf
        monotone = bool(np.all(np.diff(c) <= 0.0))
        print(f"criterion 5: gamma={lab}: min sigma {c[i_min]:.5e} m at "
              f"t={times[i_min]:.3e} s, asymptote {sig_inf:.5e} m, "
              f"final rel dev {final_dev:.2e}, monotone={monotone}")
        if not monotone:
            failures.append(
                f"gamma={lab} not monotone (undershoots its asymptote by "
                f"{(sig_inf - c[i_min]) / sig_inf:.1%} then rings back)")
        if final_dev > 1e-2:
            failures.append(f"gamma={lab} asymptote off by {final_dev:.2e}")
    for big, small in zip(gammas[1:], gammas[:-1]):
        excess = np.max(curves[big] - curves[small] * (1.0 + 1e-12))
        if excess > 0.0:
            failures.append(f"ordering violated for gamma {big} vs {small}")
    assert elapsed < 60.0
    assert not failures, "; ".join(failures)


def test_06_collapse_threshold_claim():
    sigma = float(spread_curve(np.array([1e-3]), SI, 10.0, 1.0)[0])
    print(f"criterion 6: computed sigma(1 ms) = {sigma:.9e} m "
          f"(claimed <= 1e-7 m)")
    assert sigma <= 1e-7


def test_07_white_noise_limit():
    t = 1.0
    grid = make_grid(t, 2001)
    ref = f_markovian(t, WHITE, grid)
    devs = []
    for gamma in (1e2, 1e3, 1e4):
        f = f_exponential(t, WHITE, gamma, grid)
        devs.append(float(np.max(np.abs(f.values - ref.values))))
    print("criterion 7: sup-norm deviation from the white-noise kernel for "
          "gamma 1e2/1e3/1e4: " + ", ".join(f"{d:.3e}" for d in devs))
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] <= 1e-2


def test_08_deterministic_spread_random_linear_terms():
    t = 1.0
    grid = make_grid(t, 513)
    state0 = gaussian_from_moments(0.0, 0.0, 1.0, CRIT)
    sigmas = []
    linear_terms = []
    for seed in range(10):
        stats = run_ensemble(CRIT, 1.0, state0, [0.5, 1.0], 3, seed, grid=grid)
        sigmas.append(stats.sigma_q)
        noise = sample_exponential_noise(1.0, grid, seed, 0)
        coeffs = greens_coefficients(t, CRIT, 1.0, noise=noise)
        linear_terms.append((coeffs.C, coeffs.D, coeffs.E))
    for other in sigmas[1:]:
        assert np.array_equal(sigmas[0], other)
    for name, idx in (("C", 0), ("D", 1), ("E", 2)):
        vals = {lt[idx] for lt in linear_terms}
        assert len(vals) == 10, f"{name} repeated across seeds"
    print("criterion 8: sigma bit-identical across 10 seeds; "
          "C, D, E distinct for every seed")


def test_09_classical_mean_evolution():
    x0, p0 = 1.0, 0.5
    grid = make_grid(1.0, 513)
    state0 = gaussian_from_moments(x0, p0, 1.0, CRIT)
    ts = np.linspace(0.1, 1.0, 10)

    t0 = time.perf_counter()
    stats = run_ensemble(CRIT, 1.0, state0, ts, 1000, 42, grid=grid)
    elapsed = time.perf_counter() - t0

    dev_q = np.abs(stats.mean_q - (x0 + p0 * stats.times))
    dev_p = np.abs(stats.mean_p - p0)
    worst_q = float(np.max(dev_q / stats.se_q))
    worst_p = float(np.max(dev_p / stats.se_p))
    print(f"criterion 9: worst |deviation|/SE over 10 sample times: "
          f"position {worst_q:.2f}, momentum {worst_p:.2f}; "
          f"ESS at t=1: {stats.ess[-1]:.0f}/1000; runtime {elapsed:.1f} s")
    assert np.all(dev_q <= 3.0 * stats.se_q)
    assert np.all(dev_p <= 3.0 * stats.se_p)
    assert elapsed < 300.0


def test_10_mass_scaling_of_mean_dispersion():
    grid = make_grid(10.0, 513)
    ts = [2.5, 5.0, 7.5, 10.0]
    heavy = make_params(m=4.0, hbar=1.0, lam=0.1, unit_mode="scaled")
    stats_1 = run_ensemble(CRIT, 1.0, gaussian_from_moments(0.0, 0.0, 1.0, CRIT),
                           ts, 1000, 42, grid=grid)
    stats_4 = run_ensemble(heavy, 1.0, gaussian_from_moments(0.0, 0.0, 1.0, heavy),
                           ts, 1000, 43, grid=grid)
    v1, sv1 = stats_1.v_q[-1], stats_1.se_vq[-1]
    v4, sv4 = stats_4.v_q[-1], stats_4.se_vq[-1]
    ratio = v4 / v1
    se_ratio = ratio * math.hypot(sv1 / v1, sv4 / v4)
    print(f"criterion 10: dispersion ratio (4m)/(m) at t=10: "
          f"{ratio:.4f} +- {se_ratio:.4f} (target 0.5, "
          f"{abs(ratio - 0.5) / se_ratio:.2f} SE away)")
    assert abs(ratio - 0.5) <= 3.0 * se_ratio


def test_11_noise_response_ansatz():
    t, gamma = 1.0, 1.0
    grid = make_grid(t, 513)
    noise = sample_exponential_noise(gamma, grid, 3, 0)
    state0 = gaussian_from_moments(0.3, -0.2, 0.8, CRIT)
    coeffs = greens_coefficients(t, CRIT, gamma, noise=noise)
    base = propagate_gaussian(state0, coeffs, renormalize=False)
    prof = functional_derivative_coeffs(t, CRIT, gamma, noise)
    sl = math.sqrt(CRIT.lam)
    eps = 1e-6 * float(np.max(np.abs(noise.values)))

    worst = 0.0
    for k in (64, 128, 256, 384, 448):
        perturbed = {}
        for sign in (1.0, -1.0):
            bumped = noise.values.copy()
            bumped[k] += sign * eps
            c = greens_coefficients(t, CRIT, gamma,
                                    noise=NoisePath(grid, bumped, 0, 0))
            perturbed[sign] = propagate_gaussian(state0, c, renormalize=False)
        d_beta = (perturbed[1.0].beta - perturbed[-1.0].beta) / (2.0 * eps * grid.dt)
        d_g = (perturbed[1.0].g - perturbed[-1.0].g) / (2.0 * eps * grid.dt)
        want_beta = sl * (prof.a[k] + 2j * CRIT.hbar * base.alpha * prof.b[k])
        want_g = sl * (prof.c[k] - 1j * CRIT.hbar * base.beta * prof.b[k])
        rel_beta = abs(d_beta - want_beta) / abs(want_beta)
        rel_g = abs(d_g - want_g) / abs(want_g)
        worst = max(worst, rel_beta, rel_g)
        assert rel_beta <= 1e-3
        assert rel_g <= 1e-3
    print(f"criterion 11: response identity holds at 5 bump locations, "
          f"worst rel dev {worst:.2e}")


def test_12_noise_sampler_covariance():
    gamma = 1.0
    grid = make_grid(2.0, 33)
    n_paths = 100_000
    rows = sample_exponential_noise_batch(gamma, grid, 2026, range(n_paths))
    details = []
    for lag in (0, 1, 2, 4, 8):
        prods = rows[:, : grid.n - lag] * rows[:, lag:]
        per_path = prods.mean(axis=1)
        se = float(per_path.std(ddof=1)) / math.sqrt(n_paths)
        want = 0.5 * gamma * math.exp(-gamma * lag * grid.dt)
        got = float(per_path.mean())
        details.append(f"lag {lag}: {(got - want) / se:+.2f} SE")
        assert abs(got - want) <= 5.0 * se
    print("criterion 12: covariance at 5 lags within 5 SE ("
          + ", ".join(details) + ")")
