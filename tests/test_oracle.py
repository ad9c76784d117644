"""Path-sum oracle: free-case exactness, action assembly, convergence."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import nmsse.oracle
from nmsse.core import InvalidParameterError, make_grid, make_params
from nmsse.kernels import solve_f_numeric, solve_h_numeric
from nmsse.noise import NoisePath, exponential_kernel, sample_exponential_noise
from nmsse.oracle import assemble_action, oracle_coefficients, oracle_convergence

CRIT = make_params(m=1.0, hbar=1.0, lam=0.1, unit_mode="scaled")
FREE = make_params(m=1.0, hbar=1.0, lam=0.0, unit_mode="scaled")


def test_free_particle_path_sum_is_exact():
    # polygonal paths carry the free action exactly, so the reduction should hit
    # the analytic coefficients at machine precision even on a coarse grid
    t = 1.0
    grid = make_grid(t, 65)
    noise = NoisePath(grid, np.zeros(grid.n))
    report = oracle_coefficients(t, FREE, 1.0, noise)
    c = report.coefficients
    mu = 1j / 2.0
    assert abs(c.A - (-mu / t)) <= 1e-10 * abs(mu / t)
    assert abs(c.B - (-2.0 * mu / t)) <= 1e-10 * abs(mu / t)
    scale = abs(c.A)
    assert abs(c.C) <= 1e-10 * scale
    assert abs(c.D) <= 1e-10 * scale
    assert abs(c.E) <= 1e-10 * scale
    assert report.diag_asymmetry <= 1e-10


def test_assembled_action_matches_direct_sums():
    t = 0.8
    grid = make_grid(t, 9)
    gamma = 1.3
    noise = sample_exponential_noise(gamma, grid, 5, 0)
    Q, L = assemble_action(CRIT, gamma, noise)

    rng = np.random.default_rng(1)
    q = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    eps = grid.dt
    s = grid.nodes()
    rho = np.ones(grid.n)
    rho[0] = rho[-1] = 0.5

    kin = sum(1j * CRIT.m / (2.0 * CRIT.hbar * eps) * (q[j + 1] - q[j]) ** 2
              for j in range(grid.n - 1))
    drive = sum(eps * rho[j] * math.sqrt(CRIT.lam) * noise.values[j] * q[j]
                for j in range(grid.n))
    mem = -CRIT.lam * sum(
        eps * eps * rho[j] * rho[r] * (gamma / 2.0) * math.exp(-gamma * abs(s[j] - s[r]))
        * q[j] * q[r]
        for j in range(grid.n) for r in range(grid.n))
    want = kin + drive + mem
    got = q @ Q @ q + L @ q
    assert abs(got - want) <= 1e-12 * abs(want)


def test_action_matrix_is_symmetric():
    grid = make_grid(1.0, 33)
    noise = sample_exponential_noise(2.0, grid, 3, 0)
    Q, _ = assemble_action(CRIT, 2.0, noise)
    assert np.array_equal(Q, Q.T)


@pytest.mark.parametrize("t,t_max", [(2.0, 1.0), (math.nan, 1.0), (-1e-13, 5e-13),
                                      (1e-13, 5e-13)])
def test_oracle_rejects_horizon_mismatch(t, t_max):
    # the closed forms' horizon check; an absolute tolerance of 1e-12 let a
    # NaN through, and any t within 1e-12 of a tiny grid's end, negative or not
    grid = make_grid(t_max, 65)
    noise = sample_exponential_noise(1.0, grid, 7, 0)
    with pytest.raises(InvalidParameterError):
        oracle_coefficients(t, CRIT, 1.0, noise)


def test_reduction_needs_an_interior_node():
    grid = make_grid(1.0, 2)
    noise = NoisePath(grid, np.zeros(2))
    with pytest.raises(InvalidParameterError):
        oracle_coefficients(1.0, CRIT, 1.0, noise)


@pytest.mark.parametrize("noisy", [True, False])
def test_reduced_exponent_is_the_schur_quadratic(noisy):
    # integrate the interior out afresh at each endpoint pair (one solve
    # per probe) and compare with the quadratic form read off once; six
    # probes fix a quadratic, the other three test that it is one
    t = 1.0
    gamma = 1.3
    grid = make_grid(t, 65)
    noise = (sample_exponential_noise(gamma, grid, 5, 0) if noisy
             else NoisePath(grid, np.zeros(grid.n)))
    c = oracle_coefficients(t, CRIT, gamma, noise).coefficients
    Q, L = assemble_action(CRIT, gamma, noise)
    inner = slice(1, grid.n - 1)
    probes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.0),
              (0.0, 2.0), (2.0, 1.0), (1.0, 2.0), (-1.0, 1.0)]
    brute, schur = [], []
    for x0, x in probes:
        qb = np.array([x0, x], dtype=complex)
        v = 2.0 * (x0 * Q[inner, 0] + x * Q[inner, -1]) + L[inner]
        y = np.linalg.solve(Q[inner, inner], v)
        brute.append(qb @ Q[np.ix_([0, -1], [0, -1])] @ qb + L[[0, -1]] @ qb
                     - 0.25 * (v @ y))
        schur.append(-c.A * (x0 * x0 + x * x) + c.B * x0 * x + c.C * x0 + c.D * x + c.E)
    brute, schur = np.array(brute), np.array(schur)
    assert np.max(np.abs(brute - schur)) <= 1e-10 * np.max(np.abs(brute))
    if not noisy:
        assert c.C == 0.0 and c.D == 0.0 and c.E == 0.0


# A..E of the path sum at 64 segments (t = 1, lambda = 0.1, gamma = 1.3,
# noise sample_exponential_noise(1.3, make_grid(1.0, 65), 5, 0)): the dense
# Schur reduction of assemble_action's (Q, L), taken exactly as floats, at
# 40 digits.  Generated with mpmath 1.3 (about 8 s):
#
#   mp.mp.dps = 40
#   Q, L = assemble_action(CRIT, 1.3, noise)
#   q = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in Q])
#   lv = [mp.mpc(complex(x)) for x in L]
#   inner, ends = range(1, 64), (0, 64)
#   Qii = mp.matrix([[q[j, r] for r in inner] for j in inner])
#   ys = [mp.lu_solve(Qii, mp.matrix([q[j, e] for j in inner])) for e in ends]
#   ys.append(mp.lu_solve(Qii, mp.matrix([lv[j] for j in inner])))
#   S = [[q[a, e] - sum(q[a, j] * ys[ei][i] for i, j in enumerate(inner))
#         for ei, e in enumerate(ends)] for a in ends]
#   l = [lv[a] - sum(q[a, j] * ys[2][i] for i, j in enumerate(inner)) for a in ends]
#   c = -sum(lv[j] * ys[2][i] for i, j in enumerate(inner)) / 4
#   print([complex(v) for v in (-(S[0][0] + S[1][1]) / 2, 2 * S[0][1], l[0], l[1], c)])
_ORACLE_REF = dict(A=0.011857146058902354 - 0.5000868542119257j,
                   B=-0.020323446015810518 - 0.999827700664597j,
                   C=0.2127461186361417 - 0.0013131840990937272j,
                   D=0.11285740500299625 - 0.0012765479372267069j,
                   E=3.873523515773875e-05 + 0.005092626455389517j)


def test_oracle_matches_the_extended_precision_reduction():
    grid = make_grid(1.0, 65)
    noise = sample_exponential_noise(1.3, grid, 5, 0)
    got = oracle_coefficients(1.0, CRIT, 1.3, noise).coefficients
    for name, want in _ORACLE_REF.items():
        assert abs(getattr(got, name) - want) <= 1e-12 * abs(want), name


@pytest.mark.parametrize("lam,gamma", [(0.1, 1.3), (2.0, 30.0), (1e-8, 1.0), (0.1, 1e3),
                                       (1e3, 1.0)])
def test_the_stationarity_equation_is_the_collocation_kernel_equation(lam, gamma):
    # the interior rows of Q are -dt times the collocation operator, so the
    # arbiter's f and h give the reduction through the boundary rows Q_b:
    # S = [Q_b f, Q_b f reversed], (C, D) = L_b + 2 Q_b h, E = L_i h_i / 2
    t = 1.0
    params = make_params(m=1.0, hbar=1.0, lam=lam, unit_mode="scaled")
    grid = make_grid(t, 65)
    noise = sample_exponential_noise(gamma, grid, 5, 0)
    Q, L = assemble_action(params, gamma, noise)
    Qb = Q[[0, -1]]
    kern = exponential_kernel(gamma)
    f = solve_f_numeric(t, params, kern, grid).values
    h = solve_h_numeric(t, params, kern, noise).values
    S = np.column_stack([Qb @ f, Qb @ f[::-1]])
    C, D = L[[0, -1]] + 2.0 * (Qb @ h)
    want = dict(A=-(S[0, 0] + S[1, 1]) / 2.0, B=2.0 * S[0, 1], C=C, D=D,
                E=0.5 * (L[1:-1] @ h[1:-1]))
    got = oracle_coefficients(t, params, gamma, noise).coefficients
    for name, w in want.items():
        assert abs(getattr(got, name) - w) <= 1e-12 * abs(w), name


def test_oracle_holds_no_dense_action():
    # one dense 513 x 513 complex matrix alone is 4.2 MB; the reduction
    # through the collocation solve peaks at 0.89 MB here, the dense one
    # peaked at 12.8 MB
    noise = sample_exponential_noise(1.0, make_grid(1.0, 513), 7, 0)
    tracemalloc.start()
    try:
        oracle_convergence(1.0, CRIT, 1.0, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak / 1e6


def test_convergence_toward_analytic_coefficients():
    t = 1.0
    grid = make_grid(t, 513)
    noise = sample_exponential_noise(1.0, grid, 7, 0)
    out = oracle_convergence(t, CRIT, 1.0, noise)
    assert [report.n_segments for report, _, _ in out] == [64, 128, 256, 512]
    maxes = [row[2] for row in out]
    assert maxes[0] > maxes[1] > maxes[2] > maxes[3]
    assert maxes[-1] <= 1e-3
    for report, errs, _ in out:
        assert set(errs) == set("ABCDE")
        assert report.diag_asymmetry <= 1e-10


def test_convergence_keeps_a_nan_error(monkeypatch):
    # a NaN error must reach err_max: max() keeps a finite error that a NaN
    # follows, which would let a NaN C pass oracle-final-error
    closed = nmsse.oracle.greens_coefficients
    monkeypatch.setattr(nmsse.oracle, "greens_coefficients", lambda *args, **kw:
                        dataclasses.replace(closed(*args, **kw), C=complex(math.nan)))
    noise = sample_exponential_noise(1.0, make_grid(1.0, 513), 7, 0)
    out = oracle_convergence(1.0, CRIT, 1.0, noise)
    assert all(math.isnan(err_max) for _, _, err_max in out)


def test_convergence_refuses_a_zero_noise_path():
    # C, D and E vanish on a zero path, as at lambda = 0
    noise = NoisePath(make_grid(1.0, 513), np.zeros(513))
    with pytest.raises(InvalidParameterError, match="no relative error"):
        oracle_convergence(1.0, CRIT, 1.0, noise)


@pytest.mark.parametrize("n", [257, 1025])
def test_convergence_needs_the_finest_level_grid(n):
    noise = sample_exponential_noise(1.0, make_grid(1.0, n), 7, 0)
    with pytest.raises(InvalidParameterError, match="finest level is 512"):
        oracle_convergence(1.0, CRIT, 1.0, noise)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
def test_action_rejects_a_bad_memory_rate(gamma):
    noise = NoisePath(make_grid(1.0, 9), np.zeros(9))
    with pytest.raises(InvalidParameterError, match="gamma"):
        assemble_action(CRIT, gamma, noise)
