"""Path-sum oracle: free-case exactness, action assembly, convergence."""

import math

import numpy as np
import pytest

from nmsse.core import InvalidParameterError, make_grid, make_params
from nmsse.noise import NoisePath, exponential_kernel, sample_exponential_noise
from nmsse.oracle import assemble_action, oracle_coefficients, oracle_convergence

CRIT = make_params(m=1.0, hbar=1.0, lam=0.1, unit_mode="scaled")
FREE = make_params(m=1.0, hbar=1.0, lam=0.0, unit_mode="scaled")


def test_free_particle_path_sum_is_exact():
    # polygonal paths carry the free action exactly, so the reduction should hit
    # the analytic coefficients at machine precision even on a coarse grid
    t = 1.0
    grid = make_grid(t, 65)
    noise = NoisePath(grid, np.zeros(grid.n), 0, 0)
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
    Q, L = assemble_action(CRIT, exponential_kernel(gamma), noise)

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
    Q, _ = assemble_action(CRIT, exponential_kernel(2.0), noise)
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
    noise = NoisePath(grid, np.zeros(2), 0, 0)
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
             else NoisePath(grid, np.zeros(grid.n), 5, 0))
    c = oracle_coefficients(t, CRIT, gamma, noise).coefficients
    Q, L = assemble_action(CRIT, exponential_kernel(gamma), noise)
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


def test_convergence_toward_analytic_coefficients():
    t = 1.0
    grid = make_grid(t, 65)
    noise = sample_exponential_noise(1.0, grid, 7, 0)
    out = oracle_convergence(t, CRIT, 1.0, noise, levels=(16, 32, 64))
    maxes = [row[2] for row in out]
    assert maxes[0] > maxes[1] > maxes[2]
    assert maxes[-1] <= 2e-2
    for report, errs, _ in out:
        assert set(errs) == set("ABCDE")
        assert report.diag_asymmetry <= 1e-10


def test_convergence_level_validation():
    grid = make_grid(1.0, 65)
    noise = sample_exponential_noise(1.0, grid, 7, 0)
    with pytest.raises(InvalidParameterError):
        oracle_convergence(1.0, CRIT, 1.0, noise, levels=(16, 32))
    with pytest.raises(InvalidParameterError):
        oracle_convergence(1.0, CRIT, 1.0, noise, levels=(24, 64))
