"""Correctness checks for the benchmark's workloads.

Every check compares a program output with a property of the method or
with an independent route, never with a stored copy of an earlier output.
A check is a record ``{name, value, bound, pass}`` with ``pass`` meaning
``value <= bound``.  Statistical checks size their bound for the number of
quantities they test, so they hold for any seed; the workloads also feed
each check a deliberately perturbed output and require it to fail.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# Chance that a statistical check fails on a correct program, per check.
FALSE_ALARM = 1e-6


def record(name: str, value: float, bound: float) -> dict:
    value = float(value)
    return {"name": name, "value": value, "bound": float(bound),
            "pass": bool(value <= bound)}


def z_bound(n_tests: int) -> float:
    """Two-sided Gaussian bound met by all of n_tests z-scores but with
    probability FALSE_ALARM (Bonferroni)."""
    return NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2.0 * n_tests))


def max_z(diff, se) -> float:
    diff = np.abs(np.asarray(diff, dtype=float))
    se = np.asarray(se, dtype=float)
    if np.any((se <= 0.0) & (diff > 0.0)):
        return math.inf
    return float(np.max(np.where(se > 0.0, diff / np.where(se > 0.0, se, 1.0), 0.0)))


def max_rel_dev(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def classical_means(prefix: str, times, mean_q, se_q, mean_p, se_p,
                    x0: float, p0: float, m: float) -> list[dict]:
    """Physical-measure means follow x0 + p0 t / m and p0 (Ehrenfest)."""
    times = np.asarray(times, dtype=float)
    bound = z_bound(2 * times.size)
    return [
        record(f"{prefix}mean-position-z",
               max_z(np.asarray(mean_q) - (x0 + p0 * times / m), se_q), bound),
        record(f"{prefix}mean-momentum-z",
               max_z(np.asarray(mean_p) - p0, se_p), bound),
    ]


def gaussian_width(alpha0: complex, mu: complex, d_start: complex,
                   d_end: complex) -> float:
    """Position spread after the Gaussian update, from the f-kernel slopes.

    A = mu f'(0), B = 2 mu f'(t), alpha_t = (alpha0 A + A^2 - B^2/4)
    / (alpha0 + A), sigma = 1 / (2 sqrt(Re alpha_t)).
    """
    a = mu * d_start
    b = 2.0 * mu * d_end
    alpha_t = (alpha0 * a + a * a - b * b / 4.0) / (alpha0 + a)
    return 0.5 / math.sqrt(alpha_t.real)


def width_vs_arbiter(sigma, sigma_arbiter, dt: float) -> dict:
    """Closed-form width against the collocation arbiter, O(dt^2) apart."""
    return record("sigma-vs-collocation", max_rel_dev(sigma, sigma_arbiter), dt * dt)


def same_outputs(digests: list[str]) -> dict:
    """Repetitions with one seed produce bitwise-equal outputs."""
    return record("repetitions-bitwise-equal",
                  sum(d != digests[0] for d in digests), 0)


def ou_covariance(w: np.ndarray, dt: float, gamma: float, lags) -> dict:
    """Sampled paths have covariance (gamma/2) exp(-gamma lag) at each lag.

    Each path gives one estimate per lag (the mean of w(s) w(s + lag) over
    s); paths are independent, so the spread of those estimates gives the
    standard error.
    """
    lags = list(lags)
    z = []
    for lag in lags:
        per_path = np.mean(w[:, : w.shape[1] - lag] * w[:, lag:], axis=1)
        want = 0.5 * gamma * math.exp(-gamma * lag * dt)
        se = float(np.std(per_path, ddof=1) / math.sqrt(per_path.size))
        z.append(abs(float(np.mean(per_path)) - want) / se)
    return record("noise-covariance-z", max(z), z_bound(len(lags)))


def free_width(times, sigma, sigma0: float, hbar: float, m: float) -> dict:
    """Without coupling the width is the free packet's, exactly."""
    times = np.asarray(times, dtype=float)
    want = sigma0 * np.sqrt(1.0 + (hbar * times / (2.0 * m * sigma0 ** 2)) ** 2)
    return record("free-particle-width", max_rel_dev(sigma, want), 1e-10)


def late_width(label: str, sigma_last: float, asymptote: float) -> dict:
    return record(f"late-width-vs-asymptote[{label}]",
                  abs(sigma_last / asymptote - 1.0), 0.01)


def width_ordering(label: str, curves_by_gamma: list[np.ndarray]) -> dict:
    """Larger gamma never widens the packet more; curves in ascending gamma."""
    excess = max(float(np.max(large / small - 1.0))
                 for small, large in zip(curves_by_gamma, curves_by_gamma[1:]))
    return record(f"width-ordered-in-gamma[{label}]", excess, 1e-12)


def route_agreement(kind: str, closed, collocation, dt: float) -> dict:
    return record(f"kernel-routes-agree[{kind}]",
                  max_rel_dev(collocation, closed), dt * dt)


def oracle_final(seed: int, err_max_last: float) -> dict:
    return record(f"oracle-final-error[seed={seed}]", err_max_last, 1e-3)
