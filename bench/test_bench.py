"""Tests of the benchmark's own machinery: span recorder and checks.

Each check must pass on an output that has the property it tests and fail
on one that has been perturbed.
"""

import math
import types

import numpy as np

import checks
from tracer import Tracer, descendants, duration, self_time


def test_self_time_subtracts_children_once():
    parent = {"start": 0.0, "end": 10.0}
    kids = [{"start": 1.0, "end": 3.0}, {"start": 2.0, "end": 4.0},
            {"start": 9.0, "end": 12.0}]
    assert self_time(parent, kids) == 10.0 - 3.0 - 1.0


def test_wrap_records_nested_spans_with_counts_and_restores():
    mod = types.SimpleNamespace(inner=lambda n: list(range(n)))
    mod.outer = lambda n: len(mod.inner(n))
    original = mod.inner
    tr = Tracer()
    tr.wrap(mod, "inner", "layer.inner", lambda a, k, r: {"items": len(r)})
    tr.wrap(mod, "outer", "layer.outer")
    with tr.span("rep"):
        assert mod.outer(5) == 5
    tr.restore()
    assert mod.inner is original
    rep, outer, inner = tr.spans
    assert [s["name"] for s in descendants(tr.spans, rep["id"])] == [
        "layer.outer", "layer.inner"]
    assert inner["parent"] == outer["id"] and outer["parent"] == rep["id"]
    assert inner["counts"] == {"items": 5}
    assert duration(outer) >= duration(inner) >= 0.0


def test_z_bound_grows_with_number_of_tests():
    assert 4.8 < checks.z_bound(1) < checks.z_bound(100) < 6.0


def test_classical_means_reject_a_shifted_mean():
    t = np.linspace(0.1, 1.0, 10)
    se = np.full(10, 0.01)
    ok = checks.classical_means("", t, 1.0 + 0.5 * t, se, np.full(10, 0.5), se,
                                1.0, 0.5, 1.0)
    assert all(c["pass"] for c in ok)
    shifted = checks.classical_means("", t, 1.0 + 0.5 * t + 0.1, se,
                                     np.full(10, 0.5), se, 1.0, 0.5, 1.0)
    assert not shifted[0]["pass"] and shifted[1]["pass"]
    assert checks.max_z([0.0, 1e-3], [0.0, 1.0]) == 1e-3
    assert checks.max_z([1e-3], [0.0]) == math.inf


def test_ou_covariance_accepts_ou_paths_and_rejects_scaled_ones():
    rng = np.random.default_rng(0)
    gamma, dt, n = 2.0, 0.01, 200
    rho = math.exp(-gamma * dt)
    w = np.empty((400, n))
    w[:, 0] = math.sqrt(gamma / 2) * rng.standard_normal(400)
    for k in range(1, n):
        w[:, k] = rho * w[:, k - 1] + math.sqrt(gamma / 2 * (1 - rho ** 2)) * \
            rng.standard_normal(400)
    assert checks.ou_covariance(w, dt, gamma, (0, 1, 10, 50))["pass"]
    assert not checks.ou_covariance(1.2 * w, dt, gamma, (0, 1, 10, 50))["pass"]


def test_width_checks_reject_perturbed_widths():
    t = np.geomspace(0.01, 100.0, 50)
    free = np.sqrt(1.0 + (t / 2.0) ** 2)
    assert checks.free_width(t, free, 1.0, 1.0, 1.0)["pass"]
    assert not checks.free_width(t, free * (1 + 1e-6), 1.0, 1.0, 1.0)["pass"]
    assert checks.width_ordering("x", [free, free * 0.9, free * 0.8])["pass"]
    assert not checks.width_ordering("x", [free * 0.9, free])["pass"]
    assert checks.late_width("x", 1.005, 1.0)["pass"]
    assert not checks.late_width("x", 1.02, 1.0)["pass"]
    assert checks.width_vs_arbiter([1.0], [1.0 + 1e-8], 5e-4)["pass"]
    assert not checks.width_vs_arbiter([1.0], [1.0 + 1e-6], 5e-4)["pass"]


def test_gaussian_width_without_coupling_is_the_free_width():
    # f(s) = 1 - s/t at lambda = 0, so f'(0) = f'(t) = -1/t.
    m, hbar, sigma0, t = 1.0, 1.0, 1.0, 3.0
    mu = 1j * m / (2 * hbar)
    alpha0 = 1.0 / (4.0 * sigma0 ** 2)
    got = checks.gaussian_width(alpha0, mu, -1.0 / t, -1.0 / t)
    assert abs(got - math.sqrt(1.0 + (hbar * t / (2 * m * sigma0 ** 2)) ** 2)) < 1e-12


def test_same_outputs_and_oracle_bound():
    assert checks.same_outputs(["a", "a", "a"])["pass"]
    assert not checks.same_outputs(["a", "a", "b"])["pass"]
    assert checks.oracle_final(1, 1e-8)["pass"]
    assert not checks.oracle_final(1, 2e-3)["pass"]
    fc = np.linspace(1.0, 0.0, 11) + 0j
    assert checks.route_agreement("f", fc, fc * (1 + 1e-9), 0.1)["pass"]
    assert not checks.route_agreement("f", fc, fc * 1.1, 0.1)["pass"]
