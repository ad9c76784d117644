"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, runs one round of
operations per timed repetition through nmsse's public functions or its
in-process CLI, and afterwards checks the outputs (see checks.py).  The
inputs are listed in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil

import numpy as np

import nmsse
import nmsse.cli
import nmsse.ensemble
import nmsse.oracle

import checks

_FAIL = re.compile(r"^check (\S+): FAIL", re.M)


class Incorrect(Exception):
    """An operation failed in a way the benchmark does not expect."""


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for f in sorted(filenames):
            h.update(f.encode())
            with open(os.path.join(dirpath, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _read_csv(path: str):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _config(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


class Workload:
    """Shared by the workloads: out directory, in-process CLI calls, tracer."""

    name = ""
    ops_per_round = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out = out_dir
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        self.tracer = None

    def cli(self, span: str, argv: list[str], out: str):
        """Run one CLI command in-process; return (exit code, failed checks)."""
        buf = io.StringIO()
        ctx = self.tracer.span(span) if self.tracer else contextlib.nullcontext({})
        with ctx as counts, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = nmsse.cli.main(argv + ["--out", out])
        if self.tracer:
            counts["bytes"] = _dir_bytes(out)
        return rc, _FAIL.findall(buf.getvalue())

    def trace(self, tracer):
        """Wrap each layer's public functions where their callers bind them."""
        self.tracer = tracer
        ens, cli, orc = nmsse.ensemble, nmsse.cli, nmsse.oracle
        rows_nodes = lambda a, k, r: {"cells": int(np.size(r))}
        tracer.wrap(ens, "sample_exponential_noise_batch", "noise.sample", rows_nodes)
        tracer.wrap(cli, "sample_exponential_noise", "noise.sample",
                    lambda a, k, r: {"cells": int(r.values.size)})
        h_batch = lambda a, k, r: {"cells": int(np.size(a[4])),
                                   "bytes": int(sum(np.asarray(x).nbytes for x in r))}
        # values plus the two complex endpoint slopes, as in the batch form
        h_single = lambda a, k, r: {"cells": int(r.values.size),
                                    "bytes": int(r.values.nbytes + 32)}
        tracer.wrap(ens, "h_exponential_batch", "kernels.h_batch", h_batch)
        for mod in (cli, orc):
            tracer.wrap(mod, "h_exponential", "kernels.h_batch", h_single)
        for mod in (ens, cli, orc):
            tracer.wrap(mod, "f_exponential", "kernels.f")
        tracer.wrap(cli, "solve_f_numeric", "kernels.collocation")
        tracer.wrap(cli, "solve_h_numeric", "kernels.collocation")
        tracer.wrap(cli, "kernel_residual", "kernels.residual")
        ensemble_counts = lambda a, k, r: {
            "traj_horizons": int(r.n_traj * r.times.size),
            "ess_fraction_min": float(np.min(r.ess) / r.n_traj)}
        for mod in (nmsse, cli):
            tracer.wrap(mod, "run_ensemble", "ensemble.run", ensemble_counts)
        tracer.wrap(cli, "spread_curve", "propagator.spread",
                    lambda a, k, r: {"horizons": int(np.size(a[0]))})
        tracer.wrap(orc, "greens_coefficients", "propagator.greens")
        tracer.wrap(cli, "oracle_convergence", "oracle.convergence")
        tracer.wrap(orc, "oracle_coefficients", "oracle.fit")
        tracer.wrap(cli, "line_plot", "svg.plot")

    # Subclasses provide warmup(), run_round(), account(outcome) -> number
    # of expected failures (raising Incorrect on any other), checks(digests)
    # and perturbed(digests), the checks fed perturbed outputs, which must
    # all fail.

    def digest(self) -> str:
        return _digest(self.out)


def _arbiter_widths(params, gamma, grid, state0, times) -> np.ndarray:
    """Widths at the given horizons from the collocation route for f."""
    mu = 1j * params.m / (2.0 * params.hbar)
    kern = nmsse.exponential_kernel(gamma)
    out = []
    for t in times:
        sub = grid.prefix(int(round(t / grid.dt)) + 1)
        f = nmsse.solve_f_numeric(sub.t_max, params, kern, sub)
        out.append(checks.gaussian_width(state0.alpha, mu, f.d_start, f.d_end))
    return np.array(out)


class _Ensemble(Workload):
    """Shared physics of the two ensemble workloads: lambda = 0.1, gamma = 1,
    t_max = 1, N = 2001, a packet of width 1 at x0 = 1 moving with p0 = 0.5."""

    M, LAM, GAMMA, T_MAX, N, SIGMA0, X0, P0 = 1.0, 0.1, 1.0, 1.0, 2001, 1.0, 1.0, 0.5

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.params = nmsse.make_params(m=self.M, hbar=1.0, lam=self.LAM)
        self.grid = nmsse.make_grid(self.T_MAX, self.N)
        self.state0 = nmsse.gaussian_from_moments(self.X0, self.P0, self.SIGMA0,
                                                  self.params)
        self._sigma_ref = None

    def account(self, outcome) -> int:
        return 0

    def _outputs(self) -> dict:
        """times, mean_q, se_q, mean_p, se_p, sigma as arrays."""
        raise NotImplementedError

    def _checks(self, digests, q_shift=0.0, sigma_scale=1.0) -> list[dict]:
        o = self._outputs()
        if self._sigma_ref is None:
            self._sigma_ref = _arbiter_widths(self.params, self.GAMMA, self.grid,
                                              self.state0, o["times"][self.PICK])
        return checks.classical_means(
            "", o["times"], o["mean_q"] + q_shift * o["se_q"], o["se_q"],
            o["mean_p"], o["se_p"], self.X0, self.P0, self.M) + [
            checks.width_vs_arbiter(o["sigma"][self.PICK] * sigma_scale,
                                    self._sigma_ref, self.grid.dt),
            checks.same_outputs(digests),
        ]

    def checks(self, digests):
        return self._checks(digests)

    def perturbed(self, digests):
        shift = 2.0 * checks.z_bound(2 * self._outputs()["times"].size)
        return [
            self._checks(digests, q_shift=shift)[0],
            self._checks(digests, sigma_scale=1.0 + 1e-6)[2],
            checks.same_outputs(digests + ["perturbed"]),
        ]


class EnsembleHorizons(_Ensemble):
    """CLI `ensemble` at its defaults: N = 2001, 50 sample horizons."""

    name = "ensemble-horizons"
    N_TRAJ = 256
    PICK = [1, 24, 49]  # horizons checked against the collocation arbiter
    # The CLI's own classical-mean check allows 3 standard errors at each of
    # its 50 horizons, so it fails on about 3 % of seeds for a correct
    # program; the benchmark decides those with checks.classical_means.
    EMBEDDED_MEAN_CHECKS = {"classical-mean-q", "classical-mean-p"}

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        physics = dict(m=self.M, **{"lambda": self.LAM}, gamma=self.GAMMA,
                       t_max=self.T_MAX, sigma0=self.SIGMA0, x0=self.X0, p0=self.P0)
        self.cfg = _write(os.path.join(out_dir, "run.ini"),
                          _config(**physics, n_traj=self.N_TRAJ))
        self.warm_cfg = _write(os.path.join(out_dir, "warmup.ini"),
                               _config(**physics, n_traj=4, N=33, n_times=4))
        self.run_dir = os.path.join(out_dir, "ensemble")
        self.embedded_false_alarm = False

    def warmup(self):
        self.cli("cli.ensemble", ["ensemble", "--config", self.warm_cfg, "--seed",
                                  str(self.seed)], os.path.join(self.out, "warmup"))

    def run_round(self):
        return self.cli("cli.ensemble", ["ensemble", "--config", self.cfg,
                                         "--seed", str(self.seed)], self.run_dir)

    def account(self, outcome) -> int:
        rc, failed = outcome
        if rc == 1 and failed and set(failed) <= self.EMBEDDED_MEAN_CHECKS:
            self.embedded_false_alarm = True
        elif rc != 0 or failed:
            raise Incorrect(f"ensemble exited {rc}, failed checks {failed}")
        return 0

    def digest(self) -> str:
        return _digest(self.run_dir)

    def _outputs(self):
        with open(os.path.join(self.run_dir, "ensemble.json")) as fh:
            o = json.load(fh)
        return {k: np.array(o[k]) for k in
                ("times", "mean_q", "se_q", "mean_p", "se_p", "sigma")}


class EnsembleWide(_Ensemble):
    """Library `run_ensemble`: many trajectories, two sample horizons."""

    name = "ensemble-wide"
    N_TRAJ = 3000
    HORIZONS = (0.5, 1.0)
    PICK = [0, 1]
    LAGS = (0, 1, 20, 200, 1000)  # in grid steps of 5e-4

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.stats = None
        self._noise = None

    def warmup(self):
        nmsse.run_ensemble(self.params, self.GAMMA, self.state0, self.HORIZONS, 2,
                           self.seed, grid=nmsse.make_grid(self.T_MAX, 33))

    def run_round(self):
        self.stats = nmsse.run_ensemble(self.params, self.GAMMA, self.state0,
                                        self.HORIZONS, self.N_TRAJ, self.seed,
                                        grid=self.grid)
        return self.stats

    def digest(self) -> str:
        h = hashlib.sha256()
        for a in self._outputs().values():
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def _outputs(self):
        s = self.stats
        return {"times": s.times, "mean_q": s.mean_q, "se_q": s.se_q,
                "mean_p": s.mean_p, "se_p": s.se_p, "sigma": s.sigma_q,
                "v_q": s.v_q, "se_vq": s.se_vq, "ess": s.ess}

    def _noise_check(self, scale=1.0):
        if self._noise is None:
            self._noise = nmsse.sample_exponential_noise_batch(
                self.GAMMA, self.grid, self.seed, range(self.N_TRAJ))
        return checks.ou_covariance(self._noise * scale, self.grid.dt, self.GAMMA,
                                    self.LAGS)

    def checks(self, digests):
        return super().checks(digests) + [self._noise_check()]

    def perturbed(self, digests):
        return super().perturbed(digests) + [self._noise_check(scale=1.1)]


class Diagnostics(Workload):
    """CLI kernels, oracle-check over fixed seeds, spread, figure1."""

    name = "diagnostics"
    # Fixed, so the F1 failures (seeds 1, 4 and 42 here) are the same in
    # every run.
    ORACLE_SEEDS = (0, 1, 2, 3, 4, 5, 6, 42)
    # figure1's preset; the SI spread uses the same gammas
    SI_GAMMAS = (2.0, 10.0, 100.0, math.inf)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        j = lambda name: os.path.join(out_dir, name)
        scaled = dict(m=1.0, **{"lambda": 0.1}, gamma=1.0, t_max=1.0, sigma0=1.0)
        self.kernels_cfg = _write(j("kernels.ini"), _config(**scaled))
        self.warm_cfg = _write(j("warmup.ini"), _config(**scaled, N=17))
        self.spread_cfg = _write(j("spread.ini"), _config(
            m=1.0, **{"lambda": 0.01}, gamma=", ".join(f"{g:g}" for g in self.SI_GAMMAS),
            unit_mode="si", sigma0=1.0, t_min=1.0, t_max=4e18, n_times=2000,
            log_times="true"))
        self.free_cfg = _write(j("free.ini"), _config(
            m=1.0, **{"lambda": 0.0}, gamma="1, inf", sigma0=1.0, t_min=0.01,
            t_max=100.0, n_times=200, log_times="true"))
        self.ops = [("cli.kernels", "kernels", ["kernels", "--config", self.kernels_cfg,
                                                "--seed", str(seed)])]
        self.ops += [("cli.oracle_check", f"oracle-{s}",
                      ["oracle-check", "--config", self.kernels_cfg, "--seed", str(s)])
                     for s in self.ORACLE_SEEDS]
        self.ops += [
            ("cli.spread", "spread", ["spread", "--config", self.spread_cfg]),
            ("cli.spread", "free", ["spread", "--config", self.free_cfg]),
            ("cli.figure1", "figure1", ["figure1"]),
        ]
        self.ops_per_round = len(self.ops)

    def warmup(self):
        self.cli("cli.kernels", ["kernels", "--config", self.warm_cfg],
                 os.path.join(self.out, "warmup"))

    def run_round(self):
        return [(d, self.cli(span, argv, os.path.join(self.out, d)))
                for span, d, argv in self.ops]

    def _oracle_errors(self, seed) -> np.ndarray:
        _, rows = _read_csv(os.path.join(self.out, f"oracle-{seed}", "oracle.csv"))
        return rows[:, -1]

    def account(self, outcome) -> int:
        failed = 0
        for d, (rc, fails) in outcome:
            if d.startswith("oracle-"):
                errs = self._oracle_errors(int(d.split("-")[1]))
                decreasing = bool(np.all(np.diff(errs) < 0))
                # F1: only the monotone-decrease check fails, and the table
                # the command wrote shows the same non-monotone errors.
                if rc == 1 and fails == ["oracle-error-decreasing"] and not decreasing:
                    failed += 1
                    continue
                if rc == 0 and not fails and decreasing:
                    continue
            elif rc == 0 and not fails:
                continue
            raise Incorrect(f"{d} exited {rc}, failed checks {fails}")
        return failed

    def _spread_checks(self, label, csv, late_scale=1.0, swap=False):
        header, rows = _read_csv(os.path.join(self.out, csv))
        curves = [rows[:, header.index(f"sigma[g={g:g}]")] for g in self.SI_GAMMAS]
        if swap:
            curves[0], curves[-1] = curves[-1], curves[0]
        params = nmsse.make_params(m=1.0, hbar=nmsse.HBAR_SI, lam=0.01, unit_mode="SI")
        out = [checks.width_ordering(label, curves)]
        for g, c in zip(self.SI_GAMMAS, curves):
            out.append(checks.late_width(f"{label},g={g:g}", c[-1] * late_scale,
                                         nmsse.asymptotic_spread(params, g)))
        return out

    def _kernel_checks(self, colloc_scale=1.0):
        _, d = _read_csv(os.path.join(self.out, "kernels", "kernels.csv"))
        dt = d[1, 0] - d[0, 0]
        c = lambda i: d[:, i] + 1j * d[:, i + 1]
        return [checks.route_agreement("f", c(1), c(5) * colloc_scale, dt),
                checks.route_agreement("h", c(3), c(7) * colloc_scale, dt)]

    def _free_check(self, scale=1.0):
        header, rows = _read_csv(os.path.join(self.out, "free", "spread.csv"))
        sigma = rows[:, header.index("sigma[g=1]")] * scale
        return checks.free_width(rows[:, 0], sigma, 1.0, 1.0, 1.0)

    def checks(self, digests):
        out = [self._free_check()]
        out += self._spread_checks("spread", "spread/spread.csv")
        out += self._spread_checks("figure1", "figure1/figure1.csv")
        out += self._kernel_checks()
        out += [checks.oracle_final(s, self._oracle_errors(s)[-1])
                for s in self.ORACLE_SEEDS]
        out.append(checks.same_outputs(digests))
        return out

    def perturbed(self, digests):
        return [
            self._free_check(scale=1.0 + 1e-6),
            self._spread_checks("spread", "spread/spread.csv", swap=True)[0],
            self._spread_checks("spread", "spread/spread.csv", late_scale=1.02)[1],
            *self._kernel_checks(colloc_scale=1.0 + 1e-5),
            checks.oracle_final(42, 2e-3),
            checks.same_outputs(digests + ["perturbed"]),
        ]


WORKLOADS = {w.name: w for w in (EnsembleHorizons, EnsembleWide, Diagnostics)}
