"""Command-line drivers: config parsing, named experiments, data export.

Subcommands
    spread        noise-free position spread sigma(t), one curve per gamma
    ensemble      Monte Carlo trajectory statistics (physical measure)
    kernels       boundary-kernel dump with closed-form vs collocation check
    oracle-check  discretized-propagator comparison and convergence table
    figure1       preset SI-units spread run over gamma in {2, 10, 100, inf}

Config files are INI-style ``key = value`` lines with ``#`` comments.
Recognized keys (others are rejected):

    m, lambda, gamma, t_max, sigma0     required
    hbar         default 1.0 (scaled) or 1.0545718e-34 (si)
    unit_mode    scaled | si            default scaled
    x0, p0       initial mean position and momentum, default 0
    N            grid node count, default 2001
    n_times      number of sample times, default 50
    t_min        first sample time (spread only)
    log_times    true | false, default false
    n_traj       ensemble size, default 1
    master_seed  noise seed, default 42
    out_dir      output directory, default .
    format       csv | json | both, default both

``gamma`` accepts a comma list for spread (one curve per value) and the
literal ``inf``, which routes to the white-noise closed forms.  The other
subcommands require a single finite gamma.

Exit status is 0 iff every requested output was written and every embedded
check passed; config and parameter errors exit 2, check failures exit 1.
Identical config and seed produce byte-identical CSV/JSON/SVG outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import json
import os
import sys
from statistics import NormalDist

import numpy as np

from ._svg import line_plot
from .core import (
    HBAR_SI,
    InvalidGridError,
    InvalidParameterError,
    PhysicalParams,
    TimeGrid,
    make_grid,
    make_params,
)
from .ensemble import _sample_node_indices, run_ensemble
from .kernels import (
    characteristic_roots,
    f_exponential,
    h_exponential,
    kernel_residual,
    solve_f_numeric,
    solve_h_numeric,
)
from .noise import exponential_kernel, sample_exponential_noise
from .oracle import oracle_convergence
from .propagator import asymptotic_spread, gaussian_from_moments, spread_curve

_ORACLE_LEVELS = (64, 128, 256, 512)
# False-alarm rate of the whole classical-mean check of one ensemble run.
_MEAN_FALSE_ALARM = 1e-6


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully validated run parameters, one instance per CLI invocation."""

    m: float
    hbar: float
    lam: float
    gammas: tuple[float, ...]
    unit_mode: str
    sigma0: float
    x0: float
    p0: float
    t_max: float
    t_min: float | None
    n_times: int
    n_nodes: int
    log_times: bool
    n_traj: int
    master_seed: int
    out_dir: str
    fmt: str

    def build_params(self) -> PhysicalParams:
        return make_params(m=self.m, hbar=self.hbar, lam=self.lam,
                           unit_mode=self.unit_mode)

    def build_grid(self) -> TimeGrid:
        return make_grid(self.t_max, self.n_nodes)

    def single_gamma(self, command: str) -> float:
        if len(self.gammas) != 1:
            raise ConfigError(
                f"{command} needs a single gamma, got {len(self.gammas)} values"
            )
        g = self.gammas[0]
        if math.isinf(g):
            raise ConfigError(
                f"{command} needs a finite gamma; inf is only meaningful for "
                "the noise-free spread commands"
            )
        return g


_KNOWN_KEYS = {
    "m", "hbar", "lambda", "gamma", "unit_mode", "sigma0", "x0", "p0",
    "t_max", "t_min", "n_times", "N", "log_times", "n_traj", "master_seed",
    "out_dir", "format",
}
_REQUIRED_KEYS = ("m", "lambda", "gamma", "t_max", "sigma0")


def parse_config(text: str) -> RunConfig:
    """Parse and validate an INI-style config, rejecting anything unknown."""
    raw: dict[str, tuple[int, str]] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {ln}: expected `key = value`, got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {ln}: empty value for {key!r}")
        raw[key] = (ln, value)

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    def _float(key: str, default: float | None = None) -> float | None:
        if key not in raw:
            return default
        ln, value = raw[key]
        try:
            return float(value)
        except ValueError:
            raise ConfigError(
                f"line {ln}: malformed number for {key!r}: {value!r}"
            ) from None

    def _int(key: str, default: int) -> int:
        if key not in raw:
            return default
        ln, value = raw[key]
        try:
            return int(value)
        except ValueError:
            raise ConfigError(
                f"line {ln}: malformed integer for {key!r}: {value!r}"
            ) from None

    def _bool(key: str, default: bool) -> bool:
        if key not in raw:
            return default
        ln, value = raw[key]
        low = value.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"line {ln}: malformed boolean for {key!r}: {value!r}")

    unit_raw = raw.get("unit_mode", (0, "scaled"))[1].strip()
    if unit_raw.lower() == "scaled":
        unit_mode = "scaled"
    elif unit_raw.lower() == "si":
        unit_mode = "SI"
    else:
        raise ConfigError(
            f"unit_mode must be 'scaled' or 'si', got {unit_raw!r}"
        )

    hbar = _float("hbar", HBAR_SI if unit_mode == "SI" else 1.0)

    ln_g, gamma_raw = raw["gamma"]
    gammas = []
    for tok in gamma_raw.split(","):
        tok = tok.strip()
        if tok.lower() in ("inf", "infinity"):
            gammas.append(math.inf)
            continue
        try:
            g = float(tok)
        except ValueError:
            raise ConfigError(
                f"line {ln_g}: malformed gamma value {tok!r}"
            ) from None
        if not (math.isfinite(g) and g > 0):
            raise ConfigError(
                f"line {ln_g}: gamma values must be positive, got {tok!r}"
            )
        gammas.append(g)
    if not gammas:
        raise ConfigError(f"line {ln_g}: gamma list is empty")

    fmt = raw.get("format", (0, "both"))[1].strip().lower()
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"format must be csv, json or both, got {fmt!r}")

    cfg = RunConfig(
        m=_float("m"),
        hbar=hbar,
        lam=_float("lambda"),
        gammas=tuple(gammas),
        unit_mode=unit_mode,
        sigma0=_float("sigma0"),
        x0=_float("x0", 0.0),
        p0=_float("p0", 0.0),
        t_max=_float("t_max"),
        t_min=_float("t_min", None),
        n_times=_int("n_times", 50),
        n_nodes=_int("N", 2001),
        log_times=_bool("log_times", False),
        n_traj=_int("n_traj", 1),
        master_seed=_int("master_seed", 42),
        out_dir=raw.get("out_dir", (0, "."))[1],
        fmt=fmt,
    )

    try:
        cfg.build_params()
        cfg.build_grid()
    except (InvalidParameterError, InvalidGridError) as e:
        raise ConfigError(str(e)) from None
    if not (math.isfinite(cfg.sigma0) and cfg.sigma0 > 0):
        raise ConfigError(f"sigma0 must be positive, got {cfg.sigma0!r}")
    for key, val in (("x0", cfg.x0), ("p0", cfg.p0)):
        if not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val!r}")
    if cfg.n_times < 1:
        raise ConfigError(f"n_times must be >= 1, got {cfg.n_times}")
    if cfg.n_traj < 1:
        raise ConfigError(f"n_traj must be >= 1, got {cfg.n_traj}")
    if not 0 <= cfg.master_seed < 2 ** 64:
        raise ConfigError(f"master_seed must fit in 64 bits, got {cfg.master_seed}")
    if cfg.t_min is not None and not 0.0 < cfg.t_min < cfg.t_max:
        raise ConfigError(
            f"t_min must lie in (0, t_max), got {cfg.t_min!r}"
        )
    return cfg


class _Checks:
    """Collects embedded pass/fail checks; any failure flips the exit code."""

    def __init__(self):
        self.failed: list[str] = []

    def record(self, name: str, ok: bool, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        print(f"check {name}: {'PASS' if ok else 'FAIL'}{suffix}")
        if not ok:
            self.failed.append(name)


def _write_text(out_dir: str, filename: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")
    return path


def _gamma_label(g: float) -> str:
    return "inf" if math.isinf(g) else "%g" % g


def _sample_times(cfg: RunConfig) -> np.ndarray:
    if cfg.log_times:
        lo = cfg.t_min if cfg.t_min is not None else cfg.t_max * 1e-6
        return np.geomspace(lo, cfg.t_max, cfg.n_times)
    lo = cfg.t_min if cfg.t_min is not None else cfg.t_max / cfg.n_times
    return np.linspace(lo, cfg.t_max, cfg.n_times)


def _row(values) -> str:
    return ",".join("%.17g" % v for v in values)


def cmd_spread(cfg: RunConfig, checks: _Checks, plot: str, stem: str = "spread"):
    """Noise-free spread curves, one per gamma, with asymptote columns.

    Embedded checks: every sigma is finite and positive, and curves for
    larger gamma sit pointwise at or below curves for smaller gamma (a tiny
    relative tolerance absorbs the late-time regime where all curves have
    converged to the same asymptote and differ only in rounding).
    """
    params = cfg.build_params()
    times = _sample_times(cfg)
    curves = {}
    asymptotes = {}
    for g in cfg.gammas:
        curves[g] = spread_curve(times, params, g, cfg.sigma0)
        asymptotes[g] = (
            asymptotic_spread(params, g) if cfg.lam > 0 else math.inf
        )

    labels = [_gamma_label(g) for g in cfg.gammas]
    if len(cfg.gammas) == 1:
        header = "t,sigma,sigma_inf"
        cols = [curves[cfg.gammas[0]], np.full_like(times, asymptotes[cfg.gammas[0]])]
    else:
        header = "t," + ",".join(
            f"sigma[g={lab}],sigma_inf[g={lab}]" for lab in labels
        )
        cols = []
        for g in cfg.gammas:
            cols.append(curves[g])
            cols.append(np.full_like(times, asymptotes[g]))
    lines = [header]
    for i, t in enumerate(times):
        lines.append(_row([t] + [c[i] for c in cols]))
    csv_text = "\n".join(lines) + "\n"

    payload = {
        "t": times.tolist(),
        "curves": {
            lab: {
                "sigma": curves[g].tolist(),
                "sigma_inf": asymptotes[g],
            }
            for g, lab in zip(cfg.gammas, labels)
        },
        "unit_mode": cfg.unit_mode,
        "sigma0": cfg.sigma0,
    }
    json_text = json.dumps(payload, sort_keys=True) + "\n"

    if cfg.fmt in ("csv", "both"):
        _write_text(cfg.out_dir, f"{stem}.csv", csv_text)
    if cfg.fmt in ("json", "both"):
        _write_text(cfg.out_dir, f"{stem}.json", json_text)

    for g, lab in zip(cfg.gammas, labels):
        vals = curves[g]
        checks.record(
            f"sigma-positive[g={lab}]",
            bool(np.all(np.isfinite(vals)) and np.all(vals > 0)),
            f"min {vals.min():.6g}",
        )
    order = sorted(range(len(cfg.gammas)), key=lambda i: cfg.gammas[i])
    for a, b in zip(order, order[1:]):
        small, large = cfg.gammas[a], cfg.gammas[b]
        ok = bool(np.all(curves[large] <= curves[small] * (1.0 + 1e-12)))
        worst = float(np.max(curves[large] / curves[small] - 1.0))
        checks.record(
            f"ordering[g={_gamma_label(large)}<=g={_gamma_label(small)}]",
            ok,
            f"max excess {worst:.3g}",
        )

    if plot == "svg":
        series = [
            (f"gamma = {lab}", times, curves[g], "solid")
            for g, lab in zip(cfg.gammas, labels)
        ]
        hlines = [
            (f"asymptote g={lab}", asymptotes[g])
            for g, lab in zip(cfg.gammas, labels)
            if math.isfinite(asymptotes[g])
        ]
        log_y = bool(
            all(np.all(c > 0) for c in curves.values())
            and max(float(c.max()) for c in curves.values())
            > 100 * min(float(c.min()) for c in curves.values())
        )
        svg = line_plot(
            series,
            title="Position spread under collapse dynamics",
            xlabel=f"t [{ 's' if cfg.unit_mode == 'SI' else 'scaled units'}]",
            ylabel=f"sigma(t) [{'m' if cfg.unit_mode == 'SI' else 'scaled units'}]",
            log_x=cfg.log_times,
            log_y=log_y,
            hlines=hlines,
            data_comment=csv_text.rstrip("\n"),
        )
        _write_text(cfg.out_dir, f"{stem}.svg", svg)


def cmd_figure1(args, checks: _Checks):
    """Preset SI-units spread reconstruction over gamma in {2, 10, 100, inf}.

    The per-curve memory rates of the figure this run mirrors are not all
    unambiguous, so the set here is a documented representative choice, not
    a pixel match.  Time window 1 s to 4e18 s, log spaced, chosen to show
    the full drop from sigma(0) = 1 m to the common finite asymptote.
    """
    cfg = RunConfig(
        m=1.0,
        hbar=HBAR_SI,
        lam=1e-2,
        gammas=(2.0, 10.0, 100.0, math.inf),
        unit_mode="SI",
        sigma0=1.0,
        x0=0.0,
        p0=0.0,
        t_max=4e18,
        t_min=1.0,
        n_times=args.n_times if args.n_times is not None else 50,
        n_nodes=2001,
        log_times=True,
        n_traj=1,
        master_seed=args.seed if args.seed is not None else 42,
        out_dir=args.out if args.out is not None else ".",
        fmt=args.format if args.format is not None else "both",
    )
    print(
        "figure1 preset: SI units, m=1, lambda=0.01, sigma0=1, "
        "gamma in {2, 10, 100, inf} (representative reconstruction)"
    )
    cmd_spread(cfg, checks, args.plot, stem="figure1")


def cmd_kernels(cfg: RunConfig, checks: _Checks, plot: str):
    """Dump both kernels and cross-validate closed form against collocation.

    Embedded checks: boundary values, characteristic-root invariants,
    agreement between the two independent solution routes, and the closed
    forms' defect under the discrete operator (quadrature-limited).  The
    collocation route's own residual is reported without a threshold; it
    reflects linear-solver backward error, which grows on finer grids.
    """
    gamma = cfg.single_gamma("kernels")
    params = cfg.build_params()
    grid = cfg.build_grid()
    t = grid.t_max
    s = grid.nodes()

    f_c = f_exponential(t, params, gamma, grid)
    noise = sample_exponential_noise(gamma, grid, cfg.master_seed, 0)
    h_c = h_exponential(t, params, gamma, noise)
    kern = exponential_kernel(gamma)
    f_n = solve_f_numeric(t, params, kern, grid)
    h_n = solve_h_numeric(t, params, kern, noise)

    f_scale = float(np.max(np.abs(f_c.values)))
    h_scale = float(max(np.max(np.abs(h_c.values)), 1e-300))
    dev_f = float(np.max(np.abs(f_c.values - f_n.values))) / f_scale
    dev_h = float(np.max(np.abs(h_c.values - h_n.values))) / h_scale
    res_fc = kernel_residual(f_c, params, kern)
    res_hc = kernel_residual(h_c, params, kern, noise)
    res_fn = kernel_residual(f_n, params, kern)
    res_hn = kernel_residual(h_n, params, kern, noise)

    header = "s,f_re,f_im,h_re,h_im,f_colloc_re,f_colloc_im,h_colloc_re,h_colloc_im"
    lines = [header]
    for i in range(grid.n):
        lines.append(_row([
            s[i],
            f_c.values[i].real, f_c.values[i].imag,
            h_c.values[i].real, h_c.values[i].imag,
            f_n.values[i].real, f_n.values[i].imag,
            h_n.values[i].real, h_n.values[i].imag,
        ]))
    csv_text = "\n".join(lines) + "\n"

    roots = characteristic_roots(gamma, params.omega_collapse)
    report = {
        "t": t,
        "gamma": gamma,
        "boundary": {
            "f_start": [f_c.values[0].real, f_c.values[0].imag],
            "f_end": [f_c.values[-1].real, f_c.values[-1].imag],
            "h_start": [h_c.values[0].real, h_c.values[0].imag],
            "h_end": [h_c.values[-1].real, h_c.values[-1].imag],
        },
        "derivatives": {
            "f_d_start": [f_c.d_start.real, f_c.d_start.imag],
            "f_d_end": [f_c.d_end.real, f_c.d_end.imag],
            "h_d_start": [h_c.d_start.real, h_c.d_start.imag],
            "h_d_end": [h_c.d_end.real, h_c.d_end.imag],
        },
        "roots": {
            "upsilon1": [roots.upsilon1.real, roots.upsilon1.imag],
            "upsilon2": [roots.upsilon2.real, roots.upsilon2.imag],
        },
        "route_deviation": {"f": dev_f, "h": dev_h},
        "closed_form_residual": {"f": res_fc, "h": res_hc},
        "collocation_residual": {"f": res_fn, "h": res_hn},
        "master_seed": cfg.master_seed,
    }
    json_text = json.dumps(report, sort_keys=True, indent=2) + "\n"

    if cfg.fmt in ("csv", "both"):
        _write_text(cfg.out_dir, "kernels.csv", csv_text)
    if cfg.fmt in ("json", "both"):
        _write_text(cfg.out_dir, "kernels_report.json", json_text)

    checks.record("f-boundary", abs(f_c.values[0] - 1.0) <= 1e-10
                  and abs(f_c.values[-1]) <= 1e-10)
    checks.record("h-boundary", abs(h_c.values[0]) <= 1e-10 * h_scale
                  and abs(h_c.values[-1]) <= 1e-10 * h_scale)
    sum_sq = roots.upsilon1 ** 2 + roots.upsilon2 ** 2
    checks.record(
        "root-sum-invariant",
        abs(sum_sq - gamma ** 2) <= 1e-12 * gamma ** 2,
        f"rel dev {abs(sum_sq - gamma ** 2) / gamma ** 2:.3g}",
    )
    if params.lam > 0:
        prod_sq = roots.upsilon1 ** 2 * roots.upsilon2 ** 2
        want = 1j * gamma ** 2 * params.omega_collapse_sq
        checks.record(
            "root-product-invariant",
            abs(prod_sq - want) <= 1e-12 * abs(want),
            f"rel dev {abs(prod_sq - want) / abs(want):.3g}",
        )
    checks.record("route-agreement-f", dev_f <= 1e-4, f"sup rel dev {dev_f:.3g}")
    checks.record("route-agreement-h", dev_h <= 1e-4, f"sup rel dev {dev_h:.3g}")
    # The closed forms are exact, so their residual under the discrete
    # operator is pure quadrature truncation, O((gamma dt)^2).
    res_cap = max(1e-8, 5.0 * (gamma * grid.dt) ** 2)
    checks.record("closed-form-residual", max(res_fc, res_hc) <= res_cap,
                  f"max {max(res_fc, res_hc):.3g}, cap {res_cap:.3g}")

    if plot == "svg":
        series = [
            ("Re f", s, f_c.values.real, "solid"),
            ("Im f", s, f_c.values.imag, "solid"),
            ("Re h", s, h_c.values.real, "dashed"),
            ("Im h", s, h_c.values.imag, "dashed"),
        ]
        svg = line_plot(
            series,
            title=f"Boundary kernels, gamma = {_gamma_label(gamma)}",
            xlabel="s",
            ylabel="kernel value",
            data_comment=csv_text.rstrip("\n"),
        )
        _write_text(cfg.out_dir, "kernels.svg", svg)


def cmd_oracle_check(cfg: RunConfig, checks: _Checks, plot: str):
    """Compare the analytic endpoint coefficients to the path-sum oracle.

    Runs the oracle at segment counts 64..512 against one fixed noise path
    and requires the maximum relative coefficient error to decrease at
    every refinement and to end at or below 1e-3.
    """
    gamma = cfg.single_gamma("oracle-check")
    params = cfg.build_params()
    grid = make_grid(cfg.t_max, _ORACLE_LEVELS[-1] + 1)
    noise = sample_exponential_noise(gamma, grid, cfg.master_seed, 0)
    table = oracle_convergence(cfg.t_max, params, gamma, noise,
                               levels=_ORACLE_LEVELS)

    lines = ["n_segments,err_A,err_B,err_C,err_D,err_E,err_max"]
    for report, errs, err_max in table:
        lines.append(_row([
            report.n_segments,
            errs["A"], errs["B"], errs["C"], errs["D"], errs["E"], err_max,
        ]))
    csv_text = "\n".join(lines) + "\n"

    payload = {
        "levels": [
            {
                "n_segments": report.n_segments,
                "coefficients": json.loads(report.coefficients.to_json()),
                "errors": errs,
                "err_max": err_max,
                "probe_residual": report.probe_residual,
                "condition_estimate": report.condition_estimate,
                "diag_asymmetry": report.diag_asymmetry,
            }
            for report, errs, err_max in table
        ],
        "gamma": gamma,
        "t": cfg.t_max,
        "master_seed": cfg.master_seed,
    }
    json_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"

    if cfg.fmt in ("csv", "both"):
        _write_text(cfg.out_dir, "oracle.csv", csv_text)
    if cfg.fmt in ("json", "both"):
        _write_text(cfg.out_dir, "oracle.json", json_text)

    maxes = [err_max for _, _, err_max in table]
    checks.record(
        "oracle-error-decreasing",
        all(b < a for a, b in zip(maxes, maxes[1:])),
        " -> ".join("%.3g" % v for v in maxes),
    )
    checks.record("oracle-final-error", maxes[-1] <= 1e-3,
                  f"{maxes[-1]:.3g} at N={_ORACLE_LEVELS[-1]}")

    if plot == "svg":
        ns = [float(r.n_segments) for r, _, _ in table]
        svg = line_plot(
            [("max rel error", ns, maxes, "solid")],
            title="Path-sum oracle convergence",
            xlabel="segments",
            ylabel="max relative error",
            log_x=True,
            log_y=True,
            data_comment=csv_text.rstrip("\n"),
        )
        _write_text(cfg.out_dir, "oracle.svg", svg)


def _check_classical_means(checks: _Checks, stats, cfg: RunConfig):
    """Physical-measure means against the classical motion.

    The mean position must track x0 + p0 t / m and the mean momentum stay
    at p0 at every sample time, within a z-bound sized for the 2 * n_times
    tests: a false alarm of 1e-6 for the whole run (two-sided, Bonferroni),
    5.73 standard errors at 50 sample times.  A zero standard error passes
    only on exact agreement.
    """
    bound = NormalDist().inv_cdf(1.0 - _MEAN_FALSE_ALARM / (2.0 * 2.0 * stats.times.size))

    def max_dev(diff, se):
        worst = 0.0
        for d, e in zip(np.abs(diff), se):
            if e > 0:
                worst = max(worst, d / e)
            elif d > 1e-12 * max(1.0, abs(cfg.x0) + abs(cfg.p0)):
                return math.inf
        return worst

    dq = max_dev(stats.mean_q - (cfg.x0 + cfg.p0 * stats.times / cfg.m), stats.se_q)
    dp = max_dev(stats.mean_p - cfg.p0, stats.se_p)
    checks.record("classical-mean-q", dq <= bound, f"max dev {dq:.2f} SE, bound {bound:.2f}")
    checks.record("classical-mean-p", dp <= bound, f"max dev {dp:.2f} SE, bound {bound:.2f}")


def cmd_ensemble(cfg: RunConfig, checks: _Checks, plot: str):
    """Run a trajectory ensemble and test the classical-mean property.

    Embedded checks (skipped at n_traj = 1, which has no standard errors):
    see _check_classical_means.
    """
    gamma = cfg.single_gamma("ensemble")
    params = cfg.build_params()
    grid = cfg.build_grid()
    state0 = gaussian_from_moments(cfg.x0, cfg.p0, cfg.sigma0, params)
    idx = _sample_node_indices(grid, cfg.n_times, cfg.log_times)
    t_samples = grid.nodes()[idx]
    stats = run_ensemble(params, gamma, state0, t_samples, cfg.n_traj,
                         cfg.master_seed, grid=grid)

    if cfg.fmt in ("csv", "both"):
        _write_text(cfg.out_dir, "ensemble.csv", stats.to_csv())
    if cfg.fmt in ("json", "both"):
        _write_text(cfg.out_dir, "ensemble.json", stats.to_json() + "\n")

    classical = cfg.x0 + cfg.p0 * stats.times / cfg.m
    if cfg.n_traj >= 2:
        _check_classical_means(checks, stats, cfg)
        print(f"effective sample size at t_max: {stats.ess[-1]:.0f} of {cfg.n_traj}")
    else:
        print("check classical-mean: SKIP (n_traj = 1 has no standard errors)")

    if plot == "svg":
        series = [
            ("mean position", stats.times, stats.mean_q, "solid"),
            ("classical x0 + p0 t / m", stats.times, classical, "dashed"),
            ("spread sigma(t)", stats.times, stats.sigma_q, "solid"),
        ]
        svg = line_plot(
            series,
            title=f"Ensemble statistics, n = {cfg.n_traj}",
            xlabel="t",
            ylabel="position",
            log_x=cfg.log_times,
            data_comment=stats.to_csv().rstrip("\n"),
        )
        _write_text(cfg.out_dir, "ensemble.svg", svg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmsse",
        description="Exact dynamics of a free particle under "
                    "memory-carrying collapse noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, metavar="PATH",
                           help="INI-style config file")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="master noise seed (overrides config)")
        p.add_argument("--format", choices=("csv", "json", "both"),
                       default=None, help="output formats (overrides config)")
        p.add_argument("--plot", choices=("svg", "none"), default="svg",
                       help="emit static SVG plots (default svg)")

    common(sub.add_parser(
        "spread", help="noise-free spread curves sigma(t) per gamma"))
    common(sub.add_parser(
        "ensemble", help="Monte Carlo trajectory statistics"))
    common(sub.add_parser(
        "kernels", help="kernel dump with cross-route validation"))
    common(sub.add_parser(
        "oracle-check", help="path-sum oracle comparison and convergence"))
    fig = sub.add_parser(
        "figure1",
        help="preset SI spread run, gamma in {2, 10, 100, inf}")
    fig.add_argument("--n-times", type=int, default=None, dest="n_times",
                     help="sample count for the preset window (default 50)")
    common(fig, config_required=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    checks = _Checks()
    try:
        if args.command == "figure1":
            cmd_figure1(args, checks)
        else:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as e:
                print(f"config error: {e}", file=sys.stderr)
                return 2
            cfg = parse_config(text)
            if args.seed is not None:
                if not 0 <= args.seed < 2 ** 64:
                    print("config error: --seed must fit in 64 bits",
                          file=sys.stderr)
                    return 2
                cfg = dataclasses.replace(cfg, master_seed=args.seed)
            if args.out is not None:
                cfg = dataclasses.replace(cfg, out_dir=args.out)
            if args.format is not None:
                cfg = dataclasses.replace(cfg, fmt=args.format)
            if args.command == "spread":
                cmd_spread(cfg, checks, args.plot)
            elif args.command == "ensemble":
                cmd_ensemble(cfg, checks, args.plot)
            elif args.command == "kernels":
                cmd_kernels(cfg, checks, args.plot)
            elif args.command == "oracle-check":
                cmd_oracle_check(cfg, checks, args.plot)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (InvalidParameterError, InvalidGridError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1

    if checks.failed:
        print(f"FAILED checks: {', '.join(checks.failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
