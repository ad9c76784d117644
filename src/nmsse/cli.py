"""Command-line drivers: config parsing, named experiments, data export.

This module owns every output format: the library returns records of
arrays, and only the writers here turn them into CSV, JSON and SVG.

Subcommands
    spread        noise-free position spread sigma(t), one curve per gamma
    ensemble      Monte Carlo trajectory statistics (physical measure)
    kernels       boundary-kernel dump with closed-form vs collocation check
    oracle-check  discretized-propagator comparison and convergence table
    figure1       spread on a preset SI config, gamma in {2, 10, 100, inf},
                  writing figure1.* files; --n-times sets its n_times

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

Flags override keys of the config (or of figure1's preset) and are validated
like them: --seed sets master_seed, --out out_dir, --format format and
--n-times n_times.

Exit status is 0 iff every requested output was written and every embedded
check passed; config and parameter errors exit 2, check failures exit 1.
Identical config and seed produce byte-identical CSV/JSON/SVG outputs.
The JSON files are strict JSON: a value with no finite form (the spread
asymptote at lambda = 0) is written as null.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
from .ensemble import run_ensemble
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


def _float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"malformed number for {key!r}: {value!r}") from None


def _int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"malformed integer for {key!r}: {value!r}") from None


def _bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"malformed boolean for {key!r}: {value!r}")


def _gammas(key: str, value: str) -> tuple[float, ...]:
    gammas = []
    for tok in value.split(","):
        tok = tok.strip()
        try:
            g = float(tok)  # reads "inf", the white-noise limit, too
        except ValueError:
            raise ConfigError(f"malformed gamma value {tok!r}") from None
        if not g > 0:
            raise ConfigError(f"gamma values must be positive, got {tok!r}")
        gammas.append(g)
    return tuple(gammas)


def _unit_mode(key: str, value: str) -> str:
    mode = {"scaled": "scaled", "si": "SI"}.get(value.lower())
    if mode is None:
        raise ConfigError(f"unit_mode must be 'scaled' or 'si', got {value!r}")
    return mode


def _fmt(key: str, value: str) -> str:
    fmt = value.lower()
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"format must be csv, json or both, got {fmt!r}")
    return fmt


_REQUIRED = object()
# config key -> (RunConfig field, reader, default); a hbar of None follows
# unit_mode: HBAR_SI in SI units, 1 in scaled units
_KEYS = {
    "m": ("m", _float, _REQUIRED),
    "hbar": ("hbar", _float, None),
    "lambda": ("lam", _float, _REQUIRED),
    "gamma": ("gammas", _gammas, _REQUIRED),
    "unit_mode": ("unit_mode", _unit_mode, "scaled"),
    "sigma0": ("sigma0", _float, _REQUIRED),
    "x0": ("x0", _float, 0.0),
    "p0": ("p0", _float, 0.0),
    "t_max": ("t_max", _float, _REQUIRED),
    "t_min": ("t_min", _float, None),
    "n_times": ("n_times", _int, 50),
    "N": ("n_nodes", _int, 2001),
    "log_times": ("log_times", _bool, False),
    "n_traj": ("n_traj", _int, 1),
    "master_seed": ("master_seed", _int, 42),
    "out_dir": ("out_dir", lambda key, value: value, "."),
    "format": ("fmt", _fmt, "both"),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate an INI-style config, rejecting anything unknown."""
    fields = {}
    for ln, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {ln}: expected `key = value`, got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        field, read, _ = _KEYS[key]
        if field in fields:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {ln}: empty value for {key!r}")
        try:
            fields[field] = read(key, value)
        except ConfigError as e:
            raise ConfigError(f"line {ln}: {e}") from None

    for key, (field, _, default) in _KEYS.items():
        if field not in fields and default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        fields.setdefault(field, default)
    if fields["hbar"] is None:
        fields["hbar"] = HBAR_SI if fields["unit_mode"] == "SI" else 1.0
    return _validated(RunConfig(**fields))


def _validated(cfg: RunConfig) -> RunConfig:
    """Return cfg if every value is in range, else raise ConfigError."""
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


def _write_text(out_dir: str, filename: str, text: str):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _write_data(cfg: RunConfig, csv_name: str, csv_text: str,
                json_name: str, payload: dict, indent: int | None = None):
    """Write the CSV table and the JSON payload that cfg.fmt asks for."""
    if cfg.fmt in ("csv", "both"):
        _write_text(cfg.out_dir, csv_name, csv_text)
    if cfg.fmt in ("json", "both"):
        _write_text(cfg.out_dir, json_name,
                    json.dumps(payload, sort_keys=True, indent=indent) + "\n")


def _write_svg(cfg: RunConfig, plot: str, name: str, csv_text: str, series, **plot_kw):
    """Write the series as an SVG plot carrying the CSV table, unless plot is none."""
    if plot == "svg":
        svg = line_plot(series, data_comment=csv_text.rstrip("\n"), **plot_kw)
        _write_text(cfg.out_dir, name, svg)


def _gamma_label(g: float) -> str:
    return "inf" if math.isinf(g) else "%g" % g


def _sample_times(cfg: RunConfig) -> np.ndarray:
    if cfg.log_times:
        lo = cfg.t_min if cfg.t_min is not None else cfg.t_max * 1e-6
        return np.geomspace(lo, cfg.t_max, cfg.n_times)
    lo = cfg.t_min if cfg.t_min is not None else cfg.t_max / cfg.n_times
    return np.linspace(lo, cfg.t_max, cfg.n_times)


def _sample_node_indices(grid: TimeGrid, n_times: int, log_times: bool) -> np.ndarray:
    """Pick n_times node indices in (0, t_max], linearly or log spaced.

    Indices are snapped to the grid and deduplicated, so the result may be
    shorter than requested on coarse grids.
    """
    if not 1 <= n_times <= grid.n - 1:
        raise InvalidGridError(
            f"n_times {n_times} outside [1, {grid.n - 1}] for this grid"
        )
    if log_times:
        targets = np.geomspace(grid.dt, grid.t_max, n_times)
    else:
        targets = np.linspace(grid.dt, grid.t_max, n_times)
    idx = np.rint(targets / grid.dt).astype(int)
    return np.unique(np.clip(idx, 1, grid.n - 1))


def _csv(header: str, rows) -> str:
    """A CSV table: the header line, then each row at full float precision."""
    lines = [header] + [",".join("%.17g" % v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


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
    else:
        header = "t," + ",".join(
            f"sigma[g={lab}],sigma_inf[g={lab}]" for lab in labels
        )
    cols = [times]
    for g in cfg.gammas:
        cols += [curves[g], np.full_like(times, asymptotes[g])]
    csv_text = _csv(header, zip(*cols))

    payload = {
        "t": times.tolist(),
        "curves": {
            lab: {
                "sigma": curves[g].tolist(),
                "sigma_inf": asymptotes[g] if math.isfinite(asymptotes[g]) else None,
            }
            for g, lab in zip(cfg.gammas, labels)
        },
        "unit_mode": cfg.unit_mode,
        "sigma0": cfg.sigma0,
    }
    _write_data(cfg, f"{stem}.csv", csv_text, f"{stem}.json", payload)

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
    _write_svg(
        cfg, plot, f"{stem}.svg", csv_text, series,
        title="Position spread under collapse dynamics",
        xlabel=f"t [{ 's' if cfg.unit_mode == 'SI' else 'scaled units'}]",
        ylabel=f"sigma(t) [{'m' if cfg.unit_mode == 'SI' else 'scaled units'}]",
        log_x=cfg.log_times,
        log_y=log_y,
        hlines=hlines,
    )


# figure1's preset.  The per-curve memory rates of the figure this run
# mirrors are not all unambiguous, so the gammas are a documented
# representative choice, not a pixel match.  The window, 1 s to 4e18 s log
# spaced, shows the full drop from sigma(0) = 1 m to the common finite
# asymptote.
_FIGURE1_CONFIG = """\
m = 1
lambda = 1e-2
gamma = 2, 10, 100, inf
unit_mode = si
sigma0 = 1
t_min = 1
t_max = 4e18
log_times = true
"""


def cmd_figure1(cfg: RunConfig, checks: _Checks, plot: str):
    """The spread command on the figure1 preset, writing figure1.* files."""
    print(
        "figure1 preset: SI units, m=1, lambda=0.01, sigma0=1, "
        "gamma in {2, 10, 100, inf} (representative reconstruction)"
    )
    cmd_spread(cfg, checks, plot, stem="figure1")


def cmd_kernels(cfg: RunConfig, checks: _Checks, plot: str):
    """Dump both kernels and cross-validate closed form against collocation.

    Embedded checks: boundary values, characteristic-root invariants,
    agreement between the two independent solution routes, and the closed
    forms' defect under the discrete operator (truncation-limited, see
    res_cap).  The
    collocation route's own residual is reported without a threshold; it is
    the linear solver's backward error, 0.2-0.3 eps of the size of the terms
    at 129 to 2001 nodes, so it reads 0 under kernel_residual's rounding
    floor.  One kernel_residual call scores all four kernels against one
    dense operator.
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
    res_fc, res_hc, res_fn, res_hn = kernel_residual([f_c, h_c, f_n, h_n], params, kern, noise)

    cols = [s]
    for kernel in (f_c, h_c, f_n, h_n):
        cols += [kernel.values.real, kernel.values.imag]
    csv_text = _csv("s,f_re,f_im,h_re,h_im,f_colloc_re,f_colloc_im,h_colloc_re,h_colloc_im",
                    zip(*cols))

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
    _write_data(cfg, "kernels.csv", csv_text, "kernels_report.json", report, indent=2)

    checks.record("f-boundary", abs(f_c.values[0] - 1.0) <= 1e-10
                  and abs(f_c.values[-1]) <= 1e-10)
    checks.record("h-boundary", abs(h_c.values[0]) <= 1e-10 * h_scale
                  and abs(h_c.values[-1]) <= 1e-10 * h_scale)
    # Roots good to a few ulps give a sum off by a few eps of its terms,
    # which exceed gamma^2 about 2 omega_c/gamma times where omega_c >> gamma.
    sum_sq = roots.upsilon1 ** 2 + roots.upsilon2 ** 2
    sum_bound = 8.0 * np.finfo(float).eps * (abs(roots.upsilon1) ** 2 + abs(roots.upsilon2) ** 2)
    checks.record(
        "root-sum-invariant",
        abs(sum_sq - gamma ** 2) <= sum_bound,
        f"rel dev {abs(sum_sq - gamma ** 2) / gamma ** 2:.3g}, bound {sum_bound / gamma ** 2:.3g}",
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
    # operator beyond rounding is pure truncation, O((|upsilon| dt)^2) for
    # the modes e^{-upsilon s}; |upsilon1| >= gamma, as Re zeta >= gamma^2.
    res_cap = max(1e-8, 5.0 * (max(abs(roots.upsilon1), abs(roots.upsilon2)) * grid.dt) ** 2)
    checks.record("closed-form-residual", max(res_fc, res_hc) <= res_cap,
                  f"max {max(res_fc, res_hc):.3g}, cap {res_cap:.3g}")

    series = [
        ("Re f", s, f_c.values.real, "solid"),
        ("Im f", s, f_c.values.imag, "solid"),
        ("Re h", s, h_c.values.real, "dashed"),
        ("Im h", s, h_c.values.imag, "dashed"),
    ]
    _write_svg(cfg, plot, "kernels.svg", csv_text, series,
               title=f"Boundary kernels, gamma = {_gamma_label(gamma)}",
               xlabel="s", ylabel="kernel value")


def _coefficients(c) -> dict:
    """The horizon and the real and imaginary parts of A..E of GreensCoefficients c."""
    out = {"t": c.t}
    for name in "ABCDE":
        z = getattr(c, name)
        out[f"{name}_re"], out[f"{name}_im"] = z.real, z.imag
    return out


def cmd_oracle_check(cfg: RunConfig, checks: _Checks, plot: str):
    """Compare the analytic endpoint coefficients to the path-sum oracle.

    Runs the oracle at segment counts 64..512 on one fixed noise path,
    comparing each level with the closed forms on its own subsampled path,
    and requires the maximum relative coefficient error to decrease at
    every refinement and to end at or below 1e-3.  At lambda = 0 the
    comparison is refused (exit 2): C, D and E vanish there.
    """
    gamma = cfg.single_gamma("oracle-check")
    params = cfg.build_params()
    grid = make_grid(cfg.t_max, 513)  # the oracle's finest level, 512 segments
    noise = sample_exponential_noise(gamma, grid, cfg.master_seed, 0)
    table = oracle_convergence(cfg.t_max, params, gamma, noise)

    csv_text = _csv("n_segments,err_A,err_B,err_C,err_D,err_E,err_max", (
        [report.n_segments] + [errs[k] for k in "ABCDE"] + [err_max]
        for report, errs, err_max in table
    ))

    payload = {
        "levels": [
            {
                "n_segments": report.n_segments,
                "coefficients": _coefficients(report.coefficients),
                "errors": errs,
                "err_max": err_max,
                "diag_asymmetry": report.diag_asymmetry,
            }
            for report, errs, err_max in table
        ],
        "gamma": gamma,
        "t": cfg.t_max,
        "master_seed": cfg.master_seed,
    }
    _write_data(cfg, "oracle.csv", csv_text, "oracle.json", payload, indent=2)

    maxes = [err_max for _, _, err_max in table]
    checks.record(
        "oracle-error-decreasing",
        all(b < a for a, b in zip(maxes, maxes[1:])),
        " -> ".join("%.3g" % v for v in maxes),
    )
    checks.record("oracle-final-error", maxes[-1] <= 1e-3,
                  f"{maxes[-1]:.3g} at N={table[-1][0].n_segments}")

    ns = [float(r.n_segments) for r, _, _ in table]
    _write_svg(cfg, plot, "oracle.svg", csv_text, [("max rel error", ns, maxes, "solid")],
               title="Path-sum oracle convergence", xlabel="segments",
               ylabel="max relative error", log_x=True, log_y=True)


def _check_classical_means(checks: _Checks, stats, cfg: RunConfig):
    """Physical-measure means against the classical motion.

    The mean position must track x0 + p0 t / m and the mean momentum stay
    at p0 at every sample time, within a z-bound sized for the 2 * n_times
    tests: a false alarm of 1e-6 for the whole run (two-sided, Bonferroni),
    5.73 standard errors at 50 sample times.  A zero standard error passes
    only on exact agreement, and a NaN mean or standard error fails.
    """
    bound = NormalDist().inv_cdf(1.0 - _MEAN_FALSE_ALARM / (2.0 * 2.0 * stats.times.size))
    exact = 1e-12 * max(1.0, abs(cfg.x0) + abs(cfg.p0))

    def max_dev(diff, se):
        d = np.abs(diff)
        # d / se (NaN if either is), except at a zero standard error: 0 on
        # exact agreement, else inf
        z = np.divide(d, se, out=np.where(d <= exact, 0.0, math.inf), where=se != 0.0)
        return float(np.max(z))

    dq = max_dev(stats.mean_q - (cfg.x0 + cfg.p0 * stats.times / cfg.m), stats.se_q)
    dp = max_dev(stats.mean_p - cfg.p0, stats.se_p)
    checks.record("classical-mean-q", dq <= bound, f"max dev {dq:.3g} SE, bound {bound:.3g}")
    checks.record("classical-mean-p", dp <= bound, f"max dev {dp:.3g} SE, bound {bound:.3g}")


# ensemble.csv column -> the EnsembleStats field it holds; ensemble.json keys
# each field by its column name, except t, which it calls "times"
_ENSEMBLE_COLUMNS = {"t": "times", "mean_q": "mean_q", "se_q": "se_q", "mean_p": "mean_p",
                     "se_p": "se_p", "Vq": "v_q", "sigma": "sigma_q", "se_vq": "se_vq",
                     "ess": "ess"}


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

    cols = {col: getattr(stats, field) for col, field in _ENSEMBLE_COLUMNS.items()}
    csv_text = _csv(",".join(cols), zip(*cols.values()))
    payload = {("times" if col == "t" else col): v.tolist() for col, v in cols.items()}
    payload.update(n_traj=stats.n_traj, master_seed=cfg.master_seed, measure="physical")
    _write_data(cfg, "ensemble.csv", csv_text, "ensemble.json", payload)

    classical = cfg.x0 + cfg.p0 * stats.times / cfg.m
    if cfg.n_traj >= 2:
        _check_classical_means(checks, stats, cfg)
        low = int(np.argmin(stats.ess))
        print(f"effective sample size at t = {stats.times[-1]:.6g}: {stats.ess[-1]:.0f} of "
              f"{cfg.n_traj}, smallest {stats.ess[low]:.0f} at t = {stats.times[low]:.6g}")
    else:
        print("check classical-mean: SKIP (n_traj = 1 has no standard errors)")

    series = [
        ("mean position", stats.times, stats.mean_q, "solid"),
        ("classical x0 + p0 t / m", stats.times, classical, "dashed"),
        ("spread sigma(t)", stats.times, stats.sigma_q, "solid"),
    ]
    _write_svg(cfg, plot, "ensemble.svg", csv_text, series,
               title=f"Ensemble statistics, n = {cfg.n_traj}",
               xlabel="t", ylabel="position", log_x=cfg.log_times)


# subcommand -> (its function, its help line)
_COMMANDS = {
    "spread": (cmd_spread, "noise-free spread curves sigma(t) per gamma"),
    "ensemble": (cmd_ensemble, "Monte Carlo trajectory statistics"),
    "kernels": (cmd_kernels, "kernel dump with cross-route validation"),
    "oracle-check": (cmd_oracle_check, "path-sum oracle comparison and convergence"),
    "figure1": (cmd_figure1, "preset SI spread run, gamma in {2, 10, 100, inf}"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmsse",
        description="Exact dynamics of a free particle under "
                    "memory-carrying collapse noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == "figure1":
            p.add_argument("--n-times", type=int, default=None, dest="n_times",
                           help="sample count for the preset window (default 50)")
        else:
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
    return parser


# flag (argparse dest) -> the RunConfig field it overrides
_FLAG_FIELDS = {"seed": "master_seed", "out": "out_dir", "format": "fmt",
                "n_times": "n_times"}


def _resolve(args) -> RunConfig:
    """The config file, or figure1's preset, with the flags applied and validated."""
    if args.command == "figure1":
        text = _FIGURE1_CONFIG
    else:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(str(e)) from None
    flags = {field: getattr(args, dest) for dest, field in _FLAG_FIELDS.items()
             if getattr(args, dest, None) is not None}
    return _validated(dataclasses.replace(parse_config(text), **flags))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    checks = _Checks()
    try:
        _COMMANDS[args.command][0](_resolve(args), checks, args.plot)
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
