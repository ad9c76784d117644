"""Static SVG line plots with no third-party dependencies.

Output is a pure function of the inputs: no timestamps, no randomness, so
identical runs produce byte-identical files.  The numeric data behind the
plot is appended as an XML comment, making every file self-describing.
"""

from __future__ import annotations

import math

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_FONT = "font-family=\"Helvetica, Arial, sans-serif\""

_WIDTH = 760
_HEIGHT = 500
_MARGIN_L = 78
_MARGIN_R = 18
_MARGIN_T = 36
_MARGIN_B = 50


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(raw: float) -> float:
    exp = math.floor(math.log10(raw))
    frac = raw / 10.0 ** exp
    for cand in (1.0, 2.0, 2.5, 5.0):
        if frac <= cand + 1e-12:
            return cand * 10.0 ** exp
    return 10.0 ** (exp + 1)


def _ticks_linear(lo: float, hi: float) -> list[float]:
    if not hi > lo:
        return [lo]
    step = _nice_step((hi - lo) / 4.0)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    k = 0
    while first + k * step <= hi + 1e-9 * (hi - lo):
        ticks.append(first + k * step)
        k += 1
    return ticks


def _ticks_log(lo: float, hi: float) -> list[float]:
    k0 = math.ceil(math.log10(lo) - 1e-9)
    k1 = math.floor(math.log10(hi) + 1e-9)
    if k1 < k0:
        return [lo]
    decades = list(range(k0, k1 + 1))
    step = max(1, (len(decades) + 7) // 8)
    return [10.0 ** k for k in decades[::step]]


def _fmt_tick(v: float, log: bool) -> str:
    if log:
        e = round(math.log10(v))
        if abs(e) > 3:
            return f"1e{e:d}"
    return "%.4g" % v


def _drawable(v: np.ndarray, log: bool) -> np.ndarray:
    """Mask of the values an axis can draw: finite, and positive when log."""
    return np.isfinite(v) & (v > 0.0) if log else np.isfinite(v)


def _text(x, y, body, size, anchor="", fill="#000000", extra="") -> str:
    """A ``<text>`` element at already formatted coordinates; the body is escaped."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} {_FONT} font-size="{size}" fill="{fill}"{extra}>'
            f"{_esc(body)}</text>")


def _line(x1, y1, x2, y2, stroke, width, extra="") -> str:
    """A ``<line>`` element at already formatted coordinates."""
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
            f'stroke-width="{width}"{extra}/>')


def line_plot(
    series,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_x: bool = False,
    log_y: bool = False,
    hlines=(),
    data_comment: str = "",
) -> str:
    """Render line series to an SVG string.

    ``series`` is a sequence of (label, xs, ys, style) with style
    "solid" or "dashed"; ``hlines`` is a sequence of (label, y) drawn as
    dashed horizontal reference lines.  Points and lines that are not
    finite, or not strictly positive on a log axis, are dropped silently,
    and a series with none left gets no legend entry; an axis left with
    nothing to draw spans [0, 1], or 1 to 10 when log.
    """
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    right, bottom = _MARGIN_L + plot_w, _MARGIN_T + plot_h

    # (label, xs, ys, color, dash) per series, the points it can draw as lists
    cleaned = []
    for k, (label, xs, ys, style) in enumerate(series):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        keep = _drawable(xs, log_x) & _drawable(ys, log_y)
        dash = ' stroke-dasharray="7 4"' if style == "dashed" else ""
        cleaned.append((label, xs[keep].tolist(), ys[keep].tolist(),
                        _PALETTE[k % len(_PALETTE)], dash))
    hlines = [(label, float(y)) for label, y in hlines
              if _drawable(np.float64(y), log_y)]

    all_x = [x for _, xs, _, _, _ in cleaned for x in xs]
    all_y = [y for _, _, ys, _, _ in cleaned for y in ys] + [y for _, y in hlines]

    def span(vals, log):
        if not vals:
            vals = [1.0, 10.0] if log else [0.0, 1.0]
        lo, hi = min(vals), max(vals)
        if log:
            llo, lhi = math.log10(lo), math.log10(hi)
            if lhi - llo < 1e-12:
                llo, lhi = llo - 0.5, lhi + 0.5
            pad = 0.04 * (lhi - llo)
            return llo - pad, lhi - llo + 2 * pad, lo, hi
        if hi - lo < 1e-300 + 1e-12 * abs(hi):
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.04 * (hi - lo)
        return lo - pad, hi - lo + 2 * pad, lo, hi

    x0t, xspan, xlo, xhi = span(all_x, log_x)
    y0t, yspan, ylo, yhi = span(all_y, log_y)

    def tx(x):
        v = math.log10(x) if log_x else x
        return _MARGIN_L + (v - x0t) / xspan * plot_w

    def ty(y):
        v = math.log10(y) if log_y else y
        return bottom - (v - y0t) / yspan * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    if title:
        out.append(_text(f"{_WIDTH / 2:.1f}", 22, title, 15, "middle"))

    xticks = _ticks_log(xlo, xhi) if log_x else _ticks_linear(xlo, xhi)
    yticks = _ticks_log(ylo, yhi) if log_y else _ticks_linear(ylo, yhi)
    for v in xticks:
        px = f"{tx(v):.2f}"
        out.append(_line(px, _MARGIN_T, px, bottom, "#dddddd", 1))
        out.append(_text(px, bottom + 18, _fmt_tick(v, log_x), 11, "middle"))
    for v in yticks:
        py = ty(v)
        out.append(_line(_MARGIN_L, f"{py:.2f}", right, f"{py:.2f}", "#dddddd", 1))
        out.append(_text(_MARGIN_L - 6, f"{py + 4:.2f}", _fmt_tick(v, log_y), 11, "end"))

    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#000000" stroke-width="1"/>'
    )
    if xlabel:
        out.append(_text(f"{_MARGIN_L + plot_w / 2:.1f}", _HEIGHT - 12, xlabel, 13, "middle"))
    if ylabel:
        mid = f"{_MARGIN_T + plot_h / 2:.1f}"
        out.append(_text(18, mid, ylabel, 13, "middle",
                         extra=f' transform="rotate(-90 18 {mid})"'))

    out.append(
        f'<clipPath id="plotclip"><rect x="{_MARGIN_L}" y="{_MARGIN_T}" '
        f'width="{plot_w}" height="{plot_h}"/></clipPath>'
    )
    clip = ' clip-path="url(#plotclip)"'

    for label, y in hlines:
        py = ty(y)
        out.append(_line(_MARGIN_L, f"{py:.2f}", right, f"{py:.2f}", "#888888", 1,
                         ' stroke-dasharray="6 4"' + clip))
        out.append(_text(right - 4, f"{py - 4:.2f}", label, 10, "end", "#888888"))

    for label, xs, ys, color, dash in cleaned:
        if xs:
            pairs = [v for xy in zip(map(tx, xs), map(ty, ys)) for v in xy]
            coords = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(pairs)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       f'stroke-width="1.8"{dash}{clip}/>')

    # a legend entry per drawn curve, 16 px apart or closer if the frame needs
    drawn = [(label, color, dash) for label, xs, _, color, dash in cleaned if xs]
    lx = right - 168
    step = min(16, (bottom - _MARGIN_T - 18) / max(len(drawn) - 1, 1))
    for k, (label, color, dash) in enumerate(drawn):
        yk = _MARGIN_T + 10 + step * k
        out.append(_line(lx, f"{yk + 4:g}", lx + 26, f"{yk + 4:g}", color, 1.8, dash))
        out.append(_text(lx + 32, f"{yk + 8:g}", label, 11))

    if data_comment:
        # a comment may not hold "--"; one pass leaves it in a run of three
        safe = data_comment
        while "--" in safe:
            safe = safe.replace("--", "- -")
        out.append(f"<!--\n{safe}\n-->")
    out.append("</svg>")
    return "\n".join(out) + "\n"
