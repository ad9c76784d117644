"""Static SVG line plots with no third-party dependencies.

Output is a pure function of the inputs: no timestamps, no randomness, so
identical runs produce byte-identical files.  The numeric data behind the
plot is appended as an XML comment, making every file self-describing.
"""

from __future__ import annotations

import math

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
    dashed horizontal reference lines.  Log axes silently drop points
    that are not strictly positive on that axis.
    """
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def keep(x, y):
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        if log_x and x <= 0.0:
            return False
        if log_y and y <= 0.0:
            return False
        return True

    cleaned = []
    for label, xs, ys, style in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys) if keep(x, y)]
        cleaned.append((label, pts, style))

    all_x = [x for _, pts, _ in cleaned for x, _ in pts]
    all_y = [y for _, pts, _ in cleaned for _, y in pts]
    for _, y in hlines:
        y = float(y)
        if math.isfinite(y) and not (log_y and y <= 0.0):
            all_y.append(y)
    if not all_x or not all_y:
        all_x = all_x or [0.0, 1.0]
        all_y = all_y or [0.0, 1.0]

    def span(vals, log):
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
        return _MARGIN_T + plot_h - (v - y0t) / yspan * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'{_FONT} font-size="15" fill="#000000">{_esc(title)}</text>'
        )

    xticks = _ticks_log(xlo, xhi) if log_x else _ticks_linear(xlo, xhi)
    yticks = _ticks_log(ylo, yhi) if log_y else _ticks_linear(ylo, yhi)
    for v in xticks:
        px = tx(v)
        out.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 18}" '
            f'text-anchor="middle" {_FONT} font-size="11" '
            f'fill="#000000">{_esc(_fmt_tick(v, log_x))}</text>'
        )
    for v in yticks:
        py = ty(v)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.2f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 6}" y="{py + 4:.2f}" text-anchor="end" '
            f'{_FONT} font-size="11" fill="#000000">'
            f'{_esc(_fmt_tick(v, log_y))}</text>'
        )

    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#000000" stroke-width="1"/>'
    )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
            f'text-anchor="middle" {_FONT} font-size="13" '
            f'fill="#000000">{_esc(xlabel)}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="18" y="{_MARGIN_T + plot_h / 2:.1f}" '
            f'text-anchor="middle" {_FONT} font-size="13" fill="#000000" '
            f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.1f})">'
            f"{_esc(ylabel)}</text>"
        )

    out.append(
        f'<clipPath id="plotclip"><rect x="{_MARGIN_L}" y="{_MARGIN_T}" '
        f'width="{plot_w}" height="{plot_h}"/></clipPath>'
    )

    for label, y in hlines:
        y = float(y)
        if not math.isfinite(y) or (log_y and y <= 0.0):
            continue
        py = ty(y)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.2f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{py:.2f}" stroke="#888888" stroke-width="1" '
            f'stroke-dasharray="6 4" clip-path="url(#plotclip)"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L + plot_w - 4}" y="{py - 4:.2f}" '
            f'text-anchor="end" {_FONT} font-size="10" '
            f'fill="#888888">{_esc(label)}</text>'
        )

    for k, (label, pts, style) in enumerate(cleaned):
        if not pts:
            continue
        color = _PALETTE[k % len(_PALETTE)]
        dash = ' stroke-dasharray="7 4"' if style == "dashed" else ""
        coords = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in pts)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash} clip-path="url(#plotclip)"/>'
        )

    lx = _MARGIN_L + plot_w - 168
    ly = _MARGIN_T + 10
    for k, (label, pts, style) in enumerate(cleaned):
        color = _PALETTE[k % len(_PALETTE)]
        dash = ' stroke-dasharray="7 4"' if style == "dashed" else ""
        yk = ly + 16 * k
        out.append(
            f'<line x1="{lx}" y1="{yk + 4}" x2="{lx + 26}" y2="{yk + 4}" '
            f'stroke="{color}" stroke-width="1.8"{dash}/>'
        )
        out.append(
            f'<text x="{lx + 32}" y="{yk + 8}" {_FONT} font-size="11" '
            f'fill="#000000">{_esc(label)}</text>'
        )

    if data_comment:
        safe = data_comment.replace("--", "- -")
        out.append(f"<!--\n{safe}\n-->")
    out.append("</svg>")
    return "\n".join(out) + "\n"
