"""Static SVG rendering of response curves and root tracks.

Plots are hand-assembled text with fixed decimal formatting: regenerating a
plot from identical data yields byte-identical output (no timestamps, no
external assets, no library-version artifacts).  All quantitative data lives
in the CSV/JSON artifacts; these drawings are render-only conveniences.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 76, 20, 34, 52

#: per-component stroke colors, cycled
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

#: order-grading endpoints for root scatters (light -> dark)
GRADE_LO = (198, 219, 239)
GRADE_HI = (8, 48, 107)


def _px(v: float) -> str:
    """Pixel coordinate with fixed two-decimal formatting."""
    s = f"{v:.2f}"
    return s.rstrip("0").rstrip(".") if "." in s else s


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/2.5/5 step, about
    five of them."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValidationError("cannot place axis ticks on an empty range")
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if m * mag >= raw)
    first = math.ceil(lo / step - 1e-9) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(round(t, 12))
        t += step
    return out


class _Frame:
    """Data-to-pixel mapping for a single framed plot area."""

    def __init__(self, xlo, xhi, ylo, yhi):
        if xhi <= xlo:
            xlo, xhi = xlo - 0.5, xhi + 0.5
        if yhi <= ylo:
            ylo, yhi = ylo - 0.5, yhi + 0.5
        padx, pady = 0.05 * (xhi - xlo), 0.05 * (yhi - ylo)
        self.xlo, self.xhi = xlo - padx, xhi + padx
        self.ylo, self.yhi = ylo - pady, yhi + pady
        self.px0, self.px1 = MARGIN_L, WIDTH - MARGIN_R
        self.py0, self.py1 = HEIGHT - MARGIN_B, MARGIN_T

    def x(self, v: float) -> float:
        return self.px0 + (v - self.xlo) / (self.xhi - self.xlo) \
            * (self.px1 - self.px0)

    def y(self, v: float) -> float:
        return self.py0 + (v - self.ylo) / (self.yhi - self.ylo) \
            * (self.py1 - self.py0)

    def axes(self, xlabel: str, ylabel: str) -> list[str]:
        e = [f'<rect x="{self.px0}" y="{self.py1}" '
             f'width="{self.px1 - self.px0}" height="{self.py0 - self.py1}" '
             'fill="none" stroke="#404040" stroke-width="1"/>']
        for t in _ticks(self.xlo, self.xhi):
            px = self.x(t)
            e.append(f'<line x1="{_px(px)}" y1="{self.py0}" x2="{_px(px)}" '
                     f'y2="{self.py0 + 5}" stroke="#404040"/>')
            e.append(f'<text x="{_px(px)}" y="{self.py0 + 18}" '
                     f'text-anchor="middle">{t:g}</text>')
        for t in _ticks(self.ylo, self.yhi):
            py = self.y(t)
            e.append(f'<line x1="{self.px0 - 5}" y1="{_px(py)}" '
                     f'x2="{self.px0}" y2="{_px(py)}" stroke="#404040"/>')
            e.append(f'<text x="{self.px0 - 8}" y="{_px(py + 4)}" '
                     f'text-anchor="end">{t:g}</text>')
        midx = (self.px0 + self.px1) / 2
        midy = (self.py0 + self.py1) / 2
        e.append(f'<text x="{_px(midx)}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle">{_esc(xlabel)}</text>')
        e.append(f'<text x="16" y="{_px(midy)}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_px(midy)})">'
                 f'{_esc(ylabel)}</text>')
        return e


def _document(elements: list[str], title: str, header=()) -> str:
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" '
            'font-family="monospace" font-size="12">']
    for line in header:
        safe = str(line).replace("--", "- -")
        head.append(f"<!-- {safe} -->")
    head.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    head.append(f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
                f'font-size="14">{_esc(title)}</text>')
    return "\n".join(head + elements + ["</svg>"]) + "\n"


def frc_svg(curve, amplitudes, header=()) -> str:
    """Render a traced response curve as amplitude vs forcing frequency.

    Stable runs are solid, unstable runs dashed, a run of one point a filled
    dot, fold-degenerate points open circles; each connected component gets
    its own color.  ``amplitudes`` holds the y value of each point.

    Returns the SVG document as a string.
    """
    if not curve.points:
        raise ValidationError("cannot plot an empty response curve")
    xs = [p.omega for p in curve.points]
    ys = [float(a) for a in amplitudes]
    fr = _Frame(min(xs), max(xs), min(0.0, min(ys)), max(ys))

    elements = fr.axes("forcing frequency", "response amplitude")
    gap = 2.5 * curve.rho_max / curve.n_rho
    degenerate: list[tuple[float, float, str]] = []
    for ci, members in enumerate(curve.components):
        color = PALETTE[ci % len(PALETTE)]
        for branch in ("K-", "K+"):
            run: list[tuple[float, float]] = []
            run_style = None
            seq = sorted((curve.points[i].rho, i) for i in members
                         if curve.points[i].branch == branch)
            prev_rho = None
            for rho, i in seq:
                p = curve.points[i]
                if p.stability == "fold-degenerate":
                    degenerate.append((fr.x(xs[i]), fr.y(ys[i]), color))
                    continue
                broken = (p.stability != run_style
                          or (prev_rho is not None and rho - prev_rho > gap))
                if broken and run:
                    elements.append(_run_element(run, color, run_style))
                if broken:
                    run = []
                run.append((fr.x(xs[i]), fr.y(ys[i])))
                run_style = p.stability
                prev_rho = rho
            if run:
                elements.append(_run_element(run, color, run_style))
    for cx, cy, color in degenerate:
        elements.append(f'<circle cx="{_px(cx)}" cy="{_px(cy)}" r="3" '
                        f'fill="white" stroke="{color}"/>')

    lx, ly = WIDTH - MARGIN_R - 150, MARGIN_T + 10
    elements.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 28}" y2="{ly}" '
                    'stroke="#404040" stroke-width="1.5"/>')
    elements.append(f'<text x="{lx + 34}" y="{ly + 4}">stable</text>')
    elements.append(f'<line x1="{lx}" y1="{ly + 16}" x2="{lx + 28}" '
                    f'y2="{ly + 16}" stroke="#404040" stroke-width="1.5" '
                    'stroke-dasharray="6 4"/>')
    elements.append(f'<text x="{lx + 34}" y="{ly + 20}">unstable</text>')
    return _document(elements,
                     f"response curve, forcing amplitude {curve.eps:g}",
                     header)


def _run_element(run, color, style) -> str:
    if len(run) == 1:
        (x, y), = run
        return f'<circle cx="{_px(x)}" cy="{_px(y)}" r="2.5" fill="{color}"/>'
    pts = " ".join(f"{_px(x)},{_px(y)}" for x, y in run)
    dash = ' stroke-dasharray="6 4"' if style == "unstable" else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>')


def _grade(t: float) -> str:
    rgb = (round(a + t * (b - a)) for a, b in zip(GRADE_LO, GRADE_HI))
    return "#" + "".join(f"{c:02x}" for c in rgb)


def roots_svg(track, header=()) -> str:
    """Complex-plane scatter of drift-polynomial roots across orders.

    Markers darken with increasing truncation order; thin gray lines connect
    each tracked root trajectory, so converging (genuine) roots show as
    tight clusters and escaping (spurious) ones as outward rays.

    Returns the SVG document as a string.
    """
    if not track.orders:
        raise ValidationError("cannot plot an empty root track")
    allz = np.concatenate([np.atleast_1d(track.roots[m])
                           for m in track.orders])
    fr = _Frame(float(allz.real.min()), float(allz.real.max()),
                float(allz.imag.min()), float(allz.imag.max()))

    elements = fr.axes("root (real part)", "root (imaginary part)")
    span = max(len(track.orders) - 1, 1)
    for traj in track.trajectories:
        pts = [(fr.x(z.real), fr.y(z.imag))
               for m in track.orders if (z := traj.get(m)) is not None]
        if len(pts) > 1:
            joined = " ".join(f"{_px(x)},{_px(y)}" for x, y in pts)
            elements.append(f'<polyline points="{joined}" fill="none" '
                            'stroke="#b0b0b0" stroke-width="0.75"/>')
    for j, m in enumerate(track.orders):
        color = _grade(j / span)
        for z in np.atleast_1d(track.roots[m]):
            elements.append(f'<circle cx="{_px(fr.x(float(z.real)))}" '
                            f'cy="{_px(fr.y(float(z.imag)))}" r="3.5" '
                            f'fill="{color}"/>')

    lx, ly = WIDTH - MARGIN_R - 170, MARGIN_T + 10
    elements.append(f'<circle cx="{lx}" cy="{ly}" r="3.5" '
                    f'fill="{_grade(0.0)}"/>')
    elements.append(f'<text x="{lx + 10}" y="{ly + 4}">order '
                    f'{track.orders[0]}</text>')
    elements.append(f'<circle cx="{lx}" cy="{ly + 16}" r="3.5" '
                    f'fill="{_grade(1.0)}"/>')
    elements.append(f'<text x="{lx + 10}" y="{ly + 20}">order '
                    f'{track.orders[-1]}</text>')
    return _document(elements, f"roots of the radial drift polynomial, "
                     f"orders {track.orders[0]}..{track.orders[-1]}", header)
