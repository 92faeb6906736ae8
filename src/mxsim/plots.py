"""Minimal deterministic SVG rendering for experiment outputs.

Plots are emitted directly as SVG markup (polylines, circles, text) so the
package needs no plotting dependency.  All functions are pure: identical
inputs yield byte-identical SVG.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .formats import E2M1, TIES_TO_EVEN, get_format, round_array
from .qgrad import estimator_grad, estimator_value

__all__ = [
    "line_plot",
    "scatter_plot",
    "quantizer_curve_plot",
    "scale_deviation_plot",
]

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 64
MARGIN_RIGHT = 24
MARGIN_TOP = 36
MARGIN_BOTTOM = 48
CURVE_POINTS = 801  # samples of the quantizer curves
DEVIATION_POINTS = 2000  # and of the scale deviation

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".") if v == v else "nan"


def _drawable(v: float, log: bool) -> bool:
    """Whether a coordinate can be placed: finite, and positive on a log axis."""
    return math.isfinite(v) and (v > 0 or not log)


def _axis_range(values: Sequence[float], log: bool = False) -> tuple[float, float]:
    """Axis extent, in log10 units on a log axis, padded by 5% of its span;
    only drawable values count."""
    shown = [math.log10(v) if log else v for v in values if _drawable(v, log)]
    if not shown:
        return 0.0, 1.0
    lo, hi = min(shown), max(shown)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


class _Canvas:
    """Maps data coordinates to pixels and accumulates SVG elements.

    Axis ranges are given in axis units: log10 of the data on a log axis.
    """

    def __init__(
        self,
        x_range: tuple[float, float],
        y_range: tuple[float, float],
        title: str,
        xlabel: str,
        ylabel: str,
        log_x: bool = False,
        log_y: bool = False,
    ):
        self.log_x, self.log_y = log_x, log_y
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.parts: list[str] = []
        self._frame(title, xlabel, ylabel)

    def px(self, x: float) -> float:
        if self.log_x:
            x = math.log10(x)
        span = self.x1 - self.x0
        frac = (x - self.x0) / span if span else 0.5
        return MARGIN_LEFT + frac * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def py(self, y: float) -> float:
        if self.log_y:
            y = math.log10(y)
        span = self.y1 - self.y0
        frac = (y - self.y0) / span if span else 0.5
        return HEIGHT - MARGIN_BOTTOM - frac * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

    def _frame(self, title: str, xlabel: str, ylabel: str) -> None:
        p = self.parts
        p.append(
            f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
            f'width="{WIDTH - MARGIN_LEFT - MARGIN_RIGHT}" '
            f'height="{HEIGHT - MARGIN_TOP - MARGIN_BOTTOM}" '
            'fill="none" stroke="#333333" stroke-width="1"/>'
        )
        p.append(
            f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif">{title}</text>'
        )
        p.append(
            f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{xlabel}</text>'
        )
        p.append(
            f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif" '
            f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">{ylabel}</text>'
        )
        # Corner tick labels are enough for static artifact plots.
        for frac, anchor in ((0.0, "start"), (1.0, "end")):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            xl = f"1e{xv:.1f}" if self.log_x else _fmt(xv)
            yl = f"1e{yv:.1f}" if self.log_y else _fmt(yv)
            xpix = MARGIN_LEFT + frac * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)
            ypix = HEIGHT - MARGIN_BOTTOM - frac * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)
            p.append(
                f'<text x="{xpix:.1f}" y="{HEIGHT - MARGIN_BOTTOM + 16}" '
                f'text-anchor="{anchor}" font-size="10" '
                f'font-family="sans-serif">{xl}</text>'
            )
            p.append(
                f'<text x="{MARGIN_LEFT - 6}" y="{ypix:.1f}" text-anchor="end" '
                f'font-size="10" font-family="sans-serif">{yl}</text>'
            )

    def _pixels(self, xs, ys) -> list[tuple[float, float]]:
        """Pixel positions of the drawable points; the others are skipped."""
        return [
            (self.px(x), self.py(y))
            for x, y in zip(xs, ys)
            if _drawable(x, self.log_x) and _drawable(y, self.log_y)
        ]

    def polyline(self, xs, ys, color: str) -> None:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in self._pixels(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )

    def circles(self, xs, ys, color: str, r: float = 3.0) -> None:
        for x, y in self._pixels(xs, ys):
            self.parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{color}"/>'
            )

    def legend(self, labels: Sequence[str]) -> None:
        for i, label in enumerate(labels):
            y = MARGIN_TOP + 14 + 14 * i
            color = PALETTE[i % len(PALETTE)]
            self.parts.append(
                f'<rect x="{WIDTH - MARGIN_RIGHT - 120}" y="{y - 8}" '
                f'width="10" height="10" fill="{color}"/>'
            )
            self.parts.append(
                f'<text x="{WIDTH - MARGIN_RIGHT - 106}" y="{y}" '
                f'font-size="10" font-family="sans-serif">{label}</text>'
            )

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n"
        )


def line_plot(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Render labelled (x, y) series as polylines."""
    all_x = [x for xs, _ in series.values() for x in xs]
    all_y = [y for _, ys in series.values() for y in ys]
    canvas = _Canvas(
        _axis_range(all_x, log_x), _axis_range(all_y, log_y),
        title, xlabel, ylabel, log_x, log_y,
    )
    for i, (label, (xs, ys)) in enumerate(series.items()):
        canvas.polyline(xs, ys, PALETTE[i % len(PALETTE)])
    canvas.legend(list(series))
    return canvas.render()


def scatter_plot(
    points: Sequence[tuple[float, float]],
    highlight: Sequence[tuple[float, float]] = (),
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Scatter points with an optional highlighted subset drawn on top."""
    all_x = [p[0] for p in points] + [p[0] for p in highlight]
    all_y = [p[1] for p in points] + [p[1] for p in highlight]
    canvas = _Canvas(_axis_range(all_x), _axis_range(all_y), title, xlabel, ylabel)
    canvas.circles([p[0] for p in points], [p[1] for p in points], PALETTE[0], 2.5)
    if highlight:
        hx, hy = [p[0] for p in highlight], [p[1] for p in highlight]
        order = sorted(range(len(hx)), key=lambda i: (hx[i], hy[i]))
        canvas.polyline([hx[i] for i in order], [hy[i] for i in order], PALETTE[1])
        canvas.circles(hx, hy, PALETTE[1], 3.5)
    return canvas.render()


def quantizer_curve_plot(estimator_kind: str = "sigmoid") -> str:
    """Stepped 4-bit quantizer (round to nearest, ties to even), its smooth
    surrogate, and the clipped slope."""
    top = E2M1.max_finite
    xs = [-top + 2 * top * i / (CURVE_POINTS - 1) for i in range(CURVE_POINTS)]
    arr = np.array(xs)
    hard = round_array(arr, E2M1, TIES_TO_EVEN)
    smooth = estimator_value(arr, E2M1, estimator_kind)
    slope = estimator_grad(arr, E2M1, estimator_kind)
    return line_plot(
        {
            "rounded": (xs, hard.tolist()),
            "surrogate": (xs, np.asarray(smooth, dtype=float).tolist()),
            "slope": (xs, np.asarray(slope, dtype=float).tolist()),
        },
        title=f"4-bit quantizer and {estimator_kind} surrogate",
        xlabel="input",
        ylabel="output",
    )


def scale_deviation_plot(scale_format: str = "E8M0") -> str:
    """Relative deviation between the ideal scale and its rounded value."""
    fmt = get_format(scale_format)
    s = np.logspace(-9, 9, DEVIATION_POINTS)
    rounded = round_array(s, fmt, TIES_TO_EVEN)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rounded > 0, s / rounded, np.nan)
    return line_plot(
        {scale_format: (s.tolist(), ratio.tolist())},
        title=f"Scale rounding deviation ({scale_format})",
        xlabel="ideal scale",
        ylabel="ideal / rounded",
        log_x=True,
    )
