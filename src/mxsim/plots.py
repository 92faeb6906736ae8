"""Minimal deterministic SVG rendering of the efficiency frontier.

The scatter is emitted directly as SVG markup (polylines, circles, text) so
the package needs no plotting dependency.  It is pure: identical inputs
yield byte-identical SVG.  Every number it draws is also in a CSV file.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

__all__ = ["scatter_plot"]

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 64
MARGIN_RIGHT = 24
MARGIN_TOP = 36
MARGIN_BOTTOM = 48

PALETTE = ["#1f77b4", "#d62728"]  # every point, then the highlighted ones


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def _axis_range(values: Sequence[float]) -> tuple[float, float]:
    """Axis extent padded by 5% of its span; only finite values count.
    Spans past the largest float are halved; the ends stay finite."""
    shown = [v for v in values if math.isfinite(v)]
    if not shown:
        return 0.0, 1.0
    lo, hi = min(shown), max(shown)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    if math.isinf(pad):
        pad = 0.1 * (hi / 2 - lo / 2)
    return max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)


def _frac(v: float, lo: float, hi: float) -> float:
    """Where ``v`` lies from ``lo`` to ``hi``, halved where spans overflow."""
    h = 2.0 if math.isinf(hi - lo) else 1.0
    span = hi / h - lo / h
    return (v / h - lo / h) / span if span else 0.5


def _corner(lo: float, hi: float, frac: float) -> float:
    """The axis value at a corner tick, ``frac`` 0 or 1."""
    span = hi - lo
    if math.isinf(span):
        return hi if frac else lo
    return lo + frac * span


class _Canvas:
    """Maps data coordinates to pixels and accumulates SVG elements."""

    def __init__(self, x_range: tuple[float, float], y_range: tuple[float, float],
                 title: str, xlabel: str, ylabel: str):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.parts: list[str] = []
        self._frame(title, xlabel, ylabel)

    def px(self, x: float) -> float:
        frac = _frac(x, self.x0, self.x1)
        return MARGIN_LEFT + frac * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def py(self, y: float) -> float:
        frac = _frac(y, self.y0, self.y1)
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
            xv = _corner(self.x0, self.x1, frac)
            yv = _corner(self.y0, self.y1, frac)
            xpix = MARGIN_LEFT + frac * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)
            ypix = HEIGHT - MARGIN_BOTTOM - frac * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)
            p.append(
                f'<text x="{xpix:.1f}" y="{HEIGHT - MARGIN_BOTTOM + 16}" '
                f'text-anchor="{anchor}" font-size="10" '
                f'font-family="sans-serif">{_fmt(xv)}</text>'
            )
            p.append(
                f'<text x="{MARGIN_LEFT - 6}" y="{ypix:.1f}" text-anchor="end" '
                f'font-size="10" font-family="sans-serif">{_fmt(yv)}</text>'
            )

    def _pixels(self, xs, ys) -> list[tuple[float, float]]:
        """Pixel positions of the finite points; the others are skipped."""
        return [
            (self.px(x), self.py(y))
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)
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

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n"
        )


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
