"""Tests for the SVG frontier scatter: drawable points and axis ranges."""

import math
import re

from mxsim.cli import main
from mxsim.plots import _axis_range, scatter_plot


def _coords(svg):
    """Every number placed in a polyline point or a circle centre."""
    out = []
    for pts in re.findall(r'points="([^"]*)"', svg):
        for pair in pts.split():
            out.extend(pair.split(","))
    out += re.findall(r'c[xy]="([^"]*)"', svg)
    return out


def _all_finite(svg):
    return all(math.isfinite(float(c)) for c in _coords(svg))


class TestDrawablePoints:
    def test_scatter_skips_nan_points(self):
        points = [(0.0, 0.1), (1.0, math.nan), (3.0, -0.1), (math.inf, 0.2)]
        svg = scatter_plot(points, [points[0], points[1]])
        assert "nan" not in svg and "inf" not in svg
        assert svg.count("<circle") == 2 + 1
        assert _all_finite(svg)

    def test_pareto_with_nan_score_row(self, tmp_path):
        results = tmp_path / "results.csv"
        results.write_text("Complexity points,Score\n1,0.100\n2,nan\n3,0.250\n")
        out = tmp_path / "front"
        assert main(["pareto", str(results), "--out", str(out)]) == 0
        svg = (out / "pareto.svg").read_text()
        assert "nan" not in svg
        assert _all_finite(svg)


class TestAxisRange:
    def test_linear_axis_unchanged(self):
        # 5% of each span on each side, read off the corner tick labels.
        svg = scatter_plot([(0.0, 1.0), (10.0, 2.0)])
        assert ">-0.5<" in svg and ">10.5<" in svg
        assert ">0.95<" in svg and ">2.05<" in svg

    def test_span_past_the_largest_float(self):
        # hi - lo overflows; the pad and the pixel fraction come from
        # halved operands, and the padded ends stay finite.
        svg = scatter_plot([(1.0, 1e308), (2.0, -1e308)])
        assert "nan" not in svg and "inf" not in svg
        assert re.findall(r'cy="([^"]*)"', svg) == ["51.27", "356.73"]
        assert _axis_range([1e308, -1e308]) == (-1e308 - 1e307, 1e308 + 1e307)
        top = 1.7976931348623157e308
        assert _axis_range([-top, top]) == (-top, top)
        svg = scatter_plot([(-top, top), (top, 0.0)], [(0.0, -top)])
        assert "nan" not in svg and "inf" not in svg
        assert _all_finite(svg)

    def test_nothing_drawable_gives_the_unit_range(self):
        assert _axis_range([math.nan, math.inf, -math.inf]) == (0.0, 1.0)
        assert _axis_range([]) == (0.0, 1.0)
