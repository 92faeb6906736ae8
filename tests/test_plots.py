"""Tests for the SVG renderers: drawable points, axis ranges and the
quantizer curve."""

import math
import re

import numpy as np

from mxsim.cli import main
from mxsim.formats import E2M1, FP4_MAX, TIES_TO_EVEN
from mxsim.plots import (
    MARGIN_LEFT,
    MARGIN_RIGHT,
    WIDTH,
    line_plot,
    quantizer_curve_plot,
    scale_deviation_plot,
    scatter_plot,
)
from mxsim.qgrad import QGradEstimator, estimator_grad, estimator_value

from test_formats import _grid_round


def _coords(svg):
    """Every number placed in a polyline point or a circle centre."""
    out = []
    for pts in re.findall(r'points="([^"]*)"', svg):
        for pair in pts.split():
            out.extend(pair.split(","))
    out += re.findall(r'c[xy]="([^"]*)"', svg)
    return out


def _polyline_x(svg, index=0):
    pts = re.findall(r'points="([^"]*)"', svg)[index].split()
    return [float(p.split(",")[0]) for p in pts]


def _all_finite(svg):
    return all(math.isfinite(float(c)) for c in _coords(svg))


class TestDrawablePoints:
    def test_scatter_skips_nan_points(self):
        points = [(0.0, 0.1), (1.0, math.nan), (3.0, -0.1), (math.inf, 0.2)]
        svg = scatter_plot(points, [points[0], points[1]])
        assert "nan" not in svg and "inf" not in svg
        assert svg.count("<circle") == 2 + 1
        assert _all_finite(svg)

    def test_line_plot_skips_nan_and_non_positive_on_log_axis(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [0.1, math.nan, 0.0, -1.0, 1.0]
        svg = line_plot({"a": (xs, ys)}, log_y=True)
        assert len(_polyline_x(svg)) == 2
        assert _all_finite(svg)

    def test_scale_deviation_has_no_nan_and_spans_the_axis(self):
        # E4M3 cannot hold the smallest ideal scales: their ratio is NaN.
        svg = scale_deviation_plot("E4M3")
        assert "nan" not in svg
        assert _all_finite(svg)
        xs = _polyline_x(svg)
        plot_width = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        # The drawn scales run from about 1e-3 (half the smallest E4M3
        # value) to 1e9 on the padded 1e-9.9 .. 1e9.9 axis, not squeezed
        # into its rightmost tenth.
        assert min(xs) < MARGIN_LEFT + 0.4 * plot_width
        assert max(xs) > MARGIN_LEFT + 0.9 * plot_width

    def test_pareto_with_nan_score_row(self, tmp_path):
        results = tmp_path / "results.csv"
        results.write_text("Complexity points,Score\n1,0.100\n2,nan\n3,0.250\n")
        out = tmp_path / "front"
        assert main(["pareto", str(results), "--out", str(out)]) == 0
        svg = (out / "pareto.svg").read_text()
        assert "nan" not in svg
        assert _all_finite(svg)


class TestAxisRange:
    def test_log_axis_padded_in_log_space(self):
        svg = line_plot({"a": ([1.0, 1e4], [1.0, 2.0])}, log_x=True)
        # 5% of the 4-decade span on each side: 1e-0.2 .. 1e4.2.
        assert ">1e-0.2<" in svg and ">1e4.2<" in svg
        xs = _polyline_x(svg)
        plot_width = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        assert xs[0] == round(MARGIN_LEFT + plot_width / 1.1 * 0.05, 2)

    def test_linear_axis_unchanged(self):
        svg = line_plot({"a": ([0.0, 10.0], [1.0, 2.0])})
        assert ">-0.5<" in svg and ">10.5<" in svg


class TestQuantizerCurve:
    def test_rounded_curve_is_round_to_nearest_even(self):
        n = 801
        xs = [-FP4_MAX + 2 * FP4_MAX * i / (n - 1) for i in range(n)]
        arr = np.array(xs)
        est = QGradEstimator("sigmoid")
        rounded = _grid_round(arr, E2M1, TIES_TO_EVEN)
        assert rounded[xs.index(0.75)] == 1.0  # a tie goes to the even value
        expected = line_plot(
            {
                "rounded": (xs, rounded.tolist()),
                "surrogate": (xs, estimator_value(arr, E2M1, est).tolist()),
                "slope": (xs, estimator_grad(arr, E2M1, est).tolist()),
            },
            title="4-bit quantizer and sigmoid surrogate",
            xlabel="input",
            ylabel="output",
        )
        assert quantizer_curve_plot("sigmoid", n) == expected
