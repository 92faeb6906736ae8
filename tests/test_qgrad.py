"""Surrogate gradients: relaxed quantizers, scale derivatives, assembly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxsim.formats import E4M3, E2M1, E8M0, FloatFormat, grid, round_array
from mxsim.mx import (
    BlockQuantResult,
    BlockSpec,
    QuantizedTensor,
    ZFunction,
    Z_LOGSUMEXP,
    quantize_blocks,
    z_values,
)
from mxsim.qgrad import (
    DEFAULT_GATE_THRESHOLD,
    EST_BASELINE,
    EST_SIGMOID,
    EST_SPLINE,
    STE,
    GradConfig,
    QGradEstimator,
    SCALE_GRAD_ABSMAX,
    SCALE_GRAD_HYBRID,
    SCALE_GRAD_SOFTMAX,
    SCALE_GRAD_STE,
    TENSOR_GRAD_ABSMAX,
    TENSOR_GRAD_IGNORE,
    TENSOR_GRAD_STE,
    assemble_df_dX,
    assemble_dh_dX,
    dZ,
    ds_dX,
    estimator_grad,
    estimator_value,
    q_baseline,
    q_baseline_grad,
    q_sigmoid,
    q_sigmoid_grad,
    q_spline,
    q_spline_grad,
    selective_scale_gate,
    tensor_scale_grad,
)

GRID = grid(E2M1)


class TestSpline:
    def test_continuous_at_knots(self):
        from mxsim.qgrad import _spline_data

        t, b, _ = _spline_data(E2M1)
        for ti, bi in zip(t, b):
            assert q_spline(np.array([ti]), E2M1)[0] == pytest.approx(bi, abs=1e-12)
            left = q_spline(np.array([ti - 1e-9]), E2M1)[0]
            assert left == pytest.approx(bi, abs=1e-6)

    def test_slope_matches_finite_difference(self):
        from mxsim.qgrad import _spline_data

        t, _, slopes = _spline_data(E2M1)
        mids = 0.5 * (t[:-1] + t[1:])
        h = 1e-7
        fd = (q_spline(mids + h, E2M1) - q_spline(mids - h, E2M1)) / (2 * h)
        np.testing.assert_allclose(fd, slopes, rtol=1e-5)

    def test_clip_rule(self):
        x = np.linspace(-8, 8, 1001)
        g = q_spline_grad(x, E2M1, clip_min=0.1)
        assert g.min() >= 0.1

    def test_clip_floor_over_many_points(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-10, 10, 10**6)
        assert q_spline_grad(x, E2M1, clip_min=0.05).min() >= 0.05

    def test_saturates_outside(self):
        assert q_spline(np.array([100.0]), E2M1)[0] == q_spline(np.array([7.0]), E2M1)[0]

    def test_knots_cached_per_format_not_per_name(self):
        # A custom format named "E2M1" has its own grid (max 24), so it must
        # not read the knots cached for the standard E2M1, or vice versa.
        custom = FloatFormat("E2M1", exponent_bits=3, mantissa_bits=1, bias=3)
        x = np.array([10.0])
        assert q_spline(x, E2M1)[0] == 4.0
        assert q_spline(x, custom)[0] == 8.0
        assert q_spline(x, E2M1)[0] == 4.0


class TestBaseline:
    def test_interval_start(self):
        # Start of the [1, 1.5] interval: u = -1, value = base, slope = 1/w.
        v = q_baseline(np.array([1.0]), E2M1, w=5)[0]
        assert v == pytest.approx(1.0, abs=1e-12)
        assert q_baseline_grad(np.array([1.0]), E2M1, w=5)[0] == pytest.approx(0.2)

    def test_interval_end(self):
        v = q_baseline(np.array([1.5 - 1e-15]), E2M1, w=5)[0]
        assert v == pytest.approx(1.5, abs=1e-9)
        assert q_baseline_grad(np.array([1.4999999]), E2M1, w=5)[0] == pytest.approx(
            0.2, rel=1e-3
        )

    def test_midpoint_value_and_clamp(self):
        v = q_baseline(np.array([1.25]), E2M1, w=5)[0]
        assert v == pytest.approx(1.25, abs=1e-12)
        assert q_baseline_grad(np.array([1.25]), E2M1, w=5)[0] == 1e3

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(1.02, 1.23, 200)  # inside one interval, off midpoint
        h = 1e-8
        fd = (q_baseline(x + h, E2M1) - q_baseline(x - h, E2M1)) / (2 * h)
        np.testing.assert_allclose(q_baseline_grad(x, E2M1), fd, rtol=1e-4)


class TestSigmoid:
    def test_midpoint(self):
        # Between 1 and 1.5: c = 1.25, value = 1.25, slope = 3/T.
        assert q_sigmoid(np.array([1.25]), E2M1, T=1.0)[0] == pytest.approx(1.25)
        assert q_sigmoid_grad(np.array([1.25]), E2M1, T=1.0)[0] == pytest.approx(3.0)
        assert q_sigmoid_grad(np.array([1.25]), E2M1, T=0.5)[0] == pytest.approx(6.0)

    def test_small_temperature_is_a_step(self):
        # Just past the midpoint the tiny-T sigmoid lands on the upper value.
        x = np.array([1.25 + 0.5 / 4.0])
        assert q_sigmoid(x, E2M1, T=1e-6)[0] == pytest.approx(1.5, abs=1e-9)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(1.05, 1.45, 500)
        h = 1e-6
        fd = (q_sigmoid(x + h, E2M1, T=1.0) - q_sigmoid(x - h, E2M1, T=1.0)) / (2 * h)
        np.testing.assert_allclose(q_sigmoid_grad(x, E2M1, T=1.0), fd, rtol=1e-4)

    def test_limit_matches_nearest_rounding(self):
        # Dense points away from decision boundaries: the tiny-T sigmoid
        # agrees with ties-to-even rounding within 1e-6 of the largest gap.
        x = np.linspace(-5.9, 5.9, 4001)
        from mxsim.qgrad import _decision_knots

        t, _ = _decision_knots(E2M1)
        x = x[np.min(np.abs(x[:, None] - t[None, :]), axis=1) > 1e-3]
        approx = q_sigmoid(x, E2M1, T=1e-6)
        exact = round_array(x, E2M1)
        assert np.abs(approx - exact).max() <= 1e-6 * 2.0


class TestDZ:
    def test_absmax_one_hot(self):
        out = dZ(np.array([[1.0, -3.0, 2.0]]), SCALE_GRAD_ABSMAX)
        np.testing.assert_array_equal(out, [[0.0, -1.0, 0.0]])

    def test_absmax_tie_first_index(self):
        out = dZ(np.array([[2.0, -2.0, 1.0]]), SCALE_GRAD_ABSMAX)
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0]])

    def test_absmax_sparsity(self):
        rng = np.random.default_rng(3)
        blocks = rng.normal(size=(50, 16))
        out = dZ(blocks, SCALE_GRAD_ABSMAX)
        assert (np.count_nonzero(out, axis=1) == 1).all()

    def test_softmax_weights_sum_to_at_most_one(self):
        rng = np.random.default_rng(4)
        blocks = rng.normal(size=(50, 16))
        out = dZ(blocks, SCALE_GRAD_SOFTMAX, beta=40.0)
        sums = np.abs(out).sum(axis=1)
        assert (sums <= 1.0 + 1e-12).all()

    def test_softmax_large_beta_approaches_one_hot(self):
        block = np.array([[1.0, -3.0, 2.0]])
        hard = dZ(block, SCALE_GRAD_ABSMAX)
        soft = dZ(block, SCALE_GRAD_SOFTMAX, beta=40.0)  # beta * gap = 40
        np.testing.assert_allclose(soft, hard, atol=1e-6)

    def test_hybrid_uses_softmax_derivative(self):
        block = np.array([[0.5, -1.0, 0.25]])
        np.testing.assert_array_equal(
            dZ(block, SCALE_GRAD_HYBRID, beta=7.0),
            dZ(block, SCALE_GRAD_SOFTMAX, beta=7.0),
        )

    def test_softmax_matches_fd_of_lse(self):
        rng = np.random.default_rng(5)
        block = rng.normal(size=8)
        beta = 4.0
        z_fn = ZFunction(Z_LOGSUMEXP, beta=beta)
        got = dZ(block[None, :], SCALE_GRAD_SOFTMAX, beta=beta)[0]
        h = 1e-6
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            fd = (
                z_values((block + e)[None, :], z_fn)[0]
                - z_values((block - e)[None, :], z_fn)[0]
            ) / (2 * h)
            assert got[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestDsDX:
    def test_example_block(self):
        # s = 6 / max|X| at [1, -3, 2]: only the argmax entry moves the
        # scale, with derivative -(6/9) * (-1) = +2/3.
        block = np.array([[1.0, -3.0, 2.0]])
        z = np.array([3.0])
        dz = dZ(block, SCALE_GRAD_ABSMAX)
        out = ds_dX(block, z, dz, 6.0)
        np.testing.assert_allclose(out, [[0.0, 2.0 / 3.0, 0.0]])
        # Finite-difference cross-check on the argmax coordinate.
        h = 1e-7
        fd = (6.0 / 3.0 - 6.0 / (3.0 + h)) / h  # |x| grows as x gets more negative
        assert out[0, 1] == pytest.approx(fd, rel=1e-5)

    def test_uniform_block_softmax(self):
        c = 0.7
        block = np.full((1, 8), c)
        z = z_values(block, ZFunction(Z_LOGSUMEXP, beta=3.0))
        dz = dZ(block, SCALE_GRAD_SOFTMAX, beta=3.0)
        out = ds_dX(block, z, dz, 6.0)
        expected = -(6.0 / z[0] ** 2) * (1.0 / 8.0)
        np.testing.assert_allclose(out, expected)

    def test_zero_statistic_gives_zero(self):
        block = np.zeros((1, 4))
        out = ds_dX(block, np.array([0.0]), np.ones((1, 4)), 6.0)
        np.testing.assert_array_equal(out, 0.0)


class TestGate:
    def test_strict_threshold(self):
        thr = DEFAULT_GATE_THRESHOLD
        assert thr == 4 * 2.0**-9
        assert selective_scale_gate(np.array([thr * 0.9]), thr)[0]
        assert not selective_scale_gate(np.array([thr]), thr)[0]

    def test_zero_threshold_disables(self):
        s = np.array([1e-30, 1.0, 1e30])
        assert not selective_scale_gate(s, 0.0).any()


def _smooth_forward(blocks, spec, elem_est, scale_est, beta):
    """Fully differentiable surrogate of the per-block quantizer."""
    z = z_values(blocks, ZFunction(Z_LOGSUMEXP, beta=beta))
    s = spec.elem_format.max_finite / z
    s_q = estimator_value(s, spec.scale_format, scale_est)
    q_vals = estimator_value(s_q[:, None] * blocks, spec.elem_format, elem_est)
    return q_vals / s_q[:, None], z, s, s_q, q_vals


def _smooth_record(spec, blocks, z, s, s_q, q_vals, g=None):
    """The smooth surrogate's quantities as a quantization record."""
    qt = QuantizedTensor(shape=blocks.shape, scales=s_q, elements=q_vals,
                         spec=spec, global_scale=g)
    return BlockQuantResult(qt=qt, blocks=blocks, z=z, s_ideal=s)


class TestAssembleDf:
    def test_full_ste_is_exactly_one(self):
        rng = np.random.default_rng(6)
        blocks = rng.normal(size=(10, 16))
        spec = BlockSpec(block_size=16)
        res = quantize_blocks(blocks.ravel(), spec)
        cfg = GradConfig()
        out = assemble_df_dX(res, cfg)
        np.testing.assert_array_equal(out, 1.0)

    def test_ste_alternative_reading_adds_one(self):
        spec = BlockSpec(block_size=4)
        res = quantize_blocks(np.array([1.0, 2.0, 3.0, 4.0]), spec)
        cfg = GradConfig(ste_second_term_one=True)
        out = assemble_df_dX(res, cfg)
        np.testing.assert_array_equal(out, 2.0)

    def test_absmax_off_argmax_is_elem_grad_only(self):
        spec = BlockSpec(block_size=4)
        blocks = np.array([[1.0, -3.0, 2.0, 0.5]])
        res = quantize_blocks(blocks.ravel(), spec)
        spline = QGradEstimator(EST_SPLINE)
        cfg = GradConfig(elem_estimator=spline, scale_mode=SCALE_GRAD_ABSMAX)
        out = assemble_df_dX(res, cfg)
        expected = estimator_grad(res.s_eff[:, None] * res.blocks, E2M1, spline)
        for j in (0, 2, 3):
            assert out[0, j] == expected[0, j]
        assert out[0, 1] != expected[0, 1]

    def test_matches_fd_on_smooth_surrogate(self):
        rng = np.random.default_rng(7)
        l, beta = 8, 4.0
        spec = BlockSpec(block_size=l, z=ZFunction(Z_LOGSUMEXP, beta=beta))
        elem_est = QGradEstimator(EST_SIGMOID, temperature=1.0)
        scale_est = QGradEstimator(EST_SIGMOID, temperature=1.0)
        cfg = GradConfig(
            elem_estimator=elem_est,
            scale_mode=SCALE_GRAD_SOFTMAX,
            scale_q_estimator=scale_est,
            beta=beta,
        )
        n_blocks = 1250  # 10^4 elements total
        blocks = rng.uniform(-3.0, 3.0, size=(n_blocks, l))
        blocks[np.abs(blocks) < 0.05] = 0.5

        _, z, s, s_q, q_vals = _smooth_forward(blocks, spec, elem_est, scale_est, beta)
        got = assemble_df_dX(_smooth_record(spec, blocks, z, s, s_q, q_vals), cfg)

        h = 1e-5
        rel_err = np.empty_like(blocks)
        for j in range(l):
            bp = blocks.copy()
            bp[:, j] += h
            bm = blocks.copy()
            bm[:, j] -= h
            fp, *_ = _smooth_forward(bp, spec, elem_est, scale_est, beta)
            fm, *_ = _smooth_forward(bm, spec, elem_est, scale_est, beta)
            fd = (fp[:, j] - fm[:, j]) / (2 * h)
            denom = np.maximum(np.abs(fd), 1e-3)
            rel_err[:, j] = np.abs(got[:, j] - fd) / denom
        frac_ok = np.mean(rel_err <= 1e-3)
        assert frac_ok >= 0.99

    def test_gate_changes_small_scale_blocks_only(self):
        spec = BlockSpec(block_size=4, scale_format=E4M3)
        # One block with a huge absmax (tiny multiplier, inside the gate)
        # and one ordinary block (outside the gate).
        X = np.array([4000.0, 1.1, 2.3, 3.1, 1.1, 0.7, 0.3, 2.3])
        res = quantize_blocks(X, spec)
        est = QGradEstimator(EST_SIGMOID, temperature=1.0)
        base = dict(
            elem_estimator=STE, scale_mode=SCALE_GRAD_ABSMAX, scale_q_estimator=est
        )
        gated = GradConfig(**base, gate_threshold=DEFAULT_GATE_THRESHOLD)
        ungated = GradConfig(**base)
        out_g = assemble_df_dX(res, gated)
        out_u = assemble_df_dX(res, ungated)
        assert res.s_ideal[0] < DEFAULT_GATE_THRESHOLD < res.s_ideal[1]
        np.testing.assert_array_equal(out_g[0], out_u[0])
        assert not np.array_equal(out_g[1], out_u[1])


class TestTensorScaleGrad:
    def test_ignore_is_zero(self):
        blocks = np.ones((3, 4))
        out = tensor_scale_grad(blocks, np.ones(3), ZFunction(), TENSOR_GRAD_IGNORE)
        np.testing.assert_array_equal(out, 0.0)

    def test_ste_is_one(self):
        blocks = np.ones((3, 4))
        out = tensor_scale_grad(blocks, np.ones(3), ZFunction(), TENSOR_GRAD_STE)
        np.testing.assert_array_equal(out, 1.0)

    def test_hard_max_one_hot_at_global_argmax(self):
        blocks = np.array([[1.0, 2.0], [-5.0, 0.5], [3.0, 1.0]])
        z = np.abs(blocks).max(axis=1)
        out = tensor_scale_grad(blocks, z, ZFunction(), TENSOR_GRAD_ABSMAX)
        expected = np.zeros_like(blocks)
        expected[1, 0] = -1.0
        np.testing.assert_array_equal(out, expected)


class TestAssembleDh:
    def test_ignore_equals_per_block_gradient(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=32)
        spec = BlockSpec(block_size=16)
        res = quantize_blocks(X, spec, tensor_scaling=True)
        cfg = GradConfig(tensor_mode=TENSOR_GRAD_IGNORE)
        dh = assemble_dh_dX(res, cfg)
        df = assemble_df_dX(res, cfg)
        np.testing.assert_array_equal(dh, df)

    def test_hard_max_touches_only_argmax_block(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=48)
        X[20] = 9.0  # global argmax in block 1
        spec = BlockSpec(block_size=16)
        res = quantize_blocks(X, spec, tensor_scaling=True)
        dh_abs = assemble_dh_dX(res, GradConfig(tensor_mode=TENSOR_GRAD_ABSMAX))
        dh_ign = assemble_dh_dX(res, GradConfig(tensor_mode=TENSOR_GRAD_IGNORE))
        np.testing.assert_array_equal(dh_abs[0], dh_ign[0])
        np.testing.assert_array_equal(dh_abs[2], dh_ign[2])
        assert not np.array_equal(dh_abs[1], dh_ign[1])

    def test_matches_fd_on_smooth_surrogate(self):
        rng = np.random.default_rng(10)
        l, beta = 8, 4.0
        z_fn = ZFunction(Z_LOGSUMEXP, beta=beta)
        spec = BlockSpec(block_size=l, z=z_fn)
        elem_est = QGradEstimator(EST_SIGMOID, temperature=1.0)
        scale_est = QGradEstimator(EST_SIGMOID, temperature=1.0)
        cfg = GradConfig(
            elem_estimator=elem_est,
            scale_mode=SCALE_GRAD_SOFTMAX,
            scale_q_estimator=scale_est,
            beta=beta,
            tensor_mode=TENSOR_GRAD_ABSMAX,
        )
        # Enough points that the global-argmax element (where the
        # elementwise formula deliberately drops cross-element coupling
        # through the global factor) stays within the 1% allowance.
        n_blocks = 60
        raw = rng.uniform(-3.0, 3.0, size=(n_blocks, l))
        raw[0, 0] = 5.0  # unambiguous global argmax block

        def smooth_h(raw_blocks):
            z_raw = z_values(raw_blocks, z_fn)
            g = z_raw.max()
            U = raw_blocks / g
            f, z, s, s_q, q_vals = _smooth_forward(U, spec, elem_est, scale_est, beta)
            return g * f, U, z, s, s_q, q_vals, g

        _, U, z, s, s_q, q_vals, g = smooth_h(raw)
        # Assemble the analytic per-element derivative of h w.r.t. raw X.
        got = assemble_dh_dX(_smooth_record(spec, U, z, s, s_q, q_vals, g), cfg)

        h = 1e-5
        rel_err = np.empty_like(raw)
        for p in range(n_blocks):
            for j in range(l):
                rp = raw.copy()
                rp[p, j] += h
                rm = raw.copy()
                rm[p, j] -= h
                hp = smooth_h(rp)[0][p, j]
                hm = smooth_h(rm)[0][p, j]
                fd = (hp - hm) / (2 * h)
                rel_err[p, j] = abs(got[p, j] - fd) / max(abs(fd), 1e-3)
        assert np.mean(rel_err <= 1e-3) >= 0.99


@settings(max_examples=100, deadline=None)
@given(st.floats(-7, 7, allow_nan=False))
def test_estimator_values_bounded_by_grid(x):
    arr = np.array([x])
    for est in (
        QGradEstimator(EST_SPLINE),
        QGradEstimator(EST_BASELINE),
        QGradEstimator(EST_SIGMOID, temperature=1.0),
    ):
        v = estimator_value(arr, E2M1, est)[0]
        assert GRID[0] - 1e-9 <= v <= GRID[-1] + 1e-9
