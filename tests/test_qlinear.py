"""Quantized linear layer: forward, backward, rounding and transform policies."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from mxsim.formats import STOCHASTIC, TOWARD_POSITIVE
from mxsim.hadamard import HADAMARD_ALL, HADAMARD_BACKWARD, HadamardSpec
from mxsim.mx import BlockSpec, ZFunction, Z_LOGSUMEXP, quantize_blocks
from mxsim.qgrad import (
    EST_SIGMOID,
    EST_SPLINE,
    GradConfig,
    QGradEstimator,
    SCALE_GRAD_SOFTMAX,
    TENSOR_GRAD_ABSMAX,
    assemble_df_dX,
)
from mxsim.qlinear import (
    NonFiniteGradientError,
    QLinearConfig,
    SR_ALL,
    SR_BACKWARD,
    backward,
    forward,
)


def small_cfg(**kw):
    spec = kw.pop("spec", BlockSpec(block_size=4))
    return QLinearConfig(spec=spec, **kw)


class TestForward:
    def test_identity_weights_on_fixed_points(self):
        # Rows whose ideal multiplier is exactly representable and whose
        # scaled elements land on the element grid pass through unchanged;
        # identity rows (absmax 1, multiplier 6) quantize exactly too.
        from mxsim.formats import E4M3

        X = np.array([[0.5, 1.0, 1.5, 3.0], [0.25, 0.5, 0.75, 1.5]])
        W = np.eye(4)
        cfg = small_cfg(spec=BlockSpec(block_size=4, scale_format=E4M3))
        Y, _ = forward(X, W, cfg)
        np.testing.assert_allclose(Y, X)

    def test_one_hot_row_selects_weight_column(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(3, 8))
        X = np.zeros((1, 8))
        X[0, 5] = 1.0
        cfg = small_cfg()
        Y, ctx = forward(X, W, cfg)
        fx = ctx.fx[0]
        expected = fx @ ctx.fw.T
        np.testing.assert_allclose(Y[0], expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward(np.ones((2, 4)), np.ones((3, 5)), small_cfg())

    def test_quantize_disabled_is_exact_dense(self):
        rng = np.random.default_rng(1)
        X, W = rng.normal(size=(2, 8)), rng.normal(size=(3, 8))
        cfg = small_cfg(quantize=False)
        Y, _ = forward(X, W, cfg)
        np.testing.assert_allclose(Y, X @ W.T, atol=1e-12)

    def test_hadamard_cancels_without_quantization(self):
        rng = np.random.default_rng(2)
        X, W = rng.normal(size=(2, 8)), rng.normal(size=(3, 8))
        plain = small_cfg(quantize=False)
        mixed = small_cfg(
            quantize=False,
            hadamard=HadamardSpec(block_size=4, seed=9, mode=HADAMARD_ALL),
        )
        Y0, _ = forward(X, W, plain)
        Y1, _ = forward(X, W, mixed)
        np.testing.assert_allclose(Y1, Y0, atol=1e-8)

    @pytest.mark.parametrize("mode", [HADAMARD_ALL, HADAMARD_BACKWARD])
    def test_hadamard_block_must_divide_block_size(self, mode):
        # m = 48 pads to a multiple of 16, which 32-blocks would not divide.
        with pytest.raises(ValueError, match="does not divide"):
            QLinearConfig(spec=BlockSpec(block_size=16),
                          hadamard=HadamardSpec(block_size=32, mode=mode))
        QLinearConfig(spec=BlockSpec(block_size=16),  # no transform: not checked
                      hadamard=HadamardSpec(block_size=32))
        cfg = QLinearConfig(spec=BlockSpec(block_size=32),
                            hadamard=HadamardSpec(block_size=16, mode=mode))
        rng = np.random.default_rng(5)
        X, W = rng.normal(size=(4, 48)), rng.normal(size=(3, 48))
        Y, ctx = forward(X, W, cfg)
        gx, gw = backward(np.ones_like(Y), ctx, cfg)
        assert Y.shape == (4, 3) and gx.shape == X.shape and gw.shape == W.shape

    def test_padding_of_contraction_dim(self):
        rng = np.random.default_rng(3)
        X, W = rng.normal(size=(2, 6)), rng.normal(size=(3, 6))  # 6 % 4 != 0
        Y, ctx = forward(X, W, small_cfg())
        assert Y.shape == (2, 3)
        assert ctx.fx.shape == (2, 8) and ctx.fw.shape == (3, 8)

    def test_six_site_accounting(self, monkeypatch):
        # Two fresh quantizations forward, two fresh ones backward (one
        # per backward matmul), and the two forward records reused by the
        # gradient assembly of a smoothed-gradient config.  A pure-STE
        # config's operand derivative is all ones, so it assembles nothing.
        import mxsim.qlinear as qlinear

        quantized, assembled = [], []

        def counting_quantize(a, *args, **kwargs):
            quantized.append(a.shape)
            return quantize_blocks(a, *args, **kwargs)

        def recording_assemble(res, grad):
            assembled.append(res)
            return assemble_df_dX(res, grad)

        monkeypatch.setattr(qlinear, "quantize_blocks", counting_quantize)
        monkeypatch.setattr(qlinear, "assemble_df_dX", recording_assemble)
        rng = np.random.default_rng(4)
        X, W = rng.normal(size=(4, 8)), rng.normal(size=(3, 8))
        cfg = small_cfg(grad=GradConfig(elem_estimator=QGradEstimator(EST_SPLINE),
                                        scale_mode=SCALE_GRAD_SOFTMAX))
        Y, ctx = forward(X, W, cfg)
        assert quantized == [(4, 8), (3, 8)]
        backward(np.ones_like(Y), ctx, cfg)
        assert quantized[2:] == [(4, 4), (3, 4)]
        assert len(assembled) == 2
        assert assembled[0] is ctx.res_x and assembled[1] is ctx.res_w

        quantized.clear()
        ste = small_cfg()
        Y, ctx = forward(X, W, ste)
        backward(np.ones_like(Y), ctx, ste)
        assert len(quantized) == 4
        assert len(assembled) == 2  # nothing more

    @pytest.mark.parametrize("kw", [
        {},
        {"sr_policy": SR_ALL, "tensor_scaling": True,
         "hadamard": HadamardSpec(block_size=4, mode=HADAMARD_ALL)},
    ], ids=["rtn", "sr-tensor-hadamard"])
    def test_every_quantization_passes_the_meter(self, monkeypatch, kw):
        # The benchmark meters quantization through the quantize_blocks
        # binding qlinear calls: one layer step makes exactly four calls,
        # on x, w and the two gradient operands, each padded to whole
        # blocks along its contraction axis (m = 6, n = 3, b = 5 at l = 4).
        import mxsim.qlinear as qlinear

        sizes = []

        def metered(a, *args, **kwargs):
            sizes.append(a.shape)  # the meter counts a.size elements
            return quantize_blocks(a, *args, **kwargs)

        monkeypatch.setattr(qlinear, "quantize_blocks", metered)
        rng = np.random.default_rng(12)
        X, W = rng.normal(size=(5, 6)), rng.normal(size=(3, 6))
        cfg = small_cfg(**kw)
        Y, ctx = forward(X, W, cfg, seed=1, step=2)
        backward(rng.normal(size=Y.shape), ctx, cfg)
        assert sizes == [(5, 8), (3, 8), (5, 4), (3, 8)]


class TestBackward:
    def test_dense_collapse_full_ste(self):
        rng = np.random.default_rng(5)
        X, W = rng.normal(size=(2, 8)), rng.normal(size=(3, 8))
        cfg = small_cfg(quantize=False)
        Y, ctx = forward(X, W, cfg)
        gY = rng.normal(size=Y.shape)
        gX, gW = backward(gY, ctx, cfg)
        np.testing.assert_allclose(gX, gY @ W, atol=1e-12)
        np.testing.assert_allclose(gW, gY.T @ X, atol=1e-12)

    def test_shapes_always_match(self):
        rng = np.random.default_rng(6)
        for b, m, n in [(2, 6, 3), (5, 16, 7), (1, 4, 1)]:
            X, W = rng.normal(size=(b, m)), rng.normal(size=(n, m))
            cfg = small_cfg()
            Y, ctx = forward(X, W, cfg)
            gX, gW = backward(rng.normal(size=(b, n)), ctx, cfg)
            assert gX.shape == X.shape
            assert gW.shape == W.shape

    def test_nonfinite_gradient_signalled(self):
        rng = np.random.default_rng(7)
        X, W = rng.normal(size=(2, 4)), rng.normal(size=(3, 4))
        cfg = small_cfg()
        Y, ctx = forward(X, W, cfg)
        g = np.ones_like(Y)
        g[0, 0] = np.nan
        with pytest.raises(NonFiniteGradientError):
            backward(g, ctx, cfg)

    def test_spline_clip_floor_on_input_gradient(self):
        # With the scale-gradient term off, gX = (qg(gY) @ f(W)) * Q' and
        # Q' >= clip_min, so no entry loses more than the clip factor.
        rng = np.random.default_rng(8)
        X, W = rng.normal(size=(2, 8)), rng.normal(size=(3, 8))
        clip = 0.25
        cfg = small_cfg(
            grad=GradConfig(elem_estimator=QGradEstimator(EST_SPLINE, clip_min=clip))
        )
        Y, ctx = forward(X, W, cfg)
        gY = rng.normal(size=Y.shape)
        gX, _ = backward(gY, ctx, cfg)
        plain = small_cfg()
        _, ctx2 = forward(X, W, plain)
        gX_ste, _ = backward(gY, ctx2, plain)
        assert (np.abs(gX) >= clip * np.abs(gX_ste) - 1e-12).all()

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(9)
        X, W = rng.normal(size=(4, 8)), rng.normal(size=(3, 8))
        cfg = small_cfg(
            spec=BlockSpec(block_size=4, scale_rounding=STOCHASTIC),
            sr_policy=SR_ALL,
            hadamard=HadamardSpec(block_size=4, seed=1, mode=HADAMARD_ALL),
        )
        outs = []
        for _ in range(2):
            Y, ctx = forward(X, W, cfg, seed=123, step=7)
            gX, gW = backward(np.ones_like(Y), ctx, cfg)
            outs.append((Y, gX, gW))
        for a, b in zip(outs[0], outs[1]):
            np.testing.assert_array_equal(a, b)

    def test_step_changes_stochastic_draws(self):
        rng = np.random.default_rng(10)
        X, W = rng.normal(size=(4, 8)), rng.normal(size=(3, 8))
        cfg = small_cfg(sr_policy=SR_BACKWARD)
        Y1, ctx1 = forward(X, W, cfg, seed=1, step=1)
        Y2, ctx2 = forward(X, W, cfg, seed=1, step=2)
        g = np.ones_like(Y1) * 0.37
        a = backward(g, ctx1, cfg)
        b = backward(g, ctx2, cfg)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))


class TestUnitOperandGradient:
    """A pure-STE operand derivative is all ones, so ``backward`` skips the
    assembly and the multiply; the gradients stay bit-identical."""

    @pytest.mark.parametrize("m, kw", [
        (8, {}),
        (8, {"hadamard": HadamardSpec(block_size=4, seed=5, mode=HADAMARD_ALL)}),
        (6, {}),
    ], ids=["plain", "hadamard-all", "m-not-whole-blocks"])
    def test_skip_equals_explicit_multiply(self, monkeypatch, m, kw):
        import mxsim.qlinear as qlinear

        rng = np.random.default_rng(13)
        X, W = rng.normal(size=(5, m)), rng.normal(size=(3, m))
        cfg = small_cfg(**kw)
        assert cfg._unit_operand_grad
        Y, ctx = forward(X, W, cfg)
        gY = rng.normal(size=Y.shape)
        skipped = backward(gY, ctx, cfg)

        assembled = []

        def recording_assemble(res, grad):
            assembled.append(res)
            return assemble_df_dX(res, grad)

        monkeypatch.setattr(QLinearConfig, "_unit_operand_grad", False)
        monkeypatch.setattr(qlinear, "assemble_df_dX", recording_assemble)
        explicit = backward(gY, ctx, small_cfg(**kw))
        assert len(assembled) == 2
        for a, b in zip(skipped, explicit):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kw, unit", [
        ({}, True),
        ({"tensor_scaling": True}, True),  # tensor_mode "ignore"
        ({"tensor_scaling": True,
          "grad": GradConfig(tensor_mode=TENSOR_GRAD_ABSMAX)}, False),
        ({"grad": GradConfig(tensor_mode=TENSOR_GRAD_ABSMAX)}, True),
        ({"grad": GradConfig(ste_second_term_one=True)}, False),
        ({"grad": GradConfig(elem_estimator=QGradEstimator(EST_SPLINE))}, False),
        ({"grad": GradConfig(scale_mode=SCALE_GRAD_SOFTMAX)}, False),
    ])
    def test_which_configs_skip(self, kw, unit):
        assert small_cfg(**kw)._unit_operand_grad is unit


class TestHadamardPlacement:
    def test_backward_only_leaves_forward_unchanged(self):
        rng = np.random.default_rng(11)
        X, W = rng.normal(size=(4, 8)), rng.normal(size=(3, 8))
        plain = small_cfg()
        bwd = small_cfg(hadamard=HadamardSpec(block_size=4, seed=2, mode=HADAMARD_BACKWARD))
        Y0, _ = forward(X, W, plain)
        Y1, _ = forward(X, W, bwd)
        np.testing.assert_array_equal(Y0, Y1)

    def test_backward_transform_cancels_without_quantization(self):
        rng = np.random.default_rng(12)
        X, W = rng.normal(size=(4, 8)), rng.normal(size=(3, 8))
        gY = rng.normal(size=(4, 3))
        plain = small_cfg(quantize=False)
        bwd = small_cfg(
            quantize=False,
            hadamard=HadamardSpec(block_size=4, seed=2, mode=HADAMARD_BACKWARD),
        )
        _, c0 = forward(X, W, plain)
        _, c1 = forward(X, W, bwd)
        a = backward(gY, c0, plain)
        b = backward(gY, c1, bwd)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, atol=1e-8)

    def test_all_mode_cancels_in_backward_without_quantization(self):
        rng = np.random.default_rng(13)
        X, W = rng.normal(size=(4, 8)), rng.normal(size=(3, 8))
        gY = rng.normal(size=(4, 3))
        plain = small_cfg(quantize=False)
        allm = small_cfg(
            quantize=False,
            hadamard=HadamardSpec(block_size=4, seed=3, mode=HADAMARD_ALL),
        )
        _, c0 = forward(X, W, plain)
        _, c1 = forward(X, W, allm)
        a = backward(gY, c0, plain)
        b = backward(gY, c1, allm)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, atol=1e-8)


class TestLayerFiniteDifference:
    def test_smooth_surrogate_layer_gradcheck(self):
        # Small layer, fully smooth surrogates in the backward assembly,
        # quantization replaced by the same smooth surrogate forward so
        # central differences of the scalar loss L = sum(Y * C) are a
        # valid oracle for the analytic input gradient.
        rng = np.random.default_rng(14)
        b, m, n, l = 2, 8, 4, 4
        beta = 4.0
        X = rng.uniform(-2.0, 2.0, size=(b, m))
        W = rng.uniform(-2.0, 2.0, size=(n, m))
        C = rng.normal(size=(b, n))

        from mxsim.formats import E8M0, E2M1
        from mxsim.mx import z_values
        from mxsim.qgrad import estimator_value

        elem_est = QGradEstimator(EST_SIGMOID, temperature=1.0)
        scale_est = QGradEstimator(EST_SIGMOID, temperature=1.0)
        spec = BlockSpec(block_size=l, z=ZFunction(Z_LOGSUMEXP, beta=beta))
        cfg = small_cfg(
            spec=spec,
            grad=GradConfig(
                elem_estimator=elem_est,
                scale_mode=SCALE_GRAD_SOFTMAX,
                scale_q_estimator=scale_est,
                beta=beta,
            ),
        )

        def smooth_quant(a):
            blocks = a.reshape(-1, l)
            z = z_values(blocks, spec.z)
            s = 6.0 / z
            s_q = estimator_value(s, E8M0, scale_est)
            q = estimator_value(s_q[:, None] * blocks, E2M1, elem_est)
            return (q / s_q[:, None]).reshape(a.shape)

        # Analytic: gX = (gY @ fW) * df with gY = C.  The backward is
        # elementwise by construction — it keeps only the diagonal
        # df_ij/dX_ij — so the oracle is the per-element central
        # difference of f composed with the same downstream factor.
        from mxsim.mx import BlockQuantResult, QuantizedTensor

        blocks = X.reshape(-1, l)
        z = z_values(blocks, spec.z)
        s = 6.0 / z
        s_q = estimator_value(s, E8M0, scale_est)
        q_vals = estimator_value(s_q[:, None] * blocks, E2M1, elem_est)
        qt = QuantizedTensor(shape=blocks.shape, scales=s_q, elements=q_vals, spec=spec)
        res = BlockQuantResult(qt=qt, blocks=blocks, z=z, s_ideal=s)
        df = assemble_df_dX(res, cfg.grad).reshape(b, m)
        downstream = C @ smooth_quant(W)
        gX = downstream * df

        h = 1e-5
        ok = 0
        for i in range(b):
            for j in range(m):
                xp = X.copy()
                xp[i, j] += h
                xm = X.copy()
                xm[i, j] -= h
                fd_f = (smooth_quant(xp)[i, j] - smooth_quant(xm)[i, j]) / (2 * h)
                oracle = downstream[i, j] * fd_f
                if abs(gX[i, j] - oracle) / max(abs(oracle), 1e-3) <= 1e-3:
                    ok += 1
        assert ok >= 0.95 * b * m
