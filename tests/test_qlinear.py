"""Quantized linear layer: forward, backward, rounding and transform policies."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from mxsim.formats import STOCHASTIC, TIES_TO_EVEN, TOWARD_POSITIVE
from mxsim.hadamard import HADAMARD_ALL, HADAMARD_BACKWARD, HadamardSpec, step_signs
from mxsim.mx import BlockSpec, QuantizedTensor, quantize_blocks
from mxsim.qgrad import (
    EST_SIGMOID,
    EST_SPLINE,
    GradConfig,
    SCALE_GRAD_SOFTMAX,
    TENSOR_GRAD_ABSMAX,
    TENSOR_GRAD_STE,
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
from test_qgrad import _full_dh_dX


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
        fx = ctx.x[0]
        expected = fx @ ctx.w.T
        np.testing.assert_allclose(Y[0], expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward(np.ones((2, 4)), np.ones((3, 5)), small_cfg())

    def test_unknown_sr_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown SR policy 'sometimes'"):
            small_cfg(sr_policy="sometimes")

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((3, 0), (2, 0)), ((0, 5), (2, 5)), ((3, 5), (0, 5)),
    ], ids=["m0", "b0", "n0"])
    @pytest.mark.parametrize("kw", [{}, {"grad": GradConfig(elem_estimator=EST_SPLINE)}],
                             ids=["ste", "spline"])
    def test_empty_operand_rejected(self, x_shape, w_shape, kw):
        # An empty operand still gets one quantization block, so a smoothed
        # backward would fail late on its reshape; every config refuses it
        # in forward, naming both shapes.
        with pytest.raises(ValueError) as err:
            forward(np.ones(x_shape), np.ones(w_shape), small_cfg(**kw))
        assert str(x_shape) in str(err.value) and str(w_shape) in str(err.value)

    @pytest.mark.parametrize("mode", [TOWARD_POSITIVE, STOCHASTIC])
    def test_element_rounding_is_set_by_sr_policy(self, mode):
        # The layer rounds elements as sr_policy says, so any other element
        # rounding in the spec would be silently ignored.
        with pytest.raises(ValueError, match="sr_policy sets the element rounding"):
            QLinearConfig(spec=BlockSpec(elem_rounding=mode))
        QLinearConfig(spec=BlockSpec(elem_rounding=TIES_TO_EVEN))

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
            hadamard=HadamardSpec(seed=9, mode=HADAMARD_ALL),
        )
        Y0, _ = forward(X, W, plain)
        Y1, _ = forward(X, W, mixed)
        np.testing.assert_allclose(Y1, Y0, atol=1e-8)

    @pytest.mark.parametrize("mode", [HADAMARD_ALL, HADAMARD_BACKWARD])
    def test_hadamard_transforms_the_quantization_blocks(self, mode):
        # Its sign rows are as wide as the blocks, and a block size that is
        # not a power of two is checked only when a transform is on.
        with pytest.raises(ValueError, match="power of two"):
            QLinearConfig(spec=BlockSpec(block_size=24), hadamard=HadamardSpec(mode=mode))
        QLinearConfig(spec=BlockSpec(block_size=24))  # no transform: not checked
        cfg = QLinearConfig(spec=BlockSpec(block_size=16), hadamard=HadamardSpec(mode=mode))
        rng = np.random.default_rng(5)
        X, W = rng.normal(size=(4, 40)), rng.normal(size=(3, 40))
        Y, ctx = forward(X, W, cfg)
        gx, gw = backward(np.ones_like(Y), ctx, cfg)
        assert ctx.signs.shape == (3, 16)
        assert Y.shape == (4, 3) and gx.shape == X.shape and gw.shape == W.shape

    def test_padding_of_contraction_dim(self):
        rng = np.random.default_rng(3)
        X, W = rng.normal(size=(2, 6)), rng.normal(size=(3, 6))  # 6 % 4 != 0
        Y, ctx = forward(X, W, small_cfg())
        assert Y.shape == (2, 3)
        assert ctx.x.shape == (2, 8) and ctx.w.shape == (3, 8)

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
        cfg = small_cfg(grad=GradConfig(elem_estimator=EST_SPLINE,
                                        scale_mode=SCALE_GRAD_SOFTMAX))
        Y, ctx = forward(X, W, cfg)
        assert quantized == [(4, 8), (3, 8)]
        backward(np.ones_like(Y), ctx, cfg)
        assert quantized[2:] == [(4, 4), (3, 4)]
        assert len(assembled) == 2
        assert assembled[0] is ctx.x and assembled[1] is ctx.w

        quantized.clear()
        ste = small_cfg()
        Y, ctx = forward(X, W, ste)
        backward(np.ones_like(Y), ctx, ste)
        assert len(quantized) == 4
        assert len(assembled) == 2  # nothing more

    @pytest.mark.parametrize("kw", [
        {},
        {"sr_policy": SR_ALL, "tensor_scaling": True,
         "hadamard": HadamardSpec(mode=HADAMARD_ALL)},
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

    def test_gradient_shape_checked(self):
        X, W = np.ones((2, 4)), np.ones((3, 4))
        cfg = small_cfg()
        _, ctx = forward(X, W, cfg)
        with pytest.raises(ValueError, match=r"gradient shape \(3, 2\) != \(2, 3\)"):
            backward(np.ones((3, 2)), ctx, cfg)

    @pytest.mark.parametrize("kw", [
        {},
        {"grad": GradConfig(elem_estimator=EST_SPLINE)},
    ], ids=["matrices-saved", "records-saved"])
    def test_gradient_shape_checked_before_dequantizing(self, monkeypatch, kw):
        import mxsim.mx as mx

        X, W = np.ones((2, 4)), np.ones((3, 4))
        cfg = small_cfg(**kw)
        _, ctx = forward(X, W, cfg)
        calls = []
        real = mx.dequantize_tensor
        monkeypatch.setattr(mx, "dequantize_tensor", lambda qt: calls.append(1) or real(qt))
        with pytest.raises(ValueError, match=r"gradient shape \(3, 2\) != \(2, 3\)"):
            backward(np.ones((3, 2)), ctx, cfg)
        assert calls == []

    @pytest.mark.parametrize("tensor_mode", [TENSOR_GRAD_ABSMAX, TENSOR_GRAD_STE])
    def test_tensor_factor_gradient_equals_the_full_formula(self, monkeypatch,
                                                            tensor_mode):
        # With tensor scaling, each operand's derivative includes the
        # tensor-factor term; the full-array formula gives the same bytes.
        import mxsim.qlinear as qlinear

        rng = np.random.default_rng(17)
        X, W = rng.normal(size=(5, 6)) * 3.0, rng.normal(size=(3, 6))
        cfg = small_cfg(tensor_scaling=True, grad=GradConfig(tensor_mode=tensor_mode))
        Y, ctx = forward(X, W, cfg, seed=1, step=2)
        gY = rng.normal(size=Y.shape)
        got = backward(gY, ctx, cfg)

        oracle_calls = []

        def oracle(res, grad):
            oracle_calls.append(res)
            return _full_dh_dX(res, grad)

        monkeypatch.setattr(qlinear, "assemble_dh_dX", oracle)
        expected = backward(gY, ctx, cfg)
        assert [r is c for r, c in zip(oracle_calls, (ctx.x, ctx.w))] == [True, True]
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
        plain = backward(gY, ctx, replace(cfg, grad=GradConfig()))
        assert any(a.tobytes() != b.tobytes() for a, b in zip(got, plain))

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
        # Q' >= 0.05, the spline's slope floor, so no entry loses more than
        # that factor.
        rng = np.random.default_rng(8)
        X, W = rng.normal(size=(2, 8)), rng.normal(size=(3, 8))
        clip = 0.05
        cfg = small_cfg(grad=GradConfig(elem_estimator=EST_SPLINE))
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
            hadamard=HadamardSpec(seed=1, mode=HADAMARD_ALL),
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
        (8, {"hadamard": HadamardSpec(seed=5, mode=HADAMARD_ALL)}),
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
        cfg = small_cfg(**kw)
        Y_explicit, ctx = forward(X, W, cfg)  # saves the records
        assert Y_explicit.tobytes() == Y.tobytes()
        explicit = backward(gY, ctx, cfg)
        assert len(assembled) == 2
        for a, b in zip(skipped, explicit):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kw, unit", [
        ({}, True),
        ({"tensor_scaling": True}, True),  # tensor_mode "ignore"
        ({"tensor_scaling": True,
          "grad": GradConfig(tensor_mode=TENSOR_GRAD_ABSMAX)}, False),
        ({"grad": GradConfig(tensor_mode=TENSOR_GRAD_ABSMAX)}, ValueError),
        ({"grad": GradConfig(elem_estimator=EST_SPLINE)}, False),
        ({"grad": GradConfig(scale_mode=SCALE_GRAD_SOFTMAX)}, False),
    ])
    def test_which_configs_skip(self, kw, unit):
        if unit is ValueError:  # a tensor-factor gradient with no tensor factor
            with pytest.raises(ValueError, match="'absmax' needs tensor_scaling"):
                small_cfg(**kw)
        else:
            assert small_cfg(**kw)._unit_operand_grad is unit


class TestLayerContext:
    """Each operand is saved once: its record when the backward reads the
    operand derivative, otherwise the matrix the forward multiplied."""

    @pytest.mark.parametrize("kw, records", [
        ({}, False),
        ({"quantize": False}, False),
        ({"grad": GradConfig(elem_estimator=EST_SPLINE,
                             scale_mode=SCALE_GRAD_SOFTMAX)}, True),
    ], ids=["ste", "dense", "spline-softsoftmax"])
    def test_saves_each_operand_once(self, kw, records):
        rng = np.random.default_rng(15)
        X, W = rng.normal(size=(5, 6)), rng.normal(size=(3, 6))  # m pads to 8
        cfg = small_cfg(**kw)
        Y, ctx = forward(X, W, cfg, seed=2, step=3)
        assert [f.name for f in fields(ctx)] == ["x", "w", "m", "seed", "step", "signs"]
        assert (ctx.m, ctx.seed, ctx.step, ctx.signs) == (6, 2, 3, None)
        if records:
            assert isinstance(ctx.x, QuantizedTensor) and isinstance(ctx.w, QuantizedTensor)
            fx, fw = ctx.x.dequantize(), ctx.w.dequantize()
        else:
            assert isinstance(ctx.x, np.ndarray) and isinstance(ctx.w, np.ndarray)
            fx, fw = ctx.x, ctx.w
        assert fx.shape == (5, 8) and fw.shape == (3, 8)
        assert Y.tobytes() == (fx @ fw.T).tobytes()


    @pytest.mark.parametrize("mode", [HADAMARD_BACKWARD, HADAMARD_ALL])
    def test_one_sign_draw_serves_the_step(self, monkeypatch, mode):
        # Padded b, n and m are 12, 4 and 8: forward draws the 3 rows of the
        # batch axis once, and backward transforms with those rows.
        import mxsim.hadamard as hadamard

        hspec = HadamardSpec(seed=7, mode=mode)
        cfg = small_cfg(hadamard=hspec)
        expected = step_signs(hspec, 3, 3, 4)
        draws, real = [], hadamard.block_signs

        def counting(seed, num_blocks, l):
            draws.append((num_blocks, l))
            return real(seed, num_blocks, l)

        monkeypatch.setattr(hadamard, "block_signs", counting)
        rng = np.random.default_rng(16)
        X, W = rng.normal(size=(9, 6)), rng.normal(size=(3, 6))
        Y, ctx = forward(X, W, cfg, seed=2, step=3)
        assert ctx.signs.tobytes() == expected.tobytes()
        backward(np.ones_like(Y), ctx, cfg)
        assert draws == [(3, 4)]


class TestHadamardPlacement:
    def test_backward_only_leaves_forward_unchanged(self):
        rng = np.random.default_rng(11)
        X, W = rng.normal(size=(4, 8)), rng.normal(size=(3, 8))
        plain = small_cfg()
        bwd = small_cfg(hadamard=HadamardSpec(seed=2, mode=HADAMARD_BACKWARD))
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
            hadamard=HadamardSpec(seed=2, mode=HADAMARD_BACKWARD),
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
            hadamard=HadamardSpec(seed=3, mode=HADAMARD_ALL),
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

        elem_est = EST_SIGMOID
        scale_est = EST_SIGMOID
        spec = BlockSpec(block_size=l, beta=beta)
        cfg = small_cfg(
            spec=spec,
            grad=GradConfig(
                elem_estimator=elem_est,
                scale_mode=SCALE_GRAD_SOFTMAX,
                scale_q_estimator=scale_est,
            ),
        )

        def smooth_quant(a):
            blocks = a.reshape(-1, l)
            z = z_values(blocks, spec.beta)
            s = 6.0 / z
            s_q = estimator_value(s, E8M0, scale_est)
            q = estimator_value(s_q[:, None] * blocks, E2M1, elem_est)
            return (q / s_q[:, None]).reshape(a.shape)

        # Analytic: gX = (gY @ fW) * df with gY = C.  The backward is
        # elementwise by construction — it keeps only the diagonal
        # df_ij/dX_ij — so the oracle is the per-element central
        # difference of f composed with the same downstream factor.
        blocks = X.reshape(-1, l)
        z = z_values(blocks, spec.beta)
        s = 6.0 / z
        s_q = estimator_value(s, E8M0, scale_est)
        q_vals = estimator_value(s_q[:, None] * blocks, E2M1, elem_est)
        res = QuantizedTensor(shape=blocks.shape, scales=s_q, elements=q_vals, spec=spec,
                              blocks=blocks, z=z, s_ideal=s)
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
