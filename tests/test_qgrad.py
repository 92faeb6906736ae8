"""Surrogate gradients: relaxed quantizers, scale derivatives, assembly."""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxsim.formats import E2M1, E4M3, E8M0, FORMATS, FloatFormat, grid, round_array
from mxsim.mx import (
    BlockSpec,
    QuantizedTensor,
    quantize_blocks,
    z_values,
)
from mxsim import qgrad
from mxsim.qgrad import (
    EST_BASELINE,
    EST_SIGMOID,
    EST_SPLINE,
    EST_STE,
    GradConfig,
    SCALE_GRAD_ABSMAX,
    SCALE_GRAD_HYBRID,
    SCALE_GRAD_SOFTMAX,
    SCALE_GRAD_STE,
    SMOOTH_MAX_BETA,
    TENSOR_GRAD_ABSMAX,
    TENSOR_GRAD_IGNORE,
    TENSOR_GRAD_STE,
    _spline_data,
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
    tensor_scale_grad,
)

GRID = grid(E2M1)


@pytest.fixture
def set_constant(monkeypatch):
    """Sets a module constant of ``qgrad`` for one test; the cached spline
    slope tables are dropped on the way in and out, since they hold the
    slope floor."""

    def set_(name, value):
        monkeypatch.setattr(qgrad, name, value)
        qgrad._spline_slope_table.cache_clear()

    yield set_
    qgrad._spline_slope_table.cache_clear()


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

    def test_clip_rule(self, set_constant):
        x = np.linspace(-8, 8, 1001)
        set_constant("SPLINE_SLOPE_FLOOR", 0.1)
        g = q_spline_grad(x, E2M1)
        assert g.min() == 0.1

    def test_clip_floor_over_many_points(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-10, 10, 10**6)
        assert qgrad.SPLINE_SLOPE_FLOOR == 0.05
        assert q_spline_grad(x, E2M1).min() == 0.05

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
        assert qgrad.BASELINE_POWER == 5
        v = q_baseline(np.array([1.0]), E2M1)[0]
        assert v == pytest.approx(1.0, abs=1e-12)
        assert q_baseline_grad(np.array([1.0]), E2M1)[0] == pytest.approx(0.2)

    def test_interval_end(self):
        v = q_baseline(np.array([1.5 - 1e-15]), E2M1)[0]
        assert v == pytest.approx(1.5, abs=1e-9)
        assert q_baseline_grad(np.array([1.4999999]), E2M1)[0] == pytest.approx(
            0.2, rel=1e-3
        )

    def test_midpoint_value_and_clamp(self):
        v = q_baseline(np.array([1.25]), E2M1)[0]
        assert v == pytest.approx(1.25, abs=1e-12)
        assert q_baseline_grad(np.array([1.25]), E2M1)[0] == qgrad.BASELINE_GRAD_MAX == 1e3

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(1.02, 1.23, 200)  # inside one interval, off midpoint
        h = 1e-8
        fd = (q_baseline(x + h, E2M1) - q_baseline(x - h, E2M1)) / (2 * h)
        np.testing.assert_allclose(q_baseline_grad(x, E2M1), fd, rtol=1e-4)


class TestSigmoid:
    def test_midpoint(self, set_constant):
        # Between 1 and 1.5: c = 1.25, value = 1.25, slope = 3/T.
        assert qgrad.SIGMOID_TEMPERATURE == 1.0
        assert q_sigmoid(np.array([1.25]), E2M1)[0] == pytest.approx(1.25)
        assert q_sigmoid_grad(np.array([1.25]), E2M1)[0] == pytest.approx(3.0)
        set_constant("SIGMOID_TEMPERATURE", 0.5)
        assert q_sigmoid_grad(np.array([1.25]), E2M1)[0] == pytest.approx(6.0)

    def test_small_temperature_is_a_step(self, set_constant):
        # Just past the midpoint the tiny-T sigmoid lands on the upper value.
        x = np.array([1.25 + 0.5 / 4.0])
        set_constant("SIGMOID_TEMPERATURE", 1e-6)
        assert q_sigmoid(x, E2M1)[0] == pytest.approx(1.5, abs=1e-9)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(1.05, 1.45, 500)
        h = 1e-6
        fd = (q_sigmoid(x + h, E2M1) - q_sigmoid(x - h, E2M1)) / (2 * h)
        np.testing.assert_allclose(q_sigmoid_grad(x, E2M1), fd, rtol=1e-4)

    def test_limit_matches_nearest_rounding(self, set_constant):
        # Dense points away from decision boundaries: the tiny-T sigmoid
        # agrees with ties-to-even rounding within 1e-6 of the largest gap.
        x = np.linspace(-5.9, 5.9, 4001)
        from mxsim.qgrad import _decision_knots

        t, _ = _decision_knots(E2M1)
        x = x[np.min(np.abs(x[:, None] - t[None, :]), axis=1) > 1e-3]
        set_constant("SIGMOID_TEMPERATURE", 1e-6)
        approx = q_sigmoid(x, E2M1)
        exact = round_array(x, E2M1)
        assert np.abs(approx - exact).max() <= 1e-6 * 2.0


class TestEstimatorKinds:
    def test_kinds_use_the_surrogate_defaults(self):
        x = np.linspace(-7.0, 7.0, 1001)
        cases = {
            EST_SPLINE: (q_spline(x, E2M1), q_spline_grad(x, E2M1)),
            EST_BASELINE: (q_baseline(x, E2M1), q_baseline_grad(x, E2M1)),
            EST_SIGMOID: (q_sigmoid(x, E2M1), q_sigmoid_grad(x, E2M1)),
            EST_STE: (x, np.ones_like(x)),
        }
        for kind, (value, grad) in cases.items():
            assert estimator_value(x, E2M1, kind).tobytes() == value.tobytes()
            assert estimator_grad(x, E2M1, kind).tobytes() == grad.tobytes()

    @pytest.mark.parametrize("fn", [estimator_value, estimator_grad])
    def test_unknown_kind_raises(self, fn):
        with pytest.raises(ValueError, match="unknown estimator 'bogus'"):
            fn(np.zeros(3), E2M1, "bogus")

    @pytest.mark.parametrize("field", ["elem_estimator", "scale_q_estimator"])
    def test_config_rejects_unknown_kind(self, field):
        with pytest.raises(ValueError, match="unknown estimator 'bogus'"):
            GradConfig(**{field: "bogus"})

    @pytest.mark.parametrize("field, message", [
        ("scale_mode", "unknown scale gradient mode 'bogus'"),
        ("tensor_mode", "unknown tensor gradient mode 'bogus'"),
    ])
    def test_config_rejects_unknown_mode(self, field, message):
        with pytest.raises(ValueError, match=message):
            GradConfig(**{field: "bogus"})


class TestDZ:
    @pytest.mark.parametrize("mode", [SCALE_GRAD_STE, "bogus"])
    def test_mode_without_a_statistic_derivative_raises(self, mode):
        with pytest.raises(ValueError, match=f"no statistic derivative for mode {mode!r}"):
            dZ(np.ones((1, 4)), mode)

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
        got = dZ(block[None, :], SCALE_GRAD_SOFTMAX, beta=beta)[0]
        h = 1e-6
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            fd = (
                z_values((block + e)[None, :], beta)[0]
                - z_values((block - e)[None, :], beta)[0]
            ) / (2 * h)
            assert got[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestDsDX:
    def test_example_block(self):
        # s = 6 / max|X| at [1, -3, 2]: only the argmax entry moves the
        # scale, with derivative -(6/9) * (-1) = +2/3.
        block = np.array([[1.0, -3.0, 2.0]])
        z = np.array([3.0])
        dz = dZ(block, SCALE_GRAD_ABSMAX)
        out = ds_dX(z, dz)
        np.testing.assert_allclose(out, [[0.0, 2.0 / 3.0, 0.0]])
        # Finite-difference cross-check on the argmax coordinate.
        h = 1e-7
        fd = (6.0 / 3.0 - 6.0 / (3.0 + h)) / h  # |x| grows as x gets more negative
        assert out[0, 1] == pytest.approx(fd, rel=1e-5)

    def test_uniform_block_softmax(self):
        c = 0.7
        block = np.full((1, 8), c)
        z = z_values(block, 3.0)
        dz = dZ(block, SCALE_GRAD_SOFTMAX, beta=3.0)
        out = ds_dX(z, dz)
        expected = -(6.0 / z[0] ** 2) * (1.0 / 8.0)
        np.testing.assert_allclose(out, expected)

    def test_zero_statistic_gives_zero(self):
        out = ds_dX(np.array([0.0]), np.ones((1, 4)))
        np.testing.assert_array_equal(out, 0.0)


def _smooth_forward(blocks, spec, elem_est, scale_est, beta):
    """Fully differentiable surrogate of the per-block quantizer."""
    z = z_values(blocks, beta)
    s = E2M1.max_finite / z
    s_q = estimator_value(s, spec.scale_format, scale_est)
    q_vals = estimator_value(s_q[:, None] * blocks, E2M1, elem_est)
    return q_vals / s_q[:, None], z, s, s_q, q_vals


def _smooth_record(spec, blocks, z, s, s_q, q_vals, g=None):
    """The smooth surrogate's quantities as a quantization record."""
    return QuantizedTensor(shape=blocks.shape, scales=s_q, elements=q_vals, spec=spec,
                           blocks=blocks, z=z, s_ideal=s, global_scale=g)


class TestAssembleDf:
    def test_full_ste_is_exactly_one(self):
        rng = np.random.default_rng(6)
        blocks = rng.normal(size=(10, 16))
        spec = BlockSpec(block_size=16)
        res = quantize_blocks(blocks.ravel(), spec)
        cfg = GradConfig()
        out = assemble_df_dX(res, cfg)
        np.testing.assert_array_equal(out, 1.0)

    def test_absmax_off_argmax_is_elem_grad_only(self):
        spec = BlockSpec(block_size=4)
        blocks = np.array([[1.0, -3.0, 2.0, 0.5]])
        res = quantize_blocks(blocks.ravel(), spec)
        spline = EST_SPLINE
        cfg = GradConfig(elem_estimator=spline, scale_mode=SCALE_GRAD_ABSMAX)
        out = assemble_df_dX(res, cfg)
        expected = estimator_grad(res.s_eff[:, None] * res.blocks, E2M1, spline)
        for j in (0, 2, 3):
            assert out[0, j] == expected[0, j]
        assert out[0, 1] != expected[0, 1]

    def test_matches_fd_on_smooth_surrogate(self):
        rng = np.random.default_rng(7)
        l, beta = 8, 4.0
        spec = BlockSpec(block_size=l, beta=beta)
        elem_est = EST_SIGMOID
        scale_est = EST_SIGMOID
        cfg = GradConfig(
            elem_estimator=elem_est,
            scale_mode=SCALE_GRAD_SOFTMAX,
            scale_q_estimator=scale_est,
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


class TestTensorScaleGrad:
    @staticmethod
    def _record():
        X = np.array([[1.0, 2.0], [-5.0, 0.5], [3.0, 1.0]])
        return quantize_blocks(X, BlockSpec(block_size=2), tensor_scaling=True)

    def test_ignore_is_zero(self):
        # dg/dX = 0: the tensor-factor correction adds nothing.
        res = quantize_blocks(np.ones((3, 4)), BlockSpec(block_size=4), tensor_scaling=True)
        cfg = GradConfig(elem_estimator=EST_SPLINE, tensor_mode=TENSOR_GRAD_IGNORE)
        assert assemble_dh_dX(res, cfg).tobytes() == assemble_df_dX(res, cfg).tobytes()

    def test_ste_is_one(self):
        # dg/dX = 1 on every element: the whole correction is added.
        res = quantize_blocks(np.ones((3, 4)), BlockSpec(block_size=4), tensor_scaling=True)
        cfg = GradConfig(elem_estimator=EST_SPLINE, tensor_mode=TENSOR_GRAD_STE)
        df = assemble_df_dX(res, cfg)
        expected = df + 1.0 * (res.values - res.blocks * df)
        assert assemble_dh_dX(res, cfg).tobytes() == expected.tobytes()

    def test_hard_max_one_hot_at_global_argmax(self):
        p, row = tensor_scale_grad(self._record())
        out = np.zeros((3, 2))
        out[p] = row
        expected = np.zeros((3, 2))
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
        spec = BlockSpec(block_size=l, beta=beta)
        elem_est = EST_SIGMOID
        scale_est = EST_SIGMOID
        cfg = GradConfig(
            elem_estimator=elem_est,
            scale_mode=SCALE_GRAD_SOFTMAX,
            scale_q_estimator=scale_est,
            tensor_mode=TENSOR_GRAD_ABSMAX,
        )
        # Enough points that the global-argmax element (where the
        # elementwise formula deliberately drops cross-element coupling
        # through the global factor) stays within the 1% allowance.
        n_blocks = 60
        raw = rng.uniform(-3.0, 3.0, size=(n_blocks, l))
        raw[0, 0] = 5.0  # unambiguous global argmax block

        def smooth_h(raw_blocks):
            z_raw = z_values(raw_blocks, beta)
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


# ---------------------------------------------------------------------------
# Oracles: the search of the knots, and the derivative built in full arrays
# ---------------------------------------------------------------------------


def _searched_spline_slope(x, fmt, clip_min=0.05):
    t, _, slopes = _spline_data(fmt)
    i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
    inside = (x >= t[0]) & (x < t[-1])
    return np.maximum(np.where(inside, slopes[i], 0.0), clip_min)


def _spline_inputs(fmt):
    t = _spline_data(fmt)[0]
    edges = np.concatenate([t, np.arange(-24, 25) / 4.0])
    return np.concatenate([
        np.random.default_rng(0).standard_normal(3_000_000),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [0.0, -0.0, 6.0, -6.0, 1e300, -1e300, np.inf, -np.inf, np.nan],
    ])


class TestSplineSlopeTable:
    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_equals_the_knot_search(self, set_constant, name):
        fmt = FORMATS[name]
        x = _spline_inputs(fmt)
        for clip_min in (0.05, 0.0, 0.3):
            set_constant("SPLINE_SLOPE_FLOOR", clip_min)
            got = q_spline_grad(x, fmt)
            assert got.tobytes() == _searched_spline_slope(x, fmt, clip_min).tobytes()

    def test_e2m1_has_a_42_cell_table_and_wide_formats_none(self):
        from mxsim.qgrad import _spline_slope_table

        assert len(_spline_slope_table(E2M1)[2]) == 42
        assert _spline_slope_table(E8M0) is None
        assert _spline_slope_table(E4M3) is None

    def test_nan_and_infinities_read_the_floor(self, set_constant):
        x = np.array([np.nan, np.inf, -np.inf])
        set_constant("SPLINE_SLOPE_FLOOR", 0.07)
        np.testing.assert_array_equal(q_spline_grad(x, E2M1), 0.07)

    def test_shapes_and_strides(self):
        x = np.random.default_rng(1).uniform(-7.0, 7.0, size=(64, 32))
        for a in (x, x.T, x[::3, 1::2], np.asarray(1.3)):
            got = q_spline_grad(a, E2M1)
            assert got.shape == a.shape
            assert got.tobytes() == _searched_spline_slope(a, E2M1).tobytes()


def _full_dZ(blocks, mode, beta, mask):
    a = np.abs(blocks)
    a = np.where(mask, a, -np.inf)
    if mode == SCALE_GRAD_ABSMAX:
        out = np.zeros_like(blocks)
        idx = np.argmax(a, axis=-1)
        rows = np.arange(blocks.shape[0])
        out[rows, idx] = np.sign(blocks[rows, idx])
        out[a[rows, idx] <= 0, :] = 0.0
        return out
    m = a.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(beta * (a - m))
    e = np.where(np.isfinite(a), e, 0.0)
    weights = e / e.sum(axis=-1, keepdims=True)
    return weights * np.sign(blocks)


def _full_df_dX(res, cfg):
    spec, blocks, s_q = res.spec, res.blocks, res.s_eff
    qg = estimator_grad(s_q[:, None] * blocks, E2M1, cfg.elem_estimator)
    if cfg.scale_mode == SCALE_GRAD_STE:
        return qg
    # The softmax derivative takes the statistic's beta, or the hard max's.
    beta = SMOOTH_MAX_BETA if spec.beta is None else spec.beta
    dz = _full_dZ(blocks, cfg.scale_mode, beta, res.mask)
    ds = ds_dX(res.z, dz)
    s_pre = res.s_ideal / res.rescale
    finite_pre = np.where(np.isfinite(s_pre), s_pre, spec.scale_format.max_finite)
    qprime = estimator_grad(finite_pre, spec.scale_format, cfg.scale_q_estimator)
    q_vals = res.values * s_q[:, None]
    bracket = (qprime / s_q)[:, None] * (blocks * qg - q_vals / s_q[:, None])
    return np.where(res.mask, qg + ds * bracket, 0.0)


def _full_dh_dX(res, cfg):
    """dh/dX with dg/dX as a full array and the mask applied everywhere."""
    df_dU = _full_df_dX(res, cfg)
    if cfg.tensor_mode == TENSOR_GRAD_IGNORE:
        return df_dU
    beta = res.spec.beta
    raw_blocks = res.blocks * (res.global_scale or 1.0)
    if cfg.tensor_mode == TENSOR_GRAD_STE:
        dg = np.ones_like(raw_blocks)
    else:
        z_raw = z_values(raw_blocks, beta, res.mask)
        p = int(np.argmax(z_raw))
        dg = np.zeros_like(raw_blocks)
        mode = SCALE_GRAD_ABSMAX if beta is None else SCALE_GRAD_SOFTMAX
        dg[p] = _full_dZ(raw_blocks[p : p + 1], mode, beta, res.mask[p : p + 1])
    out = df_dU + dg * (res.values - res.blocks * df_dU)
    return np.where(res.mask, out, 0.0)


def _grad_configs(tensor_modes):
    for elem in (EST_SPLINE, EST_BASELINE, EST_SIGMOID, EST_STE):
        for scale_mode in (SCALE_GRAD_STE, SCALE_GRAD_ABSMAX, SCALE_GRAD_SOFTMAX,
                           SCALE_GRAD_HYBRID):
            for scale_q in (EST_STE, EST_SPLINE):
                for tensor_mode in tensor_modes:
                    yield GradConfig(elem_estimator=elem, scale_mode=scale_mode,
                                     scale_q_estimator=scale_q, tensor_mode=tensor_mode)


_TENSOR_MODES = (TENSOR_GRAD_ABSMAX, TENSOR_GRAD_STE, TENSOR_GRAD_IGNORE)


class TestAssemblyOracle:
    """The assembled derivatives equal, byte for byte, the full-array
    formulas with the padding mask applied at every step."""

    @pytest.mark.parametrize("beta", [None, 9.0], ids=["z0", "z1"])
    @pytest.mark.parametrize("shape", [(6, 48), (4, 64)], ids=["padded", "unpadded"])
    @pytest.mark.parametrize("scale_format, l", [(E8M0, 32), (E4M3, 16)])
    @pytest.mark.parametrize("tensor_scaling", [True, False])
    def test_equals_full_formula(self, beta, shape, scale_format, l, tensor_scaling):
        rng = np.random.default_rng(11)
        X = rng.standard_normal(shape) * np.exp(rng.uniform(-4.0, 4.0, size=(shape[0], 1)))
        X[0, :l] = 0.0  # a dead block
        spec = BlockSpec(block_size=l, scale_format=scale_format, beta=beta)
        res = quantize_blocks(X, spec, tensor_scaling=tensor_scaling)
        for cfg in _grad_configs(_TENSOR_MODES):
            assert assemble_df_dX(res, cfg).tobytes() == _full_df_dX(res, cfg).tobytes()
            assert assemble_dh_dX(res, cfg).tobytes() == _full_dh_dX(res, cfg).tobytes()

    @pytest.mark.parametrize("shape", [(2, 48), (2, 64)], ids=["padded", "unpadded"])
    def test_infinite_df_dU(self, shape):
        # A block 1e-200 times the tensor's largest: Z * Z underflows, so
        # ds/dX and with it df/dU are infinite there, and 0 * inf makes the
        # full formula NaN off the argmax block.
        X = np.full(shape, 0.5)
        X[1] *= 1e-200
        res = quantize_blocks(X, BlockSpec(block_size=32), tensor_scaling=True)
        cfgs = list(_grad_configs((TENSOR_GRAD_ABSMAX,)))
        with np.errstate(invalid="ignore"):
            assert any(not np.isfinite(assemble_df_dX(res, c)).all() for c in cfgs)
            for cfg in cfgs:
                assert assemble_dh_dX(res, cfg).tobytes() == _full_dh_dX(res, cfg).tobytes()

    def test_overflowing_correction(self):
        # A record built by hand whose f(U) - U * df/dU overflows off the
        # argmax block while df/dU stays finite.
        blocks = np.array([[1.7e308, 1.0, 0.0, 0.0], [-1.5e308, 0.0, 0.0, 0.0]])
        res = QuantizedTensor(shape=(2, 4), scales=np.array([1.0, 4e-308]),
                              elements=np.array([[6.0, 1.0, 0.0, 0.0], [6.0, 0.0, 0.0, 0.0]]),
                              spec=BlockSpec(block_size=4), blocks=blocks,
                              z=np.abs(blocks).max(axis=1),
                              s_ideal=6.0 / np.abs(blocks).max(axis=1))
        cfg = GradConfig(tensor_mode=TENSOR_GRAD_ABSMAX)
        assert np.isfinite(assemble_df_dX(res, cfg)).all()
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _full_dh_dX(res, cfg)
            got = assemble_dh_dX(res, cfg)
        assert np.isnan(expected[1, 0])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", [SCALE_GRAD_ABSMAX, SCALE_GRAD_SOFTMAX])
    def test_dZ_on_non_finite_and_masked_rows(self, mode):
        blocks = np.array([[1.0, -np.inf, 2.0], [np.nan, 1.0, 0.0], [0.0, -0.5, 3.0]])
        mask = np.array([[True, True, True], [True, True, True], [True, False, False]])
        for m in (None, mask):
            got = dZ(blocks, mode, 5.0, m)
            full = _full_dZ(blocks, mode, 5.0, np.ones_like(mask) if m is None else m)
            assert got.tobytes() == full.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.floats(-7, 7, allow_nan=False))
def test_estimator_values_bounded_by_grid(x):
    arr = np.array([x])
    for est in (
        EST_SPLINE,
        EST_BASELINE,
        EST_SIGMOID,
    ):
        v = estimator_value(arr, E2M1, est)[0]
        assert GRID[0] - 1e-9 <= v <= GRID[-1] + 1e-9
