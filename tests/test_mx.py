"""Block quantization: statistics, scales, round trips, serialization."""

from __future__ import annotations

import hashlib
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mxsim.formats import (
    E4M3,
    E2M1,
    E5M2,
    E8M0,
    E8M3,
    FORMATS,
    ROUNDING_MODES,
    STOCHASTIC,
    TIES_TO_EVEN,
    TOWARD_POSITIVE,
    UE5M3,
    encode_array,
    grid,
)
from mxsim.mx import (
    BlockSpec,
    ZERO_NEAREST_SUBNORMAL,
    ZERO_TO_ONE,
    dequantize_tensor,
    nvfp4_rescale_constant,
    quantize_blocks,
    quantize_scales,
    quantize_tensor,
    to_bytes,
    z_values,
)

LSE = 1.0  # the beta of a log-sum-exp statistic


class TestSpecChecks:
    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_logsumexp_needs_a_positive_finite_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be None or positive and finite"):
            BlockSpec(beta=beta)

    @pytest.mark.parametrize("block_size", [0, -4])
    def test_block_size_must_be_positive(self, block_size):
        with pytest.raises(ValueError, match="block_size must be positive"):
            BlockSpec(block_size=block_size)

    def test_unknown_zero_mode(self):
        with pytest.raises(ValueError, match="unknown zero mode 'to_zero'"):
            BlockSpec(zero_mode="to_zero")


class TestZValue:
    def test_absmax(self):
        assert z_values(np.array([[1.0, -3.0, 2.0]]), None)[0] == 3.0

    def test_logsumexp_two_ones(self):
        # (1/beta) log(e^1 + e^1) = 1 + log 2
        got = z_values(np.array([[1.0, 1.0]]), LSE)[0]
        assert got == pytest.approx(1.0 + math.log(2.0), rel=1e-12)

    def test_logsumexp_large_beta_approaches_max(self):
        block = np.zeros(32)
        block[0] = 5.0
        got = z_values(block[None], 100.0)[0]
        assert 5.0 <= got < 5.0 + 1e-3

    def test_logsumexp_overflow_guard(self):
        # Without a max shift exp(beta * 1e4) would overflow to inf.
        got = z_values(np.array([[1e4, 0.0]]), 100.0)[0]
        assert np.isfinite(got)
        assert got == pytest.approx(1e4, rel=1e-9)

    def test_absmax_all_zero_is_zero(self):
        assert z_values(np.zeros((1, 16)), None)[0] == 0.0

    def test_zero_and_logsumexp_blocks_match_the_formulas(self):
        # The row maximum starts from 0.0, which no |x| undercuts: all-zero
        # blocks keep statistic 0 and log-sum-exp blocks are unchanged,
        # with and without padding masked out.
        blocks = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -3.0, 2.0, 0.5]])
        assert z_values(blocks, None).tolist() == [0.0, 3.0]
        beta = 2.0

        def lse(b):
            a = np.abs(b)
            m = np.max(a, axis=-1)
            return m + np.log(np.exp(beta * (a - m[:, None])).sum(axis=-1)) / beta

        assert z_values(blocks, beta).tobytes() == lse(blocks).tobytes()
        mask = np.array([[True, True, False, False]] * 2)
        assert z_values(blocks, beta, mask).tobytes() == lse(blocks[:, :2]).tobytes()


class TestBlockScale:
    def test_formula(self):
        spec = BlockSpec(block_size=3)
        assert quantize_blocks(np.array([1.0, 2.0, 4.0]), spec).s_ideal[0] == 6.0 / 4.0

    def test_zero_block_gives_inf_sentinel(self):
        spec = BlockSpec(block_size=4)
        assert quantize_blocks(np.zeros(4), spec).s_ideal[0] == np.inf

    def test_small_elements(self):
        spec = BlockSpec(block_size=3)
        s_ideal = quantize_blocks(np.array([0.01, 0.0, 0.0]), spec).s_ideal[0]
        assert s_ideal == pytest.approx(600.0)


class TestQuantizeScale:
    def test_toward_positive_power_of_two(self):
        spec = BlockSpec(scale_rounding=TOWARD_POSITIVE)
        assert quantize_scales(np.array([1.5]), spec)[0] == 2.0

    def test_zero_nearest_subnormal_e4m3(self):
        spec = BlockSpec(scale_format=E4M3, zero_mode=ZERO_NEAREST_SUBNORMAL)
        assert quantize_scales(np.array([0.0]), spec)[0] == 2.0**-9

    def test_zero_to_one(self):
        spec = BlockSpec(scale_format=E4M3, zero_mode=ZERO_TO_ONE)
        assert quantize_scales(np.array([0.0]), spec)[0] == 1.0

    def test_overflow_saturates(self):
        spec = BlockSpec(scale_format=E4M3)
        assert quantize_scales(np.array([1e9]), spec)[0] == 448.0

    def test_inf_sentinel_saturates(self):
        spec = BlockSpec(scale_format=E4M3)
        assert quantize_scales(np.array([np.inf]), spec)[0] == 448.0

    @pytest.mark.parametrize("fmt", [E8M0, E4M3, UE5M3])
    @pytest.mark.parametrize("mode", [ZERO_NEAREST_SUBNORMAL, ZERO_TO_ONE])
    def test_always_positive(self, fmt, mode):
        spec = BlockSpec(scale_format=fmt, zero_mode=mode)
        rng = np.random.default_rng(0)
        s = np.concatenate([10.0 ** rng.uniform(-60, 60, 200), [0.0, np.inf]])
        out = quantize_scales(s, spec)
        assert (out > 0).all()
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("mode", [TIES_TO_EVEN, TOWARD_POSITIVE, STOCHASTIC])
    @pytest.mark.parametrize("fmt", [E8M0, E4M3, UE5M3], ids=["E8M0", "E4M3", "UE5M3"])
    def test_sentinel_saturates_and_draws_nothing(self, mode, fmt):
        # Stochastic scale rounding draws for the finite multipliers only.
        spec = BlockSpec(scale_format=fmt, scale_rounding=mode)
        s = np.array([np.inf, 0.3, np.inf, 5.0])
        rng, twin = np.random.default_rng(1), np.random.default_rng(1)
        out = quantize_scales(s, spec, rng if mode == STOCHASTIC else None)
        assert out[0] == out[2] == fmt.max_finite
        if mode == STOCHASTIC:
            twin.random(2)
            assert rng.random() == twin.random()

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -1.0, -(2.0**-140)],
                             ids=["nan", "-inf", "-1", "-tiny"])
    @pytest.mark.parametrize("fmt", [E8M0, E4M3], ids=["E8M0", "E4M3"])
    def test_invalid_multipliers_rejected(self, bad, fmt):
        # Only +inf (a zero block) and 0 have a documented meaning; NaN
        # used to saturate and -1.0 to round onto the grid.
        spec = BlockSpec(scale_format=fmt)
        with pytest.raises(ValueError, match="multipliers"):
            quantize_scales(np.array([1.0, bad, np.inf]), spec)
        with pytest.raises(ValueError, match="multipliers"):
            quantize_scales(np.array([bad]), spec)


class TestBlockRoundTrip:
    def test_hand_traced_124(self):
        # s = 6/4 = 1.5, rounded up to 2; 2*[1,2,4] = [2,4,8] -> [2,4,6]
        spec = BlockSpec(block_size=3, scale_rounding=TOWARD_POSITIVE)
        res = quantize_blocks(np.array([1.0, 2.0, 4.0]), spec)
        assert res.scales[0] == 2.0
        np.testing.assert_allclose(dequantize_tensor(res), [1.0, 2.0, 3.0])

    def test_exact_grid_multiples_reconstruct(self):
        # With s_q = 4 the scaled elements land exactly on the element grid.
        base = np.array([0.5, 1.0, 3.0]) * (6.0 / 4.0) / 4.0
        spec = BlockSpec(block_size=3, scale_rounding=TOWARD_POSITIVE)
        # absmax = 1.125, s = 16/3 -> rounds up to 8; 8 * base on grid? Use a
        # block whose ideal scale is already a power of two instead.
        block = np.array([0.5, 1.0, 6.0]) / 2.0  # absmax 3, s = 2 exactly
        res = quantize_blocks(block, spec)
        assert res.scales[0] == 2.0
        np.testing.assert_allclose(dequantize_tensor(res), block)
        del base

    def test_all_zero_block(self):
        for mode in (ZERO_NEAREST_SUBNORMAL, ZERO_TO_ONE):
            spec = BlockSpec(block_size=4, zero_mode=mode)
            qt = quantize_tensor(np.zeros(4), spec)
            assert (encode_array(qt.elements, E2M1) == 0).all()  # +0.0, no -0.0
            np.testing.assert_array_equal(dequantize_tensor(qt), np.zeros(4))

    def test_nonfinite_rejected(self):
        spec = BlockSpec(block_size=2)
        with pytest.raises(ValueError):
            quantize_tensor(np.array([1.0, np.nan]), spec)
        with pytest.raises(ValueError):
            quantize_tensor(np.array([1.0, np.inf]), spec)


class TestTensorPath:
    def test_shape_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(7, 9))
        spec = BlockSpec(block_size=16)
        qt = quantize_tensor(X, spec)
        assert dequantize_tensor(qt).shape == X.shape

    def test_padding_excluded_from_statistic(self):
        # 5 elements in a block of 16: zero padding must not change absmax
        # or the log-sum-exp statistic.
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        spec = BlockSpec(block_size=16, beta=LSE)
        res = quantize_blocks(x, spec)
        expected = z_values(x[None], LSE)[0]
        assert res.z[0] == pytest.approx(expected, rel=1e-12)

    def test_tensor_scaling_uniform_blocks(self):
        # Identical blocks: g equals every block statistic, so normalized
        # blocks have absmax exactly 1 and identical ideal scales.
        block = np.array([0.25, -1.0, 0.5, 2.0] * 4)
        X = np.tile(block, 3)
        spec = BlockSpec(block_size=16)
        res = quantize_blocks(X, spec, tensor_scaling=True)
        assert res.global_scale == 2.0
        np.testing.assert_allclose(np.abs(res.blocks).max(axis=1), 1.0)
        assert np.unique(res.s_ideal).size == 1
        assert res.s_ideal[0] == 6.0

    def test_tensor_scaling_power_of_two_g_matches_plain(self):
        # One block, global factor an exact power of two, exponent-only
        # scale format: the tensor-scaled result equals the plain result.
        rng = np.random.default_rng(2)
        X = rng.normal(size=16)
        X[3] = 4.0  # absmax is a power of two
        X = np.clip(X, -4.0, 4.0)
        spec = BlockSpec(block_size=16, scale_format=E8M0)
        plain = dequantize_tensor(quantize_tensor(X, spec))
        scaled = dequantize_tensor(quantize_tensor(X, spec, tensor_scaling=True))
        np.testing.assert_allclose(scaled, plain, rtol=1e-15)

    @pytest.mark.parametrize("shape", [(6, 40), (4, 32), (0, 5)])
    @pytest.mark.parametrize("scale_format", [E8M0, E4M3])
    def test_dequantized_bytes(self, shape, scale_format):
        # The global factor multiplies the dequantized blocks, which are
        # then cut back to the tensor's shape.
        X = np.random.default_rng(4).normal(size=shape) * 3.0
        spec = BlockSpec(block_size=16, scale_format=scale_format)
        for tensor_scaling in (False, True):
            qt = quantize_tensor(X, spec, tensor_scaling=tensor_scaling)
            blocks = qt.elements / (qt.rescale * qt.scales)[:, None]
            if qt.global_scale is not None:
                blocks = blocks * qt.global_scale
            n = -(-shape[1] // 16) * 16
            expected = blocks.reshape(-1, n)[:, : shape[1]] if X.size else X
            assert dequantize_tensor(qt).tobytes() == expected.tobytes()
            assert dequantize_tensor(qt).shape == shape

    def test_all_zero_tensor_g_is_one(self):
        spec = BlockSpec(block_size=8)
        qt = quantize_tensor(np.zeros(8), spec, tensor_scaling=True)
        assert qt.global_scale == 1.0
        np.testing.assert_array_equal(dequantize_tensor(qt), np.zeros(8))

    def test_e4m3_rescale_applied_automatically(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=32)
        spec = BlockSpec(block_size=16, scale_format=E4M3)
        qt = quantize_tensor(X, spec, tensor_scaling=True)
        assert qt.rescale == 1344.0
        qt_plain = quantize_tensor(X, spec)
        assert qt_plain.rescale == 1.0
        # Only E4M3 is rescaled: every other scale format keeps the identity.
        for fmt in (E8M0, UE5M3):
            spec = BlockSpec(block_size=16, scale_format=fmt)
            assert quantize_tensor(X, spec, tensor_scaling=True).rescale == 1.0

    def test_rescale_reconstruction_reasonable(self):
        # The folded constant must cancel: reconstruction error with the
        # rescale is comparable to the error without tensor scaling.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(16, 16))
        spec = BlockSpec(block_size=16, scale_format=E4M3)
        err = np.abs(dequantize_tensor(quantize_tensor(X, spec, tensor_scaling=True)) - X)
        assert err.max() < 0.5


class TestRowBlocking:
    """Blocks are formed along the last axis, each row padded on its own."""

    def test_blocks_do_not_span_rows(self):
        spec = BlockSpec(block_size=16)
        assert len(quantize_tensor(np.ones((2, 20)), spec).scales) == 4
        assert len(quantize_tensor(np.ones((2, 3, 5)), spec).scales) == 6
        assert len(quantize_tensor(np.ones(20), spec).scales) == 2

    @pytest.mark.parametrize(
        "scale_format, tensor_scaling", [(E4M3, False), (E8M0, True)],
        ids=["E4M3", "E8M0-tensor-scaled"],
    )
    def test_each_row_quantizes_as_if_alone(self, scale_format, tensor_scaling):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(3, 20)) * np.array([[1.0], [1e3], [1e-3]])
        X[1, 4] = 0.0
        spec = BlockSpec(block_size=16, scale_format=scale_format)
        res = quantize_blocks(X, spec, tensor_scaling=tensor_scaling)
        deq = dequantize_tensor(res)
        g = res.global_scale or 1.0
        for i in range(3):
            # A row divided by the tensor's global factor g quantizes, on
            # its own and without tensor scaling, to the same blocks.
            row = quantize_blocks(X[i] / g, spec)
            np.testing.assert_array_equal(deq[i], row.dequantize() * g)
            np.testing.assert_array_equal(res.scales[2 * i : 2 * i + 2], row.scales)
            assert res.elements[2 * i : 2 * i + 2].tobytes() == row.elements.tobytes()
        assert res.mask.sum() == X.size
        assert not res.mask.reshape(3, 32)[:, 20:].any()

    def test_aligned_rows_match_flat_blocking(self):
        # When the last axis is a whole number of blocks (as in qlinear),
        # rows and the flattened tensor give the same blocks.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(4, 32))
        spec = BlockSpec(block_size=16)
        a, b = quantize_blocks(X, spec), quantize_blocks(X.ravel(), spec)
        np.testing.assert_array_equal(a.blocks, b.blocks)
        assert a.elements.tobytes() == b.elements.tobytes()
        np.testing.assert_array_equal(a.dequantize(), b.dequantize().reshape(4, 32))

    def test_blocks_are_a_copy(self):
        X = np.ones((2, 32))
        res = quantize_blocks(X, BlockSpec(block_size=16))
        assert not np.shares_memory(res.blocks, X)

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (0, 5)])
    def test_scalar_and_empty_shapes(self, shape):
        X = np.full(shape, 0.75)
        qt = quantize_tensor(X, BlockSpec(block_size=16))
        assert len(qt.scales) == 1
        np.testing.assert_array_equal(dequantize_tensor(qt), X)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 5)])
    def test_empty_logsumexp_tensor_scaling(self, shape):
        # The one block is all padding: its statistic is 0, not log(0), so
        # the global factor is the identity and the record serializes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qt = quantize_tensor(np.zeros(shape), BlockSpec(block_size=4, beta=LSE),
                                 tensor_scaling=True)
            to_bytes(qt)
        assert qt.global_scale == 1.0
        assert dequantize_tensor(qt).shape == shape


class TestPaddingMask:
    """``res.mask`` is derived from the record's shape when first read."""

    @staticmethod
    def _explicit_mask(rows, cols, width, block_size):
        mask = np.zeros((rows, width), dtype=bool)
        mask[:, :cols] = True
        return mask.reshape(-1, block_size)

    def test_false_exactly_on_padding(self):
        res = quantize_blocks(np.ones((3, 20)), BlockSpec(block_size=16))
        np.testing.assert_array_equal(res.mask, self._explicit_mask(3, 20, 32, 16))

    def test_all_true_without_padding(self):
        res = quantize_blocks(np.ones((4, 32)), BlockSpec(block_size=16))
        assert res.mask.shape == res.blocks.shape and res.mask.all()

    @pytest.mark.parametrize("cols", [20, 32], ids=["padded", "whole-blocks"])
    def test_gradients_match_an_explicit_mask(self, cols):
        from mxsim.qgrad import (
            SCALE_GRAD_ABSMAX, SCALE_GRAD_SOFTMAX, TENSOR_GRAD_ABSMAX, GradConfig,
            assemble_dh_dX, dZ,
        )

        X = np.random.default_rng(9).normal(size=(3, cols))
        spec = BlockSpec(block_size=16, beta=4.0)
        res = quantize_blocks(X, spec, tensor_scaling=True)
        ref = quantize_blocks(X, spec, tensor_scaling=True)
        ref.mask = self._explicit_mask(3, cols, 32, 16)  # as eagerly built before
        for mode in (SCALE_GRAD_ABSMAX, SCALE_GRAD_SOFTMAX):
            got = dZ(res.blocks, mode, 40.0, res.mask)
            assert got.tobytes() == dZ(ref.blocks, mode, 40.0, ref.mask).tobytes()
            if cols == 32:
                assert got.tobytes() == dZ(res.blocks, mode, 40.0).tobytes()
        cfg = GradConfig(scale_mode=SCALE_GRAD_SOFTMAX, tensor_mode=TENSOR_GRAD_ABSMAX)
        got = assemble_dh_dX(res, cfg)
        assert got.tobytes() == assemble_dh_dX(ref, cfg).tobytes()
        assert not got[~ref.mask].any()


class TestNvfp4Rescale:
    def test_constant(self):
        assert 1344.0 / nvfp4_rescale_constant(BlockSpec(scale_format=E4M3)) == 1.0

    def test_lower_bound(self):
        # s' >= elem_max implies the rescaled value >= 2 / scale_max.
        spec = BlockSpec(scale_format=E4M3)
        assert 6.0 / nvfp4_rescale_constant(spec) >= 2.0 / 448.0


class TestInvariants:
    @pytest.mark.parametrize("scale_fmt", [E8M0, E4M3, UE5M3])
    def test_scale_relative_deviation(self, scale_fmt):
        # Dense log-spaced multipliers within the representable range.
        spec = BlockSpec(scale_format=scale_fmt)
        lo = np.log10(scale_fmt.min_positive * 2)
        hi = np.log10(scale_fmt.max_finite / 2)
        s = 10.0 ** np.linspace(lo, hi, 4001)
        sq = quantize_scales(s, spec)
        ratio = s / sq
        if scale_fmt is E8M0:
            assert ratio.min() >= 2.0 / 3.0 - 1e-12
            assert ratio.max() <= 4.0 / 3.0 + 1e-12

    def test_scale_deviation_toward_positive(self):
        spec = BlockSpec(scale_format=E8M0, scale_rounding=TOWARD_POSITIVE)
        s = 10.0 ** np.linspace(-30, 30, 4001)
        sq = quantize_scales(s, spec)
        ratio = s / sq
        assert ratio.min() > 0.5
        assert ratio.max() <= 1.0 + 1e-15

    def test_idempotent_requantization_toward_positive(self):
        # Deterministic upward scale rounding: re-quantizing a dequantized
        # tensor reproduces identical codes and scales.
        rng = np.random.default_rng(6)
        X = rng.normal(size=64)
        spec = BlockSpec(block_size=16, scale_rounding=TOWARD_POSITIVE)
        qt1 = quantize_tensor(X, spec)
        y = dequantize_tensor(qt1)
        qt2 = quantize_tensor(y, spec)
        assert qt1.elements.tobytes() == qt2.elements.tobytes()
        np.testing.assert_array_equal(qt1.scales, qt2.scales)

    def test_absmax_element_relative_error_bound(self):
        # The scaled absmax element lands in [4.5, 9] under relative-nearest
        # scale rounding, so its relative error after rounding/saturation is
        # at most the largest relative grid gap of the element format (1/3,
        # between the top two magnitudes 4 and 6).
        rng = np.random.default_rng(7)
        spec = BlockSpec(block_size=16)
        g = grid(E2M1)
        top_gap = (g[-1] - g[-2]) / g[-1]
        assert top_gap == pytest.approx(1.0 / 3.0)
        for _ in range(200):
            X = rng.normal(size=16)
            res = quantize_blocks(X, spec)
            i = np.argmax(np.abs(X))
            y = dequantize_tensor(res)
            rel = abs(y[i] - X[i]) / abs(X[i])
            assert rel <= top_gap + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 40),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_dequantized_values_bounded(self, x):
        spec = BlockSpec(block_size=16)
        qt = quantize_tensor(x, spec)
        y = dequantize_tensor(qt)
        assert y.shape == x.shape
        s_eff = qt.rescale * qt.scales
        bound = (6.0 / s_eff.min()) * (qt.global_scale or 1.0)
        assert np.abs(y).max() <= bound + 1e-12


class TestEntryPointChecks:
    """Each public entry point checks its own inputs; the rounding kernel
    behind them checks nothing."""

    @pytest.mark.parametrize("field", ["scale_rounding", "elem_rounding"])
    def test_stochastic_without_rng(self, field):
        spec = BlockSpec(block_size=4, **{field: STOCHASTIC})
        with pytest.raises(ValueError, match="rng"):
            quantize_blocks(np.ones(4), spec)
        if field == "scale_rounding":
            with pytest.raises(ValueError, match="rng"):
                quantize_scales(np.ones(2), spec)

    @pytest.mark.parametrize("field", ["scale_rounding", "elem_rounding"])
    def test_unknown_mode(self, field):
        with pytest.raises(ValueError, match="unknown rounding mode"):
            BlockSpec(**{field: "TiesToOdd"})
        spec = BlockSpec(block_size=4)
        object.__setattr__(spec, field, "TiesToOdd")  # bypass construction
        with pytest.raises(ValueError, match="unknown rounding mode"):
            quantize_blocks(np.ones(4), spec)
        if field == "scale_rounding":
            with pytest.raises(ValueError, match="unknown rounding mode"):
                quantize_scales(np.ones(2), spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input(self, bad):
        with pytest.raises(ValueError, match="finite"):
            quantize_blocks(np.array([[1.0, bad]]), BlockSpec(block_size=2))

    @pytest.mark.parametrize("mode", ROUNDING_MODES)
    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_zero_dimensional_multiplier_rounds_as_one_element(self, name, mode):
        spec = BlockSpec(scale_format=FORMATS[name], scale_rounding=mode)
        for s in (1.3, 0.0, 1e-300, 3e9, np.inf):
            rng = [np.random.default_rng(5) if mode == STOCHASTIC else None for _ in range(2)]
            one = quantize_scales(np.array([s]), spec, rng[0])
            got = quantize_scales(np.float64(s), spec, rng[1])
            assert got.shape == () and got.tobytes() == one.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("beta", [None, LSE], ids=["absmax", "lse"])
    @pytest.mark.parametrize("cols", [2, 3], ids=["whole", "padded"])
    def test_nonfinite_input_raises_before_any_warning(self, bad, beta, cols):
        # Finiteness is read off the block statistics, so no arithmetic on
        # the non-finite value may warn before the ValueError.
        X = np.ones((2, cols))
        X[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tensor_scaling in (False, True):
                with pytest.raises(ValueError, match="finite"):
                    quantize_blocks(X, BlockSpec(block_size=2, beta=beta), tensor_scaling)

    @pytest.mark.parametrize("shape", [(4, 32), (4, 20), (3,)])
    @pytest.mark.parametrize("tensor_scaling", [False, True])
    def test_input_unchanged(self, shape, tensor_scaling):
        # (4, 32) rows are whole blocks, so no padding copy is needed.
        X = np.random.default_rng(2).normal(size=shape)
        before = X.tobytes()
        spec = BlockSpec(block_size=16, scale_format=E4M3, elem_rounding=STOCHASTIC,
                         scale_rounding=STOCHASTIC)
        quantize_blocks(X, spec, tensor_scaling, np.random.default_rng(0))
        quantize_tensor(X, spec, tensor_scaling, np.random.default_rng(0))
        assert X.tobytes() == before
        s = np.array([0.5, np.inf, 3.0])
        quantize_scales(s, spec, np.random.default_rng(0))
        assert s.tolist() == [0.5, np.inf, 3.0]


class TestStochasticElements:
    def test_requires_rng(self):
        spec = BlockSpec(block_size=4, elem_rounding=STOCHASTIC)
        with pytest.raises(ValueError):
            quantize_tensor(np.ones(4), spec)

    def test_unbiased_on_average(self):
        # Block absmax of 1.0 forces the scale to 8; the 0.55 elements map
        # to 4.4, strictly inside the grid, where stochastic rounding is
        # unbiased (expected dequantized value is exactly 0.55).
        spec = BlockSpec(block_size=16, elem_rounding=STOCHASTIC)
        rng = np.random.default_rng(8)
        X = np.full(16, 0.55)
        X[0] = 1.0
        total = np.zeros(16)
        n = 2000
        for _ in range(n):
            total += dequantize_tensor(quantize_tensor(X, spec, rng=rng))
        mean = total / n
        assert np.abs(mean[1:] - 0.55).max() < 0.02

    def test_deterministic_given_seed(self):
        spec = BlockSpec(block_size=16, elem_rounding=STOCHASTIC,
                         scale_rounding=STOCHASTIC)
        X = np.random.default_rng(9).normal(size=64)
        a = quantize_tensor(X, spec, rng=np.random.default_rng(42))
        b = quantize_tensor(X, spec, rng=np.random.default_rng(42))
        assert a.elements.tobytes() == b.elements.tobytes()
        np.testing.assert_array_equal(a.scales, b.scales)


class TestSerialization:
    def test_golden_bytes(self):
        # SHA-256 of the serialized form of fixed tensors: every scale
        # format, tensor scaling with the E4M3 rescale, rows padded to whole
        # blocks (20 = 16 + 4), a zero, and the empty tensor.
        rng = np.random.default_rng(2024)
        X = rng.normal(size=(3, 20)) * np.array([[1.0], [1e3], [1e-3]])
        X[0, 3] = 0.0
        tensors = [
            quantize_tensor(X, BlockSpec(block_size=16, scale_format=fmt))
            for fmt in (E8M0, E4M3, UE5M3, E8M3, E5M2)
        ]
        scaled = quantize_tensor(X, BlockSpec(block_size=16, scale_format=E4M3),
                                 tensor_scaling=True)
        assert scaled.rescale != 1.0
        tensors += [scaled, quantize_tensor(np.zeros((0,)), BlockSpec())]
        digest = hashlib.sha256(b"".join(to_bytes(qt) for qt in tensors)).hexdigest()
        assert digest == "caea65929109ba9a36ad05999ab43b4bea3e30aa9606bed7b83dc3bb0b7834b1"

    def test_block_size_beyond_the_header_field_rejected(self):
        # The header holds the block size in 16 bits.
        widest = quantize_tensor(np.ones(4), BlockSpec(block_size=0xFFFF))
        # After the magic: the rank, the block size and the tensor-factor flag.
        assert struct.unpack_from("<BHB", to_bytes(widest), 4) == (1, 0xFFFF, 0)
        qt = quantize_tensor(np.ones(4), BlockSpec(block_size=0x10000))
        with pytest.raises(ValueError, match="block_size 65536 does not fit"):
            to_bytes(qt)

    def test_odd_code_count_pads_the_last_byte(self):
        # Codes 2 (1.0), 12 (-2.0) and 7 (6.0), low nibble first, after
        # their count; the fourth nibble is zero padding.
        data = to_bytes(quantize_tensor(np.array([1.0, -2.0, 6.0]), BlockSpec(block_size=3)))
        assert data[-10:] == struct.pack("<q", 3) + bytes([0xC2, 0x07])


class TestNoCodesOutsideSerialization:
    def test_training_and_reconstruction_paths_skip_codes(self, monkeypatch):
        import mxsim.mx as mx
        from mxsim.qlinear import QLinearConfig, backward, forward
        from mxsim.sweep import recon_error_cell

        def refuse(*args, **kwargs):
            raise AssertionError("element codes made outside serialization")

        monkeypatch.setattr(mx, "encode_array", refuse)
        monkeypatch.setattr(mx, "decode_array", refuse)
        rng = np.random.default_rng(11)
        X, W = rng.normal(size=(5, 40)), rng.normal(size=(3, 40))
        cfg = QLinearConfig(spec=BlockSpec(block_size=16, scale_format=E4M3),
                            tensor_scaling=True)
        Y, ctx = forward(X, W, cfg)
        gX, gW = backward(np.ones_like(Y), ctx, cfg)
        assert gX.shape == X.shape and gW.shape == W.shape
        mean, median = recon_error_cell(rng.standard_normal(1024), "E8M0", 32, None)
        assert 0 < mean < 1 and 0 < median < 1
