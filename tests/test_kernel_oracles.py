"""Byte-for-byte oracles for the quantization kernels.

``formats._round``, ``mx.z_values`` and ``qgrad.dZ`` work on the float64
exponent field, in a block-major buffer and with an exp that skips
arguments whose result is +0.0.  The reference copies below are the
straightforward row-wise versions (``frexp``/``ldexp`` rounding, row
reductions, a plain ``np.exp``); each kernel must give the same bytes.
``formats.encode_array`` looks codes up in the format's grid; its
reference derives them from the exponent and mantissa fields.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxsim import formats, mx
from mxsim.formats import (
    E8M0,
    FORMATS,
    STOCHASTIC,
    TIES_TO_EVEN,
    TOWARD_POSITIVE,
    encode_array,
    grid,
)
from mxsim.mx import (
    BlockSpec,
    _exp_in_place,
    _pairwise_sum,
    quantize_blocks,
    z_values,
)
from mxsim.qgrad import SCALE_GRAD_ABSMAX, SCALE_GRAD_HYBRID, SCALE_GRAD_SOFTMAX, dZ

BLOCK_SIZES = (1, 3, 8, 16, 32, 64, 128, 256)
BETAS = (5.0, 40.0, 160.0)
TENSOR_SCALES = (1e-320, 1e-300, 1e-30, 1e-4, 1.0, 1e4, 1e28, 1e300)


def _ref_round(x, fmt, mode, rng, out=None):
    """Rounding by frexp/ldexp on the integer significand."""
    data = fmt._grid
    max_fin = data.max_finite
    neg_over = None if fmt.signed else x < -max_fin
    out = x.clip(data.min_value, max_fin, out=out)
    if neg_over is not None:
        np.copyto(out, max_fin, where=neg_over)
    f, k = np.frexp(out)
    np.maximum(k, math.frexp(data.min_binade)[1], out=k)
    np.subtract(fmt.mantissa_bits + 1, k, out=k)
    t = np.ldexp(out, k, out=out)
    if mode == TOWARD_POSITIVE:
        np.ceil(t, out=t)
    elif mode == STOCHASTIC:
        np.floor(t, out=f)
        t -= f
        np.less(rng.random(x.shape), t, out=t)
        t += f
    elif fmt.exponent_only:
        tie = t == 4.0 / 3.0
        np.greater(t, 4.0 / 3.0, out=f)
        if np.count_nonzero(tie):
            f[tie] = (k[tie] + (fmt.bias + 1)) % 2 == 0
        np.add(f, 1.0, out=t)
    else:
        np.rint(t, out=t)
    np.ldexp(t, np.negative(k, out=k), out=t)
    t += 0.0
    return t


def _ref_z_values(blocks, beta, mask=None):
    """Row-wise maximum and log-sum-exp."""
    a = np.abs(np.asarray(blocks, dtype=np.float64))
    if mask is not None:
        a = np.where(mask, a, 0.0)
    m = a.max(axis=-1, initial=0.0)
    if beta is None or not np.isfinite(m).all():
        return m
    e = np.exp(beta * (a - m[..., None]))
    if mask is None:
        return m + np.log(e.sum(axis=-1)) / beta
    total = np.where(mask, e, 0.0).sum(axis=-1)
    return m + np.log(total, out=np.zeros_like(total), where=total > 0) / beta


def _ref_dZ(blocks, mode, beta=40.0, mask=None):
    """Row-wise statistic derivative."""
    blocks = np.asarray(blocks, dtype=np.float64)
    a = np.abs(blocks)
    if mask is not None:
        a = np.where(mask, a, -np.inf)
    if mode == SCALE_GRAD_ABSMAX:
        out = np.zeros_like(blocks)
        idx = np.argmax(a, axis=-1)
        rows = np.arange(blocks.shape[0])
        out[rows, idx] = np.sign(blocks[rows, idx])
        out[a[rows, idx] <= 0, :] = 0.0
        return out
    m = a.max(axis=-1, keepdims=True)
    finite = np.isfinite(m)
    e = a - np.where(finite, m, 0.0)
    e *= beta
    np.exp(e, out=e)
    if mask is not None or not finite.all():
        e = np.where(np.isfinite(a), e, 0.0)
    e /= e.sum(axis=-1, keepdims=True)
    e *= np.sign(blocks, out=a)
    return e


def _rounding_inputs(fmt, rng):
    """Grid values, decision points (midpoints; fl(4/3) * 2**k for an
    exponent-only grid), their 1-ulp neighbours, and wide random values."""
    g = grid(fmt)
    if fmt.exponent_only:
        points = np.concatenate([4.0 / 3.0 * g, 2.0 * g[:-1] * g[1:] / (g[:-1] + g[1:])])
    else:
        points = 0.5 * (g[:-1] + g[1:])
    base = np.concatenate([g, points, -g, -points])
    return np.concatenate([
        base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf),
        rng.standard_normal(20000) * 10.0 ** rng.uniform(-45, 45, 20000),
        rng.uniform(-1.2, 1.2, 20000) * fmt.max_finite,
        [0.0, -0.0, np.inf, 5e-324, -5e-324, 2.0**-1022, 1e308, -1e308],
    ])


@pytest.mark.parametrize("mode", [TIES_TO_EVEN, TOWARD_POSITIVE, STOCHASTIC])
@pytest.mark.parametrize("fmt", FORMATS.values(), ids=FORMATS.keys())
def test_round_matches_frexp_rounding(fmt, mode):
    x = _rounding_inputs(fmt, np.random.default_rng(3))
    got = formats._round(x.copy(), fmt, mode, np.random.default_rng(4))
    want = _ref_round(x, fmt, mode, np.random.default_rng(4))
    assert got.tobytes() == want.tobytes()


def test_e8m0_ties_go_to_an_even_scale_field():
    # fl(4/3) * 2**k lies between 2**k (field k + 127) and 2**(k + 1).
    k = np.arange(-127, 127)
    got = formats._round(4.0 / 3.0 * 2.0**k, E8M0, TIES_TO_EVEN, None)
    up = (k + 1 + 127) % 2 == 0
    assert got.tolist() == np.where(up, 2.0 ** (k + 1), 2.0**k).tolist()


def _blocks(l, scale, padded, rng):
    """Blocks of a (3, n) Gaussian tensor times ``scale``; when ``padded``,
    n is 5 * l - 1 and the padding mask comes too."""
    x = rng.standard_normal((3, 5 * l - padded)) * scale
    mask = mx._partition(np.ones(x.shape), l) > 0 if padded else None
    return mx._partition(x, l), mask


@pytest.mark.parametrize("l", BLOCK_SIZES)
def test_z_values_match_the_row_wise_statistic(l):
    rng = np.random.default_rng(l)
    for scale in TENSOR_SCALES:
        for padded in (False, True):
            blocks, mask = _blocks(l, scale, padded, rng)
            for beta in (None, *BETAS):
                got = z_values(blocks, beta, mask)
                assert got.tobytes() == _ref_z_values(blocks, beta, mask).tobytes(), (scale,
                                                                                      beta)


@pytest.mark.parametrize("l", BLOCK_SIZES)
def test_dZ_matches_the_row_wise_derivative(l):
    rng = np.random.default_rng(l)
    for scale in TENSOR_SCALES:
        for padded in (False, True):
            blocks, mask = _blocks(l, scale, padded, rng)
            for beta in BETAS:
                for mode in (SCALE_GRAD_ABSMAX, SCALE_GRAD_SOFTMAX, SCALE_GRAD_HYBRID):
                    got = dZ(blocks, mode, beta, mask)
                    want = _ref_dZ(blocks, mode, beta, mask)
                    assert got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes(), (scale, beta, mode)


@pytest.mark.parametrize("statistic", ["Absmax", "LogSumExp"])
def test_tensor_scaled_statistic_is_that_of_the_normalized_blocks(statistic):
    # Under Absmax quantize_blocks divides the raw statistic by g.
    rng = np.random.default_rng(9)
    beta = None if statistic == "Absmax" else 40.0
    for scale in TENSOR_SCALES:
        for n in (64, 61):
            x = rng.standard_normal((3, n)) * scale
            res = quantize_blocks(x, BlockSpec(block_size=16, beta=beta), tensor_scaling=True)
            mask = None if n == 64 else res.mask
            assert res.z.tobytes() == _ref_z_values(res.blocks, beta, mask).tobytes()


def test_exp_matches_np_exp_in_every_range():
    rng = np.random.default_rng(2)
    specials = [0.0, -0.0, -708.0, -708.5, -745.1332191019411, -745.1332191019412,
                -746.0, -1e4, -1e300, 709.0, np.inf]
    for cases in (rng.uniform(-800.0, 0.0, 4096),  # normal, subnormal and zero results
                  rng.uniform(-1e5, 0.0, 4096),
                  np.array(specials),
                  np.array(specials + [-np.inf]),  # a -inf minimum: plain exp
                  np.array(specials + [np.nan])):
        got = _exp_in_place(cases.copy())
        assert got.tobytes() == np.exp(cases).tobytes()


def test_pairwise_sum_is_numpys_row_sum():
    # A NumPy that sums a row in another order fails here.
    rng = np.random.default_rng(5)
    for n in range(1, 301):
        e = rng.random((n, 7)) * 10.0 ** rng.integers(-8, 8, size=(n, 7))
        assert _pairwise_sum(e).tobytes() == np.ascontiguousarray(e.T).sum(axis=-1).tobytes()


def _ref_encode(values, fmt):
    """Codes from the exponent and mantissa fields of each value."""
    data = fmt._grid
    mb = fmt.mantissa_bits
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    binade = formats._binade(a, data)
    with np.errstate(invalid="ignore"):  # NaN and inf fail `ok`
        t = a / binade * 2**mb  # integer significand for grid values
        ok = (a <= data.max_finite) & (t == np.floor(t))
    if fmt.exponent_only:
        ok &= a > 0
    if not fmt.signed:
        ok &= v >= 0
    if not ok.all():
        raise ValueError(f"array contains values not representable in {fmt.name}")
    # Exponent field e + bias holds t - 2**mb; the subnormal binade's field
    # is 0 and its t < 2**mb, so one expression covers both.
    e = (binade.view(np.int64) >> 52) - 1023
    codes = ((e + (fmt.bias - 1)) << mb) + t.astype(np.int64)
    if fmt.signed:
        codes += (v < 0) * (1 << (fmt.exponent_bits + mb))
    return codes.astype(np.uint32)


def _encoded(encode, values, fmt):
    """dtype, shape and bytes of the codes, or None where ``encode`` rejects."""
    try:
        codes = encode(values, fmt)
    except ValueError:
        return None
    return codes.dtype, codes.shape, codes.tobytes()


def _same_encoding(values, fmt):
    want = _encoded(_ref_encode, values, fmt)
    assert _encoded(encode_array, values, fmt) == want
    return want is not None


@pytest.mark.parametrize("fmt", FORMATS.values(), ids=FORMATS.keys())
def test_encode_matches_field_arithmetic(fmt):
    g = grid(fmt)
    assert _same_encoding(g, fmt) and _same_encoding(g.reshape(-1, 1), fmt)
    assert _same_encoding(np.empty((0, 3)), fmt)
    specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                1e-310, -1e-310, 2.0**-1022 - 5e-324, 1e308, -1e308]
    near = np.concatenate([g, -g, np.nextafter(g, np.inf), np.nextafter(g, -np.inf),
                           specials])
    accepted = sum(_same_encoding(near[i : i + 1], fmt) for i in range(near.size))
    assert accepted >= g.size


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FORMATS)), st.lists(st.floats(), min_size=1, max_size=6),
       st.integers(0, 1 << 16))
def test_encode_matches_field_arithmetic_on_any_floats(name, values, k):
    fmt = FORMATS[name]
    g = grid(fmt)
    for v in values:
        _same_encoding(np.array([v]), fmt)
        _same_encoding(np.array([v, g[k % g.size]]), fmt)
    _same_encoding(np.array(values), fmt)
