"""Byte-for-byte oracles for the quantization kernels.

``formats._round``, ``mx.z_values`` and ``qgrad.dZ`` work on the float64
exponent field, in a block-major buffer and with an exp that skips
arguments whose result is +0.0.  The reference copies below are the
straightforward row-wise versions (``frexp``/``ldexp`` rounding, row
reductions, a plain ``np.exp``); each kernel must give the same bytes.
``formats.encode_array`` looks codes up in the format's grid; its
reference derives them from the exponent and mantissa fields.

The compiled kernel (``quantize.c``), built here into a temporary
directory, must give every field of the NumPy path's ``quantize_blocks``
record under either statistic, byte for byte, leave the rng in the same
state and raise the same errors; its log-sum-exp ``z_values``, softmax
``dZ`` and the tensor factor's choice of block must give the NumPy path's
bytes too.
"""

import math
import os
import platform
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxsim import _kernel, formats, mx
from mxsim.formats import (
    E8M0,
    FORMATS,
    ROUNDING_MODES,
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
from mxsim.qgrad import (
    SCALE_GRAD_ABSMAX,
    SCALE_GRAD_HYBRID,
    SCALE_GRAD_SOFTMAX,
    dZ,
    tensor_scale_grad,
)

BLOCK_SIZES = (1, 3, 8, 16, 32, 64, 128, 256)
BETAS = (5.0, 40.0, 160.0)
LSE_BETAS = (5.0, 40.0, 160.0, 1e4)  # 1e4 sends exp arguments below -708
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


def _each_path(monkeypatch):
    """Set ``mx._KERNEL`` to the loaded kernel (None where it did not
    build), then to None, the NumPy path."""
    for lib in (mx._KERNEL, None):
        monkeypatch.setattr(mx, "_KERNEL", lib)
        yield lib


@pytest.mark.parametrize("l", BLOCK_SIZES)
def test_z_values_match_the_row_wise_statistic(monkeypatch, l):
    for _ in _each_path(monkeypatch):
        rng = np.random.default_rng(l)
        for scale in TENSOR_SCALES:
            for padded in (False, True):
                blocks, mask = _blocks(l, scale, padded, rng)
                for beta in (None, *BETAS):
                    got = z_values(blocks, beta, mask)
                    want = _ref_z_values(blocks, beta, mask)
                    assert got.tobytes() == want.tobytes(), (scale, beta)


@pytest.mark.parametrize("l", BLOCK_SIZES)
def test_dZ_matches_the_row_wise_derivative(monkeypatch, l):
    for _ in _each_path(monkeypatch):
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


def test_log_sum_exp_near_the_largest_double_does_not_warn(monkeypatch):
    # beta * (0 - 3.6e307) overflows to -inf, whose exp is the 0 it stands
    # for; the NumPy path used to raise an overflow RuntimeWarning here.
    x = np.array([[3.595386269724632e307, 0.0]])
    got = []
    for _ in _each_path(monkeypatch):
        res = quantize_blocks(x[0], BlockSpec(block_size=2, beta=5.0))
        got.append([res.z.tobytes(), z_values(x, 5.0).tobytes(),
                    dZ(x, SCALE_GRAD_SOFTMAX, 5.0).tobytes()])
    assert got[0] == got[1]
    assert got[0][2] == np.array([1.0, 0.0]).tobytes()


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


# ---------------------------------------------------------------------------
# The compiled absmax kernel against the NumPy path
# ---------------------------------------------------------------------------

RECORD_ARRAYS = ("scales", "elements", "blocks", "z", "s_ideal")


@pytest.fixture(scope="module")
def kernel(tmp_path_factory):
    lib = _kernel.load(tmp_path_factory.mktemp("kernel"))
    if lib is None:
        pytest.skip(f"the kernel did not build: {_kernel.COMMAND[0]!r} is missing or failed "
                    f"(on PATH: {shutil.which(_kernel.COMMAND[0])})")
    return lib


def _outcome(X, spec, tensor_scaling, seed):
    """Everything a quantize_blocks call shows: each record field (arrays as
    dtype, shape and bytes) or the error, and the rng state after it."""
    rng = None if seed is None else np.random.default_rng(seed)
    try:
        res = quantize_blocks(X, spec, tensor_scaling, rng)
    except ValueError as exc:
        got = ("ValueError", str(exc))
    else:
        arrays = [getattr(res, name) for name in RECORD_ARRAYS]
        got = [(a.dtype, a.shape, a.tobytes()) for a in arrays]
        got += [res.shape, res.spec, res.global_scale, res.rescale]
    return got, None if rng is None else rng.bit_generator.state


def _same_on_both_paths(monkeypatch, kernel, X, spec, tensor_scaling=False, seed=None):
    monkeypatch.setattr(mx, "_KERNEL", kernel)
    compiled = _outcome(X, spec, tensor_scaling, seed)
    monkeypatch.setattr(mx, "_KERNEL", None)
    assert compiled == _outcome(X, spec, tensor_scaling, seed), (spec, tensor_scaling)
    return compiled


def _hard_rows(l, rng):
    """100 rows of 5 * l - 3 values, so each row needs padding: Gaussian rows
    at tensor scales from subnormal to 1e300 (recon's 1e-4 to 1e28 among
    them), a zero row, a row of +-0, E2M1 midpoints behind a block maximum
    of 6 * 2**k, and maxima of 4.5 * 2**k, whose E8M0 multiplier 6 / z is a
    tie at fl(4/3) * 2**-k."""
    n = 5 * l - 3
    scales = np.array([1e-310, 1e-300, 1e-30, 1e-4, 1e-1, 1.0, 1e4, 1e16, 1e28, 1e300])
    x = rng.standard_normal((100, n)) * np.resize(scales, 100)[:, None]
    x[0] = 0.0
    x[1] = np.resize([0.0, -0.0], n)
    mids = [6.0, 0.25, -0.75, 1.25, 1.75, -2.5, 3.5, -5.0, 0.5, -0.0]
    for r, k in ((2, 0), (3, -9), (4, 40)):
        x[r] = np.resize(mids, n) * 2.0**k
    for r, k in ((5, 0), (6, 3), (7, -126), (8, 100)):
        x[r] = np.resize([4.5, -1.0, 2.0, 0.1], n) * 2.0**k
    return x


@pytest.mark.parametrize("fmt", FORMATS.values(), ids=FORMATS.keys())
def test_kernel_gives_the_numpy_record(monkeypatch, kernel, fmt):
    # Per statistic, 6 scale formats x 9 rounding pairs x 2 zero modes x 2
    # tensor-scaling states, over 500 blocks each (100 rows of 5): 108k
    # blocks; the log-sum-exp at each of LSE_BETAS in turn.
    rng = np.random.default_rng(11)
    for i, (sr, er, zm, ts) in enumerate(product(ROUNDING_MODES, ROUNDING_MODES,
                                                 mx.ZERO_MODES, (False, True))):
        l = (8, 16, 32, 64, 128)[i % 5]
        for beta in (None, LSE_BETAS[i % len(LSE_BETAS)]):
            spec = BlockSpec(block_size=l, scale_format=fmt, beta=beta, scale_rounding=sr,
                             elem_rounding=er, zero_mode=zm)
            _same_on_both_paths(monkeypatch, kernel, _hard_rows(l, rng), spec, ts, seed=i)


@pytest.mark.parametrize("shape, l", [
    ((), 32), ((0,), 32), ((3, 0), 8), ((0, 5), 8), ((1,), 1), ((7,), 8), ((200,), 128),
    ((2, 3, 33), 16), ((4, 96), 32),
])
def test_kernel_gives_the_numpy_record_on_any_shape(monkeypatch, kernel, shape, l):
    x = np.random.default_rng(len(shape)).standard_normal(shape) * 3.0
    for sr, er in product(ROUNDING_MODES, ROUNDING_MODES):
        for ts, beta in product((False, True), (None, 40.0)):
            spec = BlockSpec(block_size=l, scale_format=FORMATS["E4M3"], beta=beta,
                             scale_rounding=sr, elem_rounding=er)
            _same_on_both_paths(monkeypatch, kernel, x, spec, ts, seed=3)


def test_kernel_reads_any_layout(monkeypatch, kernel):
    # Transposed, reversed, broadcast and misaligned views, and non-float64
    # inputs, are read as NumPy reads them.
    x = np.random.default_rng(2).standard_normal((48, 40))
    packed = np.zeros(x.shape, dtype=[("pad", "u1"), ("x", "<f8")])  # 9-byte strides
    packed["x"] = x
    assert not packed["x"].flags.aligned
    for view in (x.T, x[::-1, ::-3], np.broadcast_to(x[0], (5, 40)), packed["x"],
                 x.astype(np.float32), (x * 8).astype(np.int64), x.tolist()):
        for rounding, beta in product(ROUNDING_MODES, (None, 40.0)):
            spec = BlockSpec(block_size=16, beta=beta, scale_rounding=rounding,
                             elem_rounding=rounding)
            _same_on_both_paths(monkeypatch, kernel, view, spec, True, seed=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_refuses_what_numpy_refuses_without_drawing(monkeypatch, kernel, bad):
    x = np.ones((4, 40))
    x[2, 39] = bad
    untouched = np.random.default_rng(6).bit_generator.state
    for sr, er, beta in product(ROUNDING_MODES, ROUNDING_MODES, (None, 40.0)):
        spec = BlockSpec(block_size=16, beta=beta, scale_rounding=sr, elem_rounding=er)
        finite_error = ("ValueError", "quantization requires finite inputs")
        assert _same_on_both_paths(monkeypatch, kernel, x, spec, seed=6) == (finite_error,
                                                                                untouched)
        if STOCHASTIC in (sr, er):  # and without an rng: the same error first
            assert _same_on_both_paths(monkeypatch, kernel, x, spec)[0] == finite_error
            got = _same_on_both_paths(monkeypatch, kernel, np.ones(9), spec)
            assert got[0] == ("ValueError", "Stochastic rounding requires an rng stream")


def test_zero_blocks_draw_no_scale_uniforms(monkeypatch, kernel):
    # Under Absmax every multiplier is the +inf sentinel, so stochastic
    # scales draw 0.  Under the log-sum-exp a zero block's statistic is
    # log(live values) / beta, +inf only for one live value (the last block
    # of each row of 17 at l = 8).
    for er, beta in product(ROUNDING_MODES, (None, 40.0)):
        spec = BlockSpec(block_size=8, beta=beta, scale_rounding=STOCHASTIC, elem_rounding=er)
        for n in (20, 17):
            _same_on_both_paths(monkeypatch, kernel, np.zeros((3, n)), spec, seed=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(width=64), min_size=0, max_size=40), st.integers(1, 12),
       st.sampled_from(sorted(FORMATS)), st.sampled_from(ROUNDING_MODES),
       st.sampled_from(ROUNDING_MODES), st.sampled_from(mx.ZERO_MODES), st.booleans(),
       st.sampled_from((None, *LSE_BETAS)))
def test_kernel_gives_the_numpy_record_on_any_floats(kernel, values, l, name, sr, er, zm, ts,
                                                     beta):
    spec = BlockSpec(block_size=l, scale_format=FORMATS[name], beta=beta, scale_rounding=sr,
                     elem_rounding=er, zero_mode=zm)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _same_on_both_paths(monkeypatch, kernel, np.array(values), spec, ts, seed=9)


def test_threads_share_the_kernel_safely(monkeypatch, kernel):
    # sweep.run_many calls quantize_blocks from pool threads while the
    # kernel runs without the GIL; each thread draws into its own buffer.
    monkeypatch.setattr(mx, "_KERNEL", kernel)
    specs = [BlockSpec(block_size=16, beta=beta, scale_rounding=STOCHASTIC,
                       elem_rounding=STOCHASTIC) for beta in (None, 40.0)]
    inputs = [np.random.default_rng(i).standard_normal((250 + i, 64)) for i in range(6)]

    def run(i):
        rng = np.random.default_rng(i)
        return [quantize_blocks(inputs[i], specs[i % 2], True, rng).elements.tobytes()
                for _ in range(30)]

    serial = [run(i) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            assert list(pool.map(run, range(6), timeout=60)) == serial
    finally:
        sys.setswitchinterval(interval)


# Block sizes from 1 to 1024: under 8, not multiples of 8, over 128 (the
# pairwise sum's recursion) and powers of two.
STAGE_BLOCK_SIZES = (1, 2, 3, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33, 48, 64, 100, 127,
                     128, 129, 136, 200, 255, 256, 257, 384, 512, 700, 1000, 1024)


def _stage_cases(l, rng):
    """max(200, 65,536 // l) blocks of l and the masks to take them with:
    Gaussian blocks at scales 1e-310 to 1e300, zero and +-0 blocks, blocks
    of one repeated value and of one nonzero value; no mask, each block's
    live values a prefix of 1 to l (padding), and any pattern with at least
    one live value per block."""
    nb = max(200, 65536 // l)
    scales = 10.0 ** rng.choice([-310, -300, -30, -4, -1, 0, 1, 4, 16, 28, 300], nb)
    blocks = rng.standard_normal((nb, l)) * scales[:, None]
    blocks[0::17] = 0.0
    blocks[1::17] = np.resize([0.0, -0.0], l)
    blocks[2::17] = -3.0
    blocks[3::17] = 0.0
    blocks[3::17, -1] = 2.5
    prefix = np.arange(l) < rng.integers(1, l + 1, nb)[:, None]
    pattern = rng.random((nb, l)) < 0.6
    pattern[np.arange(nb), rng.integers(0, l, nb)] = True
    return blocks, (None, prefix, pattern)


@pytest.mark.parametrize("l", STAGE_BLOCK_SIZES)
def test_kernel_stages_give_the_numpy_statistic_and_derivative(monkeypatch, kernel, l):
    # The log-sum-exp z_values and the softmax dZ over 192k blocks in all
    # (the derivative of the smooth statistic under either forward), and
    # the NumPy maximum (row-wise from l = 64) against the reference.
    rng = np.random.default_rng(l)
    blocks, masks = _stage_cases(l, rng)
    for mask in masks:
        assert z_values(blocks, None, mask).tobytes() == _ref_z_values(blocks, None,
                                                                       mask).tobytes()
    for beta, mask in product(LSE_BETAS, masks):
        got = []
        for lib in (kernel, None):
            monkeypatch.setattr(mx, "_KERNEL", lib)
            got.append([z_values(blocks, beta, mask).tobytes(),
                        dZ(blocks, SCALE_GRAD_SOFTMAX, beta, mask).tobytes(),
                        dZ(blocks, SCALE_GRAD_HYBRID, beta, mask).tobytes()])
        assert got[0] == got[1], (beta, None if mask is None else mask.all())


@pytest.mark.parametrize("l", (1, 8, 33))
def test_kernel_stages_leave_what_they_do_not_take_to_numpy(monkeypatch, kernel, l):
    # An all-padding row (the block of an empty tensor), NaN and infinite
    # live values, an int mask, a 1-D block and an empty array: the NumPy
    # path's result or error, on both paths.
    blocks = np.random.default_rng(0).standard_normal((4, l))
    padded = np.ones(blocks.shape, dtype=bool)
    padded[1] = False
    nan, inf = blocks.copy(), blocks.copy()
    nan[2, 0], inf[3, -1] = np.nan, -np.inf
    cases = [(blocks, padded), (nan, None), (inf, None), (nan, padded),
             (blocks, padded.astype(int)), (blocks[0], None), (blocks[:0], None)]
    def outcome(fn, *args):
        try:
            with np.errstate(invalid="ignore"):
                return fn(*args).tobytes()
        except (TypeError, ValueError) as exc:
            return repr(exc)

    for x, mask in cases:
        got = []
        for lib in (kernel, None):
            monkeypatch.setattr(mx, "_KERNEL", lib)
            got.append([outcome(z_values, x, 40.0, mask),
                        outcome(dZ, x, SCALE_GRAD_SOFTMAX, 40.0, mask)])
        assert got[0] == got[1]


def _tensor_factor_rows(l, beta):
    """Rows of blocks whose maxima tie or nearly tie.  Block 1 holds the
    largest value M once; blocks 3 and 6 are equal, every value M - d with
    d under log(l) / beta, so each has a larger statistic than block 1 and
    the first of them is the largest; block 4 is block 3 with one value a
    unit in the last place smaller, block 5 has every value M - log(l) /
    beta * (1 + 2e-6), which cannot be the largest, and block 7 ties block
    1's maximum with smaller other values."""
    M, d = 1.5, 0.9 * math.log(l) / beta
    x = np.full((8, l), 0.25)
    x[1, 0] = x[7, 0] = M
    x[3] = x[6] = M - d
    x[4] = x[3]
    x[4, -1] = np.nextafter(x[4, -1], 0.0)
    x[5] = M - math.log(l) / beta * (1 + 2e-6)
    x[7, 1:] = 0.0
    return x


@pytest.mark.parametrize("l", (2, 8, 16, 32, 100))
@pytest.mark.parametrize("beta", LSE_BETAS)
def test_the_tensor_factor_candidates_keep_ties_and_near_ties(monkeypatch, kernel, l, beta):
    # The forward g and tensor_scale_grad's block come only from the blocks
    # that can hold the largest statistic; a trim of every block below the
    # largest maximum, or one that took the last of equal maxima, fails.
    x = _tensor_factor_rows(l, beta)
    signs = np.where(np.arange(x.size).reshape(x.shape) % 3, 1.0, -1.0)
    # At 1e300 the gaps vanish: blocks 1 and 7 have equal statistics.
    for X, first in ((x * signs, 3), (x[:, :-1] * signs[:, :-1], None),
                     ((x * 1e300).T.copy().T, 1)):
        for rounding in (TIES_TO_EVEN, STOCHASTIC):
            spec = BlockSpec(block_size=l, beta=beta, elem_rounding=rounding)
            _same_on_both_paths(monkeypatch, kernel, X.reshape(2, -1), spec, True, seed=1)
        res = quantize_blocks(X, BlockSpec(block_size=l, beta=beta), True)
        got = []
        for lib in (kernel, None):
            monkeypatch.setattr(mx, "_KERNEL", lib)
            p, row = tensor_scale_grad(res)
            got.append((p, row.tobytes()))
        assert got[0] == got[1]
        assert first in (None, got[0][0])


def test_the_compile_command_keeps_ieee_arithmetic():
    # -ffp-contract=off forbids fused multiply-adds; no flag that lets the
    # compiler reassociate, use reciprocals or assume finite values.
    assert "-ffp-contract=off" in _kernel.COMMAND
    unsafe = {"-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-fassociative-math",
              "-freciprocal-math", "-ffinite-math-only"}
    assert not unsafe & set(_kernel.COMMAND)


# ---------------------------------------------------------------------------
# Building and loading the kernel
# ---------------------------------------------------------------------------


def test_a_library_of_another_source_is_never_loaded(kernel, tmp_path, monkeypatch):
    # The library's name is keyed by the source: an edited source builds
    # and loads its own, and a file under any other key is left alone.
    (tmp_path / "quantize-0000000000000000.so").write_bytes(b"not a library")
    first = _kernel.load(tmp_path)
    edited = tmp_path / "quantize.c"
    edited.write_bytes(_kernel.SOURCE.read_bytes() + b"/* edited */\n")
    monkeypatch.setattr(_kernel, "SOURCE", edited)
    second = _kernel.load(tmp_path)
    assert {Path(first._name).parent, Path(second._name).parent} == {tmp_path}
    assert first._name != second._name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["quantize-0000000000000000.so", "quantize.c", Path(first._name).name,
         Path(second._name).name])
    assert _kernel.load(tmp_path)._name == second._name  # found, not rebuilt


@pytest.mark.parametrize("command", [("no-such-compiler-here",),
                                     (*_kernel.COMMAND, "-fno-such-flag")])
def test_a_failed_build_leaves_numpy(tmp_path, monkeypatch, command):
    monkeypatch.setattr(_kernel, "COMMAND", command)
    assert _kernel.load(tmp_path / "cache") is None
    assert list((tmp_path / "cache").iterdir()) == []  # no temporary file is left


def test_an_unwritable_cache_leaves_numpy(tmp_path):
    (tmp_path / "file").write_text("")
    assert _kernel.load(tmp_path / "file") is None
    assert _kernel.load(tmp_path / "file" / "cache") is None


def test_the_cpu_key(tmp_path):
    # -march=native builds for this CPU, so its model and flags key the library.
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text("processor\t: 0\nmodel name\t: X\nflags\t\t: a b\ncpu MHz\t: 1\n"
                       "processor\t: 1\nmodel name\t: X\nflags\t\t: a b\ncpu MHz\t: 2\n")
    assert _kernel._cpu(cpuinfo) == "flags\t\t: a b\nmodel name\t: X"
    assert _kernel._cpu(tmp_path / "none") == f"{platform.machine()} {platform.processor()}"


def test_the_source_ships_as_package_data():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert _kernel.SOURCE.name in config["tool"]["setuptools"]["package-data"]["mxsim"]


@pytest.mark.parametrize("case", ["no compiler", "unwritable cache"])
def test_import_succeeds_without_a_kernel(tmp_path, case):
    # A fresh copy of the package, so no library is cached for it.
    package = tmp_path / "mxsim"
    shutil.copytree(Path(mx.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    if case == "no compiler":
        env["PATH"] = str(tmp_path / "empty")
    else:
        (package / "__pycache__").write_text("")
    code = ("import mxsim, numpy as np; from mxsim import mx; assert mx._KERNEL is None; "
            "print(mxsim.quantize_tensor(np.arange(8.0), mx.BlockSpec(block_size=4)).scales)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[2. 1.]\n"
