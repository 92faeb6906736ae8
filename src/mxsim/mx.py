"""Block-scaled quantization of real tensors into 4-bit elements.

A tensor is split along its last axis into fixed-size blocks, each row
zero-padded to a whole number of blocks, so no block spans two rows.  Each
block gets one shared scale: the block statistic ``Z`` (absolute maximum,
or its smooth log-sum-exp surrogate) determines an ideal multiplier
``s = elem_max / Z`` that stretches the block to fill the element grid;
that multiplier is itself rounded into a scale format before use.  An
optional global (tensor-level) factor ``g`` normalizes the whole tensor
first so that per-block multipliers land inside the scale format's range.

The full pipeline for an element x with tensor scaling enabled is

    g * (1 / s_eff) * Q(s_eff * x / g)

where ``Q`` rounds onto the element grid and ``s_eff`` is the stored,
format-constrained multiplier (times a fixed rescale constant when the
narrow-range scale format calls for it).
"""

from __future__ import annotations

import io
import math
import struct
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .formats import (
    E4M3,
    E2M1,
    E8M0,
    ROUNDING_MODES,
    STOCHASTIC,
    TIES_TO_EVEN,
    TOWARD_POSITIVE,
    FloatFormat,
    _check_rounding,
    _round,
    decode_array,  # noqa: F401 - the benchmark's tracer patches this binding
    encode_array,
    round_array,  # noqa: F401 - the benchmark's tracer patches this binding
)
from . import _kernel

# What to do when a block scale rounds to zero (or underflows past the grid).
ZERO_NEAREST_SUBNORMAL = "nearest_subnormal"
ZERO_TO_ONE = "to_one"

ZERO_MODES = (ZERO_NEAREST_SUBNORMAL, ZERO_TO_ONE)


@dataclass(frozen=True)
class BlockSpec:
    """Everything needed to quantize one tensor reproducibly; the elements are
    E2M1, the MXFP4 element format of OCP Microscaling Formats v1.0.

    ``beta`` picks the block statistic: None for the exact absolute maximum,
    else the inverse temperature of its log-sum-exp surrogate.
    """

    block_size: int = 32
    scale_format: FloatFormat = E8M0
    beta: float | None = None
    scale_rounding: str = TIES_TO_EVEN
    elem_rounding: str = TIES_TO_EVEN
    zero_mode: str = ZERO_NEAREST_SUBNORMAL

    def __post_init__(self):
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.beta is not None and not 0 < self.beta < math.inf:  # NaN too
            raise ValueError(f"beta must be None or positive and finite, got {self.beta}")
        if self.zero_mode not in ZERO_MODES:
            raise ValueError(f"unknown zero mode {self.zero_mode!r}")
        for mode in (self.scale_rounding, self.elem_rounding):
            if mode not in ROUNDING_MODES:
                raise ValueError(f"unknown rounding mode {mode!r}")

    @cached_property
    def _kernel_args(self) -> tuple[_kernel.Format, int, _kernel.Format, int]:
        """The scale format and rounding and the element format and rounding,
        as the compiled kernel takes them."""
        return (_kernel.format_params(self.scale_format, _zero_fill(self)),
                ROUNDING_MODES.index(self.scale_rounding),
                _kernel.format_params(E2M1, 0.0), ROUNDING_MODES.index(self.elem_rounding))


@dataclass
class QuantizedTensor:
    """One quantization: per-block scales, the rounded element values, and
    the residuals its gradients read.

    ``elements`` are grid values of the element format, one row per block;
    their bit patterns exist only in serialized form (:func:`to_bytes`).
    ``blocks`` are the (padded) input blocks *after* division by the global
    factor; ``values`` are the dequantized blocks before the global factor
    is re-applied, so ``g * values`` reconstructs the tensor.
    """

    shape: tuple[int, ...]
    scales: np.ndarray  # stored scale values, one per block, all > 0
    elements: np.ndarray  # (num_blocks, block_size), zero on padding
    spec: BlockSpec
    blocks: np.ndarray  # (num_blocks, block_size), tensor / g
    z: np.ndarray  # per-block statistic of `blocks`
    s_ideal: np.ndarray  # elem_max / z (inf where z == 0)
    global_scale: float | None = None  # tensor-level factor g (None = off)
    rescale: float = 1.0  # fixed constant folded into the multiplier

    @cached_property
    def mask(self) -> np.ndarray:
        """False on zero-padding positions, built when first read."""
        return _partition(np.ones(self.shape), self.spec.block_size) > 0

    @property
    def s_eff(self) -> np.ndarray:
        """rescale * stored scale, the multiplier actually used."""
        return self.rescale * self.scales

    @property
    def values(self) -> np.ndarray:
        """(1 / s_eff) * Q(s_eff * blocks)."""
        return self.elements / self.s_eff[:, None]

    def dequantize(self) -> np.ndarray:
        return dequantize_tensor(self)


# np.exp rounds to +0.0 below log(2**-1075), about -745.13, and gives
# subnormal results below about -708.4; NumPy leaves its vector path for both.
_EXP_NORMAL_FROM = -708.0
_EXP_ZERO_BELOW = -746.0


def _block_major_abs(blocks: np.ndarray, mask: np.ndarray | None, fill: float) -> np.ndarray:
    """``|blocks|`` of a ``(num_blocks, l)`` array written once into a new
    C-ordered ``(l, num_blocks)`` buffer, ``fill`` where ``mask`` is False.

    A reduction over the rows of the buffer runs along ``num_blocks``
    contiguous values; one over the short rows of ``blocks`` pays NumPy's
    inner-loop call per block.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    a = np.abs(blocks.T, out=np.empty(blocks.shape[::-1]))
    if mask is not None:
        np.copyto(a, fill, where=~mask.T)
    return a


def _exp_in_place(a: np.ndarray) -> np.ndarray:
    """``np.exp(a, out=a)``, bit for bit.  When the least argument is finite
    and below -708, the arguments below -746, whose exp is +0.0, are
    multiplied by 0 first (exp(-0.0) is 1) and their results by 0 after."""
    if not -np.inf < a.min(initial=0.0) < _EXP_NORMAL_FROM:  # NaN too
        return np.exp(a, out=a)
    live = a >= _EXP_ZERO_BELOW
    a *= live
    np.exp(a, out=a)
    a *= live
    return a


def _pairwise_sum(e: np.ndarray, lo: int = 0, n: int | None = None) -> np.ndarray:
    """``e[lo:lo + n].sum(axis=0)`` added in the order of NumPy's pairwise
    sum of one contiguous row, so that it is bit for bit ``e.T.sum(axis=-1)``
    for a C-ordered ``e``: fewer than 8 terms in a row, up to 128 in 8
    accumulators, more split in halves at a multiple of 8."""
    n = len(e) if n is None else n
    if n < 8:
        total = np.zeros(e.shape[1:])
        for row in e[lo:lo + n]:
            total += row
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(e, lo, half) + _pairwise_sum(e, lo + half, n - half)
    stop = lo + n - n % 8
    acc = e[lo:lo + 8] + e[lo + 8:lo + 16] if n >= 16 else e[lo:lo + 8].copy()
    for i in range(lo + 16, stop, 8):
        acc += e[i:i + 8]
    acc[0::2] += acc[1::2]
    acc[0::4] += acc[2::4]
    total = acc[0] + acc[4]
    for row in e[stop:lo + n]:
        total += row
    return total


def z_values(
    blocks: np.ndarray, beta: float | None, mask: np.ndarray | None = None
) -> np.ndarray:
    """Statistic of each row of ``(num_blocks, l)`` blocks: the absolute
    maximum, or its log-sum-exp at ``beta``; ``mask`` excludes padding
    positions.

    The log-sum-exp runs in the compiled kernel when it is loaded
    (:func:`_kernel_lse`).  Otherwise ``|blocks|`` is written once into a
    block-major ``(l, num_blocks)`` buffer (``_block_major_abs``); the
    maximum and the log-sum-exp work along its rows, in place, and the exp
    terms are summed in the order the row-wise sum adds them
    (``_pairwise_sum``).  The maximum of blocks of 64 or more is taken
    along the rows, where the transposed copy costs more than it saves.
    """
    if beta is not None:
        got = _kernel_lse(blocks, beta, mask)
        if got is not None:
            return got[1]
    elif np.ndim(blocks) and np.shape(blocks)[-1] >= 64:
        a = np.abs(np.asarray(blocks, dtype=np.float64))
        if mask is not None:
            np.copyto(a, 0.0, where=~mask)
        return a.max(axis=-1, initial=0.0)
    a = _block_major_abs(blocks, mask, 0.0)
    m = a.max(axis=0, initial=0.0)
    if beta is None or not np.isfinite(m).all():  # no shift for inf/NaN
        return m
    # Log-sum-exp with a max shift so large beta * |x| cannot overflow; an
    # argument that overflows below is -inf, whose exp is the 0 it stands for.
    a -= m
    with np.errstate(over="ignore"):
        a *= beta
    _exp_in_place(a)
    if mask is None:
        return m + np.log(_pairwise_sum(a)) / beta
    a *= mask.T  # padding adds +0.0
    total = _pairwise_sum(a)  # 0 for an all-padding row
    return m + np.log(total, out=np.zeros_like(total), where=total > 0) / beta


def quantize_scales(
    s: np.ndarray, spec: BlockSpec, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Vectorized scale quantization with overflow/underflow handling.

    +inf sentinels (zero blocks) saturate to the scale format's maximum;
    multipliers that round to zero are replaced according to the spec's
    zero mode so dequantization never divides by zero.  NaN, ``-inf`` and
    negative multipliers are errors.
    """
    s = np.asarray(s, dtype=np.float64)
    fmt, mode = spec.scale_format, spec.scale_rounding
    _check_rounding(mode, rng)
    if not s.min(initial=np.inf) >= 0:  # NaN propagates into the minimum
        raise ValueError("scale multipliers must be >= 0 or +inf")
    if rng is None or s.max(initial=0.0) < np.inf:  # _round saturates +inf
        out = _round(s.reshape(-1), fmt, mode, rng).reshape(s.shape)  # 0-d s too
    else:  # draw for the finite multipliers only
        finite = s < np.inf
        out = np.full(s.shape, fmt.max_finite)
        out[finite] = _round(s[finite], fmt, mode, rng)
    if not fmt.exponent_only:  # an exponent-only grid has no zero
        np.copyto(out, _zero_fill(spec), where=out <= 0)
    return out


def _zero_fill(spec: BlockSpec) -> float:
    """What a block scale that rounds to zero becomes under the spec's zero mode."""
    fmt = spec.scale_format
    return fmt.min_positive if spec.zero_mode == ZERO_NEAREST_SUBNORMAL else 1.0


def nvfp4_rescale_constant(spec: BlockSpec) -> float:
    """Fixed divisor that re-centers per-block multipliers in a narrow
    scale format when tensor scaling is active (half of elem_max * scale_max)."""
    return E2M1.max_finite * spec.scale_format.max_finite * 0.5


def _rescale(spec: BlockSpec, tensor_scaling: bool) -> float:
    """The divisor applied to the ideal multipliers: 1 unless tensor scaling
    runs with the narrow E4M3 scale format."""
    if tensor_scaling and spec.scale_format.name == E4M3.name:
        return nvfp4_rescale_constant(spec)
    return 1.0


def _partition(X: np.ndarray, block_size: int) -> np.ndarray:
    """Copy a tensor into blocks along its last axis, each row zero-padded
    to whole blocks."""
    rows = X.reshape(-1, X.shape[-1] if X.ndim else 1) if X.size else np.zeros((1, 0))
    n = rows.shape[1]
    if rows.size and n % block_size == 0:
        return np.array(rows, order="C").reshape(-1, block_size)
    padded = np.zeros((len(rows), max(1, -(-n // block_size)) * block_size))
    padded[:, :n] = rows
    return padded.reshape(-1, block_size)


def quantize_blocks(
    X: np.ndarray,
    spec: BlockSpec,
    tensor_scaling: bool = False,
    rng: np.random.Generator | None = None,
) -> QuantizedTensor:
    """Quantize a tensor keeping every intermediate quantity.

    It checks finiteness (on the block statistics) and the element rounding
    once (``quantize_scales`` checks the scale rounding) and rounds the
    elements in place in the buffer of ``blocks * s_eff``, the ``elements``.

    With tensor scaling the global factor ``g`` is the maximum block
    statistic of the raw tensor (identity when the tensor is all zero);
    blocks of ``X / g`` are then quantized.  The absolute maximum of the
    normalized blocks is ``z / g``; the log-sum-exp is recomputed on them
    (it is not linear in general).
    The fixed rescale divisor is applied for the narrow E4M3 scale format.

    Every non-empty tensor, and an empty one under Absmax, is quantized in
    the compiled kernel when it is loaded (:func:`_quantize_kernel`); the
    NumPy code below is its fallback and its byte-for-byte oracle.
    """
    X = np.asarray(X, dtype=np.float64)
    if _KERNEL is not None and (spec.beta is None or X.size):
        return _quantize_kernel(X, spec, tensor_scaling, rng)
    l = spec.block_size
    blocks = _partition(X, l)
    z_mask = None if blocks.size == X.size else _partition(np.ones(X.shape), l) > 0
    z = z_values(blocks, spec.beta, z_mask)
    z_max = z.max()
    if not z_max < np.inf:  # NaN fails too
        raise ValueError("quantization requires finite inputs")
    _check_rounding(spec.elem_rounding, rng)

    g = None
    if tensor_scaling:
        g = float(z_max) if z_max > 0 else 1.0  # identity for a zero or empty tensor
        blocks /= g  # _partition's copy
        if spec.beta is None:
            z /= g  # exact: x -> fl(x / g) is monotone, and padding stays 0
        else:
            z = z_values(blocks, spec.beta, z_mask)

    # z >= +0.0, so z = 0 and a subnormal z both give +inf.
    with np.errstate(divide="ignore", over="ignore"):
        s_ideal = E2M1.max_finite / z

    rescale = _rescale(spec, tensor_scaling)
    s_pre = s_ideal if rescale == 1.0 else s_ideal / rescale

    stored = quantize_scales(s_pre, spec, rng)
    s_eff = stored if rescale == 1.0 else rescale * stored

    q = blocks * s_eff[:, None]
    _round(q, E2M1, spec.elem_rounding, rng, out=q)
    return QuantizedTensor(
        shape=X.shape, scales=stored, elements=q, spec=spec, blocks=blocks, z=z,
        s_ideal=s_ideal, global_scale=g, rescale=rescale,
    )


# The compiled kernel (``quantize.c``), or None where it could not be built.
_KERNEL = _kernel.load()
_UNIFORMS = threading.local()  # each thread's reused buffer of draws


def _quantize_kernel(
    X: np.ndarray, spec: BlockSpec, tensor_scaling: bool, rng: np.random.Generator | None
) -> QuantizedTensor:
    """:func:`quantize_blocks` in the compiled kernel: the same record, bit
    for bit, after the same checks and the same draws.

    The kernel writes every field into one buffer.  Absmax roundings that
    draw nothing take one call; otherwise a first call copies the blocks
    and gives the Absmax statistics, the checks run, a LogSumExp spec
    replaces ``z`` and ``s_ideal`` (:func:`_kernel_lse`, with the exp terms
    in the buffer of the elements), the scale uniforms (one per finite
    multiplier) and then the element uniforms (one per padded element) are
    drawn as ``_round`` draws them, and a last call rounds.

    Under tensor scaling the LogSumExp is taken twice, as on the NumPy
    path: on the raw blocks for ``g``, then on the blocks over ``g``; the
    first only of the blocks that can hold the largest statistic.
    """
    lib, l, beta = _KERNEL, spec.block_size, spec.beta
    rows = X.reshape(-1, X.shape[-1] if X.ndim else 1) if X.size else X.reshape(1, 0)
    if not rows.flags.aligned:  # strides the kernel cannot step by
        rows = rows.copy()
    (nrows, n), (rs, cs) = rows.shape, rows.strides
    size = nrows * max(1, -(-n // l)) * l
    nb = size // l
    out = np.empty(2 * size + 3 * nb + 1)
    rescale = _rescale(spec, tensor_scaling)
    x, p = rows.ctypes.data, out.ctypes.data
    # or a mode that _check_rounding refuses
    draws = not {spec.scale_rounding, spec.elem_rounding} <= {TIES_TO_EVEN, TOWARD_POSITIVE}
    one_call = beta is None and not draws
    if one_call:
        finite = lib.mx_absmax_quantize(x, nrows, n, rs // 8, cs // 8, l, tensor_scaling,
                                        rescale, *spec._kernel_args, p)
    else:
        finite = lib.mx_absmax_stats(x, nrows, n, rs // 8, cs // 8, l,
                                     tensor_scaling and beta is None, E2M1.max_finite, p)
    if finite < 0:
        raise ValueError("quantization requires finite inputs")
    blocks, elements = out[:size].reshape(nb, l), out[size:2 * size].reshape(nb, l)
    z, s_ideal, scales = out[2 * size:-1].reshape(3, nb)
    if beta is not None:
        mask = None if size == X.size else _partition(np.ones(X.shape), l) > 0
        if tensor_scaling:
            g = _kernel_lse(blocks, beta, mask, candidates=True, e=elements)[1].max()
            out[-1] = g = g if g > 0 else 1.0
            blocks /= g
        z[:] = _kernel_lse(blocks, beta, mask, e=elements)[1]
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(E2M1.max_finite, z, out=s_ideal)
        finite = int(np.count_nonzero(s_ideal < np.inf))
    us = ue = None  # the scale and element uniforms
    if draws:
        _check_rounding(spec.elem_rounding, rng)
        _check_rounding(spec.scale_rounding, rng)
        k = finite if spec.scale_rounding == STOCHASTIC else 0
        u = getattr(_UNIFORMS, "buf", None)
        if u is None or u.size < k + size:
            u = _UNIFORMS.buf = np.empty(k + size)
        if k:
            rng.random(out=u[:k])
        if spec.elem_rounding == STOCHASTIC:
            rng.random(out=u[k:k + size])
        us = u.ctypes.data
        ue = us + 8 * k
    if not one_call:
        lib.mx_round(nb, l, rescale, *spec._kernel_args, us, ue, p)
    return QuantizedTensor(
        shape=X.shape, scales=scales, elements=elements, spec=spec, blocks=blocks, z=z,
        s_ideal=s_ideal, global_scale=float(out[-1]) if tensor_scaling else None,
        rescale=rescale,
    )


def _kernel_blocks(blocks, mask) -> tuple[np.ndarray, np.ndarray | None] | None:
    """``blocks`` and ``mask`` as C-ordered float64 and bool arrays for the
    kernel, or None when it is not loaded or they are not a non-empty
    ``(num_blocks, l)`` array and a mask of its shape."""
    if _KERNEL is None:
        return None
    blocks = np.ascontiguousarray(blocks, dtype=np.float64)
    if blocks.ndim != 2 or not blocks.size:
        return None
    if mask is not None:
        if np.shape(mask) != blocks.shape or np.asarray(mask).dtype != bool:
            return None
        mask = np.ascontiguousarray(mask)
    return blocks, mask


def _kernel_lse(
    blocks: np.ndarray, beta: float, mask: np.ndarray | None, g: float = 1.0,
    candidates: bool = False, e: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray] | None:
    """The log-sum-exp at ``beta`` of each row of ``blocks * g`` in the
    compiled kernel, bit for bit what :func:`z_values` of ``blocks * g``
    gives: ``(rows, z)``, or None where the kernel is not loaded or takes
    no such input, a live value is not finite or a row has none.

    The kernel writes the exp arguments, ``_exp_in_place`` takes their exp,
    the kernel sums each row and ``np.log`` takes the sums' logs; ``e``
    (``blocks.size`` values or more) holds the exp terms.  ``rows`` is None
    for every row; with ``candidates`` it holds the indices of the rows
    whose statistic can be the largest, in order, and ``z`` is theirs: a
    row's statistic lies in ``[m, m + log(l) / beta]`` above its maximum
    ``m``, so a row below the largest ``m`` by more cannot be the largest.
    """
    got = _kernel_blocks(blocks, mask)
    if got is None:
        return None
    blocks, mask = got
    nb, l = blocks.shape
    m = np.empty(nb)
    rows = np.empty(nb, dtype=np.int64) if candidates else None
    e = np.empty(blocks.size) if e is None else e
    bound = math.log(l) / beta * (1.0 + 1e-6)  # above every float log(sum) / beta
    k = _KERNEL.mx_lse_shift(blocks.ctypes.data, None if mask is None else mask.ctypes.data,
                             nb, l, g, beta, bound, None if rows is None else rows.ctypes.data,
                             m.ctypes.data, e.ctypes.data)
    if k < 0:
        return None
    terms = e.reshape(-1)[:k * l]
    _exp_in_place(terms)
    z = np.empty(k)
    _KERNEL.mx_lse_sum(terms.ctypes.data, k, l, z.ctypes.data)
    np.log(z, out=z)  # each sum holds a row maximum's exp(0) = 1
    z /= beta
    if rows is None:
        z += m
        return None, z
    rows = rows[:k]
    z += m[rows]
    return rows, z


def _kernel_softmax_grad(
    blocks: np.ndarray, beta: float, mask: np.ndarray | None
) -> np.ndarray | None:
    """``qgrad.dZ``'s softmax derivative in the compiled kernel, bit for
    bit, or None where the kernel is not loaded or takes no such input, a
    live value is not finite or a row has none."""
    got = _kernel_blocks(blocks, mask)
    if got is None:
        return None
    blocks, mask = got
    nb, l = blocks.shape
    m, e = np.empty(nb), np.empty(blocks.shape)
    if _KERNEL.mx_lse_shift(blocks.ctypes.data, None if mask is None else mask.ctypes.data,
                            nb, l, 1.0, beta, 0.0, None, m.ctypes.data, e.ctypes.data) < 0:
        return None
    _exp_in_place(e)
    _KERNEL.mx_softmax_grad(blocks.ctypes.data, nb, l, e.ctypes.data)
    return e


def quantize_tensor(
    X: np.ndarray,
    spec: BlockSpec,
    tensor_scaling: bool = False,
    rng: np.random.Generator | None = None,
) -> QuantizedTensor:
    """Quantize a tensor: :func:`quantize_blocks`, called through this
    module's global, so a wrapper installed there times this call too."""
    return quantize_blocks(X, spec, tensor_scaling, rng)


def dequantize_tensor(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct the real tensor a QuantizedTensor represents."""
    return _unblock(qt.values, qt)


def _unblock(values: np.ndarray, qt: QuantizedTensor) -> np.ndarray:
    """Re-apply the global factor to dequantized blocks, in place in
    ``values``, and drop each row's padding."""
    if qt.global_scale is not None:
        values *= qt.global_scale
    n = qt.shape[-1] if qt.shape else 1
    l = qt.spec.block_size
    rows = values.reshape(-1, -(-n // l) * l) if math.prod(qt.shape) else values[:0]
    return rows[:, :n].reshape(qt.shape)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MAGIC = b"MXQ2"


def _pack_text(text: str) -> bytes:
    raw = text.encode("ascii")
    return struct.pack("<B", len(raw)) + raw


def to_bytes(qt: QuantizedTensor) -> bytes:
    """The package's one export of codes, hashed by the bit ledger: a header
    with the whole spec (E2M1 elements), 16-bit scale codes, 4-bit codes.

    Raises ``ValueError`` for a block size above 65,535, which the 16-bit
    header field cannot hold.
    """
    spec = qt.spec
    if spec.block_size > 0xFFFF:
        raise ValueError(f"block_size {spec.block_size} does not fit the 16-bit "
                         "header field of the serialized layout")
    codes = encode_array(qt.elements, E2M1).ravel()
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack(
        "<BHB", len(qt.shape), spec.block_size, 1 if qt.global_scale is not None else 0
    ))
    buf.write(struct.pack(f"<{len(qt.shape)}q", *qt.shape))
    beta, statistic = (math.nan, "Absmax") if spec.beta is None else (spec.beta, "LogSumExp")
    buf.write(struct.pack("<ddd", qt.global_scale or 0.0, qt.rescale, beta))
    for text in (E2M1.name, spec.scale_format.name, statistic,
                 spec.scale_rounding, spec.elem_rounding, spec.zero_mode):
        buf.write(_pack_text(text))
    scale_codes = encode_array(qt.scales, spec.scale_format).astype("<u2")
    buf.write(struct.pack("<q", len(scale_codes)))
    buf.write(scale_codes.tobytes())
    buf.write(struct.pack("<q", codes.size))
    if codes.size % 2:
        codes = np.append(codes, 0)
    packed = (codes[0::2] | (codes[1::2] << 4)).astype(np.uint8)
    buf.write(packed.tobytes())
    return buf.getvalue()
