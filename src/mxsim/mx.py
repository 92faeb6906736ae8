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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .formats import (
    E4M3,
    E2M1,
    E8M0,
    ROUNDING_MODES,
    TIES_TO_EVEN,
    FloatFormat,
    _check_rounding,
    _round,
    decode_array,
    encode_array,
    get_format,
    round_array,  # noqa: F401 - the benchmark's tracer patches this binding
)

# Block statistic choices.
Z_ABSMAX = "Absmax"
Z_LOGSUMEXP = "LogSumExp"

# What to do when a block scale rounds to zero (or underflows past the grid).
ZERO_NEAREST_SUBNORMAL = "nearest_subnormal"
ZERO_TO_ONE = "to_one"

ZERO_MODES = (ZERO_NEAREST_SUBNORMAL, ZERO_TO_ONE)


@dataclass(frozen=True)
class ZFunction:
    """Block statistic: hard absolute maximum or its smooth surrogate."""

    kind: str = Z_ABSMAX
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in (Z_ABSMAX, Z_LOGSUMEXP):
            raise ValueError(f"unknown Z function {self.kind!r}")
        if self.kind == Z_LOGSUMEXP:
            if self.beta is None or not 0 < self.beta < math.inf:
                raise ValueError("LogSumExp requires a positive finite beta")


@dataclass(frozen=True)
class BlockSpec:
    """Everything needed to quantize one tensor reproducibly."""

    block_size: int = 32
    elem_format: FloatFormat = E2M1
    scale_format: FloatFormat = E8M0
    z: ZFunction = field(default_factory=ZFunction)
    scale_rounding: str = TIES_TO_EVEN
    elem_rounding: str = TIES_TO_EVEN
    zero_mode: str = ZERO_NEAREST_SUBNORMAL

    def __post_init__(self):
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.zero_mode not in ZERO_MODES:
            raise ValueError(f"unknown zero mode {self.zero_mode!r}")
        for mode in (self.scale_rounding, self.elem_rounding):
            if mode not in ROUNDING_MODES:
                raise ValueError(f"unknown rounding mode {mode!r}")


@dataclass
class QuantizedTensor:
    """One quantization: per-block scales plus the rounded element values.

    ``elements`` are grid values of the element format, one row per block,
    so ``elements / (rescale * scales)`` are the dequantized blocks.  Their
    bit patterns exist only in serialized form (:attr:`codes`).
    """

    shape: tuple[int, ...]
    scales: np.ndarray  # stored scale values, one per block, all > 0
    elements: np.ndarray  # (num_blocks, block_size), zero on padding
    spec: BlockSpec
    global_scale: float | None = None  # tensor-level factor g (None = off)
    rescale: float = 1.0  # fixed constant folded into the multiplier

    @property
    def num_blocks(self) -> int:
        return len(self.scales)

    @property
    def codes(self) -> np.ndarray:
        """Element codes in block order, padding included."""
        return encode_array(self.elements, self.spec.elem_format).ravel()

    def dequantize(self) -> np.ndarray:
        return dequantize_tensor(self)


@dataclass
class BlockQuantResult:
    """A quantization plus the residuals its gradients need.

    ``blocks`` are the (padded) input blocks *after* division by the global
    factor; ``values`` are the dequantized blocks before the global factor
    is re-applied, so ``g * values`` reconstructs the tensor.
    """

    qt: QuantizedTensor
    blocks: np.ndarray  # (num_blocks, block_size), tensor / g
    z: np.ndarray  # per-block statistic of `blocks`
    s_ideal: np.ndarray  # elem_max / z (inf where z == 0)

    @cached_property
    def mask(self) -> np.ndarray:
        """False on zero-padding positions, built when first read."""
        return _partition(np.ones(self.qt.shape), self.qt.spec.block_size) > 0

    @property
    def s_eff(self) -> np.ndarray:
        """rescale * stored scale, the multiplier actually used."""
        return self.qt.rescale * self.qt.scales

    @property
    def values(self) -> np.ndarray:
        """(1 / s_eff) * Q(s_eff * blocks)."""
        return self.qt.elements / self.s_eff[:, None]


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
    blocks: np.ndarray, z: ZFunction, mask: np.ndarray | None = None
) -> np.ndarray:
    """Statistic of each row of ``(num_blocks, l)`` blocks; ``mask``
    excludes padding positions.

    ``|blocks|`` is written once into a block-major ``(l, num_blocks)``
    buffer (``_block_major_abs``); the maximum and the log-sum-exp work
    along its rows, in place, and the exp terms are summed in the order the
    row-wise sum adds them (``_pairwise_sum``).
    """
    a = _block_major_abs(blocks, mask, 0.0)
    m = a.max(axis=0, initial=0.0)
    if z.kind == Z_ABSMAX or not np.isfinite(m).all():  # no shift for inf/NaN
        return m
    # Log-sum-exp with a max shift so large beta * |x| cannot overflow.
    a -= m
    a *= z.beta
    _exp_in_place(a)
    if mask is None:
        return m + np.log(_pairwise_sum(a)) / z.beta
    a *= mask.T  # padding adds +0.0
    total = _pairwise_sum(a)  # 0 for an all-padding row
    return m + np.log(total, out=np.zeros_like(total), where=total > 0) / z.beta


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
        out = _round(s, fmt, mode, rng)
    else:  # draw for the finite multipliers only
        finite = s < np.inf
        out = np.full(s.shape, fmt.max_finite)
        out[finite] = _round(s[finite], fmt, mode, rng)
    if not fmt.exponent_only:  # an exponent-only grid has no zero
        nearest = spec.zero_mode == ZERO_NEAREST_SUBNORMAL
        np.copyto(out, fmt.min_positive_subnormal if nearest else 1.0, where=out <= 0)
    return out


def nvfp4_rescale_constant(spec: BlockSpec) -> float:
    """Fixed divisor that re-centers per-block multipliers in a narrow
    scale format when tensor scaling is active (half of elem_max * scale_max)."""
    return spec.elem_format.max_finite * spec.scale_format.max_finite * 0.5


def _num_blocks(shape: tuple[int, ...], block_size: int) -> int:
    """Blocks of a tensor blocked along its last axis, each row padded to
    whole blocks; an empty tensor still gets one."""
    n = shape[-1] if shape else 1
    return max(1, math.prod(shape[:-1]) * -(-n // block_size))


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
) -> BlockQuantResult:
    """Quantize a tensor keeping every intermediate quantity.

    It checks finiteness (on the block statistics) and the element rounding
    once (``quantize_scales`` checks the scale rounding) and rounds the
    elements in place in the buffer of ``blocks * s_eff``, the ``qt.elements``.

    With tensor scaling the global factor ``g`` is the maximum block
    statistic of the raw tensor (identity when the tensor is all zero);
    blocks of ``X / g`` are then quantized.  The absolute maximum of the
    normalized blocks is ``z / g``; the log-sum-exp is recomputed on them
    (it is not linear in general).
    The fixed rescale divisor is applied for the narrow E4M3 scale format.
    """
    X = np.asarray(X, dtype=np.float64)
    l = spec.block_size
    blocks = _partition(X, l)
    z_mask = None if blocks.size == X.size else _partition(np.ones(X.shape), l) > 0
    z = z_values(blocks, spec.z, z_mask)
    z_max = z.max()
    if not z_max < np.inf:  # NaN fails too
        raise ValueError("quantization requires finite inputs")
    _check_rounding(spec.elem_rounding, rng)

    g = None
    if tensor_scaling:
        g = float(z_max) if z_max > 0 else 1.0  # identity for a zero or empty tensor
        blocks /= g  # _partition's copy
        if spec.z.kind == Z_ABSMAX:
            z /= g  # exact: x -> fl(x / g) is monotone, and padding stays 0
        else:
            z = z_values(blocks, spec.z, z_mask)

    # z >= +0.0, so z = 0 and a subnormal z both give +inf.
    with np.errstate(divide="ignore", over="ignore"):
        s_ideal = spec.elem_format.max_finite / z

    rescale, s_pre = 1.0, s_ideal
    if tensor_scaling and spec.scale_format.name == E4M3.name:
        rescale = nvfp4_rescale_constant(spec)
        s_pre = s_ideal / rescale

    stored = quantize_scales(s_pre, spec, rng)
    s_eff = stored if rescale == 1.0 else rescale * stored

    q = blocks * s_eff[:, None]
    _round(q, spec.elem_format, spec.elem_rounding, rng, out=q)
    qt = QuantizedTensor(
        shape=X.shape, scales=stored, elements=q, spec=spec, global_scale=g,
        rescale=rescale,
    )
    return BlockQuantResult(qt=qt, blocks=blocks, z=z, s_ideal=s_ideal)


def quantize_tensor(
    X: np.ndarray,
    spec: BlockSpec,
    tensor_scaling: bool = False,
    rng: np.random.Generator | None = None,
) -> QuantizedTensor:
    """Quantize a tensor into per-block scales and element values."""
    return quantize_blocks(X, spec, tensor_scaling, rng).qt


def dequantize_tensor(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct the real tensor a QuantizedTensor represents."""
    return _unblock(qt.elements / (qt.rescale * qt.scales)[:, None], qt)


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
    """Binary layout: header with the whole spec, scale codes (16-bit),
    packed 4-bit element codes."""
    spec = qt.spec
    codes = qt.codes
    if codes.size and int(codes.max()) > 0xF:
        raise ValueError(f"{spec.elem_format.name} codes do not fit in 4 bits")
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack(
        "<BHB", len(qt.shape), spec.block_size, 1 if qt.global_scale is not None else 0
    ))
    buf.write(struct.pack(f"<{len(qt.shape)}q", *qt.shape))
    beta = math.nan if spec.z.beta is None else spec.z.beta
    buf.write(struct.pack("<ddd", qt.global_scale or 0.0, qt.rescale, beta))
    for text in (spec.elem_format.name, spec.scale_format.name, spec.z.kind,
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


def from_bytes(data: bytes) -> QuantizedTensor:
    """Inverse of :func:`to_bytes`.

    Raises ``ValueError`` for a buffer that is truncated, over-long, or
    whose fields disagree with each other or with the formats they name.
    """
    data = bytes(data)
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if n < 0 or pos + n > len(data):
            raise ValueError("truncated quantized-tensor buffer")
        pos += n
        return data[pos - n : pos]

    def unpack(layout: str) -> tuple:
        return struct.unpack(layout, take(struct.calcsize(layout)))

    def text() -> str:
        return take(unpack("<B")[0]).decode("ascii")

    def fmt(name: str) -> FloatFormat:
        try:
            return get_format(name)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None

    if take(4) != _MAGIC:
        raise ValueError("not a serialized quantized tensor")
    ndim, block_size, has_g = unpack("<BHB")
    shape = unpack(f"<{ndim}q")
    g, rescale, beta = unpack("<ddd")
    elem_fmt, scale_fmt = fmt(text()), fmt(text())
    z_kind, scale_rounding, elem_rounding, zero_mode = text(), text(), text(), text()
    (n_scales,) = unpack("<q")
    scale_codes = np.frombuffer(take(2 * n_scales), dtype="<u2")
    (n_codes,) = unpack("<q")
    packed = np.frombuffer(take(-(-n_codes // 2)), dtype=np.uint8)
    if pos != len(data):
        raise ValueError("trailing bytes after quantized tensor")

    spec = BlockSpec(
        block_size=block_size, elem_format=elem_fmt, scale_format=scale_fmt,
        z=ZFunction(z_kind, None if math.isnan(beta) else beta),
        scale_rounding=scale_rounding, elem_rounding=elem_rounding,
        zero_mode=zero_mode,
    )
    if any(d < 0 for d in shape) or has_g > 1:
        raise ValueError("corrupt quantized-tensor header")
    if n_scales != _num_blocks(shape, block_size):
        raise ValueError(f"{n_scales} scales do not fit shape {shape}")
    if n_codes != n_scales * block_size or (n_codes % 2 and packed[-1] >> 4):
        raise ValueError(f"{n_codes} element codes do not fit {n_scales} blocks")
    if not 0 < rescale < math.inf or (has_g and not 0 < g < math.inf):
        raise ValueError("tensor factors must be positive and finite")
    scales = decode_array(scale_codes, scale_fmt)
    if not (scales > 0).all():
        raise ValueError("block scales must be positive")
    codes = np.empty(packed.size * 2, dtype=np.int64)
    codes[0::2] = packed & 0x0F
    codes[1::2] = packed >> 4
    # decode_array rejects codes outside the element format.
    elements = decode_array(codes[:n_codes], elem_fmt).reshape(-1, block_size)
    return QuantizedTensor(
        shape=tuple(shape),
        scales=scales,
        elements=elements,
        spec=spec,
        global_scale=g if has_g else None,
        rescale=rescale,
    )

