"""Gradient pathways through the block quantizer.

The forward quantizer is a step function, so training needs surrogate
derivatives.  Four element-level relaxations are provided (pass-through,
inverse-power, linear spline, sigmoid), plus the derivative of the block
scale with respect to the elements (one-hot at the block absmax, or its
softmax smoothing), the relaxed derivative of the scale quantizer, and
the correction term that appears when a global tensor-level factor is in
use.  Everything composes into per-element multipliers applied to the
incoming gradient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .formats import FloatFormat, grid, round_array
from .mx import BlockQuantResult, Z_ABSMAX, z_values
from .mx import _block_major_abs, _exp_in_place, _pairwise_sum

# Element / scale quantizer gradient estimators.
EST_STE = "STE"
EST_BASELINE = "baseline"
EST_SPLINE = "spline"
EST_SIGMOID = "sigmoid"

ESTIMATORS = (EST_STE, EST_BASELINE, EST_SPLINE, EST_SIGMOID)

# Block-scale gradient variants ("max approximation" in sweep configs).
SCALE_GRAD_STE = "STE"
SCALE_GRAD_ABSMAX = "absmax"
SCALE_GRAD_SOFTMAX = "softsoftmax"  # softmax statistic forward and backward
SCALE_GRAD_HYBRID = "hardsoftmax"  # hard max forward, softmax derivative

SCALE_GRAD_MODES = (
    SCALE_GRAD_STE,
    SCALE_GRAD_SOFTMAX,
    SCALE_GRAD_HYBRID,
    SCALE_GRAD_ABSMAX,
)

# Gradient of the global tensor factor.
TENSOR_GRAD_IGNORE = "ignore"
TENSOR_GRAD_ABSMAX = "absmax"
TENSOR_GRAD_STE = "STE"

TENSOR_GRAD_MODES = (TENSOR_GRAD_IGNORE, TENSOR_GRAD_ABSMAX, TENSOR_GRAD_STE)


@dataclass(frozen=True)
class GradConfig:
    """Backward-pass configuration for one quantized tensor; each estimator
    is named by its kind, one of :data:`ESTIMATORS`."""

    elem_estimator: str = EST_STE
    scale_mode: str = SCALE_GRAD_STE
    scale_q_estimator: str = EST_STE
    beta: float = 40.0
    tensor_mode: str = TENSOR_GRAD_IGNORE

    def __post_init__(self):
        for kind in (self.elem_estimator, self.scale_q_estimator):
            if kind not in ESTIMATORS:
                raise ValueError(f"unknown estimator {kind!r}")
        if self.scale_mode not in SCALE_GRAD_MODES:
            raise ValueError(f"unknown scale gradient mode {self.scale_mode!r}")
        if self.tensor_mode not in TENSOR_GRAD_MODES:
            raise ValueError(f"unknown tensor gradient mode {self.tensor_mode!r}")


# ---------------------------------------------------------------------------
# Relaxed quantizers: value and derivative on a format grid
# ---------------------------------------------------------------------------


def _decision_knots(fmt: FloatFormat) -> tuple[np.ndarray, np.ndarray]:
    """Rounding decision boundaries of a grid and the values they round to."""
    g = grid(fmt)
    lo, hi = g[:-1], g[1:]
    if fmt.exponent_only:
        t = 2.0 * lo * hi / (lo + hi)
    else:
        t = 0.5 * (lo + hi)
    b = round_array(t, fmt)
    return t, b


@functools.cache
def _spline_data(fmt: FloatFormat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t, b = _decision_knots(fmt)
    return t, b, np.diff(b) / np.diff(t)


def _spline_interval(x: np.ndarray, fmt: FloatFormat):
    """Knot data of ``fmt``, the knot interval of each ``x`` and whether
    ``x`` lies inside the outermost knots."""
    t, b, slopes = _spline_data(fmt)
    i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
    inside = (x >= t[0]) & (x < t[-1])
    return t, b, slopes, i, inside


def q_spline(x: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """Continuous piecewise-linear interpolation through the rounding knots."""
    x = np.asarray(x, dtype=np.float64)
    t, b, slopes, i, inside = _spline_interval(x, fmt)
    return np.where(inside, slopes[i] * (x - t[i]) + b[i],
                    np.where(x < t[0], b[0], b[-1]))


def _spline_slope(x: np.ndarray, fmt: FloatFormat, clip_min: float) -> np.ndarray:
    """Spline slope floored at ``clip_min``, found by a search of the knots."""
    _, _, slopes, i, inside = _spline_interval(x, fmt)
    a = np.where(inside, slopes[i], 0.0)
    return np.maximum(a, clip_min)


# Cells of the largest slope table; of the FORMATS, only E2M1's knots fit.
_MAX_TABLE = 4096


@functools.cache
def _spline_slope_table(fmt: FloatFormat, clip_min: float):
    """:func:`_spline_slope` per cell ``[k, k + 1) / 2**s``, or None unless
    every knot is a multiple of ``2**-s`` for an ``s >= 0`` at which at
    most ``_MAX_TABLE`` cells span the knots.

    Returns ``(2**s, offset, table)``: ``x`` lies in cell
    ``floor(x * 2**s) + offset``, clipped to the table, whose two end cells
    stand for everything beyond the knots.  Each cell holds the search's
    slope at its left edge.  E2M1's knots are quarters in [-5, 5], so its
    table has 42 cells.
    """
    t = _spline_data(fmt)[0]
    for s in range(64):
        scale = 2.0**s
        lo, hi = t[0] * scale, t[-1] * scale
        if hi - lo + 2 > _MAX_TABLE:
            return None
        if np.array_equal(t * scale, np.floor(t * scale)):
            break
    table = _spline_slope(np.arange(lo - 1, hi + 1) / scale, fmt, clip_min)
    table.setflags(write=False)
    return scale, 1 - lo, table


def q_spline_grad(x: np.ndarray, fmt: FloatFormat, clip_min: float = 0.05) -> np.ndarray:
    """Spline slope, floored at ``clip_min`` (saturating regions report it too,
    and so do NaN inputs).

    Read from the format's slope table where it has one: ``x * 2**s`` is
    exact, ``fmax``/``fmin`` send NaN to the cell below the knots, and the
    cell numbers are cast to integers in their own buffer.
    """
    x = np.asarray(x, dtype=np.float64)
    lookup = _spline_slope_table(fmt, clip_min)
    if lookup is None:
        return _spline_slope(x, fmt, clip_min)
    scale, offset, table = lookup
    cell = np.multiply(x, scale, out=np.empty(x.shape))
    np.floor(cell, out=cell)
    cell += offset
    np.fmax(cell, 0.0, out=cell)
    index = cell.view(np.int64)
    np.fmin(cell, len(table) - 1, out=index, casting="unsafe")
    return table.take(index)


def _baseline_interval(x: np.ndarray, fmt: FloatFormat):
    g = grid(fmt)
    x = np.asarray(x, dtype=np.float64)
    i = np.clip(np.searchsorted(g, x, side="right") - 1, 0, len(g) - 2)
    base = g[i]
    delta = g[i + 1] - base
    u = np.clip(2.0 * (x - base) / delta - 1.0, -1.0, 1.0)
    return base, delta, u


def q_baseline(x: np.ndarray, fmt: FloatFormat, w: int = 5) -> np.ndarray:
    """Inverse-power smoothing of rounding inside each grid interval."""
    base, delta, u = _baseline_interval(x, fmt)
    return base + 0.5 * delta * (1.0 + np.sign(u) * np.abs(u) ** (1.0 / w))


def q_baseline_grad(
    x: np.ndarray, fmt: FloatFormat, w: int = 5, clamp_max: float = 1e3
) -> np.ndarray:
    """Derivative of :func:`q_baseline`; the interval midpoint is singular
    and is clamped to ``clamp_max``."""
    _, _, u = _baseline_interval(x, fmt)
    au = np.abs(u)
    with np.errstate(divide="ignore"):
        d = np.where(au > 0, (1.0 / w) * au ** (1.0 / w - 1.0), np.inf)
    return np.minimum(d, clamp_max)


def _sigmoid_interval(x: np.ndarray, fmt: FloatFormat, T: float):
    """Lower grid value, grid spacing and sigmoid weight of each ``x``."""
    g = grid(fmt)
    x = np.asarray(x, dtype=np.float64)
    i = np.clip(np.searchsorted(g, x, side="left") - 1, 0, len(g) - 2)
    v0, v1 = g[i], g[i + 1]
    delta = v1 - v0
    c = 0.5 * (v0 + v1)
    z = np.clip((x - c) * (12.0 / delta) / T, -700.0, 700.0)
    return v0, delta, 1.0 / (1.0 + np.exp(-z))


def q_sigmoid(x: np.ndarray, fmt: FloatFormat, T: float = 1.0) -> np.ndarray:
    """Sigmoid interpolation between adjacent grid values (step as T -> 0)."""
    v0, delta, sig = _sigmoid_interval(x, fmt, T)
    return v0 + sig * delta


def q_sigmoid_grad(x: np.ndarray, fmt: FloatFormat, T: float = 1.0) -> np.ndarray:
    _, _, sig = _sigmoid_interval(x, fmt, T)
    return (12.0 / T) * sig * (1.0 - sig)


def estimator_value(x: np.ndarray, fmt: FloatFormat, kind: str) -> np.ndarray:
    """Relaxed quantizer value of the estimator ``kind`` (pass-through for STE)."""
    if kind == EST_STE:
        return np.asarray(x, dtype=np.float64)
    if kind == EST_SPLINE:
        return q_spline(x, fmt)
    if kind == EST_BASELINE:
        return q_baseline(x, fmt)
    if kind == EST_SIGMOID:
        return q_sigmoid(x, fmt)
    raise ValueError(f"unknown estimator {kind!r}")


def estimator_grad(x: np.ndarray, fmt: FloatFormat, kind: str) -> np.ndarray:
    """Relaxed quantizer derivative of the estimator ``kind`` (ones for STE)."""
    if kind == EST_STE:
        return np.ones_like(np.asarray(x, dtype=np.float64))
    if kind == EST_SPLINE:
        return q_spline_grad(x, fmt)
    if kind == EST_BASELINE:
        return q_baseline_grad(x, fmt)
    if kind == EST_SIGMOID:
        return q_sigmoid_grad(x, fmt)
    raise ValueError(f"unknown estimator {kind!r}")


# ---------------------------------------------------------------------------
# Block-statistic and scale derivatives
# ---------------------------------------------------------------------------


def dZ(
    blocks: np.ndarray,
    mode: str,
    beta: float = 40.0,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Derivative of the block statistic with respect to each element.

    Hard mode: one-hot sign at the (first) absmax position.  Soft modes:
    softmax weights of ``beta * |x|`` times element signs, formed in place
    in the block-major buffer of ``z_values`` and transposed back once, by
    the product with the signs.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if mode == SCALE_GRAD_ABSMAX:
        a = np.abs(blocks)
        if mask is not None:
            a = np.where(mask, a, -np.inf)
        out = np.zeros_like(blocks)
        idx = np.argmax(a, axis=-1)
        rows = np.arange(blocks.shape[0])
        out[rows, idx] = np.sign(blocks[rows, idx])
        # An all-zero block has statistic 0 with gradient 0.
        out[a[rows, idx] <= 0, :] = 0.0
        return out
    if mode in (SCALE_GRAD_SOFTMAX, SCALE_GRAD_HYBRID):
        e = _block_major_abs(blocks, mask, -np.inf)
        m = e.max(axis=0)
        finite = np.isfinite(m)
        all_finite = finite.all()
        # A row with a finite maximum holds only finite |x| unless masked.
        bad = None if mask is None and all_finite else ~np.isfinite(e)
        e -= m if all_finite else np.where(finite, m, 0.0)
        e *= beta
        _exp_in_place(e)
        if bad is not None:
            e[bad] = 0.0
        e /= _pairwise_sum(e)
        out = np.sign(blocks)
        out *= e.T
        return out
    raise ValueError(f"no statistic derivative for mode {mode!r}")


def ds_dX(blocks: np.ndarray, z: np.ndarray, dz: np.ndarray, elem_max: float) -> np.ndarray:
    """Derivative of the ideal multiplier elem_max / Z, zero on dead blocks."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(z > 0, -elem_max / (z * z), 0.0)
    return coef[:, None] * dz


# ---------------------------------------------------------------------------
# Gradient assembly
# ---------------------------------------------------------------------------


def _padding_mask(res: BlockQuantResult) -> np.ndarray | None:
    """``res.mask``, or None when the record has no padding to mask (as
    every ``qlinear`` operand, padded to whole blocks before quantizing)."""
    return None if res.blocks.size == math.prod(res.qt.shape) else res.mask


def _unpad(d: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return d if mask is None else np.where(mask, d, 0.0)


def assemble_df_dX(res: BlockQuantResult, cfg: GradConfig) -> np.ndarray:
    """Per-element derivative of block quantization.

    ``res.blocks`` are the values fed to the quantizer (already divided by
    any global factor), ``s_q = res.s_eff`` the effective multipliers
    actually used, ``q_vals = res.values * s_q`` the rounded scaled
    elements Q(s_q * x) from the forward pass, and ``s_pre`` the value that
    was fed to the scale quantizer (``s_ideal`` over the fixed rescale
    constant).

    The result is Q'(s_q x) plus the scale-path correction
    ds/dX * (q'(s)/s_q) * (x Q'(s_q x) - Q(s_q x)/s_q); a pass-through
    scale gradient drops the correction entirely.  The correction is
    formed in place, operation for operation.
    """
    spec, blocks, s_q = res.qt.spec, res.blocks, res.s_eff
    qg = estimator_grad(s_q[:, None] * blocks, spec.elem_format, cfg.elem_estimator)

    if cfg.scale_mode == SCALE_GRAD_STE:
        return qg

    mask = _padding_mask(res)
    dz = dZ(blocks, cfg.scale_mode, cfg.beta, mask)
    ds = ds_dX(blocks, res.z, dz, spec.elem_format.max_finite)

    s_pre = res.s_ideal / res.qt.rescale
    finite_pre = np.where(np.isfinite(s_pre), s_pre, spec.scale_format.max_finite)
    qprime = estimator_grad(finite_pre, spec.scale_format, cfg.scale_q_estimator)

    q_over_s = res.values
    q_over_s *= s_q[:, None]  # q_vals
    q_over_s /= s_q[:, None]
    out = blocks * qg
    out -= q_over_s
    out *= (qprime / s_q)[:, None]  # the bracket
    out *= ds
    out += qg
    return _unpad(out, mask)


def tensor_scale_grad(res: BlockQuantResult) -> tuple[int, np.ndarray]:
    """Derivative of the global factor g = max over blocks of Z(X_p): the
    block p it is nonzero in, and its row there.

    Away from ties only the block with the largest statistic contributes;
    inside it the local statistic gradient applies (one-hot under the hard
    max, softmax weights under the smooth statistic).  The raw blocks are
    ``res.blocks`` times the global factor.  Under the hard max their
    statistic is ``res.z`` times it, because ``x -> fl(x * g)`` is monotone.
    """
    z_fn, g = res.qt.spec.z, res.qt.global_scale or 1.0
    mask = _padding_mask(res)
    if z_fn.kind == Z_ABSMAX:
        z_raw = res.z * g
    else:
        z_raw = z_values(res.blocks * g, z_fn, mask)
    p = int(np.argmax(z_raw))
    block = res.blocks[p : p + 1] * g
    m = None if mask is None else mask[p : p + 1]
    if z_fn.kind == Z_ABSMAX:
        return p, dZ(block, SCALE_GRAD_ABSMAX, mask=m)[0]
    return p, dZ(block, SCALE_GRAD_SOFTMAX, z_fn.beta, mask=m)[0]


def _correction_is_finite(res: BlockQuantResult, df_dU: np.ndarray) -> bool:
    """Whether every f(U) - U * df/dU is finite, bounded through the
    largest magnitude of each factor (rounding is monotone)."""
    q, u, d = (np.maximum(a.max(), -a.min()) for a in (res.qt.elements, res.blocks, df_dU))
    return bool(np.isfinite(q / res.s_eff.min() + u * d))  # NaN fails too


def assemble_dh_dX(res: BlockQuantResult, cfg: GradConfig) -> np.ndarray:
    """Per-element derivative with the global tensor factor included.

    dh/dX = df/dU + dg/dX * (f(U) - U * df/dU), with the correction term
    zeroed when the global-factor gradient is ignored.  Under the hard max
    over blocks, dg/dX vanishes off one block, which alone is corrected
    when the correction is finite everywhere: elsewhere it would add
    0 * (a finite value) to df/dU, which is never -0.0.
    """
    df_dU = assemble_df_dX(res, cfg)
    if cfg.tensor_mode == TENSOR_GRAD_IGNORE:
        return df_dU
    mask = _padding_mask(res)
    dg = 1.0  # TENSOR_GRAD_STE
    if cfg.tensor_mode == TENSOR_GRAD_ABSMAX:
        p, row = tensor_scale_grad(res)
        if _correction_is_finite(res, df_dU):
            values_p = res.qt.elements[p] / res.s_eff[p]
            df_dU[p] += row * (values_p - res.blocks[p] * df_dU[p])
            return _unpad(df_dU, mask)
        dg = np.zeros_like(df_dU)
        dg[p] = row
    out = df_dU + dg * (res.values - res.blocks * df_dU)
    return _unpad(out, mask)
