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
from dataclasses import dataclass, field

import numpy as np

from .formats import FloatFormat, grid, round_array
from .mx import BlockQuantResult, ZFunction, Z_ABSMAX, Z_LOGSUMEXP, z_values

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

# Gate threshold covering the first four positive values of the narrow
# scale format (4 * 2^-9): the multiplier range where rounding error is
# proportionally largest.
DEFAULT_GATE_THRESHOLD = 2.0**-7


@dataclass(frozen=True)
class QGradEstimator:
    """Surrogate derivative for a rounding step.

    ``w`` is the inverse-power exponent of the baseline estimator;
    ``clip_min`` floors the spline slope so gradients are never masked
    out entirely; ``clamp_max`` bounds the baseline's singular midpoint
    derivative; ``temperature`` controls the sigmoid sharpness.
    """

    kind: str = EST_STE
    w: int = 5
    clip_min: float = 0.05
    clamp_max: float = 1e3
    temperature: float = 1.0

    def __post_init__(self):
        if self.kind not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.kind!r}")
        if self.kind == EST_SIGMOID and self.temperature <= 0:
            raise ValueError("sigmoid estimator needs a positive temperature")


STE = QGradEstimator(EST_STE)


@dataclass(frozen=True)
class GradConfig:
    """Backward-pass configuration for one quantized tensor."""

    elem_estimator: QGradEstimator = STE
    scale_mode: str = SCALE_GRAD_STE
    scale_q_estimator: QGradEstimator = STE
    beta: float = 40.0
    gate_threshold: float | None = None  # None: q' applied everywhere
    tensor_mode: str = TENSOR_GRAD_IGNORE
    ste_second_term_one: bool = False

    def __post_init__(self):
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


def q_spline_grad(x: np.ndarray, fmt: FloatFormat, clip_min: float = 0.05) -> np.ndarray:
    """Spline slope, floored at ``clip_min`` (saturating regions report it too)."""
    _, _, slopes, i, inside = _spline_interval(np.asarray(x, dtype=np.float64), fmt)
    a = np.where(inside, slopes[i], 0.0)
    return np.maximum(a, clip_min)


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


def estimator_value(x: np.ndarray, fmt: FloatFormat, est: QGradEstimator) -> np.ndarray:
    """Relaxed quantizer value (pass-through for STE)."""
    if est.kind == EST_STE:
        return np.asarray(x, dtype=np.float64)
    if est.kind == EST_SPLINE:
        return q_spline(x, fmt)
    if est.kind == EST_BASELINE:
        return q_baseline(x, fmt, est.w)
    return q_sigmoid(x, fmt, est.temperature)


def estimator_grad(x: np.ndarray, fmt: FloatFormat, est: QGradEstimator) -> np.ndarray:
    """Relaxed quantizer derivative (ones for STE)."""
    if est.kind == EST_STE:
        return np.ones_like(np.asarray(x, dtype=np.float64))
    if est.kind == EST_SPLINE:
        return q_spline_grad(x, fmt, est.clip_min)
    if est.kind == EST_BASELINE:
        return q_baseline_grad(x, fmt, est.w, est.clamp_max)
    return q_sigmoid_grad(x, fmt, est.temperature)


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
    softmax weights of ``beta * |x|`` times element signs.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    a = np.abs(blocks)
    if mask is not None:
        a = np.where(mask, a, -np.inf)
    if mode == SCALE_GRAD_ABSMAX:
        out = np.zeros_like(blocks)
        idx = np.argmax(a, axis=-1)
        rows = np.arange(blocks.shape[0])
        out[rows, idx] = np.sign(blocks[rows, idx])
        # An all-zero block has statistic 0 with gradient 0.
        out[a[rows, idx] <= 0, :] = 0.0
        return out
    if mode in (SCALE_GRAD_SOFTMAX, SCALE_GRAD_HYBRID):
        m = a.max(axis=-1, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        e = np.exp(beta * (a - m))
        e = np.where(np.isfinite(a), e, 0.0)
        weights = e / e.sum(axis=-1, keepdims=True)
        return weights * np.sign(blocks)
    raise ValueError(f"no statistic derivative for mode {mode!r}")


def ds_dX(blocks: np.ndarray, z: np.ndarray, dz: np.ndarray, elem_max: float) -> np.ndarray:
    """Derivative of the ideal multiplier elem_max / Z, zero on dead blocks."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(z > 0, -elem_max / (z * z), 0.0)
    return coef[:, None] * dz


def selective_scale_gate(s: np.ndarray, threshold: float) -> np.ndarray:
    """True where the multiplier is small enough for the q' adjustment."""
    return np.asarray(s, dtype=np.float64) < threshold


# ---------------------------------------------------------------------------
# Gradient assembly
# ---------------------------------------------------------------------------


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
    scale gradient drops the correction entirely (or replaces it with +1
    when ``ste_second_term_one``).
    """
    spec, blocks, s_q = res.qt.spec, res.blocks, res.s_eff
    qg = estimator_grad(s_q[:, None] * blocks, spec.elem_format, cfg.elem_estimator)

    if cfg.scale_mode == SCALE_GRAD_STE:
        if cfg.ste_second_term_one:
            return qg + 1.0
        return qg

    dz = dZ(blocks, cfg.scale_mode, cfg.beta, res.mask)
    ds = ds_dX(blocks, res.z, dz, spec.elem_format.max_finite)

    s_pre = res.s_ideal / res.qt.rescale
    finite_pre = np.where(np.isfinite(s_pre), s_pre, spec.scale_format.max_finite)
    qprime = estimator_grad(finite_pre, spec.scale_format, cfg.scale_q_estimator)
    if cfg.gate_threshold is not None:
        qprime = np.where(
            selective_scale_gate(finite_pre, cfg.gate_threshold), qprime, 1.0
        )

    q_vals = res.values * s_q[:, None]
    bracket = (qprime / s_q)[:, None] * (blocks * qg - q_vals / s_q[:, None])
    return np.where(res.mask, qg + ds * bracket, 0.0)


def tensor_scale_grad(
    raw_blocks: np.ndarray,
    z_raw: np.ndarray,
    z_fn: ZFunction,
    mode: str,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Derivative of the global factor g = max over blocks of Z(X_p).

    Away from ties only the block with the largest statistic contributes;
    inside it the local statistic gradient applies (one-hot under the
    hard max, softmax weights under the smooth statistic).
    """
    raw_blocks = np.asarray(raw_blocks, dtype=np.float64)
    if mode == TENSOR_GRAD_IGNORE:
        return np.zeros_like(raw_blocks)
    if mode == TENSOR_GRAD_STE:
        return np.ones_like(raw_blocks)
    out = np.zeros_like(raw_blocks)
    p = int(np.argmax(z_raw))
    block = raw_blocks[p : p + 1]
    m = mask[p : p + 1] if mask is not None else None
    if z_fn.kind == Z_ABSMAX:
        out[p : p + 1] = dZ(block, SCALE_GRAD_ABSMAX, mask=m)
    else:
        out[p : p + 1] = dZ(block, SCALE_GRAD_SOFTMAX, z_fn.beta, mask=m)
    return out


def assemble_dh_dX(res: BlockQuantResult, cfg: GradConfig) -> np.ndarray:
    """Per-element derivative with the global tensor factor included.

    dh/dX = df/dU + dg/dX * (f(U) - U * df/dU), with the correction term
    zeroed when the global-factor gradient is ignored.  The raw blocks are
    ``res.blocks`` times the global factor.
    """
    df_dU = assemble_df_dX(res, cfg)
    if cfg.tensor_mode == TENSOR_GRAD_IGNORE:
        return df_dU
    z_fn = res.qt.spec.z
    raw_blocks = res.blocks * (res.qt.global_scale or 1.0)
    z_raw = z_values(raw_blocks, z_fn, res.mask)
    dg = tensor_scale_grad(raw_blocks, z_raw, z_fn, cfg.tensor_mode, res.mask)
    out = df_dU + dg * (res.values - res.blocks * df_dU)
    return np.where(res.mask, out, 0.0)
