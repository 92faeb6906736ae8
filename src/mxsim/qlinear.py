"""Linear layer computed through block-quantized operands.

Forward: Y = f(X) @ f(W).T where f quantizes each operand along the
contraction dimension.  Backward quantizes the incoming gradient twice
(once per backward matmul, blocked along each matmul's own contraction
dimension) and reuses the forward's quantized operands, for six
quantization events per step in total (four fresh, two reused); the
forward saves their records only if the backward reads the operand
derivative, else the matrices it multiplied.  The incoming-gradient and
activation quantizations can use stochastic rounding; weights are always
rounded to nearest.  An optional random sign-plus-Hadamard transform is
applied to both operands of a matmul along the contraction dimension,
where it cancels in exact arithmetic but spreads outliers before
quantization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .formats import STOCHASTIC, TIES_TO_EVEN
from .hadamard import (
    HADAMARD_ALL,
    HADAMARD_NONE,
    HadamardSpec,
    step_signs,
    transform_along_axis,
)
from .mx import BlockSpec, QuantizedTensor, quantize_blocks
from .qgrad import (EST_STE, SCALE_GRAD_STE, TENSOR_GRAD_IGNORE, GradConfig,
                    assemble_df_dX, assemble_dh_dX)

SR_NONE = "None"
SR_BACKWARD = "backward"
SR_ALL = "all"

SR_POLICIES = (SR_NONE, SR_BACKWARD, SR_ALL)


class NonFiniteGradientError(ValueError):
    """Incoming gradient contains NaN/inf; the loss scaler should react."""


@dataclass(frozen=True)
class QLinearConfig:
    spec: BlockSpec = field(default_factory=BlockSpec)
    grad: GradConfig = field(default_factory=GradConfig)
    hadamard: HadamardSpec = field(default_factory=HadamardSpec)
    tensor_scaling: bool = False
    sr_policy: str = SR_NONE
    quantize: bool = True  # False: exact dense layer (debug / oracle path)

    def __post_init__(self):
        if self.sr_policy not in SR_POLICIES:
            raise ValueError(f"unknown SR policy {self.sr_policy!r}")
        if self.spec.elem_rounding != TIES_TO_EVEN:
            raise ValueError(f"element rounding {self.spec.elem_rounding!r}: "
                             "sr_policy sets the element rounding")
        if self.grad.tensor_mode != TENSOR_GRAD_IGNORE and not self.tensor_scaling:
            raise ValueError(f"tensor gradient {self.grad.tensor_mode!r} needs "
                             "tensor_scaling")
        l = self.spec.block_size
        if self.hadamard.mode != HADAMARD_NONE and l & (l - 1):
            raise ValueError(f"block size {l}: the Hadamard transform needs a power of two")

    @cached_property
    def _rounding_specs(self) -> tuple[BlockSpec, BlockSpec]:
        """``spec`` rounding elements to nearest, and stochastically."""
        modes = (TIES_TO_EVEN, STOCHASTIC)
        return tuple(replace(self.spec, elem_rounding=m) for m in modes)

    @cached_property
    def _unit_operand_grad(self) -> bool:
        """Whether the derivative of the operands' quantization is all ones."""
        g = self.grad
        return (g.elem_estimator == EST_STE and g.scale_mode == SCALE_GRAD_STE
                and g.tensor_mode == TENSOR_GRAD_IGNORE)


@dataclass
class LayerContext:
    """Saved state sufficient to reproduce the backward pass bit-exactly.
    Each operand, padded along m, is saved once: its quantization record if
    backward reads the operand derivative, else the matrix forward multiplied."""

    x: np.ndarray | QuantizedTensor
    w: np.ndarray | QuantizedTensor
    m: int  # contraction length before padding
    seed: int
    step: int
    signs: np.ndarray | None  # the step's Hadamard sign rows, if any


def _pad_axis(a: np.ndarray, axis: int, multiple: int) -> np.ndarray:
    n = a.shape[axis]
    pad = (-n) % multiple
    if pad == 0:
        return a
    widths = [(0, 0)] * a.ndim
    widths[axis] = (0, pad)
    return np.pad(a, widths)


def _quantize(
    a: np.ndarray, cfg: QLinearConfig, stochastic: bool, seed: int, step: int,
    site: int,
) -> QuantizedTensor:
    """Quantize a matrix whose last axis is a multiple of the block size,
    rounding elements stochastically or to nearest; stochastic rounding
    draws from the stream of ``(seed, step, site)``."""
    spec = cfg._rounding_specs[stochastic]
    rng = None
    if STOCHASTIC in (spec.scale_rounding, spec.elem_rounding):
        rng = np.random.default_rng([seed, step, site])
    return quantize_blocks(a, spec, tensor_scaling=cfg.tensor_scaling, rng=rng)


def forward(
    X: np.ndarray, W: np.ndarray, cfg: QLinearConfig, seed: int = 0, step: int = 0
) -> tuple[np.ndarray, LayerContext]:
    """Y = f(X) @ f(W).T with X: [b, m], W: [n, m]."""
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if X.ndim != 2 or W.ndim != 2 or X.shape[1] != W.shape[1] or 0 in X.shape + W.shape:
        raise ValueError(f"X {X.shape}, W {W.shape}: need non-empty [b, m] and [n, m]")
    l = cfg.spec.block_size

    x_pad = _pad_axis(X, 1, l)
    w_pad = _pad_axis(W, 1, l)

    signs = None
    if cfg.hadamard.mode != HADAMARD_NONE:
        # One draw per step, for the longest of the padded b, n and m.
        longest = -(-max(*X.shape, W.shape[0]) // l) * l
        signs = step_signs(cfg.hadamard, step, longest // l, l)
    if cfg.hadamard.mode == HADAMARD_ALL:
        x_pad = transform_along_axis(x_pad, 1, signs)
        w_pad = transform_along_axis(w_pad, 1, signs)

    if cfg.quantize:
        res_x = _quantize(x_pad, cfg, cfg.sr_policy == SR_ALL, seed, step, 0)
        res_w = _quantize(w_pad, cfg, False, seed, step, 1)
        x_pad, w_pad = res_x.dequantize(), res_w.dequantize()

    Y = x_pad @ w_pad.T
    records = cfg.quantize and not cfg._unit_operand_grad  # backward reads them
    x, w = (res_x, res_w) if records else (x_pad, w_pad)
    return Y, LayerContext(x=x, w=w, m=X.shape[1], seed=seed, step=step, signs=signs)


def _operand_grad(res: QuantizedTensor, cfg: QLinearConfig) -> np.ndarray:
    """Per-element derivative of an operand's quantization, padded shape."""
    if cfg.grad.tensor_mode != TENSOR_GRAD_IGNORE:
        d = assemble_dh_dX(res, cfg.grad)
    else:
        d = assemble_df_dX(res, cfg.grad)
    return d.reshape(res.shape)


def backward(
    gY: np.ndarray, ctx: LayerContext, cfg: QLinearConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients w.r.t. X and W given the upstream gradient of Y."""
    gY = np.asarray(gY, dtype=np.float64)
    if not np.isfinite(gY).all():
        raise NonFiniteGradientError("incoming gradient is not finite")
    b, n = ctx.x.shape[0], ctx.w.shape[0]
    if gY.shape != (b, n):
        raise ValueError(f"gradient shape {gY.shape} != {(b, n)}")
    fx, fw = (a.dequantize() if isinstance(a, QuantizedTensor) else a
              for a in (ctx.x, ctx.w))
    l = cfg.spec.block_size
    signs = ctx.signs

    # Matmul 1 (input gradient): contract over n.
    g1 = _pad_axis(gY, 1, l)
    fw1 = _pad_axis(fw.T, 1, l).T  # pad n rows of fw
    if signs is not None:
        g1 = transform_along_axis(g1, 1, signs)
        fw1 = transform_along_axis(fw1, 0, signs)
    stochastic = cfg.sr_policy != SR_NONE
    if cfg.quantize:
        g1 = _quantize(g1, cfg, stochastic, ctx.seed, ctx.step, 2).dequantize()
    gx_pad = g1 @ fw1

    # Matmul 2 (weight gradient): contract over the batch b.
    g2 = _pad_axis(gY.T, 1, l)
    fx2 = _pad_axis(fx.T, 1, l).T  # pad batch rows of fx
    if signs is not None:
        g2 = transform_along_axis(g2, 1, signs)
        fx2 = transform_along_axis(fx2, 0, signs)
    if cfg.quantize:
        g2 = _quantize(g2, cfg, stochastic, ctx.seed, ctx.step, 3).dequantize()
    gw_pad = g2 @ fx2

    if isinstance(ctx.x, QuantizedTensor):  # else the derivative is all ones
        gx_pad = gx_pad * _operand_grad(ctx.x, cfg)
        gw_pad = gw_pad * _operand_grad(ctx.w, cfg)

    if cfg.hadamard.mode == HADAMARD_ALL:
        # Undo the forward rotation of the operands: X was transformed
        # before f, so the chain rule sends the gradient back through the
        # inverse (transpose) of the same orthogonal map.
        gx_pad = transform_along_axis(gx_pad, 1, signs, inverse=True)
        gw_pad = transform_along_axis(gw_pad, 1, signs, inverse=True)

    return gx_pad[:, : ctx.m], gw_pad[:, : ctx.m]
