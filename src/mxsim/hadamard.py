"""Per-block random orthogonal transform that spreads outliers.

Each length-``l`` block is multiplied by ``H @ S`` where ``H`` is the
normalized Sylvester-Hadamard matrix and ``S`` a random sign diagonal.
A lone spike ``c * e_i`` becomes a flat vector with magnitude ``|c|/sqrt(l)``,
which block-scaled quantization represents far more accurately.  Because
the transform is orthogonal, applying it with the same signs to both
operands of a dot product leaves the product unchanged, so a matmul
quantized in the rotated basis needs no explicit inverse on its output.
Operand gradients do need it: under the ``all`` mode the forward pass
rotates both operands, so ``qlinear.backward`` un-rotates their gradients
with ``transform_along_axis(..., inverse=True)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

HADAMARD_NONE = "None"
HADAMARD_ALL = "all"
HADAMARD_BACKWARD = "backward"

HADAMARD_MODES = (HADAMARD_NONE, HADAMARD_ALL, HADAMARD_BACKWARD)


@dataclass(frozen=True)
class HadamardSpec:
    block_size: int = 32
    seed: int = 0
    mode: str = HADAMARD_NONE

    def __post_init__(self):
        if self.mode not in HADAMARD_MODES:
            raise ValueError(f"unknown transform mode {self.mode!r}")
        l = self.block_size
        if l <= 0 or (l & (l - 1)) != 0:
            raise ValueError("block_size must be a power of two")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@functools.lru_cache(maxsize=None)
def sylvester(l: int) -> np.ndarray:
    """Normalized l x l Sylvester-Hadamard matrix (symmetric, orthogonal)."""
    if l <= 0 or (l & (l - 1)) != 0:
        raise ValueError("size must be a power of two")
    h = np.array([[1.0]])
    while h.shape[0] < l:
        h = np.block([[h, h], [h, -h]])
    out = h / np.sqrt(l)
    out.setflags(write=False)
    return out


def block_signs(seed: int, num_blocks: int, l: int) -> np.ndarray:
    """Rademacher sign rows, one per block index.

    Block ``i`` always consumes draws ``[i*l, (i+1)*l)`` of the stream, so
    its signs depend only on ``(seed, i)``, not on how many blocks are
    requested.
    """
    rng = np.random.default_rng(np.uint64(seed))
    bits = rng.integers(0, 2, size=(num_blocks, l))
    return bits * 2.0 - 1.0


@functools.lru_cache(maxsize=16)
def _shared_signs(seed: int, num_blocks: int, l: int) -> np.ndarray:
    """Read-only :func:`block_signs`, drawn once per argument triple: one
    ``qlinear`` step under ``all`` transforms eight operands along three
    distinct lengths with the same seed.  The bound holds a few layer steps;
    a miss only draws the rows again."""
    signs = block_signs(seed, num_blocks, l)
    signs.setflags(write=False)
    return signs


def transform_along_axis(
    a: np.ndarray, axis: int, spec: HadamardSpec, inverse: bool = False
) -> np.ndarray:
    """Apply H @ S to consecutive length-l blocks along ``axis``, or with
    ``inverse`` its exact inverse S @ H (both factors are involutions).

    The axis length must be a multiple of the block size (callers zero-pad
    first).  Block ``i`` along the axis uses the sign row for index ``i``,
    so the two operands of a matmul transformed along their shared
    contraction axis see identical signs and the rotation cancels.
    """
    a = np.asarray(a, dtype=np.float64)
    l = spec.block_size
    n = a.shape[axis]
    if n % l:
        raise ValueError(f"axis length {n} not a multiple of block size {l}")
    moved = np.moveaxis(a, axis, -1)
    lead = moved.shape[:-1]
    blocks = moved.reshape(*lead, n // l, l)
    signs = _shared_signs(spec.seed, n // l, l)
    if inverse:
        out = (blocks @ sylvester(l)) * signs
    else:
        out = (blocks * signs) @ sylvester(l)
    return np.moveaxis(out.reshape(*lead, n), -1, axis)
