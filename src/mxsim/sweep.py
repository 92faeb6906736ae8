"""Configuration sweeps: grid enumeration, complexity points, efficiency
scores, Pareto frontiers, and reconstruction-error experiments.

A sweep configuration is a flat record of technique choices (scale format,
rounding modes, gradient estimators, stochastic-rounding policy, ...).  Each
non-default technique carries a fixed complexity weight; the sum of active
weights is the configuration's complexity ``omega``.  The efficiency score
combines the relative validation-loss gain over a dense baseline with that
complexity.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
from dataclasses import dataclass, field, fields, replace
from itertools import groupby, product
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .formats import ROUNDING_MODES, STOCHASTIC, get_format
from .hadamard import HADAMARD_MODES, HADAMARD_NONE, HadamardSpec
from .mx import BlockSpec, ZERO_MODES, dequantize_tensor, quantize_tensor
from .qgrad import (
    GradConfig,
    SCALE_GRAD_MODES,
    SMOOTH_MAX_BETA,
    TENSOR_GRAD_IGNORE,
    TENSOR_GRAD_MODES,
)
from .qlinear import QLinearConfig, SR_NONE, SR_POLICIES
from .trainer import RunRecord, TrainConfig

__all__ = [
    "COMPLEXITY_WEIGHTS",
    "SweepConfig",
    "canonical_option",
    "complexity_points",
    "score",
    "enumerate_configs",
    "pareto_front",
    "recon_error_cell",
    "recon_error_experiment",
    "write_recon_csv",
    "RESULT_COLUMNS",
    "write_results_csv",
    "run_many",
]


# ---------------------------------------------------------------------------
# Configuration record
# ---------------------------------------------------------------------------

NOT_APPLICABLE = "N/A"

# The value sets only sweeps name; the others are the layers' own tuples.
ESTIMATOR_OPTIONS = ("STE", "baseline", "spline")
OPTIMISER_OPTIONS = ("Adam", "StableSPAM")

#: Other spellings of option values that config files and published tables
#: use, lower-cased, per configuration field.  Only their parsers read it,
#: through :func:`canonical_option`.
OPTION_ALIASES: dict[str, dict[str, str]] = {
    "sr": {
        "none_exact": "None",
        "n/a": "None",
        "backward act.": "backward",
        "backwardactivations": "backward",
        "intelfp4": "backward",
        "intelfp4_exact": "backward",
        "all act.": "all",
        "allactivations": "all",
        "all_activation": "all",
        "all_activation_exact": "all",
    },
    "hadamard": {
        "none_exact": "None",
        "n/a": "None",
        "all_exact": "all",
        "backward_exact": "backward",
        "backwardonly": "backward",
    },
    "round_mode": {"sr": "Stochastic"},
}


def _option(default: str, valid: Sequence[str]):
    """A configuration field that only takes one of the ``valid`` values."""
    return field(default=default, metadata={"valid": tuple(valid)})


@dataclass(frozen=True)
class SweepConfig:
    """One point of the hyperparameter grid, in result-table vocabulary.

    ``max_grad`` is the backward treatment of the block-maximum statistic,
    ``quant_grad`` the element quantizer's gradient estimator, ``scale_grad``
    the scale quantizer's gradient estimator, and ``tensor_grad`` the
    treatment of the global tensor scale (``N/A`` or ``ignore`` when tensor
    scaling is off).  Construction rejects any other spelling of an option,
    and a tensor-scale gradient without tensor scaling.  The
    scale format is left to the runner, so that published rows naming
    formats this package lacks still get their complexity.
    """

    scale_format: str = "E8M0"
    block_size: int = 32
    max_grad: str = _option("STE", SCALE_GRAD_MODES)
    quant_grad: str = _option("STE", ESTIMATOR_OPTIONS)
    hadamard: str = _option("None", HADAMARD_MODES)
    scale_grad: str = _option("STE", ESTIMATOR_OPTIONS)
    sr: str = _option("None", SR_POLICIES)
    optimiser: str = _option("Adam", OPTIMISER_OPTIONS)
    loss_scaling: bool = False
    round_mode: str = _option("TiesToEven", ROUNDING_MODES)
    tensor_scaling: bool = False
    tensor_grad: str = _option(NOT_APPLICABLE, TENSOR_GRAD_MODES + (NOT_APPLICABLE,))
    nan_mode: str = _option("nearest_subnormal", ZERO_MODES)

    def __post_init__(self):
        for name, valid in _VALID_OPTIONS.items():
            value = getattr(self, name)
            if value not in valid:
                raise ValueError(
                    f"unknown {name} {value!r}; valid: {', '.join(valid)}"
                )
        if not self.tensor_scaling and self.tensor_grad in ("absmax", "STE"):
            raise ValueError(f"tensor_grad {self.tensor_grad!r} needs tensor_scaling")


#: The values each checked SweepConfig field accepts.
_VALID_OPTIONS = {f.name: f.metadata["valid"] for f in fields(SweepConfig) if f.metadata}


def canonical_option(key: str, text: str) -> str:
    """Result-table spelling of the value ``text`` read for field ``key``,
    or for the :class:`SweepGrid` axis ``key`` of a field.

    A valid value or an alias, in any letter case, becomes that value;
    other text is returned unchanged, for :class:`SweepConfig` to reject.
    """
    key = _AXIS_FIELDS.get(key, key)
    spellings = {v.lower(): v for v in _VALID_OPTIONS.get(key, ())}
    spellings.update(OPTION_ALIASES.get(key, {}))
    return spellings.get(text.lower(), text)


# ---------------------------------------------------------------------------
# Complexity points
# ---------------------------------------------------------------------------

#: Weight of each non-baseline technique.  A configuration's complexity is
#: the sum over the techniques it activates.
COMPLEXITY_WEIGHTS: dict[str, float] = {
    "non_ste_max_grad": 3.0,  # smoothed block-maximum backward
    "tensor_scale_grad": 3.0,  # gradient estimate for the global scale
    "non_ste_quant_grad": 2.0,  # smoothed element-quantizer backward
    "hadamard": 1.0,
    "non_ste_scale_grad": 1.5,  # smoothed scale-quantizer backward
    "stochastic_rounding": 0.5,
    "tensor_scaling": 0.5,
    "loss_scaling": 0.5,
    "spam_optimizer": 0.5,
    "stochastic_scale_rounding": 0.25,
}


def active_techniques(cfg: SweepConfig) -> list[str]:
    """Names of the weighted techniques a configuration activates."""
    active = []
    if cfg.max_grad != "STE":
        active.append("non_ste_max_grad")
    if cfg.tensor_grad in ("absmax", "STE"):
        active.append("tensor_scale_grad")
    if cfg.quant_grad != "STE":
        active.append("non_ste_quant_grad")
    if cfg.hadamard != HADAMARD_NONE:
        active.append("hadamard")
    if cfg.scale_grad != "STE":
        active.append("non_ste_scale_grad")
    if cfg.sr != SR_NONE:
        active.append("stochastic_rounding")
    if cfg.tensor_scaling:
        active.append("tensor_scaling")
    if cfg.loss_scaling:
        active.append("loss_scaling")
    if "SPAM" in cfg.optimiser:
        active.append("spam_optimizer")
    if cfg.round_mode == STOCHASTIC:
        active.append("stochastic_scale_rounding")
    return active


def complexity_points(cfg: SweepConfig) -> float:
    """Total complexity of a configuration (sum of active weights)."""
    return sum(COMPLEXITY_WEIGHTS[t] for t in active_techniques(cfg))


# ---------------------------------------------------------------------------
# Efficiency score
# ---------------------------------------------------------------------------


def score(m_ref: float, m_c: float, omega: float) -> float:
    """Efficiency score of a run with validation loss ``m_c``.

    ``m_ref`` is the best baseline validation loss for the same dataset and
    ``omega`` the run's complexity.  The relative gain ``(m_ref - m_c) /
    m_ref`` is divided by ``max(1, omega)`` when positive and multiplied by
    it when negative, so extra complexity always moves the score toward
    zero-or-worse.
    """
    if not m_ref > 0:
        raise ValueError(f"reference loss must be positive, got {m_ref}")
    gain = (m_ref - m_c) / m_ref
    penalty = max(1.0, omega)
    return gain / penalty if gain >= 0 else gain * penalty


# ---------------------------------------------------------------------------
# Grid enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    """Axis value lists for the full hyperparameter sweep.

    Each axis is named after the :class:`SweepConfig` field it sets plus
    ``s``; the declaration order is the enumeration order, outermost first.
    """

    scale_formats: Sequence[str] = ("E8M0", "E4M3")
    max_grads: Sequence[str] = SCALE_GRAD_MODES
    round_modes: Sequence[str] = ROUNDING_MODES
    quant_grads: Sequence[str] = ESTIMATOR_OPTIONS
    scale_grads: Sequence[str] = ESTIMATOR_OPTIONS
    tensor_grads: Sequence[str] = TENSOR_GRAD_MODES
    optimisers: Sequence[str] = OPTIMISER_OPTIONS
    loss_scalings: Sequence[bool] = (True, False)
    tensor_scalings: Sequence[bool] = (True, False)
    srs: Sequence[str] = SR_POLICIES
    hadamards: Sequence[str] = HADAMARD_MODES

    def __post_init__(self):
        for f in fields(self):
            if not len(getattr(self, f.name)):
                raise ValueError(f"sweep axis {f.name!r} has no values")

    def axes(self) -> list[Sequence]:
        """Axis value lists in declaration order."""
        return [getattr(self, f.name) for f in fields(self)]

    def cardinality(self) -> int:
        """Raw Cartesian-product size before constraint pruning."""
        return math.prod(len(axis) for axis in self.axes())


#: The SweepConfig field each grid axis sets, by axis name in axis order.
_AXIS_FIELDS = {f.name: f.name[:-1] for f in fields(SweepGrid)}


def _valid(cfg: SweepConfig) -> bool:
    # With tensor scaling on, the tensor-scale gradient needs a real option.
    return not (cfg.tensor_scaling and cfg.tensor_grad == NOT_APPLICABLE)


def enumerate_configs(grid: SweepGrid | None = None) -> tuple[SweepConfig, ...]:
    """Expand a grid into its distinct valid configurations, in order.

    The block size follows the scale format (16 for E4M3, else 32), and the
    tensor-scale gradient axis collapses to ``N/A`` whenever tensor scaling
    is disabled.  Raises ``ValueError`` for an axis value that
    :class:`SweepConfig` rejects.
    """
    grid = grid or SweepGrid()
    # Collapsing tensor_grad to N/A repeats configurations; each distinct
    # one is built and checked once, in first-seen order (None: invalid).
    seen: dict[tuple, SweepConfig | None] = {}
    for values in product(*grid.axes()):
        kw = dict(zip(_AXIS_FIELDS.values(), values))
        if kw["scale_format"] == "E4M3":
            kw["block_size"] = 16
        if not kw["tensor_scaling"]:
            kw["tensor_grad"] = NOT_APPLICABLE
        key = tuple(kw.values())
        if key not in seen:
            cfg = SweepConfig(**kw)
            seen[key] = cfg if _valid(cfg) else None
    return tuple(cfg for cfg in seen.values() if cfg is not None)


# ---------------------------------------------------------------------------
# Pareto frontier
# ---------------------------------------------------------------------------


def pareto_front(points: Sequence[tuple[float, float]]) -> list[int]:
    """Indices, in input order, of the ``(omega, score)`` points not
    dominated in (lower complexity, higher score).

    A point is dominated when another has complexity <= and score >= with
    at least one strict inequality, so exact duplicates are all kept and a
    point with a NaN coordinate neither dominates nor is dominated.  One
    sort by complexity and a scan keep it O(n log n).
    """
    if not points:
        raise ValueError("points must be non-empty")
    front, comparable = [], []
    for i, (omega, s) in enumerate(points):
        (front if math.isnan(omega) or math.isnan(s) else comparable).append(i)
    best = None  # highest score at a strictly lower complexity
    comparable.sort(key=lambda i: points[i][0])
    for _, group in groupby(comparable, key=lambda i: points[i][0]):
        group = list(group)
        top = max(points[i][1] for i in group)
        if best is None or top > best:
            front += [i for i in group if points[i][1] == top]
            best = top
    return sorted(front)


# ---------------------------------------------------------------------------
# Reconstruction-error experiments
# ---------------------------------------------------------------------------


#: The grid's scale formats, block sizes, tensor scales and LogSumExp betas.
RECON_FORMATS = ("E8M0", "E4M3", "UE5M3")
RECON_BLOCK_SIZES = (8, 16, 32, 64, 128)
RECON_TENSOR_SCALES = tuple(10.0**e for e in range(-4, 32, 4))
RECON_BETAS = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)


def _median_in_place(a: np.ndarray) -> float:
    """``np.median`` of a non-empty array without NaN, bit for bit.

    Partitions ``a`` in place at the one index ``n // 2``; ``np.median``
    asks for two or three indices on an even length, which NumPy serves
    by a much slower path.  Below a partition point every element is no
    larger, so ``a[:k].max()`` is the other middle value.
    """
    k = a.size // 2
    a.partition(k)
    if a.size % 2:
        return float(a[k])
    return float((a[:k].max() + a[k]) / 2.0)


def recon_error_cell(
    x: np.ndarray,
    scale_format: str,
    block_size: int,
    beta: float | None,
    work: np.ndarray | None = None,
) -> tuple[float, float]:
    """Mean and median relative error of round-tripping the 1-D float64
    tensor ``x`` through block quantization with the statistic of ``beta``
    (see :class:`~mxsim.mx.BlockSpec`).

    Elements equal to 0 have no relative error and are left out; a
    ``ValueError`` is raised when no element is left, an empty ``x`` too.
    ``work`` is an optional float64 ``(2, x.size)`` block with contiguous
    rows that takes the error statistics; another shape is a ``ValueError``.
    """
    if work is None:
        work = np.empty((2, x.size))
    elif work.shape != (2, x.size):
        raise ValueError(f"work must have shape (2, {x.size}), got {work.shape}")
    err, mag = work
    spec = BlockSpec(block_size=block_size, scale_format=get_format(scale_format),
                     beta=beta)
    # |x| first: it pulls a draw made on another core into this one's cache.
    np.abs(x, out=mag)
    deq = dequantize_tensor(quantize_tensor(x, spec))
    np.subtract(x, deq, out=err)
    np.abs(err, out=err)
    if not mag.all():
        nonzero = mag != 0
        err, mag = err[nonzero], mag[nonzero]
    if not mag.size:
        raise ValueError(f"none of the {x.size} elements of x is nonzero")
    err /= mag
    # The mean first: the median reorders err.
    return float(err.mean()), _median_in_place(err)


def _draw(x: np.ndarray, rng: np.random.Generator, tensor_scale: float) -> None:
    rng.standard_normal(out=x)
    x *= tensor_scale


def recon_error_experiment(
    formats: Sequence[str] = RECON_FORMATS,
    block_sizes: Sequence[int] = RECON_BLOCK_SIZES,
    seed: int = 0,
    n_elements: int = 1 << 16,
) -> list[dict[str, object]]:
    """Relative-error grid for both maximum statistics.

    Emits one row per cell with columns ``format, l, scale, beta,
    mean_rel_err, median_rel_err``.  Covers: exact-max error vs block size,
    exact-max error vs tensor scale (l=16), smooth-max error vs block size
    and vs tensor scale at the default inverse temperature 40, and
    smooth-max sensitivity to the inverse temperature.

    Every cell's format, block size and beta are checked before the first
    draw.  A worker thread draws each cell, in grid order, into row 0 of one
    of two work blocks while the calling thread scores the cell before in
    the other, with that block's other two rows as its scratch; the rows
    are those of a serial run.
    """
    if n_elements < 1:
        raise ValueError(f"n_elements must be at least 1, got {n_elements}")
    cells: list[tuple[str, int, float, float | None]] = []
    for fmt in formats:
        # Exact max vs block size, unit scale.
        cells += [(fmt, l, 1.0, None) for l in block_sizes]
        # Exact max vs tensor scale at l=16.
        cells += [(fmt, 16, scale, None) for scale in RECON_TENSOR_SCALES]
        # Smooth max vs block size at the default inverse temperature.
        cells += [(fmt, l, 1.0, 40.0) for l in block_sizes]
        # Smooth max vs tensor scale at l=16.
        cells += [(fmt, 16, scale, 40.0) for scale in RECON_TENSOR_SCALES]
        # Smooth-max sensitivity to the inverse temperature.
        cells += [(fmt, 16, 1.0, beta) for beta in RECON_BETAS]
    for fmt, l, _, beta in cells:
        BlockSpec(block_size=l, scale_format=get_format(fmt), beta=beta)
    rng = np.random.default_rng(seed)
    rows: list[dict[str, object]] = []
    # Two work blocks for the whole grid (per-cell blocks made glibc trim and
    # re-fault its heap top): rows 0 and 3 hold alternate cells' draws.
    block = np.empty((4, n_elements))
    works = (block[:3], block[:0:-1])
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        drawn = pool.submit(_draw, works[0][0], rng, cells[0][2]) if cells else None
        for k, (fmt, l, scale, beta) in enumerate(cells):
            drawn.result()
            if k + 1 < len(cells):  # into cell k - 1's finished block
                drawn = pool.submit(_draw, works[(k + 1) % 2][0], rng,
                                    cells[k + 1][2])
            work = works[k % 2]
            mean, median = recon_error_cell(work[0], fmt, l, beta, work[1:])
            rows.append(dict(format=fmt, l=l, scale=scale,
                             beta="" if beta is None else beta,
                             mean_rel_err=mean, median_rel_err=median))
    return rows


def write_recon_csv(path: str, rows: Iterable[dict[str, object]]) -> None:
    fieldnames = ["format", "l", "scale", "beta", "mean_rel_err", "median_rel_err"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Result persistence
# ---------------------------------------------------------------------------

#: Result-table columns in order, each with the SweepConfig field or run
#: quantity its cells show.
_RESULT_FIELDS = {
    "Dataset": "dataset",
    "Val loss": "val_loss",
    "Train loss": "train_loss",
    "Scale": "scale_format",
    "Block size": "block_size",
    "Max grad.": "max_grad",
    "Quant. grad": "quant_grad",
    "Hadamard": "hadamard",
    "Scale grad": "scale_grad",
    "SR": "sr",
    "Optimiser": "optimiser",
    "Loss scaling": "loss_scaling",
    "Round mode": "round_mode",
    "Tensor scaling": "tensor_scaling",
    "Tensor grad": "tensor_grad",
    "Complexity points": "omega",
    "Score": "score",
    "NaN mode": "nan_mode",
}
RESULT_COLUMNS = list(_RESULT_FIELDS)


def best_val_loss(record: RunRecord) -> float:
    """The least finite validation loss of a dense reference run, the
    ``m_ref`` its configurations are scored against; NaN if it has none."""
    return min((v for v in record.val_losses if math.isfinite(v)), default=math.nan)


def result_row(record: RunRecord, cfg: SweepConfig, m_ref: float) -> dict[str, object]:
    """The result-table row of ``cfg``'s run, scored by its final losses
    against ``m_ref``; the score is NaN when ``m_ref`` is not positive."""
    omega = complexity_points(cfg)
    val_loss = record.val_losses[-1]
    s = score(m_ref, val_loss, omega) if m_ref > 0 else math.nan
    values = dict(vars(cfg), dataset=record.dataset, val_loss=val_loss,
                  train_loss=record.train_losses[-1], omega=f"{omega:.3f}",
                  score=f"{s:.3f}")
    return {column: values[name] for column, name in _RESULT_FIELDS.items()}


def write_results_csv(path: str, rows: Iterable[dict[str, object]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def build_qlinear_config(cfg: SweepConfig, seed: int = 0) -> QLinearConfig:
    """Translate a sweep record into an executable layer configuration whose
    Hadamard signs follow the run ``seed``."""
    spec = BlockSpec(
        block_size=cfg.block_size,
        scale_format=get_format(cfg.scale_format),
        beta=SMOOTH_MAX_BETA if cfg.max_grad == "softsoftmax" else None,
        scale_rounding=cfg.round_mode,
        zero_mode=cfg.nan_mode,
    )
    tensor_mode = (
        cfg.tensor_grad if cfg.tensor_grad != NOT_APPLICABLE else TENSOR_GRAD_IGNORE
    )
    grad = GradConfig(
        elem_estimator=cfg.quant_grad,
        scale_mode=cfg.max_grad,
        scale_q_estimator=cfg.scale_grad,
        tensor_mode=tensor_mode,
    )
    return QLinearConfig(
        spec=spec,
        grad=grad,
        hadamard=HadamardSpec(mode=cfg.hadamard, seed=seed),
        tensor_scaling=cfg.tensor_scaling,
        sr_policy=cfg.sr,
    )


def run_configs(tcfg: TrainConfig, cfg: SweepConfig) -> tuple[TrainConfig, TrainConfig]:
    """The training settings of ``cfg``'s run and of its dense reference,
    the same training with quantization disabled.  A dense layer reads only
    the block size (its padding) and the Hadamard transform, so configurations
    equal in those share one reference, whose best validation loss scores them.

    This is the one check that ``cfg`` can run: an optimiser other than Adam
    is a ``ValueError``, and so is a setting the layer rejects; an unknown
    scale format is ``get_format``'s ``KeyError``."""
    if cfg.optimiser != "Adam":
        raise ValueError(f"optimiser {cfg.optimiser!r} is not bundled; only Adam ships "
                         "with this package (plug third-party optimisers in "
                         "programmatically)")
    qcfg = build_qlinear_config(cfg, tcfg.seed)
    dense = QLinearConfig(spec=BlockSpec(block_size=cfg.block_size),
                          hadamard=qcfg.hadamard, quantize=False)
    return (replace(tcfg, qcfg=qcfg, loss_scaling=cfg.loss_scaling),
            replace(tcfg, qcfg=dense, loss_scaling=False))


T = TypeVar("T")
R = TypeVar("R")


def run_many(configs: Sequence[T], runner: Callable[[T], R], jobs: int = 1) -> list[R]:
    """Execute ``runner`` over configurations, up to ``jobs`` at a time.

    Results are collected in configuration order regardless of completion
    order; appends are serialized by the collecting thread.
    """
    if jobs <= 1:
        return [runner(c) for c in configs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(runner, configs))
