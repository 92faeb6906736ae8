"""Command-line entry point.

Subcommands: ``quantize`` (round-trip a tensor file), ``recon``
(reconstruction-error grid), ``train`` (one quantized training run),
``sweep`` (grid of training runs), ``pareto`` (frontier extraction), and
``plot`` (SVG rendering of result CSVs).  Every subcommand is deterministic
given its configuration and seed; the ``MXSIM_SEED`` environment variable
overrides ``--seed``.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import struct
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .formats import FORMATS, get_format
from .hadamard import HadamardSpec
from .mx import (
    BlockSpec,
    dequantize_tensor,
    quantize_tensor,
    to_bytes,
)
from .plots import (
    line_plot,
    quantizer_curve_plot,
    scale_deviation_plot,
    scatter_plot,
)
from .qlinear import QLinearConfig
from .sweep import (
    SweepConfig,
    SweepGrid,
    build_qlinear_config,
    canonical_option,
    enumerate_configs,
    pareto_front,
    recon_error_experiment,
    result_row,
    run_many,
    write_recon_csv,
    write_results_csv,
)
from .trainer import (
    TASK_CLASSIFICATION,
    TASK_GAUSSIAN,
    RunRecord,
    TaskSpec,
    TrainConfig,
    train,
)


class ConfigError(Exception):
    """Invalid configuration input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Config files: plain `key = value` lines with # comments.
# ---------------------------------------------------------------------------


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip().strip("\"'")
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


# The fields a config file may set, each under its file key.
_SWEEP_KEYS = {f.name: f.name for f in fields(SweepConfig)}
_GRID_KEYS = {f.name for f in fields(SweepGrid)}
_TASK_KEYS = {"task": "kind", **{k: k for k in ("n_samples", "dim", "n_classes")}}
_TRAIN_KEYS = {k: k for k in ("hidden", "epochs", "batch_size", "lr")}
_RUN_KEYS = _TASK_KEYS.keys() | _TRAIN_KEYS.keys()


def _convert(key: str, text: str, default, field: str | None = None) -> object:
    """``text`` read for ``key`` as a value of the type of ``default``.

    A tuple default makes ``text`` a comma-separated list, each item
    converted by the type of ``default[0]``; an empty item is an error.
    Strings take the option spellings of the SweepConfig ``field``
    (default: ``key``).
    """
    if isinstance(default, tuple):
        items = [item.strip() for item in text.split(",")] if text else []
        if "" in items:
            raise ConfigError(f"key {key!r}: empty item in list {text!r}")
        return tuple(_convert(key, item, default[0], field) for item in items)
    if isinstance(default, bool):
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {text!r}")
    if isinstance(default, str):
        return canonical_option(field or key, text)
    try:
        return type(default)(text)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


def _build(cls, values: dict[str, str], keys: dict[str, str], **fixed):
    """A ``cls`` from ``fixed`` and the ``values`` present for ``keys`` (file
    key: field name), each converted by the field's default; a value the
    constructor rejects is a ConfigError."""
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {field: _convert(key, values[key], defaults[field])
              for key, field in keys.items() if key in values}
    try:
        return cls(**kwargs, **fixed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_keys(values: dict[str, str], known) -> None:
    valid = sorted(known | _RUN_KEYS)
    for key in values:
        if key not in valid:
            raise ConfigError(f"unknown key {key!r}; valid keys: {', '.join(valid)}")


def sweep_config_from_dict(values: dict[str, str]) -> SweepConfig:
    """The run a `train` config file describes; option aliases are
    translated to their result-table spelling here."""
    _check_keys(values, _SWEEP_KEYS.keys())
    cfg = _build(SweepConfig, values, _SWEEP_KEYS)
    _validate_sweep_config(cfg)
    return cfg


def _check_format(name: str) -> str:
    if name not in FORMATS:
        raise ConfigError(
            f"unknown scale format {name!r}; valid names: {', '.join(sorted(FORMATS))}"
        )
    return name


def _validate_sweep_config(cfg: SweepConfig) -> None:
    """Reject what SweepConfig accepts but this package cannot run."""
    _check_format(cfg.scale_format)
    if cfg.optimiser != "Adam":
        raise ConfigError(
            f"optimiser {cfg.optimiser!r} is not bundled; only Adam ships with "
            "this package (plug third-party optimisers in programmatically)"
        )
    try:
        build_qlinear_config(cfg)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def _run_settings(values: dict[str, str], seed: int) -> tuple[TaskSpec, TrainConfig]:
    """The task and training settings of a config file; each run sets the
    quantization and loss scaling of its :class:`SweepConfig`."""
    task = _build(TaskSpec, values, _TASK_KEYS, seed=seed)
    if task.kind not in (TASK_GAUSSIAN, TASK_CLASSIFICATION):
        raise ConfigError(
            f"unknown task {task.kind!r}; valid: {TASK_GAUSSIAN}, {TASK_CLASSIFICATION}"
        )
    return task, _build(TrainConfig, values, _TRAIN_KEYS, seed=seed)


# ---------------------------------------------------------------------------
# Tensor file IO for `quantize`
# ---------------------------------------------------------------------------


def read_tensor_file(path: str) -> np.ndarray:
    """Load a tensor from CSV or a little-endian f32 binary with dims header.

    The binary layout is ``uint32 ndim``, ``ndim * uint32`` dims, then the
    row-major f32 payload, all little-endian.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"tensor file not found: {path}")
    if p.suffix.lower() == ".csv":
        try:
            return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"cannot parse CSV tensor {path}: {exc}") from exc
    raw = p.read_bytes()
    if len(raw) < 4:
        raise ConfigError(f"binary tensor {path} is truncated")
    (ndim,) = struct.unpack_from("<I", raw, 0)
    header = 4 + 4 * ndim
    if ndim == 0 or ndim > 8 or len(raw) < header:
        raise ConfigError(f"binary tensor {path} has an invalid dims header")
    dims = struct.unpack_from(f"<{ndim}I", raw, 4)
    count = int(np.prod(dims))
    if len(raw) != header + 4 * count:
        raise ConfigError(
            f"binary tensor {path}: payload size does not match dims {dims}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=header).astype(np.float64)
    return data.reshape(dims)


def write_tensor_file(path: str, x: np.ndarray) -> None:
    dims = x.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(np.ascontiguousarray(x, dtype="<f4").tobytes())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_seed(args) -> int:
    env = os.environ.get("MXSIM_SEED")
    try:
        seed = args.seed if env is None else int(env)
    except ValueError as exc:
        raise ConfigError(f"MXSIM_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def cmd_quantize(args) -> int:
    fmt = get_format(_check_format(args.format))
    x = read_tensor_file(args.input)
    if x.size == 0:
        raise ConfigError(f"tensor file {args.input} has no elements")
    spec = BlockSpec(block_size=args.block_size, scale_format=fmt)
    qt = quantize_tensor(x, spec)
    deq = dequantize_tensor(qt)
    out = _out_dir(args)
    (out / "quantized.mxq").write_bytes(to_bytes(qt))
    np.savetxt(out / "dequantized.csv", deq.reshape(-1, x.shape[-1]), delimiter=",")
    err = np.abs(x - deq)
    summary = (
        f"elements: {x.size}\n"
        f"max_abs_error: {err.max():.9g}\n"
        f"mean_abs_error: {err.mean():.9g}\n"
    )
    (out / "summary.txt").write_text(summary)
    print(summary, end="")
    return 0


def cmd_recon(args) -> int:
    formats = [args.format] if args.format else ["E8M0", "E4M3", "UE5M3"]
    for name in formats:
        _check_format(name)
    block_sizes = (args.block_size,) if args.block_size else (8, 16, 32, 64, 128)
    rows = recon_error_experiment(
        formats=formats, block_sizes=block_sizes, seed=_resolve_seed(args)
    )
    out = _out_dir(args)
    path = out / "recon.csv"
    write_recon_csv(str(path), rows)
    print(f"wrote {len(rows)} cells to {path}")
    return 0


def _dense_reference(task: TaskSpec, tcfg: TrainConfig):
    """The reference run of a layer configuration: the same training with
    quantization disabled, memoized for one task and training settings.

    A dense layer reads only the block size (its padding) and the Hadamard
    transform, so those are the key.  ``functools.cache`` keeps its table
    consistent across threads: two threads may train one key at once, but
    each stores a whole record.
    """

    @functools.cache
    def run(block_size: int, hadamard: HadamardSpec) -> RunRecord:
        spec = BlockSpec(block_size=block_size)
        qcfg = QLinearConfig(spec=spec, hadamard=hadamard, quantize=False)
        return train(task, replace(tcfg, qcfg=qcfg, loss_scaling=False))

    return lambda qcfg: run(qcfg.spec.block_size, qcfg.hadamard)


def _run_training(task: TaskSpec, tcfg: TrainConfig, cfg: SweepConfig, dense_run):
    tcfg = replace(tcfg, qcfg=build_qlinear_config(cfg), loss_scaling=cfg.loss_scaling)
    return train(task, tcfg), dense_run(tcfg.qcfg)


def cmd_train(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    cfg = sweep_config_from_dict(values)
    task, tcfg = _run_settings(values, _resolve_seed(args))
    record, dense = _run_training(task, tcfg, cfg, _dense_reference(task, tcfg))
    out = _out_dir(args)
    with open(out / "losses.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "dense_val_loss"])
        for i, (tr, va, dv) in enumerate(
            zip(record.train_losses, record.val_losses, dense.val_losses), start=1
        ):
            writer.writerow([i, tr, va, dv])
    m_ref = min(dense.val_losses)
    row = result_row(
        record.dataset,
        cfg,
        val_loss=record.val_losses[-1],
        train_loss=record.train_losses[-1],
        m_ref=m_ref,
    )
    write_results_csv(str(out / "results.csv"), [row])
    print(
        f"final train loss {record.train_losses[-1]:.6g}, "
        f"val loss {record.val_losses[-1]:.6g}, "
        f"dense reference {m_ref:.6g}, diverged={record.diverged}"
    )
    return 0


def _grid_from_dict(values: dict[str, str]) -> SweepGrid:
    """The grid a `sweep` config file describes: each key present replaces
    that axis with its comma-separated values, aliases translated.  Only
    Adam ships with this package, so it is the default optimiser axis."""
    axes = {
        f.name: _convert(f.name, values[f.name], f.default, f.name[:-1])
        for f in fields(SweepGrid)
        if f.name in values
    }
    return SweepGrid(**{"optimisers": ("Adam",), **axes})


def cmd_sweep(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    _check_keys(values, _GRID_KEYS)
    try:
        grid = _grid_from_dict(values)
        valid = enumerate_configs(grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for cfg in valid:
        _validate_sweep_config(cfg)
    task, tcfg = _run_settings(values, _resolve_seed(args))
    configs = valid[: args.limit or None]
    print(
        f"grid: {grid.cardinality()} raw combinations, "
        f"{len(valid)} valid, running {len(configs)}"
    )

    dense_run = _dense_reference(task, tcfg)

    def runner(cfg: SweepConfig) -> dict[str, object]:
        record, dense = _run_training(task, tcfg, cfg, dense_run)
        return result_row(
            record.dataset,
            cfg,
            val_loss=record.val_losses[-1],
            train_loss=record.train_losses[-1],
            m_ref=min(dense.val_losses),
        )

    rows = run_many(configs, runner, jobs=args.jobs)
    out = _out_dir(args)
    write_results_csv(str(out / "results.csv"), rows)
    print(f"wrote {len(rows)} rows to {out / 'results.csv'}")
    return 0


def _read_csv(path: str | None, columns: tuple[str, ...], what: str) -> list[dict]:
    """Rows of a CSV file that must exist, have rows and have ``columns``."""
    if not path:
        raise ConfigError(f"this command needs a {what} (--input)")
    if not Path(path).exists():
        raise ConfigError(f"{what} not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"{what} {path} is empty")
    for col in columns:
        if col not in rows[0]:
            raise ConfigError(f"{what} {path} lacks column {col!r}")
    return rows


_RESULT_SCORE_COLUMNS = ("Complexity points", "Score")


def cmd_pareto(args) -> int:
    rows = _read_csv(args.results, _RESULT_SCORE_COLUMNS, "results file")
    points = [(float(r["Complexity points"]), float(r["Score"])) for r in rows]
    front = pareto_front(points)
    out = _out_dir(args)
    with open(out / "frontier.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows[i] for i in front)
    highlight = [points[i] for i in front]
    svg = scatter_plot(
        points,
        highlight,
        title="Efficiency frontier",
        xlabel="complexity points",
        ylabel="score",
    )
    (out / "pareto.svg").write_text(svg)
    print(f"frontier: {len(front)} of {len(rows)} runs")
    return 0


def cmd_plot(args) -> int:
    out = _out_dir(args)
    kind = args.kind
    if kind == "quantizer":
        svg = quantizer_curve_plot(args.estimator)
    elif kind == "scale-deviation":
        svg = scale_deviation_plot(_check_format(args.format or "E8M0"))
    elif kind == "loss":
        rows = _read_csv(args.input, ("epoch",), "loss-curve CSV")
        epochs = [float(r["epoch"]) for r in rows]
        series = {
            col: (epochs, [float(r[col]) for r in rows])
            for col in rows[0]
            if col != "epoch"
        }
        svg = line_plot(series, title="Training curves", xlabel="epoch", ylabel="loss")
    elif kind == "recon":
        rows = _read_csv(
            args.input, ("format", "l", "scale", "beta", "mean_rel_err"),
            "reconstruction-error CSV",
        )
        series: dict[str, tuple[list[float], list[float]]] = {}
        for r in rows:
            if r["beta"] or float(r["scale"]) != 1.0:
                continue
            xs, ys = series.setdefault(r["format"], ([], []))
            xs.append(float(r["l"]))
            ys.append(float(r["mean_rel_err"]))
        svg = line_plot(
            series,
            title="Reconstruction error vs block size",
            xlabel="block size",
            ylabel="mean relative error",
            log_y=True,
        )
    elif kind == "pareto":
        rows = _read_csv(args.input, _RESULT_SCORE_COLUMNS, "results file")
        points = [
            (float(r["Complexity points"]), float(r["Score"])) for r in rows
        ]
        svg = scatter_plot(
            points, title="Score vs complexity", xlabel="complexity points",
            ylabel="score",
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown plot kind {kind!r}")
    path = out / f"{kind}.svg"
    path.write_text(svg)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mxsim",
        description="Bit-exact simulator for block-scaled 4-bit training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="random seed")

    p = sub.add_parser("quantize", help="round-trip a tensor file")
    p.add_argument("input", help="tensor file (.csv or binary with dims header)")
    p.add_argument("--format", default="E8M0", help="scale format name")
    p.add_argument("--block-size", type=int, default=32, choices=(16, 32))
    common(p)

    p = sub.add_parser("recon", help="reconstruction-error grid")
    p.add_argument("--format", default=None, help="restrict to one scale format")
    p.add_argument("--block-size", type=int, default=None, choices=(16, 32))
    common(p)

    p = sub.add_parser("train", help="one quantized training run")
    p.add_argument("--config", default=None, help="key = value config file")
    common(p)

    p = sub.add_parser("sweep", help="grid of training runs")
    p.add_argument("--config", default=None, help="key = value grid file")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="concurrent runs")
    p.add_argument("--limit", type=_int_at_least(0), default=0,
                   help="run at most N configs (0: all)")
    common(p)

    p = sub.add_parser("pareto", help="extract the efficiency frontier")
    p.add_argument("results", help="results CSV")
    common(p)

    p = sub.add_parser("plot", help="render an SVG from result CSVs")
    p.add_argument(
        "--kind",
        required=True,
        choices=("loss", "pareto", "recon", "quantizer", "scale-deviation"),
    )
    p.add_argument("--input", default=None, help="input CSV where applicable")
    p.add_argument("--format", default=None, help="scale format for curves")
    p.add_argument(
        "--estimator", default="sigmoid", help="surrogate kind for quantizer plots"
    )
    common(p)

    return parser


_COMMANDS = {
    "quantize": cmd_quantize,
    "recon": cmd_recon,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "pareto": cmd_pareto,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches our contract.
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
