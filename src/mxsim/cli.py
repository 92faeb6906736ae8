"""Command-line entry point.

Subcommands: ``recon`` (reconstruction-error grid), ``train`` (one
quantized training run), ``sweep`` (grid of training runs) and ``pareto``
(frontier extraction, with its scatter as SVG).  Every number is written as
CSV.  Every subcommand is deterministic given its inputs; ``recon``,
``train`` and ``sweep`` also read ``--seed``.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields
from pathlib import Path

from .mx import dequantize_tensor  # noqa: F401 - the benchmark's tracer patches this binding
from .plots import scatter_plot
from .sweep import (
    RECON_BLOCK_SIZES,
    RECON_FORMATS,
    SweepConfig,
    SweepGrid,
    best_val_loss,
    canonical_option,
    enumerate_configs,
    pareto_front,
    recon_error_experiment,
    result_row,
    run_configs,
    run_many,
    write_recon_csv,
    write_results_csv,
)
from .trainer import TaskSpec, TrainConfig, train


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
_GRID_KEYS = {f.name: f.name for f in fields(SweepGrid)}
_TASK_KEYS = {"task": "kind", **{k: k for k in ("n_samples", "dim", "n_classes")}}
_TRAIN_KEYS = {k: k for k in ("hidden", "epochs", "batch_size", "lr")}
_RUN_KEYS = _TASK_KEYS.keys() | _TRAIN_KEYS.keys()


def _convert(key: str, text: str, default) -> object:
    """``text`` read for ``key`` as a value of the type of ``default``.

    A tuple default makes ``text`` a comma-separated list, each item
    converted by the type of ``default[0]``; an empty item is an error.
    Strings take the option spellings of the SweepConfig field or grid
    axis ``key``.
    """
    if isinstance(default, tuple):
        items = [item.strip() for item in text.split(",")] if text else []
        if "" in items:
            raise ConfigError(f"key {key!r}: empty item in list {text!r}")
        return tuple(_convert(key, item, default[0]) for item in items)
    if isinstance(default, bool):
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {text!r}")
    if isinstance(default, str):
        return canonical_option(key, text)
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


def _check_keys(values: dict[str, str], keys: dict[str, str]) -> None:
    valid = sorted(keys.keys() | _RUN_KEYS)
    for key in values:
        if key not in valid:
            raise ConfigError(f"unknown key {key!r}; valid keys: {', '.join(valid)}")


def sweep_config_from_dict(values: dict[str, str]) -> SweepConfig:
    """The run a `train` config file describes; option aliases are
    translated to their result-table spelling here."""
    _check_keys(values, _SWEEP_KEYS)
    return _build(SweepConfig, values, _SWEEP_KEYS)


def _run_settings(values: dict[str, str], seed: int) -> tuple[TaskSpec, TrainConfig]:
    """The task and training settings of a config file; each run sets the
    quantization and loss scaling of its :class:`SweepConfig`."""
    return (_build(TaskSpec, values, _TASK_KEYS, seed=seed),
            _build(TrainConfig, values, _TRAIN_KEYS, seed=seed))


def _runs(tcfg: TrainConfig, configs) -> dict[SweepConfig, tuple[TrainConfig, TrainConfig]]:
    """``run_configs`` of each configuration; one it refuses is a ConfigError."""
    try:
        return {cfg: run_configs(tcfg, cfg) for cfg in configs}
    except (ValueError, KeyError) as exc:  # KeyError: get_format's unknown name
        raise ConfigError(exc.args[0]) from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_recon(args) -> int:
    formats = [args.format] if args.format is not None else RECON_FORMATS
    block_sizes = (args.block_size,) if args.block_size else RECON_BLOCK_SIZES
    try:  # the grid resolves every format name before its first draw
        rows = recon_error_experiment(
            formats=formats, block_sizes=block_sizes, seed=args.seed
        )
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    out = _out_dir(args)
    path = out / "recon.csv"
    write_recon_csv(str(path), rows)
    print(f"wrote {len(rows)} cells to {path}")
    return 0


def cmd_train(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    cfg = sweep_config_from_dict(values)
    task, tcfg = _run_settings(values, args.seed)
    run, reference = _runs(tcfg, [cfg])[cfg]
    record, dense = train(task, run), train(task, reference)
    out = _out_dir(args)
    with open(out / "losses.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "dense_val_loss"])
        for i, (tr, va, dv) in enumerate(
            zip(record.train_losses, record.val_losses, dense.val_losses), start=1
        ):
            writer.writerow([i, tr, va, dv])
    m_ref = best_val_loss(dense)
    write_results_csv(str(out / "results.csv"), [result_row(record, cfg, m_ref)])
    print(
        f"final train loss {record.train_losses[-1]:.6g}, "
        f"val loss {record.val_losses[-1]:.6g}, "
        f"dense reference {m_ref:.6g}, diverged={record.diverged}"
    )
    return 0


def cmd_sweep(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    _check_keys(values, _GRID_KEYS)
    # Only Adam ships with this package, so it is the default optimiser axis.
    grid = _build(SweepGrid, {"optimisers": "Adam", **values}, _GRID_KEYS)
    try:
        valid = enumerate_configs(grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    task, tcfg = _run_settings(values, args.seed)
    runs = _runs(tcfg, valid)
    configs = valid[: args.limit or None]
    print(
        f"grid: {grid.cardinality()} raw combinations, "
        f"{len(valid)} valid, running {len(configs)}"
    )

    # The distinct dense references train first, each kept as its best
    # validation loss only; then the configurations.
    references = {runs[cfg][1].qcfg: runs[cfg][1] for cfg in configs}
    losses = run_many(list(references.values()),
                      lambda ref: best_val_loss(train(task, ref)), jobs=args.jobs)
    m_refs = dict(zip(references, losses))

    def runner(cfg: SweepConfig) -> dict[str, object]:
        run, reference = runs[cfg]
        return result_row(train(task, run), cfg, m_refs[reference.qcfg])

    rows = run_many(configs, runner, jobs=args.jobs)
    out = _out_dir(args)
    write_results_csv(str(out / "results.csv"), rows)
    print(f"wrote {len(rows)} rows to {out / 'results.csv'}")
    return 0


def _read_csv(path: str, columns: tuple[str, ...]) -> list[dict]:
    """Rows of a results file that must exist, have rows and have
    ``columns``, and whose rows hold no more cells than its header."""
    if not Path(path).is_file():
        raise ConfigError(f"results file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for row in reader:
            if None in row:  # DictReader's key for the cells past the header
                raise ConfigError(f"{path}:{reader.line_num}: row has more cells "
                                  "than the header")
            rows.append(row)
    if not rows:
        raise ConfigError(f"results file {path} is empty")
    for col in columns:
        if col not in rows[0]:
            raise ConfigError(f"results file {path} lacks column {col!r}")
    return rows


def _numbers(rows: list[dict], column: str, path: str) -> list[float]:
    """The cells of ``column`` read as numbers."""
    try:
        return [float(r[column]) for r in rows]
    except (TypeError, ValueError) as exc:  # TypeError: a row short of cells
        raise ConfigError(f"{path}: column {column!r}: {exc}") from exc


def cmd_pareto(args) -> int:
    columns = ("Complexity points", "Score")
    rows = _read_csv(args.results, columns)
    points = list(zip(*(_numbers(rows, c, args.results) for c in columns)))
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


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            bound = "non-negative" if low == 0 else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mxsim",
        description="Bit-exact simulator for block-scaled 4-bit training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--out", default="out", help="output directory")
        if seeded:
            p.add_argument("--seed", type=int_at_least(0), default=0, help="random seed")

    p = sub.add_parser("recon", help="reconstruction-error grid")
    p.add_argument("--format", default=None, help="restrict to one scale format")
    p.add_argument("--block-size", type=int, default=None, choices=RECON_BLOCK_SIZES)
    common(p, seeded=True)

    p = sub.add_parser("train", help="one quantized training run")
    p.add_argument("--config", default=None, help="key = value config file")
    common(p, seeded=True)

    p = sub.add_parser("sweep", help="grid of training runs")
    p.add_argument("--config", default=None, help="key = value grid file")
    p.add_argument("--jobs", type=int_at_least(1), default=1, help="concurrent runs")
    p.add_argument("--limit", type=int_at_least(0), default=0,
                   help="run at most N configs (0: all)")
    common(p, seeded=True)

    p = sub.add_parser("pareto", help="extract the efficiency frontier")
    p.add_argument("results", help="results CSV")
    common(p)

    return parser


_COMMANDS = {
    "recon": cmd_recon,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "pareto": cmd_pareto,
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


if __name__ == "__main__":  # pragma: no cover - runs only as a script, not in a test
    sys.exit(main())
