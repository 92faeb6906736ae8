"""The example configs and the README's commands run through the CLI."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from mxsim import cli
from mxsim.cli import main, parse_config_file
from mxsim.sweep import SweepGrid, enumerate_configs
from mxsim.trainer import RunRecord

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def test_sweep_demo_enumerates_its_16_configs_in_order(tmp_path, monkeypatch):
    grid = SweepGrid(
        scale_formats=("E8M0",),
        max_grads=("STE",),
        round_modes=("TiesToEven", "Stochastic"),
        quant_grads=("STE", "spline"),
        scale_grads=("STE",),
        tensor_grads=("N/A",),
        optimisers=("Adam",),
        loss_scalings=(False,),
        tensor_scalings=(False,),
        srs=("None", "all"),
        hadamards=("None", "all"),
    )
    # The grid `mxsim sweep` builds from the file, taken at its enumeration.
    built = []

    def recording(g):
        built.append(g)
        return enumerate_configs(g)

    monkeypatch.setattr(cli, "enumerate_configs", recording)
    monkeypatch.setattr(cli, "train", lambda task, tcfg: RunRecord(
        task.kind, [1.0], [1.0], False, [], 1))
    assert main(["sweep", "--config", str(EXAMPLES / "sweep_demo.cfg"), "--limit", "1",
                 "--out", str(tmp_path)]) == 0
    assert built == [grid]
    configs = enumerate_configs(built[0])
    assert len(configs) == 16 and configs == enumerate_configs(grid)


@pytest.mark.parametrize("name, run, then, files", [
    ("train_demo.cfg", ["train", "--seed", "7"], None, ["losses.csv", "results.csv"]),
    ("sweep_demo.cfg", ["sweep", "--seed", "3", "--jobs", "2", "--limit", "2"],
     ["pareto", "results.csv"],
     ["frontier.csv", "pareto.svg", "results.csv"]),
], ids=["train", "sweep"])
def test_example_runs_at_a_tiny_size(tmp_path, name, run, then, files):
    values = {**parse_config_file(str(EXAMPLES / name)), "n_samples": "200",
              "epochs": "1"}
    config = tmp_path / name
    config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    out = tmp_path / "out"
    assert main([*run, "--config", str(config), "--out", str(out)]) == 0
    if then:
        then = [str(out / arg) if arg.endswith(".csv") else arg for arg in then]
        assert main([*then, "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == files


def _readme_commands() -> list[list[str]]:
    """The arguments of every ``mxsim`` line in the README's sh blocks and
    in the comments of the example configs."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    lines += [line.lstrip("#").strip() for path in sorted(EXAMPLES.glob("*.cfg"))
              for line in path.read_text().splitlines() if line.startswith("#")]
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("mxsim ")]


def test_readme_commands_parse_and_their_configs_pass_the_checks(tmp_path, monkeypatch):
    commands = _readme_commands()
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    # The README names every subcommand, and no other.
    assert {argv[0] for argv in commands} == set(sub.choices)
    parsed = [(argv, parser.parse_args(argv)) for argv in commands]
    configs = [(argv, args.config) for argv, args in parsed
               if getattr(args, "config", None)]
    assert {argv[0] for argv, _ in configs} == {"train", "sweep"}
    # Every check runs before the first training run, which a stub replaces.
    monkeypatch.setattr(cli, "train", lambda task, tcfg: RunRecord(
        task.kind, [1.0], [1.0], False, [], 1))
    for i, (argv, config) in enumerate(configs):
        assert config.startswith("examples/") and (ROOT / config).is_file()
        argv = [str(ROOT / arg) if arg == config else arg for arg in argv]
        assert main([*argv, "--out", str(tmp_path / str(i))]) == 0, argv
