"""End-to-end tests for the command-line interface."""

import csv
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mxsim import cli, trainer
from mxsim.cli import ConfigError, main, parse_config_file, sweep_config_from_dict
from mxsim.hadamard import HADAMARD_MODES
from mxsim.plots import scatter_plot
from mxsim.sweep import score
from mxsim.trainer import RunRecord, TaskSpec, TrainConfig

SWEEP_DEMO = Path(__file__).resolve().parent.parent / "examples" / "sweep_demo.cfg"


def _train_refuses(tmp_path, capsys, text):
    """The stderr of ``mxsim train`` on a config file of ``text``, which it
    refuses (exit 2) before writing anything."""
    path = tmp_path / "c.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


class TestConfigParsing:
    def test_key_value_lines_with_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nscale_format = E4M3\nepochs = 3  # inline\n\n")
        assert parse_config_file(str(path)) == {
            "scale_format": "E4M3",
            "epochs": "3",
        }

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("scale_format = E4M3\nbogus line\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2"):
            parse_config_file(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 1\nepochs = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(str(path))

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="scale_format"):
            sweep_config_from_dict({"scale_fmt": "E8M0"})

    def test_unknown_format_lists_valid_names(self, tmp_path, capsys):
        err = _train_refuses(tmp_path, capsys, "scale_format = E9M9\n")
        assert "unknown format 'E9M9'; valid names: E2M1, " in err and "E8M0" in err

    def test_non_bundled_optimiser_rejected(self, tmp_path, capsys):
        assert "only Adam ships" in _train_refuses(tmp_path, capsys,
                                                   "optimiser = StableSPAM\n")

    @pytest.mark.parametrize("tensor_grad", ["absmax", "STE"])
    def test_tensor_grad_needs_tensor_scaling(self, tmp_path, capsys, tensor_grad):
        # The layer has no tensor factor to differentiate, so the run would
        # be charged 3 complexity points for a gradient that never runs.
        err = _train_refuses(tmp_path, capsys,
                             f"tensor_scaling = false\ntensor_grad = {tensor_grad}\n")
        assert f"tensor_grad {tensor_grad!r} needs tensor_scaling" in err

    def test_tensor_scaling_needs_a_tensor_grad(self, tmp_path, capsys):
        # It used to train with tensor_grad "ignore" and write N/A beside True.
        with pytest.raises(ConfigError, match="tensor_scaling needs a tensor_grad"):
            sweep_config_from_dict({"tensor_scaling": "true"})
        err = _train_refuses(tmp_path, capsys, "tensor_scaling = true\nepochs = 1\n")
        assert "tensor_scaling needs a tensor_grad: ignore, absmax, STE" in err

    def test_unreadable_config_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config_file(str(tmp_path))  # a directory

    def test_empty_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 1\n= 5\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2: empty key"):
            parse_config_file(str(path))

    @pytest.mark.parametrize("text, value", [
        ("yes", True), ("TRUE", True), ("1", True), ("no", False), ("False", False),
        ("0", False),
    ])
    def test_boolean_spellings(self, text, value):
        assert sweep_config_from_dict({"loss_scaling": text}).loss_scaling is value

    def test_non_boolean_rejected(self):
        with pytest.raises(ConfigError, match="key 'loss_scaling': expected a boolean"):
            sweep_config_from_dict({"loss_scaling": "maybe"})

    def test_hadamard_block_size_must_be_a_power_of_two(self, tmp_path, capsys):
        assert "power of two" in _train_refuses(tmp_path, capsys,
                                                "block_size = 24\nhadamard = all\n")


class TestExitCodes:
    def test_unknown_format_exits_2(self, tmp_path, capsys):
        rc = main(["recon", "--format", "E9M9", "--out", str(tmp_path)])
        assert rc == 2
        assert "E8M0" in capsys.readouterr().err

    def test_empty_format_exits_2_writing_nothing(self, tmp_path, capsys):
        # An empty name is an unknown name, not an omitted --format.
        out = tmp_path / "out"
        assert main(["recon", "--format", "", "--out", str(out)]) == 2
        assert "unknown format ''; valid names: E2M1, " in capsys.readouterr().err
        assert not out.exists()

    def test_quantize_is_not_a_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["quantize", "t.csv", "--out", str(out)]) == 2
        assert "invalid choice: 'quantize'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("not a config\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_results_file_exits_2(self, tmp_path):
        rc = main(["pareto", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("argv, column", [
        (["pareto", "{}"], "Score"),
    ], ids=["pareto"])
    def test_non_numeric_cell_exits_2_writing_nothing(self, tmp_path, capsys, argv,
                                                     column):
        path = tmp_path / "bad.csv"
        path.write_text("Complexity points,Score\n1,0.5\n2,abc\n")
        out = tmp_path / "out"
        assert main([a.format(path) for a in argv] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err and repr(column) in err
        assert not out.exists()

    # DictReader keeps the cells past the header under the key None.
    LONG_ROW = "Complexity points,Score\n1,0.1\n2,0.3,extra\n"

    @pytest.mark.parametrize("argv, text, message", [
        (["pareto", ""], None, "results file not found"),
        (["pareto", "{}"], "Complexity points,Score\n", "is empty"),
        (["pareto", "{}"], "Complexity points\n1\n", "lacks column 'Score'"),
        (["pareto", "{}"], LONG_ROW, "in.csv:3: row has more cells than the header"),
    ], ids=["no-input", "header-only", "no-column", "long-row-pareto"])
    def test_unusable_csv_exits_2_writing_nothing(self, tmp_path, capsys, argv, text,
                                                  message):
        path = tmp_path / "in.csv"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        assert main([a.format(path) for a in argv] + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("Complexity points,Score\n1,0.5\n")
        taken = tmp_path / "out"
        taken.write_text("a file, not a directory\n")
        assert main(["pareto", str(results), "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestRecon:
    def test_recon_csv_columns(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["recon", "--format", "E8M0", "--block-size", "32", "--out", str(out)]
        )
        assert rc == 0
        with open(out / "recon.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) == {
            "format",
            "l",
            "scale",
            "beta",
            "mean_rel_err",
            "median_rel_err",
        }
        assert all(r["format"] == "E8M0" for r in rows)

    @pytest.mark.parametrize("block_size", [8, 64, 128])
    def test_every_grid_block_size_accepted(self, tmp_path, block_size):
        out = tmp_path / "out"
        assert main(["recon", "--format", "E8M0", "--block-size", str(block_size),
                     "--out", str(out)]) == 0
        sizes = [int(r["l"]) for r in _result_rows(out / "recon.csv")]
        # The block-size cells of both statistics; the others run at l=16.
        assert sizes.count(block_size) == 2 and set(sizes) == {block_size, 16}

    def test_full_grid(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["recon", "--out", str(out)]) == 0
        assert len(_result_rows(out / "recon.csv")) == 102
        assert capsys.readouterr().out.startswith("wrote 102 cells to ")
        assert sorted(path.name for path in out.iterdir()) == ["recon.csv"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    cfg = tmp / "c.cfg"
    cfg.write_text("scale_format = E8M0\nepochs = 2\nn_samples = 400\n")
    out = tmp / "out"
    rc = main(["train", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return out


class TestTrainAndPlots:
    def test_outputs_exist(self, trained):
        assert (trained / "losses.csv").exists()
        assert (trained / "results.csv").exists()

    def test_results_columns(self, trained):
        with open(trained / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["Scale"] == "E8M0"
        assert rows[0]["Complexity points"] == "0.000"

    def test_pareto_from_results(self, trained, tmp_path):
        out = tmp_path / "front"
        rc = main(["pareto", str(trained / "results.csv"), "--out", str(out)])
        assert rc == 0
        assert (out / "frontier.csv").exists()
        assert (out / "pareto.svg").read_text().startswith("<svg")

    def test_pareto_keeps_csv_scores(self, tmp_path):
        # The Score column is already complexity-penalized: the frontier
        # must compare it as is, not score it a second time.
        results = tmp_path / "results.csv"
        results.write_text("Complexity points,Score\n1,0.100\n3,0.250\n")
        out = tmp_path / "front"
        assert main(["pareto", str(results), "--out", str(out)]) == 0
        with open(out / "frontier.csv", newline="") as fh:
            front = [(r["Complexity points"], r["Score"]) for r in csv.DictReader(fh)]
        assert front == [("1", "0.100"), ("3", "0.250")]
        points = [(1.0, 0.1), (3.0, 0.25)]
        expected = scatter_plot(
            points, points, title="Efficiency frontier",
            xlabel="complexity points", ylabel="score",
        )
        assert (out / "pareto.svg").read_text() == expected

    def test_pareto_plot_draws_every_point(self, tmp_path):
        # The dominated run is drawn too; only the frontier is highlighted.
        results = tmp_path / "results.csv"
        results.write_text("Complexity points,Score\n1,0.100\n3,0.250\n2,-0.5\n")
        out = tmp_path / "plots"
        assert main(["pareto", str(results), "--out", str(out)]) == 0
        expected = scatter_plot([(1.0, 0.1), (3.0, 0.25), (2.0, -0.5)],
                                [(1.0, 0.1), (3.0, 0.25)], title="Efficiency frontier",
                                xlabel="complexity points", ylabel="score")
        assert (out / "pareto.svg").read_text() == expected

    def test_plot_determinism(self, tmp_path):
        results = tmp_path / "results.csv"
        results.write_text("Complexity points,Score\n1,0.100\n3,0.250\n2,-0.5\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["pareto", str(results), "--out", str(a)]) == 0
        assert main(["pareto", str(results), "--out", str(b)]) == 0
        for name in ("frontier.csv", "pareto.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSeedOverride:
    @pytest.mark.parametrize("command", ["train", "recon", "sweep"])
    @pytest.mark.parametrize("source", ["flag", "flag="])
    def test_negative_seed_exits_2_before_any_run(
        self, tmp_path, capsys, train_calls, command, source
    ):
        seed = ["--seed", "-1"] if source == "flag" else ["--seed=-3"]
        extra = ["--format", "E8M0"] if command == "recon" else []
        out = tmp_path / "out"
        assert main([command, *extra, *seed, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "non-negative" in captured.err and captured.out == ""
        assert train_calls == [] and not out.exists()

    def test_seed_past_64_bits_runs_stochastic_rounding_on_every_layer(self, tmp_path):
        # Layer 1 draws from seed + 7919, which does not fit 64 bits.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("hidden = 32,16\nsr = all\n" + SMALL_RUN)
        assert main(["train", "--config", str(cfg), "--seed", str(2**64 - 1),
                     "--out", str(tmp_path / "out")]) == 0


class TestSeedFlag:
    """Only the subcommands whose runs draw random numbers take --seed."""

    @pytest.mark.parametrize("argv, seeded", [
        (["recon"], True),
        (["train"], True),
        (["sweep"], True),
        (["pareto", "results.csv"], False),
    ], ids=["recon", "train", "sweep", "pareto"])
    def test_seed_only_where_a_run_reads_it(self, tmp_path, capsys, argv, seeded):
        out = tmp_path / "out"
        args = [*argv, "--seed", "5", "--out", str(out)]
        if seeded:
            assert cli.build_parser().parse_args(args).seed == 5
        else:
            assert main(args) == 2
            assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
            assert not out.exists()


class TestSweepCommand:
    def test_small_sweep_with_jobs(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "scale_formats = E8M0\nround_modes = TiesToEven\n"
            "epochs = 1\nn_samples = 200\n"
        )
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(cfg), "--jobs", "2",
                   "--limit", "3", "--out", str(out)])
        assert rc == 0
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3


# Published spellings of SR "backward", stochastic scale rounding and
# Hadamard "backward", as a train config and as a one-point sweep grid.
ALIAS_TRAIN = "sr = IntelFP4_exact\nround_mode = sr\nhadamard = BackwardOnly\n"
ALIAS_GRID = (
    "srs = IntelFP4_exact\nround_modes = sr\nhadamards = BackwardOnly\n"
    "scale_formats = E8M0\nmax_grads = STE\nquant_grads = STE\n"
    "scale_grads = STE\ntensor_scalings = False\nloss_scalings = False\n"
)
SMALL_RUN = "epochs = 1\nn_samples = 200\n"


def _result_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def train_calls(monkeypatch):
    calls = []
    real = cli.train

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "train", counting)
    return calls


class TestTasks:
    def test_classification_run(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("task = synthetic_classification\nn_classes = 3\ndim = 8\n"
                       "hidden = 8\nbatch_size = 32\n" + SMALL_RUN)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        (row,) = _result_rows(out / "results.csv")
        assert row["Dataset"] == "synthetic_classification"
        (losses,) = _result_rows(out / "losses.csv")
        assert all(np.isfinite(float(v)) for v in losses.values())

    def test_unknown_task_exits_2(self, tmp_path, capsys, train_calls):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("task = mnist\n" + SMALL_RUN)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert train_calls == [] and not out.exists()
        assert capsys.readouterr().err == (
            "config error: unknown task 'mnist'; "
            "valid: gaussian_regression, synthetic_classification\n"
        )


class TestHadamardSeed:
    @pytest.mark.parametrize("command, text", [
        ("train", "hadamard = all\n" + SMALL_RUN),
        ("sweep", ALIAS_GRID + SMALL_RUN),
    ], ids=["train", "sweep"])
    def test_signs_follow_the_run_seed(self, tmp_path, train_calls, command, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--seed", "3",
                     "--out", str(tmp_path / "out")]) == 0
        # The run and its dense reference.
        assert [tcfg.qcfg.hadamard.seed for _, tcfg in train_calls] == [3, 3]


class TestOptionSpellings:
    def test_train_and_sweep_write_result_table_spelling(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(ALIAS_TRAIN + SMALL_RUN)
        grid = tmp_path / "grid.cfg"
        grid.write_text(ALIAS_GRID + SMALL_RUN)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
        assert main(["sweep", "--config", str(grid), "--out", str(tmp_path / "s")]) == 0
        trained = _result_rows(tmp_path / "t" / "results.csv")
        swept = _result_rows(tmp_path / "s" / "results.csv")
        assert len(trained) == len(swept) == 1
        for row in trained + swept:
            assert (row["SR"], row["Round mode"], row["Hadamard"]) == (
                "backward", "Stochastic", "backward"
            )
        columns = ("SR", "Round mode", "Hadamard", "Complexity points")
        assert [trained[0][c] for c in columns] == [swept[0][c] for c in columns]

    def test_config_value_error_names_valid_spellings(self):
        with pytest.raises(ConfigError, match="valid: None, backward, all"):
            sweep_config_from_dict({"sr": "sometimes"})

    @pytest.mark.parametrize(
        "axis", ["srs = None,bogus", "scale_formats = E8M0,E9M9"]
    )
    def test_bad_axis_value_exits_2_before_training(
        self, tmp_path, capsys, train_calls, axis
    ):
        grid = tmp_path / "grid.cfg"
        body = ALIAS_GRID.replace("srs = IntelFP4_exact\n", "").replace(
            "scale_formats = E8M0\n", ""
        )
        grid.write_text(body + axis + "\n" + SMALL_RUN)
        rc = main(["sweep", "--config", str(grid), "--out", str(tmp_path / "s")])
        assert rc == 2
        assert train_calls == []
        assert "valid" in capsys.readouterr().err
        assert not (tmp_path / "s" / "results.csv").exists()

    def test_sweep_rejects_keys_it_would_ignore(self, tmp_path, train_calls):
        # A plain option key in a grid file is neither an axis nor a
        # training key; it must not be silently dropped.
        grid = tmp_path / "grid.cfg"
        grid.write_text(ALIAS_GRID + "sr = all\n" + SMALL_RUN)
        assert main(["sweep", "--config", str(grid), "--out", str(tmp_path)]) == 2
        assert train_calls == []


# Fields of TaskSpec and TrainConfig, and former fields now constants,
# that no config file sets.
UNSETTABLE = [("seed", "1"), ("noise_std", "0.5"), ("val_fraction", "0.2"),
              ("divergence_factor", "5"), ("qcfg", "none")]

RUN_KEYS = {"task", "n_samples", "dim", "n_classes", "hidden", "epochs",
            "batch_size", "lr"}
TRAIN_FILE_KEYS = RUN_KEYS | {
    "scale_format", "block_size", "max_grad", "quant_grad", "hadamard",
    "scale_grad", "sr", "optimiser", "loss_scaling", "round_mode",
    "tensor_scaling", "tensor_grad", "nan_mode",
}
SWEEP_FILE_KEYS = RUN_KEYS | {
    "scale_formats", "max_grads", "round_modes", "quant_grads", "scale_grads",
    "tensor_grads", "optimisers", "loss_scalings", "tensor_scalings", "srs",
    "hadamards",
}


class TestConfigKeys:
    """Config files set exactly these keys; defaults are the dataclasses'."""

    @pytest.mark.parametrize(
        "command, keys", [("train", TRAIN_FILE_KEYS), ("sweep", SWEEP_FILE_KEYS)]
    )
    def test_accepted_keys(self, tmp_path, capsys, command, keys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus = 1\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        listed = capsys.readouterr().err.strip().split("valid keys: ")[1]
        assert set(listed.split(", ")) == keys

    @pytest.mark.parametrize("seed", [0, 5])
    def test_run_settings_default_to_the_dataclasses(self, seed):
        expected = (TaskSpec(seed=seed), TrainConfig(seed=seed))
        assert cli._run_settings({}, seed) == expected


class TestDegenerateConfigs:
    """Settings that cannot train exit 2 before any training."""

    @pytest.mark.parametrize(
        "key, value",
        [("epochs", "0"), ("batch_size", "0"), ("hidden", ""), ("lr", "nan"),
         ("n_samples", "1"), ("dim", "0"), ("n_classes", "1"), ("hidden", "64,,32"),
         *UNSETTABLE, ("epochs", "abc")],
    )
    def test_train_exits_2(self, tmp_path, capsys, train_calls, key, value):
        values = {"epochs": "1", "n_samples": "200", key: value}
        cfg = tmp_path / "train.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert train_calls == []
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize(
        "line",
        ["srs = ,", "srs = None,", "loss_scalings = True,", "batch_size = 0",
         *(f"{key} = {value}" for key, value in UNSETTABLE)],
    )
    def test_sweep_exits_2(self, tmp_path, capsys, train_calls, line):
        grid = tmp_path / "grid.cfg"
        key = line.split(" = ")[0]
        body = "".join(
            f"{row}\n" for row in ALIAS_GRID.splitlines() if not row.startswith(key)
        )
        grid.write_text(body + line + "\n" + SMALL_RUN)
        assert main(["sweep", "--config", str(grid), "--out", str(tmp_path)]) == 2
        assert train_calls == []
        assert key in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()


class TestSweepLimits:
    """--limit 0 runs every configuration; a negative --limit or a --jobs
    below 1 is a usage error."""

    @pytest.mark.parametrize(
        "flag", [("--limit", "-1"), ("--jobs", "0"), ("--jobs", "-2")],
        ids=["limit-1", "jobs0", "jobs-2"],
    )
    def test_sweep_exits_2(self, tmp_path, capsys, train_calls, flag):
        grid = tmp_path / "grid.cfg"
        grid.write_text(ALIAS_GRID + SMALL_RUN)
        rc = main(["sweep", "--config", str(grid), *flag, "--out", str(tmp_path)])
        assert rc == 2
        assert train_calls == []
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_limit_0_runs_every_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "train", lambda task, tcfg: RunRecord(
            task.kind, [1.0], [1.0], False, [], 1))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(SWEEP_DEMO), "--limit", "0",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(
            "grid: 16 raw combinations, 16 valid, running 16\n")
        assert len(_result_rows(out / "results.csv")) == 16

    def test_every_config_checked_once_before_the_limit(self, tmp_path, monkeypatch):
        # Each of the 16 valid configurations gets its layer config built
        # once, the 2 that run included.
        from mxsim import sweep

        built = []

        def counting(cfg, *args, _fn=sweep.build_qlinear_config):
            built.append(cfg)
            return _fn(cfg, *args)

        monkeypatch.setattr(sweep, "build_qlinear_config", counting)
        monkeypatch.setattr(cli, "train", lambda task, tcfg: RunRecord(
            task.kind, [1.0], [1.0], False, [], 1))
        assert main(["sweep", "--config", str(SWEEP_DEMO), "--limit", "2",
                     "--out", str(tmp_path)]) == 0
        assert len(built) == len(set(built)) == 16


def _same_record(a, b):
    assert (a.dataset, a.steps, a.diverged) == (b.dataset, b.steps, b.diverged)
    assert np.array_equal(a.train_losses, b.train_losses)
    assert np.array_equal(a.val_losses, b.val_losses)
    assert len(a.final_params) == len(b.final_params)
    for p, q in zip(a.final_params, b.final_params):
        assert p.tobytes() == q.tobytes()


class TestDenseReference:
    """The sweep trains each distinct dense reference once, before the
    configurations, and a reference is the record each configuration's own
    dense run would give."""

    def test_each_reference_equals_a_fresh_run(self, tmp_path, monkeypatch):
        runs = []
        real = cli.train

        def recording(task, tcfg):
            runs.append((task, tcfg, real(task, tcfg)))
            return runs[-1][2]

        monkeypatch.setattr(cli, "train", recording)
        # dim 20 pads at both block sizes; the configs differ in more than
        # the block size and transform (max-grad, element SR, scale format).
        grid = tmp_path / "grid.cfg"
        grid.write_text(
            "scale_formats = E8M0,E4M3\nhadamards = None,all,backward\n"
            "max_grads = STE,absmax\nround_modes = TiesToEven\nquant_grads = STE\n"
            "scale_grads = STE\nsrs = None,all\ntensor_scalings = False\n"
            "loss_scalings = False\nn_samples = 120\ndim = 20\nhidden = 24,12\n"
            "epochs = 2\nbatch_size = 32\n"
        )
        assert main(["sweep", "--config", str(grid), "--seed", "3", "--jobs", "2",
                     "--out", str(tmp_path / "out")]) == 0
        quantized = [(task, t) for task, t, _ in runs if t.qcfg.quantize]
        references = {(t.qcfg.spec.block_size, t.qcfg.hadamard): record
                      for _, t, record in runs if not t.qcfg.quantize}
        assert len(quantized) == 24
        assert {t.qcfg.sr_policy for _, t in quantized} == {"None", "all"}
        assert len(references) == len(runs) - 24 == 2 * len(HADAMARD_MODES)
        for task, t in quantized:
            fresh = trainer.train(task, replace(
                t, qcfg=replace(t.qcfg, quantize=False), loss_scaling=False
            ))
            _same_record(references[t.qcfg.spec.block_size, t.qcfg.hadamard], fresh)

    def test_concurrent_runs_share_one_reference(self, tmp_path, monkeypatch):
        # Two configurations with one reference, run by two threads whose
        # training takes long enough to overlap.
        calls = []
        real = cli.train

        def slow_train(task, tcfg):
            calls.append(tcfg.qcfg.quantize)
            time.sleep(0.3)
            return real(task, tcfg)

        monkeypatch.setattr(cli, "train", slow_train)
        grid = tmp_path / "grid.cfg"
        grid.write_text(ALIAS_GRID.replace("max_grads = STE", "max_grads = STE,absmax")
                        + SMALL_RUN)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(grid), "--jobs", "2",
                     "--out", str(out)]) == 0
        assert len(_result_rows(out / "results.csv")) == 2
        assert calls == [False, True, True]

    def test_scores_against_the_best_matched_reference(self, tmp_path, monkeypatch):
        # Each configuration is scored against the best validation loss of
        # the dense run with its block size and Hadamard transform.
        dense_losses = {"None": [0.9, 0.5, 0.7], "all": [0.8, 0.4, 0.6]}
        trained = []

        def fake_train(task, tcfg):
            qcfg = tcfg.qcfg
            trained.append((qcfg.quantize, qcfg.spec.block_size, qcfg.hadamard))
            val = [1.5] if qcfg.quantize else dense_losses[qcfg.hadamard.mode]
            return RunRecord(task.kind, val, val, False, [], 1)

        monkeypatch.setattr(cli, "train", fake_train)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(SWEEP_DEMO), "--seed", "3",
                     "--limit", "4", "--out", str(out)]) == 0
        rows = _result_rows(out / "results.csv")
        assert sorted(row["Hadamard"] for row in rows) == ["None", "None", "all", "all"]
        for row in rows:
            m_ref = min(dense_losses[row["Hadamard"]])
            omega = float(row["Complexity points"])
            assert row["Score"] == f"{score(m_ref, 1.5, omega):.3f}"
        references = [t for t in trained if not t[0]]
        assert sorted(h.mode for _, _, h in references) == ["None", "all"]
        assert {(l, h.seed) for _, l, h in references} == {(32, 3)}

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("dense, m_ref", [
        ([np.nan, 0.5, 0.7], 0.5),
        ([np.nan, np.inf], np.nan),
    ], ids=["nan-first", "none-finite"])
    def test_reference_scores_by_its_least_finite_loss(self, tmp_path, monkeypatch,
                                                       command, dense, m_ref):
        # A NaN or inf validation loss is no reference; a reference with no
        # finite loss scores its configurations NaN, after every run.
        def fake_train(task, tcfg):
            val = [1.5] if tcfg.qcfg.quantize else dense
            return RunRecord(task.kind, val, val, False, [], 1)

        monkeypatch.setattr(cli, "train", fake_train)
        config = tmp_path / "run.cfg"
        config.write_text(ALIAS_TRAIN if command == "train" else ALIAS_GRID)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        (row,) = _result_rows(out / "results.csv")
        omega = float(row["Complexity points"])
        assert row["Score"] == (f"{score(m_ref, 1.5, omega):.3f}" if m_ref > 0 else "nan")
