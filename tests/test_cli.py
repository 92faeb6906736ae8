"""End-to-end tests for the command-line interface."""

import concurrent.futures
import csv
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from mxsim import cli, trainer
from mxsim.cli import (
    ConfigError,
    main,
    parse_config_file,
    read_tensor_file,
    sweep_config_from_dict,
    write_tensor_file,
)
from mxsim.hadamard import HADAMARD_MODES
from mxsim.mx import from_bytes
from mxsim.plots import scatter_plot
from mxsim.sweep import SweepConfig, build_qlinear_config
from mxsim.trainer import TaskSpec, TrainConfig


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

    def test_unknown_format_lists_valid_names(self):
        with pytest.raises(ConfigError, match="E8M0"):
            sweep_config_from_dict({"scale_format": "E9M9"})

    def test_non_bundled_optimiser_rejected(self):
        with pytest.raises(ConfigError, match="Adam"):
            sweep_config_from_dict({"optimiser": "StableSPAM"})


class TestTensorFiles:
    def test_binary_round_trip(self, tmp_path):
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        path = tmp_path / "t.bin"
        write_tensor_file(str(path), x)
        back = read_tensor_file(str(path))
        assert back.shape == x.shape
        np.testing.assert_array_equal(back, x)

    def test_csv_load(self, tmp_path):
        path = tmp_path / "t.csv"
        np.savetxt(path, np.ones((3, 5)), delimiter=",")
        assert read_tensor_file(str(path)).shape == (3, 5)

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"\x02\x00\x00\x00\x03\x00\x00\x00")
        with pytest.raises(ConfigError):
            read_tensor_file(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            read_tensor_file("/nonexistent/tensor.bin")


class TestExitCodes:
    def test_unknown_format_exits_2(self, tmp_path, capsys):
        t = tmp_path / "t.csv"
        np.savetxt(t, np.ones((2, 32)), delimiter=",")
        rc = main(["quantize", str(t), "--format", "E9M9", "--out", str(tmp_path)])
        assert rc == 2
        assert "E8M0" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("not a config\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_results_file_exits_2(self, tmp_path):
        rc = main(["pareto", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 2

    def test_quantize_blocks_csv_rows(self, tmp_path):
        # A 2 x 20 matrix at l=16 is 2 blocks per row, none spanning rows.
        t = tmp_path / "t.csv"
        x = np.linspace(-4, 4, 40).reshape(2, 20)
        np.savetxt(t, x, delimiter=",")
        out = tmp_path / "out"
        assert main(["quantize", str(t), "--block-size", "16", "--out", str(out)]) == 0
        qt = from_bytes((out / "quantized.mxq").read_bytes())
        assert qt.shape == (2, 20) and qt.num_blocks == 4
        deq = np.loadtxt(out / "dequantized.csv", delimiter=",")
        np.testing.assert_array_equal(deq, qt.dequantize())

    def test_quantize_three_dimensional_binary(self, tmp_path):
        t = tmp_path / "t.bin"
        write_tensor_file(str(t), np.arange(24, dtype=np.float64).reshape(2, 3, 4))
        out = tmp_path / "out"
        assert main(["quantize", str(t), "--block-size", "16", "--out", str(out)]) == 0
        assert from_bytes((out / "quantized.mxq").read_bytes()).num_blocks == 6
        assert np.loadtxt(out / "dequantized.csv", delimiter=",").shape == (6, 4)

    @pytest.mark.filterwarnings("ignore:loadtxt")  # NumPy warns on the empty CSV
    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_quantize_empty_tensor_exits_2_writing_nothing(self, tmp_path, capsys,
                                                           suffix):
        t = tmp_path / f"t{suffix}"
        if suffix == ".csv":
            t.write_text("")
        else:
            write_tensor_file(str(t), np.zeros((0, 32)))
        out = tmp_path / "out"
        assert main(["quantize", str(t), "--out", str(out)]) == 2
        assert "no elements" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_quantize_exits_0(self, tmp_path):
        t = tmp_path / "t.csv"
        np.savetxt(t, np.linspace(-4, 4, 64).reshape(2, 32), delimiter=",")
        out = tmp_path / "out"
        rc = main(["quantize", str(t), "--out", str(out)])
        assert rc == 0
        assert (out / "quantized.mxq").exists()
        assert (out / "dequantized.csv").exists()
        assert "max_abs_error" in (out / "summary.txt").read_text()


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

    def test_loss_plot_renders(self, trained, tmp_path):
        out = tmp_path / "plots"
        rc = main(
            ["plot", "--kind", "loss", "--input", str(trained / "losses.csv"),
             "--out", str(out)]
        )
        assert rc == 0
        svg = (out / "loss.svg").read_text()
        assert svg.startswith("<svg")

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

    def test_plot_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["plot", "--kind", "quantizer", "--out", str(a)]) == 0
        assert main(["plot", "--kind", "quantizer", "--out", str(b)]) == 0
        assert (a / "quantizer.svg").read_bytes() == (b / "quantizer.svg").read_bytes()

    def test_scale_deviation_plot(self, tmp_path):
        rc = main(["plot", "--kind", "scale-deviation", "--format", "E4M3",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "scale-deviation.svg").exists()


class TestSeedOverride:
    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 1\nn_samples = 200\n")
        out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
        monkeypatch.setenv("MXSIM_SEED", "7")
        assert main(["train", "--config", str(cfg), "--seed", "1",
                     "--out", str(out1)]) == 0
        assert main(["train", "--config", str(cfg), "--seed", "2",
                     "--out", str(out2)]) == 0
        monkeypatch.delenv("MXSIM_SEED")
        assert main(["train", "--config", str(cfg), "--seed", "7",
                     "--out", str(out3)]) == 0
        r1 = (out1 / "losses.csv").read_text()
        assert r1 == (out2 / "losses.csv").read_text()
        assert r1 == (out3 / "losses.csv").read_text()

    def test_invalid_env_seed_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MXSIM_SEED", "pi")
        rc = main(["recon", "--format", "E8M0", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("command", ["train", "recon", "sweep"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_exits_2_before_any_run(
        self, tmp_path, monkeypatch, capsys, train_calls, command, source
    ):
        seed = ["--seed", "-1"] if source == "flag" else []
        if source == "env":
            monkeypatch.setenv("MXSIM_SEED", "-3")
        extra = ["--format", "E8M0"] if command == "recon" else []
        out = tmp_path / "out"
        assert main([command, *extra, *seed, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "non-negative" in captured.err and captured.out == ""
        assert train_calls == [] and not out.exists()


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


# Fields of TaskSpec and TrainConfig that no config file sets.
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
         *UNSETTABLE],
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
    """A negative --limit or a --jobs below 1 is a usage error."""

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


def _same_record(a, b):
    assert (a.dataset, a.steps, a.diverged) == (b.dataset, b.steps, b.diverged)
    assert np.array_equal(a.train_losses, b.train_losses)
    assert np.array_equal(a.val_losses, b.val_losses)
    assert len(a.final_params) == len(b.final_params)
    for p, q in zip(a.final_params, b.final_params):
        assert p.tobytes() == q.tobytes()


class TestDenseReference:
    """The sweep trains one dense reference per block size and Hadamard
    transform, and that record is the one each configuration's own dense
    run would give."""

    def test_memoized_record_equals_a_fresh_run(self, train_calls):
        # dim 20 pads at both block sizes; the sweep configs differ in more
        # than the key (max-grad, element SR, scale format).
        task = TaskSpec(n_samples=120, dim=20, seed=3)
        tcfg = TrainConfig(hidden=(24, 12), epochs=2, batch_size=32, seed=3)
        configs = [
            SweepConfig(scale_format=fmt, block_size=l, hadamard=h, max_grad=m, sr=sr)
            for fmt, l in (("E8M0", 32), ("E4M3", 16))
            for h in HADAMARD_MODES
            for m, sr in (("STE", "None"), ("absmax", "all"))
        ]
        dense_run = cli._dense_reference(task, tcfg)
        for cfg in configs:
            qcfg = build_qlinear_config(cfg)
            fresh = trainer.train(task, replace(
                tcfg, qcfg=replace(qcfg, quantize=False), loss_scaling=False
            ))
            _same_record(dense_run(qcfg), fresh)
        assert len(train_calls) == 2 * len(HADAMARD_MODES)

    def test_concurrent_callers_get_whole_records(self, monkeypatch):
        calls = []

        def slow_train(task, tcfg):
            calls.append(tcfg.qcfg)
            time.sleep(0.002)
            return (tcfg.qcfg.spec.block_size, tcfg.qcfg.hadamard)

        monkeypatch.setattr(cli, "train", slow_train)
        dense_run = cli._dense_reference(TaskSpec(), TrainConfig())
        keys = [build_qlinear_config(SweepConfig(block_size=l, hadamard=h))
                for l in (16, 32) for h in HADAMARD_MODES]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(dense_run, q) for q in keys * 8]
                results = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert results == [(q.spec.block_size, q.hadamard) for q in keys * 8]
        assert {(q.spec.block_size, q.hadamard) for q in calls} == set(results)
