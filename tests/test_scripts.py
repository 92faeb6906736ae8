"""The scripts run end to end at tiny sizes."""

import csv
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mxsim.sweep import score
from mxsim.trainer import RunRecord

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd, status=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == status, proc.stderr
    return proc.stdout


def test_run_recon(tmp_path):
    out = run_script("run_recon.py", "--out", "recon.csv", "--plot", "recon.svg",
                     "--elements", "512", cwd=tmp_path)
    with open(tmp_path / "recon.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert f"wrote {len(rows)} rows" in out and len(rows) == 102
    assert (tmp_path / "recon.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("name, args", [
    ("run_recon.py", ["--elements", "0"]),
    ("run_sweep_demo.py", ["--limit", "-1"]),
    ("run_sweep_demo.py", ["--jobs", "0"]),
], ids=["recon-elements", "demo-limit", "demo-jobs"])
def test_out_of_range_counts_exit_2(tmp_path, name, args):
    run_script(name, *args, cwd=tmp_path, status=2)
    assert not any(tmp_path.iterdir())


def test_run_training_demo(tmp_path):
    out = run_script("run_training_demo.py", "--epochs", "2", "--samples", "300",
                     "--dim", "16", cwd=tmp_path)
    lines = out.splitlines()
    assert lines[0].split() == ["epoch", "quantized", "dense"]
    assert len(lines) == 4 and lines[-1].startswith("final ratio quantized/dense:")


def test_run_sweep_demo(tmp_path):
    out = run_script("run_sweep_demo.py", "--limit", "2", "--jobs", "1",
                     "--epochs", "1", cwd=tmp_path)
    assert out.startswith("evaluating 2 of ")
    assert "pareto frontier (complexity, score): (" in out


def load_sweep_demo():
    spec = importlib.util.spec_from_file_location(
        "run_sweep_demo", ROOT / "scripts" / "run_sweep_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def test_sweep_demo_limit_0_runs_every_config(monkeypatch, capsys):
    # As in `mxsim sweep --limit 0`.
    demo = load_sweep_demo()
    monkeypatch.setattr(demo, "train", lambda task, tcfg: RunRecord(
        task.kind, [1.0], [1.0], False, [], 1))
    monkeypatch.setattr(sys, "argv", ["run_sweep_demo.py", "--limit", "0", "--jobs", "1"])
    demo.main()
    assert capsys.readouterr().out.startswith("evaluating 16 of 16 configurations")


def test_sweep_demo_scores_against_the_best_matched_reference(monkeypatch, capsys):
    # Each configuration is scored against the best validation loss of the
    # dense run with its block size and Hadamard transform, as in `mxsim sweep`.
    demo = load_sweep_demo()
    dense_losses = {"None": [0.9, 0.5, 0.7], "all": [0.8, 0.4, 0.6]}
    trained = []

    def fake_train(task, tcfg):
        qcfg = tcfg.qcfg
        trained.append((qcfg.quantize, qcfg.spec.block_size, qcfg.hadamard))
        val = [1.5] if qcfg.quantize else dense_losses[qcfg.hadamard.mode]
        return RunRecord(task.kind, val, val, False, [], 1)

    monkeypatch.setattr(demo, "train", fake_train)
    monkeypatch.setattr(sys, "argv", ["run_sweep_demo.py", "--limit", "4", "--jobs", "1"])
    demo.main()
    rows = re.findall(r"^ *(\S+) +(\S+) +\S+  .* hadamard=(\S+)$",
                      capsys.readouterr().out, re.M)
    assert sorted(h for _, _, h in rows) == ["None", "None", "all", "all"]
    for omega, s, hadamard in rows:
        m_ref = min(dense_losses[hadamard])
        assert s == f"{score(m_ref, 1.5, float(omega)):.4f}"
    references = [t for t in trained if not t[0]]
    assert sorted(h.mode for _, _, h in references) == ["None", "all"]
    assert {(l, h.seed) for _, l, h in references} == {(32, 3)}


def test_line_coverage_reports_unreached_lines(tmp_path):
    # Importing the package runs its module-level statements only, so most
    # function bodies are reported, and the exit status says so.
    out = run_script("line_coverage.py", str(ROOT / "tests" / "test_exports.py"),
                     "-q", "-p", "no:cacheprovider", cwd=tmp_path, status=1)
    lines = out.splitlines()
    summary = re.fullmatch(r"(\d+) of (\d+) statement lines in mxsim not run "
                           r"\(pytest exit 0\)", lines[-1])
    assert summary and 0 < int(summary[1]) < int(summary[2])
    reported = dict(line.split(": ", 1) for line in lines if line.startswith("src/"))
    unreached = [int(n) for n in reported["src/mxsim/sweep.py"].split(", ")]
    source = (ROOT / "src" / "mxsim" / "sweep.py").read_text().splitlines()
    # run_many's def line ran at import; the first line of its body did not.
    # Its docstring is not a statement and so is never reported.
    def_line = next(i for i, text in enumerate(source, start=1)
                    if text.startswith("def run_many("))
    body = next(i for i, text in enumerate(source, start=1)
                if i > def_line and text.strip().startswith("if jobs <= 1"))
    assert def_line not in unreached and body in unreached
    assert not any(def_line < i < body for i in unreached)
