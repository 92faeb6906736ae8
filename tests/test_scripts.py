"""The demo scripts run end to end at tiny sizes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_recon(tmp_path):
    out = run_script("run_recon.py", "--out", "recon.csv", "--plot", "recon.svg",
                     "--elements", "512", cwd=tmp_path)
    with open(tmp_path / "recon.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert f"wrote {len(rows)} rows" in out and len(rows) == 102
    assert (tmp_path / "recon.svg").read_text().startswith("<svg")


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
