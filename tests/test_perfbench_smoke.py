"""Every benchmark workload runs at smoke-test sizes.

Each workload runs as the benchmark starts it, in a fresh process with the
environment of ``perfbench/run.py``: BLAS and OpenMP pinned to one thread
and ``src/`` as ``PYTHONPATH``.  A tiny run compares digests only between its
own repetitions, so the result does not depend on the host's BLAS kernel.
An API change that breaks the harness fails here.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", _PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_run()


@pytest.mark.parametrize("workload", RUN.WORKLOADS)
def test_tiny_workload_runs_clean(tmp_path, workload):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(_PERFBENCH / "workload.py"), workload,
         "--seed", "0", "--seconds", "0", "--trace", "0", "--tiny",
         "--t-spawn", str(time.monotonic()),
         "--workdir", str(tmp_path / "work"), "--result", str(result)],
        env=RUN.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    assert out["failed"] == 0 and out["problems"] == []
    assert out["attempted"] > 0


def test_tiny_traced_sweep_repeats_its_counts(tmp_path):
    # Several traced repetitions: the per-layer call counts must repeat
    # between them, and the layers sweep-mix exists to exercise must run.
    # A traced run writes its spans next to the result, inside the checkout.
    out = RUN.OUT / f"smoke-{tmp_path.name}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(_PERFBENCH / "workload.py"), "sweep-mix",
             "--seed", "0", "--seconds", "3", "--trace", "1", "--tiny",
             "--t-spawn", str(time.monotonic()),
             "--workdir", str(tmp_path / "work"), "--result", str(out / "result.json")],
            env=RUN.child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads((out / "result.json").read_text())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    assert result["failed"] == 0 and result["problems"] == []
