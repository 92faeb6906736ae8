"""The scripts run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
