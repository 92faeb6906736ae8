"""mxsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train-c7 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Each workload runs in a fresh process
(``workload.py``) with BLAS and OpenMP pinned to one thread.  Set-up time is
sampled in several such processes and reported as their median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones.  The lines before it show the environment and every metric with its
unit, and ``failed_frac``.  Raw results and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train-c7", "sweep-mix", "recon-grid")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7  # six set-up-only processes and the measuring one
RUN_LIMIT_S = 170.0  # the whole command must end within 180 s


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def require(condition, message):
    if not condition:
        raise BenchError(message)


def child_env():
    env = dict(os.environ)
    env.pop("MXSIM_SEED", None)  # the CLI would let it override --seed
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, deadline, result):
    """Run workload.py to completion and return the JSON it wrote."""
    result.unlink(missing_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting the workload process")
    cmd = [sys.executable, str(HERE / "workload.py"), *args,
           "--t-spawn", repr(time.monotonic()), "--result", str(result)]
    try:
        # The child's prints (the CLI's progress lines) go to stderr so that
        # standard output stays ours.
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"workload process timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(result.read_text())


def measure(workload, seed, seconds, trace, tiny=False, expect=None):
    """Set-up samples, then the measuring process; returns its raw result
    with ``setup_s`` replaced by the median over all processes."""
    if not (ROOT / "src" / "mxsim" / "__init__.py").is_file():
        raise BenchError(f"no mxsim sources under {ROOT / 'src'}; run from a checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{workload}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    workdir = OUT / f"work-{tag}"
    common = [workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--workdir", str(workdir)]
    if tiny:
        common.append("--tiny")
    if expect is not None:
        common += ["--expect", str(expect)]
    OUT.mkdir(exist_ok=True)
    setups = [spawn([*common, "--setup-only"], deadline, OUT / f"setup-{tag}.json")
              for _ in range(SETUP_SAMPLES - 1)]
    raw = spawn(common, deadline, OUT / f"result-{tag}.json")
    setups.append(raw)
    raw["setup_samples_s"] = [s["setup_s"] for s in setups]
    raw["setup_s"] = statistics.median(raw["setup_samples_s"])
    return raw


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(workload, seed, trace, raw, spec):
    """Lines to print, and the final result object."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    values = raw.get("layers", {}) if trace else {"setup_s": raw["setup_s"], **raw["e2e"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}: "
                         + "; ".join(raw["problems"][:3]))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed_frac = raw["failed"] / raw["attempted"]
    lines = [
        "env " + json.dumps(raw["env"], sort_keys=True),
        f"{workload} seed {seed}: {raw['reps']} untraced and {raw['traced_reps']} traced "
        f"repetitions; set-up samples {len(raw['setup_samples_s'])}; medians below",
        *(f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()),
        f"failed_frac {failed_frac:.6g} 1 ({raw['failed']} of {raw['attempted']} operations)",
        *(f"problem: {p.strip()}" for p in raw["problems"]),
    ]
    result = {"correct": raw["failed"] == 0 and not raw["problems"],
              "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}
    return lines, result


def self_test():
    """Each workload at tiny size: every metric is printed with its unit,
    matching digests pass, and a corrupted expected digest fails."""
    spec = benchmark_spec()
    for workload in WORKLOADS:
        raw = measure(workload, 0, 0.5, 0, tiny=True)
        lines, result = report(workload, 0, 0, raw, spec)
        text = "\n".join(lines)
        for m in [*spec["end_to_end"], {"name": "failed_frac", "unit": "1"}]:
            require(any(line.startswith(m["name"] + " ") and line.split()[2] == m["unit"]
                        for line in lines), f"{workload}: {m['name']} not printed\n{text}")
        require(result["correct"], f"{workload}: tiny run failed\n{text}")

        expect = OUT / f"selftest-expect-{workload}.json"
        expect.write_text(json.dumps({workload: raw["digests"]}))
        _, again = report(workload, 0, 0, measure(workload, 0, 0.5, 0, True, expect), spec)
        require(again["correct"] and again["failed"] == 0, f"{workload}: digests did not repeat")

        key = sorted(raw["digests"])[0]
        corrupted = dict(raw["digests"])
        corrupted[key] = ("0" if corrupted[key][0] != "0" else "1") + corrupted[key][1:]
        expect.write_text(json.dumps({workload: corrupted}))
        _, bad = report(workload, 0, 0, measure(workload, 0, 0.5, 0, True, expect), spec)
        require(not bad["correct"] and bad["failed"] > 0,
                f"{workload}: corrupted digest {key} was not reported")

        traced = measure(workload, 0, 0.5, 1, tiny=True)
        _, layers = report(workload, 0, 1, traced, spec)
        require(layers["correct"], f"{workload}: traced run failed: {traced['problems']}")
        print(f"self-test {workload}: ok ({len(spec['end_to_end'])} end-to-end and "
              f"{len(layers['metrics'])} per-layer metrics; corrupted {key} digest "
              f"failed {bad['failed']} of {bad['attempted']} operations)")
    print("self-test passed")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.self_test:
            self_test()
            return 0
        if args.workload is None:
            p.error("--workload is required")
        raw = measure(args.workload, args.seed, args.seconds, args.trace)
        lines, result = report(args.workload, args.seed, args.trace, raw, benchmark_spec())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
