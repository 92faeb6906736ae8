"""One benchmark workload, measured in a fresh process.

``run.py`` starts this file with the BLAS and OpenMP thread variables set to
1 and ``src/`` as the only entry of ``PYTHONPATH``.  The process sets up its
workload, repeats it in a closed loop (one caller; each repetition starts
when the previous one ends) for the requested number of seconds, checks
every output and writes what it measured as JSON to ``--result``.

With ``--trace 1`` untraced and traced repetitions alternate; the traced
ones wrap every layer listed in ``spans.LAYERS`` and give the per-layer
metrics.  All times are host time: the simulator's wall clock.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import mxsim
from mxsim import cli, formats, hadamard, mx, qgrad, sweep, trainer
from mxsim.qlinear import QLinearConfig

import spans as spanlib
from run import THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0  # the seed whose outputs are compared with expected.json
MIN_REPS = 3  # untraced repetitions in a run without tracing
STOP_STARTING_AFTER_S = 120.0  # well inside the 170 s that run.py allows


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def total_ns(spans, name):
    return sum(s[4] - s[3] for s in spans if s[2] == name)


def quantized_elems(spans):
    return sum(s[7] for s in spans if s[2] == "mx.quantize_blocks")


def train_step_ms(spans):
    """(quantized ms per step, quantized minus dense ms per step) from the
    ``trainer.train`` spans of one repetition."""
    ns = {True: 0, False: 0}
    steps = {True: 0, False: 0}
    for s in spans:
        if s[2] == "trainer.train":
            quantized, n = s[7]
            ns[quantized] += s[4] - s[3]
            steps[quantized] += n
    q = ns[True] / steps[True] / 1e6
    return q, q - ns[False] / steps[False] / 1e6


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class TrainC7:
    """Acceptance criterion 7: quantized training next to the dense run.

    Gaussian regression (n=5000, dim 64, noise 2.0), MLP hidden (64, 32),
    batch 128, E8M0 scales at l=32, RTN, STE gradients, 20 epochs.
    """

    name = "train-c7"
    ops = 2  # the quantized run and the dense run
    digest_keys = ("quantized", "dense")

    def __init__(self, seed, tiny, workdir):
        n, epochs, self.steps = (600, 3, 15) if tiny else (5000, 20, 720)
        self.task = trainer.TaskSpec(kind=trainer.TASK_GAUSSIAN, n_samples=n,
                                     dim=64, seed=seed, noise_std=2.0)
        qcfg = QLinearConfig(spec=mx.BlockSpec(block_size=32))
        self.cfg = trainer.TrainConfig(qcfg=qcfg, hidden=(64, 32), epochs=epochs,
                                       batch_size=128, seed=seed)
        self.dense_cfg = replace(self.cfg, qcfg=replace(qcfg, quantize=False))

    def prepare(self):
        pass

    def run(self):
        return trainer.train(self.task, self.cfg), trainer.train(self.task, self.dense_cfg)

    def check(self, out, reference):
        failed, problems, digests = 0, [], {}
        for label, rec in zip(("quantized", "dense"), out):
            digests[label] = sha256(
                *(np.ascontiguousarray(p, dtype=np.float64).tobytes()
                  for p in rec.final_params),
                np.asarray(rec.train_losses, dtype=np.float64).tobytes(),
                np.asarray(rec.val_losses, dtype=np.float64).tobytes(),
                f"{rec.steps} {rec.diverged}".encode(),
            )
            bad = []
            if not np.isfinite(rec.train_losses + rec.val_losses).all():
                bad.append("non-finite loss")
            if rec.diverged or rec.steps != self.steps:
                bad.append(f"diverged={rec.diverged} steps={rec.steps}")
            if label in reference and digests[label] != reference[label]:
                bad.append("digest mismatch")
            if bad:
                failed += 1
                problems.append(f"{label} run: {', '.join(bad)}")
        q, d = out[0].train_losses[-1], out[1].train_losses[-1]
        if not q <= 2.0 * d:  # criterion 7
            failed += 1
            problems.append(f"quantized final loss {q} > 2x dense {d}")
        return failed, problems, digests

    def metrics(self, wall, spans):
        step_ms, quant_ms = train_step_ms(spans)
        return {"step_ms": step_ms, "quant_ms_per_step": quant_ms,
                "configs_per_min": 60.0 / wall}


# Committed sweep grid: 2 scale formats x 2 max-grads x 2 Hadamard modes.
SWEEP_AXES = {
    "scale_formats": "E8M0,E4M3",  # enumerate_configs gives l=32 and l=16
    "max_grads": "STE,softsoftmax",
    "hadamards": "None,all",
    "quant_grads": "spline",
    "scale_grads": "STE",
    "srs": "all",
    "round_modes": "Stochastic",
    "tensor_scalings": "True",
    "tensor_grads": "absmax",
    "loss_scalings": "False",
    "optimisers": "Adam",
}
# A 256-wide task, so each quantize call holds about 65k elements.
SWEEP_TASK = {"task": "gaussian_regression", "n_samples": "1024", "dim": "256",
              "hidden": "256,128", "batch_size": "256", "epochs": "2"}
SWEEP_TASK_TINY = {"task": "gaussian_regression", "n_samples": "256", "dim": "32",
                   "hidden": "32,16", "batch_size": "64", "epochs": "1"}
SWEEP_JOBS = 2


class SweepMix:
    """``mxsim sweep --jobs 2`` over the committed grid, then ``mxsim pareto``."""

    name = "sweep-mix"
    configs = math.prod(len(v.split(",")) for v in SWEEP_AXES.values())
    ops = configs + 1  # every config, and the pareto step
    digest_keys = ("results.csv", "frontier.csv")

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.config = workdir / "sweep_grid.cfg"
        self.out = workdir / "sweep"
        values = {**SWEEP_AXES, **(SWEEP_TASK_TINY if tiny else SWEEP_TASK)}
        self.config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        self.results = self.out / "results.csv"
        self.frontier = self.out / "frontier.csv"

    def prepare(self):
        for p in (self.results, self.frontier):
            p.unlink(missing_ok=True)

    def run(self):
        rc_sweep = cli.main(["sweep", "--config", str(self.config), "--jobs",
                             str(SWEEP_JOBS), "--out", str(self.out),
                             "--seed", str(self.seed)])
        rc_pareto = cli.main(["pareto", str(self.results), "--out", str(self.out)])
        return rc_sweep, rc_pareto

    def check(self, out, reference):
        rc_sweep, rc_pareto = out
        failed, problems, digests = 0, [], {}
        rows = []
        if rc_sweep != 0 or not self.results.exists():
            failed += self.configs
            problems.append(f"sweep exited with {rc_sweep}")
        else:
            data = self.results.read_bytes()
            digests["results.csv"] = sha256(data)
            rows = list(csv.DictReader(data.decode().splitlines()))
            finite = all(math.isfinite(float(r[c])) for r in rows
                         for c in ("Val loss", "Train loss"))
            if len(rows) != self.configs or not finite:
                failed += self.configs
                problems.append(f"{len(rows)} result rows, all finite: {finite}")
            elif "results.csv" in reference and digests["results.csv"] != reference["results.csv"]:
                failed += self.configs
                problems.append("results.csv digest mismatch")
        if rc_pareto != 0 or not self.frontier.exists():
            failed += 1
            problems.append(f"pareto exited with {rc_pareto}")
        else:
            data = self.frontier.read_bytes()
            digests["frontier.csv"] = sha256(data)
            front = list(csv.DictReader(data.decode().splitlines()))
            if not front or any(r not in rows for r in front):
                failed += 1
                problems.append("frontier is empty or not a subset of the results")
            elif "frontier.csv" in reference and digests["frontier.csv"] != reference["frontier.csv"]:
                failed += 1
                problems.append("frontier.csv digest mismatch")
        return failed, problems, digests

    def metrics(self, wall, spans):
        step_ms, quant_ms = train_step_ms(spans)
        return {"step_ms": step_ms, "quant_ms_per_step": quant_ms,
                "configs_per_min": 60.0 * self.configs / wall}


class ReconGrid:
    """``sweep.recon_error_experiment``: 102 cells of 65,536 elements each.
    Repetitions cycle through three consecutive seeds."""

    name = "recon-grid"
    ops = 102  # cells per grid

    def __init__(self, seed, tiny, workdir):
        self.seeds = (seed,) if tiny else (seed, seed + 1, seed + 2)
        self.digest_keys = tuple(f"grid{i}" for i in range(len(self.seeds)))
        self.n_elements = 1 << 11 if tiny else 1 << 16
        self.csv_path = workdir / "recon.csv"
        self.turn = -1

    def prepare(self):
        self.turn = (self.turn + 1) % len(self.seeds)

    def run(self):
        return sweep.recon_error_experiment(seed=self.seeds[self.turn],
                                            n_elements=self.n_elements)

    def check(self, rows, reference):
        key = self.digest_keys[self.turn]
        sweep.write_recon_csv(str(self.csv_path), rows)
        digests = {key: sha256(self.csv_path.read_bytes())}
        finite = all(math.isfinite(r[c]) for r in rows
                     for c in ("mean_rel_err", "median_rel_err"))
        if len(rows) != self.ops or not finite:
            problem = f"{len(rows)} rows, all finite: {finite}"
        elif key in reference and digests[key] != reference[key]:
            problem = "recon CSV digest mismatch"
        else:
            return 0, [], digests
        return self.ops, [f"seed {self.seeds[self.turn]}: {problem}"], digests

    def metrics(self, wall, spans):
        quant_ns = (total_ns(spans, "mx.quantize_blocks")
                    + total_ns(spans, "mx.dequantize_tensor"))
        return {"step_ms": wall * 1e3 / self.ops, "quant_ms_per_step": quant_ns / self.ops / 1e6,
                "configs_per_min": 60.0 * self.ops / wall}


WORKLOADS = {w.name: w for w in (TrainC7, SweepMix, ReconGrid)}


def fill_caches():
    """Format grids, spline knots and Hadamard matrices, filled before timing.

    One bulk quantize round trip also pays first-use costs, such as the
    allocator raising its mmap threshold, here rather than in the first
    repetition.
    """
    for fmt in formats.FORMATS.values():
        qgrad.q_spline_grad(np.zeros(1), fmt)
    for l in (16, 32):
        hadamard.sylvester(l)
    x = np.random.default_rng(0).standard_normal(1 << 16)
    mx.dequantize_tensor(mx.quantize_tensor(x, mx.BlockSpec()))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

SMOOTHED_QGRAD = ("qgrad.dZ", "qgrad.assemble_dh_dX", "qgrad.tensor_scale_grad",
                  "qgrad.q_spline_grad", "qgrad.q_baseline_grad", "qgrad.q_sigmoid_grad")

# (layer, statistics) reported from the traced repetitions.
LAYER_STATS = (
    ("formats.round_array", ("calls", "elems", "self_s", "ns_per_elem")),
    ("formats.encode_array", ("self_s",)),
    ("formats.decode_array", ("self_s",)),
    ("mx.quantize_blocks", ("calls", "elems", "self_s", "ns_per_elem")),
    ("mx.quantize_scales", ("self_s",)),
    ("mx.z_values", ("self_s",)),
    ("mx.dequantize_tensor", ("self_s",)),
    ("hadamard.transform_along_axis", ("calls", "elems", "self_s")),
    ("hadamard.block_signs", ("calls", "self_s")),
    ("qgrad.assemble_df_dX", ("calls", "self_s")),
    ("qgrad.assemble_dh_dX", ("self_s",)),
    ("qgrad.estimator_grad", ("self_s",)),
    ("qgrad.dZ", ("self_s",)),
    ("qlinear.forward", ("calls", "self_s")),
    ("qlinear.backward", ("calls", "self_s")),
    ("trainer.train", ("calls", "self_s")),
    ("trainer.adam_step", ("self_s",)),
    ("sweep.enumerate_configs", ("self_s",)),
    ("sweep.pareto_front", ("self_s",)),
    ("sweep.write_results_csv", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("plots.scatter_plot", ("self_s",)),
    ("sweep.recon_error_cell", ("calls", "self_s")),
)
COUNT_STATS = ("calls", "elems")

# Layers a workload must never call, and layers it must call.
CONTROLS = {
    "train-c7": {"control.hadamard.calls": 0, "control.smoothed_qgrad.calls": 0},
    "recon-grid": {"control.train_path.calls": 0},
}
EXERCISED = {"sweep-mix": ("control.hadamard.calls", "control.smoothed_qgrad.calls")}


def layer_values(spans):
    """Per-layer metrics of one traced repetition."""
    agg = {}
    runner_ns = 0
    for _, _, name, start, end, self_ns, _, info in spans:
        calls, elems, self_total = agg.get(name, (0, 0, 0))
        agg[name] = (calls + 1, elems + (info if isinstance(info, int) else 0),
                     self_total + self_ns)
        if name == spanlib.RUNNER:
            runner_ns += end - start
    out = {}
    for layer, stats in LAYER_STATS:
        calls, elems, self_ns = agg.get(layer, (0, 0, 0))
        values = {"calls": calls, "elems": elems, "self_s": self_ns / 1e9,
                  "ns_per_elem": self_ns / elems if elems else 0.0}
        for stat in stats:
            out[f"{layer}.{stat}"] = values[stat]
    out["trainer.steps"] = sum(s[7][1] for s in spans if s[2] == "trainer.train")
    run_many = [s for s in spans if s[2] == "sweep.run_many"]
    busy_capacity = sum((s[4] - s[3]) * s[7] for s in run_many)
    out["sweep.run_many.parallel_eff"] = runner_ns / busy_capacity if busy_capacity else 0.0

    def calls(prefixes):
        return sum(c for name, (c, _, _) in agg.items() if name.startswith(prefixes))

    out["control.hadamard.calls"] = calls("hadamard.")
    out["control.smoothed_qgrad.calls"] = calls(SMOOTHED_QGRAD)
    out["control.train_path.calls"] = calls(("qlinear.", "qgrad.", "trainer.", "hadamard."))
    return out


def is_count(metric):
    return metric.rsplit(".", 1)[1] in COUNT_STATS or metric == "trainer.steps"


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    traced: bool
    start: int  # perf_counter_ns
    end: int
    failed: int
    problems: list
    digests: dict
    tracer: object = None
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def wall(self):
        return (self.end - self.start) / 1e9


def run_rep(wl, traced, reference):
    wl.prepare()
    tracer = spanlib.Tracer()
    tracer.install(spanlib.LAYERS if traced else spanlib.METER_LAYERS)
    start = time.perf_counter_ns()
    try:
        out = wl.run()
    except Exception:  # a failed repetition counts all its operations
        return Rep(traced, start, time.perf_counter_ns(), wl.ops,
                   [traceback.format_exc()], {})
    finally:
        tracer.uninstall()
    end = time.perf_counter_ns()
    failed, problems, digests = wl.check(out, reference)
    rep = Rep(traced, start, end, failed, problems, digests, tracer)
    if traced:
        rep.layers = layer_values(tracer.spans)
    else:
        rep.e2e = {"wall_s": rep.wall,
                   "melem_per_s": quantized_elems(tracer.spans) / rep.wall / 1e6,
                   **wl.metrics(rep.wall, tracer.spans)}
        rep.tracer = None  # so that peak RSS does not grow with the count
    return rep


def measure(wl, seconds, trace, reference):
    """Closed loop: repeat until another repetition would overrun ``seconds``.

    Without tracing at least MIN_REPS repetitions run.  With tracing,
    untraced and traced repetitions alternate, at least one of each.  With
    no ``reference`` (a seed other than the default), every repetition must
    reproduce the digests its outputs had when first seen in this run.
    """
    reps, seen = [], {}
    start = time.perf_counter()
    while True:
        untraced = sum(not r.traced for r in reps)
        traced = len(reps) - untraced
        done = untraced >= 1 and traced >= 1 if trace else untraced >= MIN_REPS
        elapsed = time.perf_counter() - start
        if done and (elapsed + statistics.median(r.wall for r in reps) > seconds
                     or elapsed > STOP_STARTING_AFTER_S):
            break
        rep = run_rep(wl, trace and len(reps) % 2 == 1,
                      reference if reference is not None else seen)
        for k, v in rep.digests.items():
            seen.setdefault(k, v)
        reps.append(rep)
    return reps


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "mxsim").glob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "src_lines": src_lines}


def summarize(wl, reps, trace):
    untraced = [r for r in reps if not r.traced]
    ok = [r for r in untraced if r.e2e]
    problems = [p for r in reps for p in r.problems]
    result = {
        "attempted": wl.ops * len(reps),
        "failed": sum(r.failed for r in reps),
        "reps": len(untraced),
        "traced_reps": len(reps) - len(untraced),
        "rep_walls_s": [r.wall for r in reps],
        "e2e": {k: statistics.median(r.e2e[k] for r in ok) for k in ok[0].e2e} if ok else {},
    }
    if trace:
        traced = [r for r in reps if r.traced and r.layers]
        if not traced:
            problems.append("no traced repetition completed")
            layers = {}
        else:
            layers = {}
            for k in traced[0].layers:
                values = [r.layers[k] for r in traced]
                if is_count(k) and len(set(values)) != 1:
                    problems.append(f"{k} differs between traced repetitions: {values}")
                layers[k] = statistics.median(values)
            for k, want in CONTROLS.get(wl.name, {}).items():
                if layers[k] != want:
                    problems.append(f"control {k} is {layers[k]}, expected {want}")
            for k in EXERCISED.get(wl.name, ()):
                if layers[k] <= 0:
                    problems.append(f"{k} is 0: {wl.name} no longer exercises it")
            if ok:
                layers["trace.overhead_frac"] = (
                    statistics.median(r.wall for r in traced)
                    / statistics.median(r.wall for r in ok) - 1.0)
        result["layers"] = layers
    result["problems"] = problems
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t-spawn", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--expect", type=Path, default=None,
                   help="digests to compare against (default: expected.json for the default seed)")
    args = p.parse_args(argv)

    if Path(mxsim.__file__).resolve().parent != ROOT / "src" / "mxsim":
        raise SystemExit(f"imported mxsim from {mxsim.__file__}, not from this checkout")
    args.workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    fill_caches()
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": setup_s}))
        return

    reference = None
    if args.expect is None and args.seed == DEFAULT_SEED and not args.tiny:
        args.expect = Path(__file__).with_name("expected.json")
    if args.expect is not None:
        reference = json.loads(args.expect.read_text())[args.workload]
        missing = set(wl.digest_keys) - set(reference)
        if missing:
            raise SystemExit(f"{args.expect} lacks {args.workload} digests {sorted(missing)}")
    reps = measure(wl, args.seconds, bool(args.trace), reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = summarize(wl, reps, bool(args.trace))
    result["e2e"]["peak_rss_mb"] = peak_rss_mb
    result["setup_s"] = setup_s
    result["digests"] = {}
    for r in reps:
        for k, v in r.digests.items():
            result["digests"].setdefault(k, v)
    result["env"] = environment()
    if args.trace:
        path = args.result.with_name(f"spans-{args.workload}-seed{args.seed}.csv")
        spanlib.write_csv(path, [(i, r.tracer) for i, r in enumerate(reps)
                                 if r.traced and r.tracer is not None])
        result["spans_file"] = str(path.relative_to(ROOT))
    args.result.write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    sys.exit(main())
