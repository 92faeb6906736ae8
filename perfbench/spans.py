"""Span recording around mxsim's public functions, from outside the package.

Every layer is timed by replacing a function at each module attribute its
callers look it up through.  ``from .formats import round_array`` copies the
name into ``mxsim.mx`` and ``mxsim.qgrad``, so a layer lists every binding
that some caller uses; patching only the defining module would miss them.

A span is ``(id, parent, name, start_ns, end_ns, self_ns, thread, info)``.
Parents are tracked per thread, so spans of the pool threads in
``sweep.run_many`` nest correctly.  Self time is the span's duration minus
the durations of its direct child spans.  Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import threading
from time import perf_counter_ns


def _elems(args, kwargs, result):
    return int(getattr(args[0], "size", 1))


def _train_info(args, kwargs, result):
    """(quantized?, steps) of one ``trainer.train(task, cfg)`` call."""
    return (bool(args[1].qcfg.quantize), int(result.steps))


def _jobs(args, kwargs, result):
    return int(kwargs.get("jobs", args[2] if len(args) > 2 else 1))


# Layer name -> (modules whose attribute of that name callers use, info).
LAYERS = {
    "formats.round_array": (("formats", "mx", "qgrad"), _elems),
    "formats.encode_array": (("formats", "mx"), None),
    "formats.decode_array": (("formats", "mx"), None),
    "mx.quantize_blocks": (("mx", "qlinear"), _elems),
    "mx.quantize_scales": (("mx",), None),
    "mx.z_values": (("mx", "qgrad"), None),
    "mx.dequantize_tensor": (("mx", "sweep", "cli"), None),
    "hadamard.transform_along_axis": (("hadamard", "qlinear"), _elems),
    "hadamard.block_signs": (("hadamard",), None),
    "qgrad.assemble_df_dX": (("qgrad", "qlinear"), None),
    "qgrad.assemble_dh_dX": (("qgrad", "qlinear"), None),
    "qgrad.estimator_grad": (("qgrad",), None),
    "qgrad.dZ": (("qgrad",), None),
    "qgrad.tensor_scale_grad": (("qgrad",), None),
    "qgrad.q_spline_grad": (("qgrad",), None),
    "qgrad.q_baseline_grad": (("qgrad",), None),
    "qgrad.q_sigmoid_grad": (("qgrad",), None),
    "qlinear.forward": (("qlinear", "trainer"), None),
    "qlinear.backward": (("qlinear", "trainer"), None),
    "trainer.train": (("trainer", "cli"), _train_info),
    "trainer.adam_step": (("trainer",), None),
    "sweep.run_many": (("sweep", "cli"), _jobs),
    "sweep.enumerate_configs": (("sweep", "cli"), None),
    "sweep.pareto_front": (("sweep", "cli"), None),
    "sweep.write_results_csv": (("sweep", "cli"), None),
    "sweep.recon_error_cell": (("sweep",), None),
    "cli.main": (("cli",), None),
    "plots.scatter_plot": (("plots", "cli"), None),
}

# The few layers the end-to-end metrics are read from.  They are wrapped in
# untraced runs too; each costs about a microsecond per call, against
# milliseconds of work per call.
METER_LAYERS = ("mx.quantize_blocks", "mx.dequantize_tensor", "trainer.train")

# Span name of the per-config runner that ``sweep.run_many`` hands its pool.
RUNNER = "sweep.run_many.runner"


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, info=None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]  # id, summed duration of direct children
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            extra = info(args, kwargs, result) if info is not None else None
            spans.append((span_id, parent, name, start, end,
                          end - start - frame[1], threading.get_ident(), extra))
            return result

        return wrapper

    def install(self, layers):
        """Wrap every binding of each named layer; ``uninstall`` undoes it."""
        for name in layers:
            modules, info = LAYERS[name]
            attr = name.split(".", 1)[1]
            original = getattr(importlib.import_module(f"mxsim.{modules[0]}"), attr)
            fn = original
            if name == "sweep.run_many":
                fn = self._run_many_with_runner_spans(original)
            wrapper = self.wrap(name, fn, info)
            for mod_name in modules:
                module = importlib.import_module(f"mxsim.{mod_name}")
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"mxsim.{mod_name}.{attr} is not {name}")
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _run_many_with_runner_spans(self, run_many):
        def traced_run_many(configs, runner, jobs=1):
            return run_many(configs, self.wrap(RUNNER, runner), jobs)

        return traced_run_many



def write_csv(path, traced_reps):
    """Write the spans of ``(rep index, Tracer)`` pairs, one row per span."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rep", "id", "parent", "name", "start_ns", "end_ns",
                    "self_ns", "thread"])
        for rep, tracer in traced_reps:
            for span in sorted(tracer.spans):
                w.writerow([rep, *span[:7]])
