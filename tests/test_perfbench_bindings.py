"""The benchmark's tracer patches mxsim functions at every module binding
listed in ``perfbench/spans.py``; each binding must exist and be the
function its defining module exports, or a traced run fails."""

import importlib
import importlib.util
from itertools import product
from pathlib import Path

import numpy as np
import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_spans().LAYERS


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_every_binding_is_the_defining_function(name):
    home, attr = name.split(".", 1)
    modules, _ = LAYERS[name]
    original = getattr(importlib.import_module(f"mxsim.{home}"), attr)
    assert original.__module__ == f"mxsim.{home}"
    for mod_name in modules:
        module = importlib.import_module(f"mxsim.{mod_name}")
        assert hasattr(module, attr), f"mxsim.{mod_name} has no {attr}"
        assert getattr(module, attr) is original, f"mxsim.{mod_name}.{attr}"


def _count_helper_calls(monkeypatch, mx):
    """The list that each call of mx.z_values and mx.quantize_scales appends
    its name to."""
    calls = []
    for attr in ("z_values", "quantize_scales"):
        def counting(*args, _attr=attr, _fn=getattr(mx, attr), **kwargs):
            calls.append(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mx, attr, counting)
    return calls


@pytest.mark.parametrize("statistic, tensor_scaling, z_calls", [
    ("Absmax", False, 1),
    ("Absmax", True, 1),  # the normalized maximum is z / g
    ("LogSumExp", True, 2),  # recomputed on the normalized blocks
])
def test_quantize_blocks_calls_the_traced_helpers(monkeypatch, statistic, tensor_scaling,
                                                  z_calls):
    # The tracer times z_values and quantize_scales at their mx bindings;
    # folding either into the NumPy path of quantize_blocks would make its
    # metrics read 0.  The compiled kernel calls neither (the next test).
    mx = importlib.import_module("mxsim.mx")
    monkeypatch.setattr(mx, "_KERNEL", None)
    beta = None if statistic == "Absmax" else 40.0
    calls = _count_helper_calls(monkeypatch, mx)
    mx.quantize_blocks(np.ones((4, 64)), mx.BlockSpec(beta=beta), tensor_scaling=tensor_scaling)
    assert calls.count("z_values") == z_calls
    assert calls.count("quantize_scales") == 1


def test_kernel_path_calls_no_helper(monkeypatch):
    # On the kernel path a quantization under either statistic is one
    # quantize_blocks call and no helper call, so the mx.z_values and
    # mx.quantize_scales metrics time only NumPy-path calls.
    mx = importlib.import_module("mxsim.mx")
    if mx._KERNEL is None:
        pytest.skip("the compiled kernel is not built on this host")
    calls = _count_helper_calls(monkeypatch, mx)
    original = mx.quantize_blocks

    def counting(*args, **kwargs):
        calls.append("quantize_blocks")
        return original(*args, **kwargs)

    monkeypatch.setattr(mx, "quantize_blocks", counting)
    for tensor_scaling in (False, True):
        for beta, rounding in product((None, 40.0), ("TiesToEven", "Stochastic")):
            calls.clear()
            spec = mx.BlockSpec(beta=beta, elem_rounding=rounding)
            mx.quantize_tensor(np.ones((4, 64)), spec, tensor_scaling, np.random.default_rng(0))
            assert calls == ["quantize_blocks"]


def test_recon_grid_calls_the_traced_cell(monkeypatch):
    # The tracer times each grid cell at the sweep binding of
    # recon_error_cell; a grid that bypassed it would read 0 calls.
    sweep = importlib.import_module("mxsim.sweep")
    calls = []

    def counting(*args, _fn=sweep.recon_error_cell, **kwargs):
        calls.append((args[0].shape, args[-1].shape))
        return _fn(*args, **kwargs)

    monkeypatch.setattr(sweep, "recon_error_cell", counting)
    rows = sweep.recon_error_experiment(n_elements=64)
    assert calls == [((64,), (2, 64))] * len(rows) and len(rows) == 102


def test_recon_and_layer_reach_the_metered_bindings(monkeypatch):
    # recon-grid's quant_ms_per_step and the mx.* layer metrics are read
    # from spans at these bindings; a call that went around them (say
    # quantize_tensor aliased to quantize_blocks, or a dequantize that
    # skipped mx.dequantize_tensor) would drop its time from them.
    sweep = importlib.import_module("mxsim.sweep")
    qlinear = importlib.import_module("mxsim.qlinear")
    calls = []
    for name in ("mx.quantize_blocks", "mx.dequantize_tensor"):
        home, attr = name.split(".")
        original = getattr(importlib.import_module(f"mxsim.{home}"), attr)

        def counting(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        for mod_name in LAYERS[name][0]:
            monkeypatch.setattr(importlib.import_module(f"mxsim.{mod_name}"), attr, counting)

    def counted(fn, *args, **kwargs):
        calls.clear()
        out = fn(*args, **kwargs)
        return out, (calls.count("mx.quantize_blocks"), calls.count("mx.dequantize_tensor"))

    rng = np.random.default_rng(0)
    _, n = counted(sweep.recon_error_cell, rng.standard_normal(1024), "E8M0", 32, None)
    assert n == (1, 1)
    cfg = qlinear.QLinearConfig()
    X, W = rng.standard_normal((8, 64)), rng.standard_normal((4, 64))
    (Y, ctx), n = counted(qlinear.forward, X, W, cfg)
    assert n == (2, 2)  # X and W
    _, n = counted(qlinear.backward, np.ones_like(Y), ctx, cfg)
    assert n == (2, 2)  # the incoming gradient, once per matmul
