"""The benchmark's tracer patches mxsim functions at every module binding
listed in ``perfbench/spans.py``; each binding must exist and be the
function its defining module exports, or a traced run fails."""

import importlib
import importlib.util
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


@pytest.mark.parametrize("statistic, tensor_scaling, z_calls", [
    ("Absmax", False, 1),
    ("Absmax", True, 1),  # the normalized maximum is z / g
    ("LogSumExp", True, 2),  # recomputed on the normalized blocks
])
def test_quantize_blocks_calls_the_traced_helpers(monkeypatch, statistic, tensor_scaling,
                                                  z_calls):
    # The tracer times z_values and quantize_scales at their mx bindings;
    # folding either into quantize_blocks would make its metrics read 0.
    mx = importlib.import_module("mxsim.mx")
    z = mx.ZFunction(statistic, beta=None if statistic == "Absmax" else 40.0)
    calls = []
    for attr in ("z_values", "quantize_scales"):
        def counting(*args, _attr=attr, _fn=getattr(mx, attr), **kwargs):
            calls.append(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mx, attr, counting)
    mx.quantize_blocks(np.ones((4, 64)), mx.BlockSpec(z=z), tensor_scaling=tensor_scaling)
    assert calls.count("z_values") == z_calls
    assert calls.count("quantize_scales") == 1


def test_recon_grid_calls_the_traced_cell(monkeypatch):
    # The tracer times each grid cell at the sweep binding of
    # recon_error_cell; a grid that bypassed it would read 0 calls.
    sweep = importlib.import_module("mxsim.sweep")
    calls = []

    def counting(*args, _fn=sweep.recon_error_cell, **kwargs):
        calls.append(kwargs["work"].shape)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(sweep, "recon_error_cell", counting)
    rows = sweep.recon_error_experiment(formats=("E8M0",), block_sizes=(8, 16),
                                        tensor_scales=(1.0,), betas=(40.0,),
                                        n_elements=64)
    assert calls == [(3, 64)] * len(rows)
