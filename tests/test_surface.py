"""The settable surface: the fields of every configuration record and the
parameters of the functions that read fixed settings.  A new setting has to
change a list here, so that it is added on purpose."""

import argparse
import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from mxsim import cli, formats, hadamard, mx, qgrad, qlinear, sweep, trainer

FIELDS = {
    mx.BlockSpec: "block_size, scale_format, beta, scale_rounding, elem_rounding, zero_mode",
    mx.QuantizedTensor: ("shape, scales, elements, spec, blocks, z, s_ideal, global_scale, "
                         "rescale"),
    qgrad.GradConfig: "elem_estimator, scale_mode, scale_q_estimator, tensor_mode",
    hadamard.HadamardSpec: "seed, mode",
    qlinear.QLinearConfig: "spec, grad, hadamard, tensor_scaling, sr_policy, quantize",
    trainer.TaskSpec: "kind, n_samples, dim, n_classes, seed, noise_std",
    trainer.TrainConfig: "qcfg, hidden, epochs, batch_size, lr, seed, loss_scaling",
    trainer.LossScaler: "enabled",
    sweep.SweepConfig: ("scale_format, block_size, max_grad, quant_grad, hadamard, "
                        "scale_grad, sr, optimiser, loss_scaling, round_mode, "
                        "tensor_scaling, tensor_grad, nan_mode"),
    sweep.SweepGrid: ("scale_formats, max_grads, round_modes, quant_grads, scale_grads, "
                      "tensor_grads, optimisers, loss_scalings, tensor_scalings, srs, "
                      "hadamards"),
}

PARAMETERS = {
    formats.round_array: "x, fmt, mode='TiesToEven', rng=None",
    mx.quantize_scales: "s, spec, rng=None",
    mx.quantize_blocks: "X, spec, tensor_scaling=False, rng=None",
    mx.nvfp4_rescale_constant: "spec",
    mx.to_bytes: "qt",
    mx.z_values: "blocks, beta, mask=None",
    hadamard.step_signs: "spec, step, num_blocks, l",
    qlinear.forward: "X, W, cfg, seed=0, step=0",
    qgrad._spline_slope: "x, fmt",
    qgrad._spline_slope_table: "fmt",
    qgrad.q_spline_grad: "x, fmt",
    qgrad.q_baseline: "x, fmt",
    qgrad.q_baseline_grad: "x, fmt",
    qgrad.q_sigmoid: "x, fmt",
    qgrad.q_sigmoid_grad: "x, fmt",
    qgrad.dZ: "blocks, mode, beta=40.0, mask=None",
    qgrad.assemble_df_dX: "res, cfg",
    qgrad.tensor_scale_grad: "res",
    trainer.adam_step: "params, grads, state",
    trainer.gen_synthetic_classification: "spec",
    sweep.recon_error_cell: "x, scale_format, block_size, beta, work=None",
    sweep.recon_error_experiment: ("formats=('E8M0', 'E4M3', 'UE5M3'), "
                                   "block_sizes=(8, 16, 32, 64, 128), seed=0, "
                                   "n_elements=65536"),
    sweep.build_qlinear_config: "cfg, seed=0",
}


#: The arguments of each CLI subcommand, in parser order.
CLI_OPTIONS = {
    "recon": "--format, --block-size, --out, --seed",
    "train": "--config, --out, --seed",
    "sweep": "--config, --jobs, --limit, --out, --seed",
    "pareto": "results, --out",
}


def _render(fn) -> str:
    out, star = [], False
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and not star:
            out.append("*")
            star = True
        out.append(p.name if p.default is p.empty else f"{p.name}={p.default!r}")
    return ", ".join(out)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_record_fields(cls):
    assert ", ".join(f.name for f in fields(cls) if f.init) == FIELDS[cls]


def test_loss_scaler_state_is_not_settable():
    assert [f.name for f in fields(trainer.LossScaler) if not f.init] == ["scale",
                                                                          "good_steps"]


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_function_parameters(fn):
    assert _render(fn) == PARAMETERS[fn]


def test_cli_reads_no_environment_variable():
    tree = ast.parse(Path(cli.__file__).read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
              for a in n.names}
    assert not names & {"os", "environ", "getenv", "environb", "getenvb"}


def test_cli_options():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: ", ".join("/".join(a.option_strings) or a.dest
                        for a in parser._actions if a.dest != "help")
        for name, parser in sub.choices.items()
    }
    assert options == CLI_OPTIONS
