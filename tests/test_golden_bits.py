"""The bit ledger: quantization records, gradient assembly and layer
operands keep the digests in ``golden_bits.json``, which
``scripts/record_golden.py`` writes.  None of them passes through a matrix
product, so they hold on every BLAS kernel.

The ledger is computed on both quantization paths: the compiled absmax
kernel and the NumPy code it replaces.  Whole training runs and the recon
grid, which do pass through matrix products, are compared between the two
paths in this one process instead, so that holds on every BLAS kernel too."""

import importlib.util
import json
from pathlib import Path

import pytest

from mxsim import mx, sweep, trainer
from mxsim.sweep import SweepConfig, run_configs

ROOT = Path(__file__).resolve().parents[1]


def _need_kernel():
    if mx._KERNEL is None:
        pytest.skip("the compiled kernel is not built on this host")


def _load_recorder():
    spec = importlib.util.spec_from_file_location("record_golden",
                                                  ROOT / "scripts" / "record_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = ROOT / "tests" / "golden_bits.json"


@pytest.fixture(scope="module")
def ledgers():
    """The committed ledger and the one of the loaded path: the kernel, on a
    host that built it."""
    return json.loads(GOLDEN.read_text()), _load_recorder().ledger()


@pytest.fixture(scope="module")
def numpy_ledger():
    """The ledger with the kernel off, where the loaded path is the kernel."""
    _need_kernel()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mx, "_KERNEL", None)
        return _load_recorder().ledger()


def _same_section(recorded, now, section):
    assert now[section].keys() == recorded[section].keys()
    moved = sorted(k for k in recorded[section] if now[section][k] != recorded[section][k])
    assert not moved, f"{len(moved)} of {len(recorded[section])} digests moved: {moved[:5]}"


@pytest.mark.parametrize("section", ["records", "gradients", "layer"])
def test_ledger_section_keeps_its_digests(ledgers, section):
    _same_section(*ledgers, section)


@pytest.mark.parametrize("section", ["records", "gradients", "layer"])
def test_numpy_path_keeps_the_ledger(ledgers, numpy_ledger, section):
    _same_section(ledgers[0], numpy_ledger, section)


def test_recorder_writes_the_committed_file(ledgers):
    assert _load_recorder().render(ledgers[1]) == GOLDEN.read_text()


def test_ledger_sizes(ledgers):
    recorded = ledgers[0]
    # 2 inputs x 3 formats x 3 block sizes x 2 statistics x 9 rounding pairs
    # x 2 tensor-scaling states; 2 inputs x 12 cover rows; 2 cases x 3 SR.
    assert [len(recorded[s]) for s in ("records", "gradients", "layer")] == [648, 24, 6]


# A pairwise cover of scale format x SR policy x scale rounding x tensor
# scaling: row (i, j) of a 3 x 3 orthogonal array, tensor scaling on for
# its level 1.  The inputs (dim 40) and the batches (48, then 42) need
# padding at both block sizes.
TRAIN_COVER = [
    SweepConfig(scale_format=fmt, block_size=16 if fmt == "E4M3" else 32, sr=sr,
                round_mode=("TiesToEven", "Stochastic", "TowardPositive")[(i + j) % 3],
                tensor_scaling=(i + 2 * j) % 3 == 1,
                tensor_grad="ignore" if (i + 2 * j) % 3 == 1 else "N/A")
    for i, fmt in enumerate(("E8M0", "E4M3", "UE5M3"))
    for j, sr in enumerate(("None", "backward", "all"))
]
# The smoothed statistic: the log-sum-exp forward (softsoftmax) or the hard
# one (hardsoftmax), each with the softmax derivative, under the absmax
# tensor-scale gradient, Hadamard and SR everywhere as sweep-mix runs them,
# and without tensor scaling.
SOFT_COVER = [
    SweepConfig(scale_format=fmt, block_size=l, max_grad=max_grad, quant_grad="spline",
                hadamard=hadamard, sr=sr, round_mode=round_mode, tensor_scaling=ts,
                tensor_grad=tensor_grad)
    for fmt, l, max_grad, hadamard, sr, round_mode, ts, tensor_grad in [
        ("E8M0", 32, "softsoftmax", "all", "all", "Stochastic", True, "absmax"),
        ("E4M3", 16, "softsoftmax", "all", "all", "Stochastic", True, "absmax"),
        ("UE5M3", 16, "softsoftmax", "None", "backward", "TiesToEven", True, "STE"),
        ("E8M0", 32, "softsoftmax", "None", "None", "TowardPositive", False, "N/A"),
        ("E4M3", 16, "hardsoftmax", "all", "all", "Stochastic", True, "absmax"),
    ]
]
TASK = trainer.TaskSpec(n_samples=100, dim=40, seed=3, noise_std=0.5)
TRAIN = trainer.TrainConfig(hidden=(24,), epochs=2, batch_size=48, seed=4)


def _outputs():
    runs = []
    for cfg in TRAIN_COVER + SOFT_COVER:
        rec = trainer.train(TASK, run_configs(TRAIN, cfg)[0])
        runs.append((rec.train_losses, rec.val_losses,
                     [p.tobytes() for p in rec.final_params], rec.steps, rec.diverged))
    # Both grids hold log-sum-exp cells; 250 values pad every block size.
    recon = [sweep.recon_error_experiment(n_elements=n, seed=5) for n in (256, 250)]
    return runs, recon


def test_training_and_recon_match_on_both_paths(monkeypatch):
    _need_kernel()
    kernel = _outputs()
    monkeypatch.setattr(mx, "_KERNEL", None)
    assert _outputs() == kernel
