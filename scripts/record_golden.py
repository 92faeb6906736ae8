#!/usr/bin/env python3
"""Record the bit ledger: sha256 digests of quantization outputs that no
matrix product touches, so that they do not depend on the BLAS kernel.

    PYTHONPATH=src python scripts/record_golden.py [--out tests/golden_bits.json]

``tests/test_golden_bits.py`` recomputes :func:`ledger` and compares it with
the committed file.  The file is re-recorded only by a change that means to
move these bits, and that change says why; never to hide a mismatch.

Three sections, each digest a sha256 of raw bytes:

- ``records``: each ``quantize_blocks`` record of the grid scale format
  (E8M0, E4M3, UE5M3) x block size (8, 16, 32) x statistic (Absmax,
  LogSumExp at beta 40) x scale rounding x element rounding x tensor
  scaling, on two inputs.  The digest covers the scales, the elements as
  float64 (so a -0.0 shows) and ``to_bytes``.
- ``gradients``: ``assemble_dh_dX`` on those records for a pairwise cover of
  the sweep's ``max_grad``, ``quant_grad``, ``scale_grad`` and
  ``tensor_grad`` axes, one digest per input and cover row.
- ``layer``: the operands that ``qlinear.forward`` and ``backward`` hand to
  ``quantize_blocks`` and the records they get back, for E8M0 and E4M3
  scales under each stochastic-rounding policy, without Hadamard.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from itertools import product
from pathlib import Path

import numpy as np

from mxsim import qlinear
from mxsim.formats import ROUNDING_MODES, STOCHASTIC, get_format
from mxsim.mx import BlockSpec, quantize_blocks, to_bytes
from mxsim.qgrad import GradConfig, assemble_dh_dX

OUT = Path(__file__).resolve().parent.parent / "tests" / "golden_bits.json"

SCALE_FORMATS = ("E8M0", "E4M3", "UE5M3")
BLOCK_SIZES = (8, 16, 32)
STATISTICS = {"Absmax": None, "LogSumExp": 40.0}  # name: BlockSpec.beta

# (max_grad, quant_grad, scale_grad, tensor_grad): every pair of values of
# two axes occurs in some row.
GRAD_COVER = (
    ("STE", "STE", "STE", "ignore"),
    ("STE", "baseline", "baseline", "absmax"),
    ("STE", "spline", "spline", "STE"),
    ("softsoftmax", "STE", "baseline", "STE"),
    ("softsoftmax", "baseline", "spline", "ignore"),
    ("softsoftmax", "spline", "STE", "absmax"),
    ("hardsoftmax", "STE", "spline", "absmax"),
    ("hardsoftmax", "baseline", "STE", "STE"),
    ("hardsoftmax", "spline", "baseline", "ignore"),
    ("absmax", "STE", "STE", "ignore"),
    ("absmax", "baseline", "baseline", "absmax"),
    ("absmax", "spline", "spline", "STE"),
)


def inputs() -> dict[str, np.ndarray]:
    """A seeded matrix with outlier rows (a spike, a tiny row, a zero block)
    and a seeded tensor whose rows need padding at every block size."""
    rng = np.random.default_rng(20)
    outliers = rng.standard_normal((6, 64))
    outliers[1, 3] = 300.0
    outliers[4] *= 1e-6
    outliers[5, :32] = 0.0
    return {"outliers": outliers, "padded": rng.standard_normal((3, 5, 20))}


def _sha(*arrays_or_bytes) -> str:
    h = hashlib.sha256()
    for a in arrays_or_bytes:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _record_key(name, fmt, l, stat, scale_rounding, elem_rounding, ts) -> str:
    return f"{name} {fmt} l={l} {stat} scale={scale_rounding} elem={elem_rounding} ts={int(ts)}"


def quantization_records() -> dict[str, object]:
    """Every record of the grid, by key."""
    records = {}
    for name, x in inputs().items():
        for fmt, l, stat, sr, er, ts in product(SCALE_FORMATS, BLOCK_SIZES, STATISTICS,
                                                ROUNDING_MODES, ROUNDING_MODES, (False, True)):
            spec = BlockSpec(block_size=l, scale_format=get_format(fmt), beta=STATISTICS[stat],
                             scale_rounding=sr, elem_rounding=er)
            rng = np.random.default_rng(7)
            records[_record_key(name, fmt, l, stat, sr, er, ts)] = quantize_blocks(
                x, spec, tensor_scaling=ts, rng=rng)
    return records


def gradient_digests(records) -> dict[str, str]:
    """One digest per input and cover row, over 18 records each: every scale
    format, block size and tensor-scaling state, the rounding pair rotating."""
    pairs = list(product(ROUNDING_MODES, ROUNDING_MODES))
    out = {}
    for name in inputs():
        for i, (max_grad, quant_grad, scale_grad, tensor_grad) in enumerate(GRAD_COVER):
            stat = "LogSumExp" if max_grad == "softsoftmax" else "Absmax"
            grads = []
            for j, (fmt, l, ts) in enumerate(product(SCALE_FORMATS, BLOCK_SIZES, (False, True))):
                sr, er = pairs[(i + j) % len(pairs)]
                res = records[_record_key(name, fmt, l, stat, sr, er, ts)]
                cfg = GradConfig(elem_estimator=quant_grad, scale_mode=max_grad,
                                 scale_q_estimator=scale_grad,
                                 tensor_mode=tensor_grad if ts else "ignore")
                grads.append(assemble_dh_dX(res, cfg))
            out[f"{name} {max_grad} {quant_grad} {scale_grad} {tensor_grad}"] = _sha(*grads)
    return out


LAYER_CASES = {
    "E8M0": dict(spec=BlockSpec(block_size=32)),
    "E4M3": dict(spec=BlockSpec(block_size=16, scale_format=get_format("E4M3"),
                                scale_rounding=STOCHASTIC), tensor_scaling=True),
}


def layer_digests() -> dict[str, str]:
    """Each case's quantize_blocks operands and records, in call order, over
    one forward and backward step."""
    rng = np.random.default_rng(21)
    X, W, gY = (rng.standard_normal(s) for s in ((24, 40), (20, 40), (24, 20)))
    X[3, 7] = 50.0
    out = {}
    original = qlinear.quantize_blocks
    for (case, kw), sr in product(LAYER_CASES.items(), qlinear.SR_POLICIES):
        parts = []

        def capture(a, *args, **kwargs):
            res = original(a, *args, **kwargs)
            parts.extend((np.asarray(a.shape, dtype=np.float64), a,
                          res.scales, res.elements))
            return res

        qlinear.quantize_blocks = capture
        try:
            cfg = qlinear.QLinearConfig(sr_policy=sr, **kw)
            _, ctx = qlinear.forward(X, W, cfg, seed=3, step=5)
            qlinear.backward(gY, ctx, cfg)
        finally:
            qlinear.quantize_blocks = original
        out[f"{case} sr={sr}"] = _sha(*parts)
    return out


def ledger() -> dict[str, dict[str, str]]:
    records = quantization_records()
    return {
        "records": {k: _sha(r.scales, r.elements, to_bytes(r))
                    for k, r in records.items()},
        "gradients": gradient_digests(records),
        "layer": layer_digests(),
    }


def render(digests: dict[str, dict[str, str]]) -> str:
    """The ledger file's text."""
    return json.dumps(digests, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, default=OUT)
    args = p.parse_args(argv)
    args.out.write_text(render(ledger()))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
