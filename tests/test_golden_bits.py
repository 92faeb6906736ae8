"""The bit ledger: quantization records, gradient assembly and layer
operands keep the digests in ``golden_bits.json``, which
``scripts/record_golden.py`` writes.  None of them passes through a matrix
product, so they hold on every BLAS kernel."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_recorder():
    spec = importlib.util.spec_from_file_location("record_golden",
                                                  ROOT / "scripts" / "record_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = ROOT / "tests" / "golden_bits.json"


@pytest.fixture(scope="module")
def ledgers():
    return json.loads(GOLDEN.read_text()), _load_recorder().ledger()


@pytest.mark.parametrize("section", ["records", "gradients", "layer"])
def test_ledger_section_keeps_its_digests(ledgers, section):
    recorded, now = ledgers
    assert now[section].keys() == recorded[section].keys()
    moved = sorted(k for k in recorded[section] if now[section][k] != recorded[section][k])
    assert not moved, f"{len(moved)} of {len(recorded[section])} digests moved: {moved[:5]}"


def test_recorder_writes_the_committed_file(ledgers):
    assert _load_recorder().render(ledgers[1]) == GOLDEN.read_text()


def test_ledger_sizes(ledgers):
    recorded = ledgers[0]
    # 2 inputs x 3 formats x 3 block sizes x 2 statistics x 9 rounding pairs
    # x 2 tensor-scaling states; 2 inputs x 12 cover rows; 2 cases x 3 SR.
    assert [len(recorded[s]) for s in ("records", "gradients", "layer")] == [648, 24, 6]
