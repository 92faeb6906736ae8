"""Acceptance suite: ten end-to-end criteria with stated tolerances.

Each test prints exactly one ``CRITERION n ... PASS/FAIL`` line with
capture disabled, so the overall verdict is readable from any pytest run.
"""

import time

import numpy as np
import pytest

from mxsim.formats import (
    E2M1,
    FORMATS,
    STOCHASTIC,
    TIES_TO_EVEN,
    TOWARD_POSITIVE,
    decode_array,
    encode_array,
    get_format,
    grid,
    round_array,
)
from mxsim.hadamard import (
    HADAMARD_ALL,
    HADAMARD_NONE,
    HadamardSpec,
    block_signs,
    sylvester,
    transform_along_axis,
)
from mxsim.mx import (
    BlockSpec,
    QuantizedTensor,
    ZERO_NEAREST_SUBNORMAL,
    ZERO_TO_ONE,
    dequantize_tensor,
    quantize_blocks,
    quantize_tensor,
    z_values,
)
from mxsim.qgrad import (
    EST_SIGMOID,
    GradConfig,
    SCALE_GRAD_SOFTMAX,
    TENSOR_GRAD_ABSMAX,
    assemble_df_dX,
    assemble_dh_dX,
    estimator_value,
)
from mxsim.qlinear import QLinearConfig, forward
from mxsim.sweep import (
    complexity_points,
    recon_error_experiment,
    score,
)
from mxsim.trainer import TASK_GAUSSIAN, TaskSpec, TrainConfig, train

from reference_rows import ALL_ROWS, KNOWN_COMPLEXITY_DEFECTS, baseline_minimum
from test_sweep import config_from_row, score_interval
from test_trainer import dense_reference_train


def _verdict(number: int, name: str):
    """Decorator printing one uncaptured pass/fail line per criterion."""

    def wrap(fn):
        def runner(capsys):
            start = time.monotonic()
            try:
                detail = fn() or ""
            except BaseException as exc:
                with capsys.disabled():
                    print(
                        f"CRITERION {number:2d} ({name}): FAIL - {exc}",
                        flush=True,
                    )
                raise
            elapsed = time.monotonic() - start
            suffix = f" [{elapsed:.1f}s]"
            sep = " - " if detail else ""
            with capsys.disabled():
                print(
                    f"CRITERION {number:2d} ({name}): PASS{sep}{detail}{suffix}",
                    flush=True,
                )

        runner.__name__ = fn.__name__
        return runner

    return wrap


# ---------------------------------------------------------------------------
# 1. Format exactness
# ---------------------------------------------------------------------------


def _rtn_oracle(x: np.ndarray, fmt) -> np.ndarray:
    """Brute-force nearest grid value (relative metric for exponent-only)."""
    g = grid(fmt)
    out = np.empty_like(x)
    for start in range(0, x.size, 4096):
        chunk = x[start : start + 4096]
        diff = np.abs(chunk[:, None] - g[None, :])
        if fmt.exponent_only:
            diff = diff / g[None, :]
        out[start : start + 4096] = g[np.argmin(diff, axis=1)]
    return out


@_verdict(1, "format exactness")
def test_criterion_01_format_exactness():
    deadline = time.monotonic() + 10.0
    rng = np.random.default_rng(101)
    for fmt in FORMATS.values():
        g = grid(fmt)
        # Exhaustive round-trip is cheap: every grid is at most 2^11 values.
        assert g.size <= 2**11, fmt.name
        assert np.all(np.diff(g) > 0), fmt.name
        codes = encode_array(g, fmt)
        back = decode_array(codes, fmt)
        np.testing.assert_array_equal(back, g, err_msg=fmt.name)
        assert len(set(codes.tolist())) == codes.size, fmt.name

        # Random inputs spanning below, inside, and above the finite range.
        n = 10**5
        lo, hi = fmt.min_positive, fmt.max_finite
        mags = np.exp(
            rng.uniform(np.log(lo) - 2.0, np.log(hi) + 2.0, size=n)
        )
        x = mags * rng.choice([-1.0, 1.0], size=n) if fmt.signed else mags
        got = round_array(x, fmt, TIES_TO_EVEN)
        want = _rtn_oracle(x, fmt)
        mismatches = int(np.sum(got != want))
        assert mismatches == 0, f"{fmt.name}: {mismatches} RTN mismatches"
    assert time.monotonic() <= deadline, "runtime budget of 10 s exceeded"
    return f"{len(FORMATS)} formats, 1e5 RTN samples each, 0 mismatches"


# ---------------------------------------------------------------------------
# 2. Stochastic-rounding unbiasedness
# ---------------------------------------------------------------------------


@_verdict(2, "SR unbiasedness")
def test_criterion_02_sr_unbiasedness():
    deadline = time.monotonic() + 10.0
    rng = np.random.default_rng(202)
    names = sorted(FORMATS)
    checked = 0
    for trial in range(20):
        fmt = FORMATS[names[trial % len(names)]]
        g = grid(fmt)
        positive = g[g > 0]
        k = int(rng.integers(len(positive) // 4, 3 * len(positive) // 4))
        lo, hi = positive[k], positive[k + 1]
        x = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
        draws = round_array(
            np.full(10**5, x), fmt, STOCHASTIC, np.random.default_rng(trial)
        )
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert se > 0, (fmt.name, x)
        assert abs(draws.mean() - x) <= 4 * se, (fmt.name, x)
        checked += 1
    assert checked == 20
    assert time.monotonic() <= deadline, "runtime budget of 10 s exceeded"
    return "20 (format, x) pairs within 4 standard errors over 1e5 draws"


# ---------------------------------------------------------------------------
# 3. Gradient fidelity against central finite differences
# ---------------------------------------------------------------------------


def _smooth_block_forward(blocks, spec, elem_est, scale_est):
    z = z_values(blocks, spec.beta)
    s = E2M1.max_finite / z
    s_q = estimator_value(s, spec.scale_format, scale_est)
    q_vals = estimator_value(s_q[:, None] * blocks, E2M1, elem_est)
    return q_vals / s_q[:, None], z, s, s_q, q_vals


def _smooth_record(spec, blocks, z, s, s_q, q_vals, g=None):
    """The smooth surrogate's quantities as a quantization record."""
    return QuantizedTensor(shape=blocks.shape, scales=s_q, elements=q_vals, spec=spec,
                           blocks=blocks, z=z, s_ideal=s, global_scale=g)


@_verdict(3, "gradient fidelity")
def test_criterion_03_gradient_fidelity():
    deadline = time.monotonic() + 30.0
    rng = np.random.default_rng(303)
    l, n_blocks, beta = 8, 1250, 4.0  # 10^4 points
    spec = BlockSpec(block_size=l, beta=beta)
    elem_est = EST_SIGMOID
    scale_est = EST_SIGMOID
    cfg = GradConfig(
        elem_estimator=elem_est,
        scale_mode=SCALE_GRAD_SOFTMAX,
        scale_q_estimator=scale_est,
    )
    step = 1e-5

    # --- per-element quantizer gradient (block-local path) ---
    blocks = rng.uniform(-3.0, 3.0, size=(n_blocks, l))
    blocks[np.abs(blocks) < 0.05] = 0.5  # keep clear of surrogate knots
    _, z, s, s_q, q_vals = _smooth_block_forward(blocks, spec, elem_est, scale_est)
    got = assemble_df_dX(_smooth_record(spec, blocks, z, s, s_q, q_vals), cfg)
    rel_err = np.empty_like(blocks)
    for j in range(l):
        bp, bm = blocks.copy(), blocks.copy()
        bp[:, j] += step
        bm[:, j] -= step
        fp, *_ = _smooth_block_forward(bp, spec, elem_est, scale_est)
        fm, *_ = _smooth_block_forward(bm, spec, elem_est, scale_est)
        fd = (fp[:, j] - fm[:, j]) / (2 * step)
        rel_err[:, j] = np.abs(got[:, j] - fd) / np.maximum(np.abs(fd), 1e-3)
    frac_block = float(np.mean(rel_err <= 1e-3))
    assert frac_block >= 0.99, f"block-local gradient: only {frac_block:.4f} ok"

    # --- tensor-scaled gradient (global scale path) ---
    raw = rng.uniform(-3.0, 3.0, size=(n_blocks, l))
    raw[np.abs(raw) < 0.05] = 0.5
    raw[0, 0] = 5.0  # unambiguous global maximum

    def tensor_forward(raw_blocks):
        z_raw = z_values(raw_blocks, beta)
        g = z_raw.max()
        U = raw_blocks / g
        f, z, s, s_q, q_vals = _smooth_block_forward(U, spec, elem_est, scale_est)
        return g * f, z_raw, U, z, s, s_q, q_vals, g

    _, z_raw, U, z, s, s_q, q_vals, g = tensor_forward(raw)
    cfg_t = GradConfig(
        elem_estimator=elem_est,
        scale_mode=SCALE_GRAD_SOFTMAX,
        scale_q_estimator=scale_est,
        tensor_mode=TENSOR_GRAD_ABSMAX,
    )
    got_h = assemble_dh_dX(_smooth_record(spec, U, z, s, s_q, q_vals, g), cfg_t)

    # Per-element FD, vectorized over blocks: each row's perturbation only
    # touches its own statistic, so the global factor is recomputed per row
    # as max(everyone else's statistic, own perturbed statistic).
    top = np.sort(z_raw)[-2:]
    others_max = np.where(z_raw == top[-1], top[-2], top[-1])

    def column_values(raw2, j):
        z2 = z_values(raw2, beta)
        g2 = np.maximum(others_max, z2)
        U2 = raw2 / g2[:, None]
        f2, *_ = _smooth_block_forward(U2, spec, elem_est, scale_est)
        return g2 * f2[:, j]

    rel_err_h = np.empty_like(raw)
    for j in range(l):
        rp, rm = raw.copy(), raw.copy()
        rp[:, j] += step
        rm[:, j] -= step
        fd = (column_values(rp, j) - column_values(rm, j)) / (2 * step)
        rel_err_h[:, j] = np.abs(got_h[:, j] - fd) / np.maximum(np.abs(fd), 1e-3)
    frac_tensor = float(np.mean(rel_err_h <= 1e-3))
    assert frac_tensor >= 0.99, f"tensor gradient: only {frac_tensor:.4f} ok"

    # --- fully-STE path is exactly one ---
    ste_spec = BlockSpec(block_size=16)
    res_ste = quantize_blocks(rng.normal(size=160), ste_spec)
    df = assemble_df_dX(res_ste, GradConfig())
    assert np.array_equal(df, np.ones_like(df))
    res_ts = quantize_blocks(rng.normal(size=160), ste_spec, tensor_scaling=True)
    dh = assemble_dh_dX(res_ts, GradConfig())
    assert np.array_equal(dh, np.ones_like(dh))

    assert time.monotonic() <= deadline, "runtime budget of 30 s exceeded"
    return (
        f"FD agreement {frac_block:.3f} (block) / {frac_tensor:.3f} (tensor) "
        ">= 0.99; STE path exactly 1"
    )


# ---------------------------------------------------------------------------
# 4. Hadamard transform
# ---------------------------------------------------------------------------


@_verdict(4, "hadamard")
def test_criterion_04_hadamard():
    for l in (16, 32):
        H = sylvester(l)
        err = np.abs(H.T @ H - np.eye(l)).max()
        assert err <= 1e-12, f"l={l}: orthogonality error {err}"

        # A single-spike block spreads to uniform magnitude |c| / sqrt(l).
        c = -3.75
        x = np.zeros((1, l))
        x[0, 2] = c
        t = transform_along_axis(x, 1, block_signs(5, 1, l))
        assert np.abs(t).max() == abs(c) / np.sqrt(l)
        assert np.abs(t).min() == abs(c) / np.sqrt(l)

    # With quantization off, the transform pair cancels in the forward pass.
    rng = np.random.default_rng(404)
    X = rng.normal(size=(8, 64))
    W = rng.normal(size=(16, 64))
    base = QLinearConfig(spec=BlockSpec(), quantize=False)
    cfg_none = QLinearConfig(
        spec=BlockSpec(),
        quantize=False,
        hadamard=HadamardSpec(mode=HADAMARD_NONE),
    )
    cfg_all = QLinearConfig(
        spec=BlockSpec(),
        quantize=False,
        hadamard=HadamardSpec(mode=HADAMARD_ALL),
    )
    y_none, _ = forward(X, W, cfg_none)
    y_all, _ = forward(X, W, cfg_all)
    np.testing.assert_allclose(y_all, y_none, atol=1e-8)
    del base
    return "orthogonal to 1e-12; forward invariance 1e-8; spike spread exact"


# ---------------------------------------------------------------------------
# 5. Complexity reproduction
# ---------------------------------------------------------------------------


@_verdict(5, "complexity reproduction")
def test_criterion_05_complexity_reproduction():
    deadline = time.monotonic() + 1.0
    checked = 0
    defects = 0
    for row in ALL_ROWS:
        if row.is_baseline:
            continue
        key = (row.dataset, row.source, row.scale)
        got = complexity_points(config_from_row(row))
        if key in KNOWN_COMPLEXITY_DEFECTS:
            # Source-table erratum: this row's configuration columns sum to
            # 6.0 under the published weights, but the cell prints 7.5.
            assert got == pytest.approx(6.0, abs=5e-4)
            assert row.complexity_points == 7.5
            defects += 1
            continue
        assert got == pytest.approx(row.complexity_points, abs=5e-4), key
        checked += 1
    assert checked >= 60
    assert defects == 1
    assert time.monotonic() <= deadline, "runtime budget of 1 s exceeded"
    return (
        f"{checked} rows exact to 3 decimals "
        f"({defects} documented source-table inconsistency)"
    )


# ---------------------------------------------------------------------------
# 6. Score reproduction
# ---------------------------------------------------------------------------


@_verdict(6, "score reproduction")
def test_criterion_06_score_reproduction():
    deadline = time.monotonic() + 1.0
    # Spot values quoted with zero complexity.
    assert score(2.665, 3.099, 0.0) == pytest.approx(-0.163, abs=5e-4)
    assert score(0.027, 2.188, 0.0) == pytest.approx(-80.086, abs=0.05)
    checked = 0
    for row in ALL_ROWS:
        if row.is_baseline:
            continue
        m_ref = baseline_minimum(ALL_ROWS, row.dataset)
        lo, hi = score_interval(m_ref, row.val_loss, row.complexity_points)
        assert lo - 0.002 <= row.score <= hi + 0.002, (
            row.dataset,
            row.source,
            row.scale,
        )
        checked += 1
    assert checked >= 60
    assert time.monotonic() <= deadline, "runtime budget of 1 s exceeded"
    return f"{checked} rows within |dS| <= 0.002 given 3-decimal loss rounding"


# ---------------------------------------------------------------------------
# 7. Desk-scale training sanity
# ---------------------------------------------------------------------------


@_verdict(7, "training sanity")
def test_criterion_07_training_sanity():
    start = time.monotonic()
    # Observation noise gives both runs a shared irreducible floor, so the
    # 2x bound measures quantization overhead rather than distance from zero.
    task = TaskSpec(kind=TASK_GAUSSIAN, n_samples=5000, dim=64, seed=7, noise_std=2.0)
    qcfg = QLinearConfig(spec=BlockSpec(block_size=32))  # E8M0, STE, RTN
    cfg = TrainConfig(qcfg=qcfg, hidden=(64, 32), epochs=20, seed=7)

    quantized = train(task, cfg)
    from dataclasses import replace

    dense_cfg = replace(cfg, qcfg=replace(qcfg, quantize=False))
    dense = train(task, dense_cfg)

    ref_params = dense_reference_train(task, dense_cfg)
    for a, b in zip(dense.final_params, ref_params):
        np.testing.assert_allclose(a, b, atol=1e-12)

    assert not quantized.diverged
    final_q = quantized.train_losses[-1]
    final_d = dense.train_losses[-1]
    assert final_q <= 2.0 * final_d, f"{final_q} vs dense {final_d}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"training took {elapsed:.1f}s"
    return (
        f"final MSE {final_q:.4f} <= 2x dense {final_d:.4f}; "
        "dense path matches reference to 1e-12"
    )


# ---------------------------------------------------------------------------
# 8. Scale-deviation property
# ---------------------------------------------------------------------------


@_verdict(8, "scale deviation")
def test_criterion_08_scale_deviation():
    e8m0 = get_format("E8M0")
    s = np.logspace(
        np.log10(e8m0.min_positive), np.log10(e8m0.max_finite), 10**4
    )
    nearest = round_array(s, e8m0, TIES_TO_EVEN)
    ratio = s / nearest
    assert ratio.min() >= 2.0 / 3.0 - 1e-12
    assert ratio.max() <= 4.0 / 3.0 + 1e-12

    upward = round_array(s, e8m0, TOWARD_POSITIVE)
    ratio_up = s / upward
    assert ratio_up.max() <= 1.0 + 1e-12
    assert ratio_up.min() > 0.5

    e4m3 = get_format("E4M3")
    s4 = np.logspace(
        np.log10(e4m3.min_positive), np.log10(e4m3.max_finite), 10**4
    )
    rounded4 = round_array(s4, e4m3, TIES_TO_EVEN)
    rounded4 = np.where(rounded4 <= 0, e4m3.min_positive, rounded4)
    deviation = np.abs(s4 / rounded4 - 1.0)
    location = s4[int(np.argmax(deviation))]
    fourth_positive = grid(e4m3)[grid(e4m3) > 0][3]
    assert location < fourth_positive, (location, fourth_positive)
    return (
        "E8M0 nearest in [2/3, 4/3], upward in (1/2, 1]; "
        "E4M3 worst case below 4th positive value"
    )


# ---------------------------------------------------------------------------
# 9. Zero and degenerate-block handling
# ---------------------------------------------------------------------------


@_verdict(9, "zero/NaN handling")
def test_criterion_09_zero_nan_handling():
    tiny = np.full(16, 5e-324)  # smallest positive double
    zeros = np.zeros(16)
    # Huge magnitudes make the ideal multiplier round to zero in a scale
    # format whose grid contains zero (E4M3), exercising the fallback.
    huge = np.full(16, 1e30)
    e4m3 = get_format("E4M3")
    outputs = {}
    for mode in (ZERO_NEAREST_SUBNORMAL, ZERO_TO_ONE):
        spec = BlockSpec(block_size=16, scale_format=e4m3, zero_mode=mode)
        with np.errstate(divide="raise", invalid="raise"):
            deq_zero = dequantize_tensor(quantize_tensor(zeros, spec))
            deq_tiny = dequantize_tensor(quantize_tensor(tiny, spec))
            qt_huge = quantize_tensor(huge, spec)
            deq_huge = dequantize_tensor(qt_huge)
        assert np.isfinite(deq_zero).all() and np.isfinite(deq_tiny).all()
        assert np.isfinite(deq_huge).all()
        np.testing.assert_array_equal(deq_zero, 0.0)
        np.testing.assert_array_equal(deq_tiny, 0.0)
        outputs[mode] = (qt_huge.scales.copy(), deq_huge)

    # Where the multiplier underflows, the two modes substitute different
    # fallback scales and therefore dequantize differently.
    scale_ns = outputs[ZERO_NEAREST_SUBNORMAL][0][0]
    scale_to = outputs[ZERO_TO_ONE][0][0]
    assert scale_ns == e4m3.min_positive
    assert scale_to == 1.0
    deq_ns = outputs[ZERO_NEAREST_SUBNORMAL][1]
    deq_to = outputs[ZERO_TO_ONE][1]
    np.testing.assert_array_equal(deq_ns, 6.0 / e4m3.min_positive)
    np.testing.assert_array_equal(deq_to, 6.0)
    return "degenerate blocks safe in both modes; fallback scales as defined"


# ---------------------------------------------------------------------------
# 10. Reconstruction-error experiment
# ---------------------------------------------------------------------------


@_verdict(10, "reconstruction experiment")
def test_criterion_10_recon_experiment():
    import pathlib
    import tempfile

    from mxsim.sweep import write_recon_csv

    start = time.monotonic()
    rows = recon_error_experiment(n_elements=1 << 16)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "recon.csv"
        write_recon_csv(str(path), rows)
        header = path.read_text().splitlines()[0]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"experiment took {elapsed:.1f}s"
    assert header == "format,l,scale,beta,mean_rel_err,median_rel_err"
    # Every advertised slice is present for every format.
    formats = {r["format"] for r in rows}
    assert formats == {"E8M0", "E4M3", "UE5M3"}
    assert all(np.isfinite(float(r["mean_rel_err"])) for r in rows)

    # Fixed-point inputs reconstruct exactly.
    fixed = np.tile([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, -2.0], 8) * 4.0
    spec = BlockSpec(block_size=32)
    deq = dequantize_tensor(quantize_tensor(fixed, spec))
    np.testing.assert_array_equal(deq, fixed)
    rel = np.abs(fixed - deq) / np.abs(fixed)
    assert rel.max() == 0.0
    return f"{len(rows)} grid cells; zero error on fixed-point inputs"
