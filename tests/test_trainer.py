"""Optimizer, loss scaler, data generators, and the training loop."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mxsim import trainer
from mxsim.mx import BlockSpec
from mxsim.qlinear import NonFiniteGradientError, QLinearConfig
from mxsim.trainer import (
    AdamState,
    DIVERGENCE_PATIENCE,
    LossScaler,
    TASK_CLASSIFICATION,
    TASK_GAUSSIAN,
    TaskSpec,
    TrainConfig,
    _loss_and_grad,
    adam_step,
    gen_gaussian_regression,
    gen_synthetic_classification,
    init_params,
    train,
)


def _reference_adam_step(params, grads, state):
    """Adam as a fresh temporary per operation: the order ``adam_step``
    keeps in place."""
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    state.t += 1
    b1, b2 = trainer.ADAM_BETA1, trainer.ADAM_BETA2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1**state.t)
        vhat = v / (1 - b2**state.t)
        p -= state.lr * mhat / (np.sqrt(vhat) + trainer.ADAM_EPS)


class TestAdam:
    def test_in_place_update_equals_the_reference_bytes(self):
        rng = np.random.default_rng(8)
        shapes = [(16, 8), (3, 16), (3,), (1,)]
        params = [rng.standard_normal(s) for s in shapes]
        ref = [p.copy() for p in params]
        state, ref_state = AdamState(lr=3e-3), AdamState(lr=3e-3)
        for _ in range(50):
            # Magnitudes from 1e-8 to 1e2, a sign each, and some zeros.
            grads = [rng.choice([-1.0, 1.0], size=s) * 10.0 ** rng.uniform(-8, 2, size=s)
                     * (rng.random(s) > 0.1) for s in shapes]
            adam_step(params, grads, state)
            _reference_adam_step(ref, grads, ref_state)
        for a, b in zip(params + state.m + state.v, ref + ref_state.m + ref_state.v):
            assert a.tobytes() == b.tobytes()

    def test_zero_gradient_keeps_params(self):
        p = np.array([1.0, -2.0])
        state = AdamState(lr=0.1)
        adam_step([p], [np.zeros(2)], state)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_update_bounded_by_lr(self):
        p = np.zeros(3)
        state = AdamState(lr=0.01)
        for _ in range(100):
            before = p.copy()
            adam_step([p], [np.full(3, 7.0)], state)
            assert np.abs(p - before).max() <= 0.01 * 1.001

    def test_scalar_quadratic_convergence(self):
        w = np.array([3.0])
        state = AdamState(lr=0.1)
        for _ in range(500):
            adam_step([w], [2.0 * w], state)
        assert abs(w[0]) < 1e-3


def _scaler(scale, enabled=True):
    """A loss scaler that starts from ``scale``."""
    s = LossScaler(enabled=enabled)
    s.scale = scale
    return s


class TestLossScaler:
    def test_halves_on_nonfinite(self):
        s = LossScaler()
        assert s.scale == 2.0**16 and s.good_steps == 0
        apply = s.update(False)
        assert not apply
        assert s.scale == 2.0**15

    def test_doubles_after_growth_interval(self):
        s = _scaler(2.0**15)
        assert trainer.LOSS_SCALE_GROWTH_INTERVAL == 2000
        for _ in range(1999):
            assert s.update(True)
        assert s.scale == 2.0**15
        assert s.update(True)
        assert s.scale == 2.0**16

    def test_counter_resets_on_bad_step(self, monkeypatch):
        monkeypatch.setattr(trainer, "LOSS_SCALE_GROWTH_INTERVAL", 3)
        s = _scaler(2.0**10)
        s.update(True)
        s.update(True)
        s.update(False)
        s.update(True)
        s.update(True)
        assert s.scale == 2.0**9  # halved once, never doubled

    def test_decays_to_minimum(self):
        s = _scaler(4.0)
        for _ in range(10):
            s.update(False)
        assert s.scale == 1.0

    def test_disabled_scaler_is_identity(self):
        s = LossScaler(enabled=False)
        assert s.value == 1.0
        assert s.update(True)
        assert not s.update(False)


class TestGaussianRegression:
    def test_deterministic(self):
        a = gen_gaussian_regression(TaskSpec(seed=5))
        b = gen_gaussian_regression(TaskSpec(seed=5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_variance_matches_dimension(self):
        # Var(y | w) = ||w||^2, itself chi-square around d, so average the
        # measured variance over independent seeds to hit d within 5%.
        d = 64
        variances = []
        for seed in range(30):
            X, y, w = gen_gaussian_regression(
                TaskSpec(n_samples=4000, dim=d, seed=seed)
            )
            assert abs(y.mean()) < 1.0
            assert y.var() == pytest.approx(np.sum(w**2), rel=0.1)
            variances.append(y.var())
        assert np.mean(variances) == pytest.approx(d, rel=0.05)

    def test_noiseless_least_squares_recovers_weights(self):
        X, y, w_true = gen_gaussian_regression(TaskSpec(n_samples=500, dim=16, seed=2))
        w_hat, *_ = np.linalg.lstsq(X, y.ravel(), rcond=None)
        np.testing.assert_allclose(w_hat, w_true, atol=1e-6)


class TestClassification:
    def test_blobs_linearly_separable(self):
        spec = TaskSpec(
            kind=TASK_CLASSIFICATION, n_samples=500, dim=8, n_classes=2, seed=3
        )
        assert trainer.CLASS_MARGIN == 5.0
        X, labels = gen_synthetic_classification(spec)
        # Logistic regression via a few hundred full-batch gradient steps.
        w = np.zeros(8)
        b = 0.0
        t = labels.astype(np.float64)
        for _ in range(500):
            p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
            g = p - t
            w -= 0.5 * X.T @ g / len(X)
            b -= 0.5 * g.mean()
        acc = ((1.0 / (1.0 + np.exp(-(X @ w + b))) > 0.5) == labels).mean()
        assert acc >= 0.99

    def test_head_has_one_output_per_class_the_draw_missed_or_not(self):
        spec = TaskSpec(kind=TASK_CLASSIFICATION, n_samples=3, n_classes=6, dim=2, seed=3)
        _, labels = gen_synthetic_classification(spec)
        assert labels.tolist() == [2, 2, 3]
        rec = train(spec, TrainConfig(hidden=(4,), epochs=1))
        *_, head_w, head_b = rec.final_params
        assert head_w.shape == (6, 4) and head_b.shape == (6,)


class TestCrossEntropy:
    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        out = rng.standard_normal((5, 3)) * 3.0
        labels = np.array([0, 2, 1, 2, 0])
        loss, grad = _loss_and_grad(out.copy(), labels, True)
        logp = out - np.log(np.exp(out).sum(axis=1, keepdims=True))
        assert loss == pytest.approx(-logp[np.arange(5), labels].mean(), rel=1e-12)
        h = 1e-6
        fd = np.empty_like(out)
        for idx in np.ndindex(out.shape):
            up, down = out.copy(), out.copy()
            up[idx] += h
            down[idx] -= h
            fd[idx] = (_loss_and_grad(up, labels, True)[0]
                       - _loss_and_grad(down, labels, True)[0]) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-8)


def dense_reference_train(task, cfg):
    """Plain-numpy mirror of the training loop with exact dense layers."""
    from mxsim.trainer import VAL_FRACTION, load_task

    X, y, is_cls = load_task(task)
    n_val = max(1, int(len(X) * VAL_FRACTION))
    X_train, y_train = X[:-n_val], y[:-n_val]
    out_dim = task.n_classes if is_cls else y.shape[1]
    dims = [X.shape[1], *cfg.hidden, out_dim]
    rng = np.random.default_rng(cfg.seed)
    ws, head_w, head_b = init_params(rng, dims)
    state = AdamState(lr=cfg.lr)
    n = len(X_train)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = X_train[idx], y_train[idx]
            acts = [xb]
            pre = []
            a = xb
            for w in ws:
                z = a @ w.T
                pre.append(z)
                a = np.maximum(z, 0.0)
                acts.append(a)
            out = a @ head_w.T + head_b
            loss, d_out = _loss_and_grad(out, yb, is_cls)
            g_hw = d_out.T @ acts[-1]
            g_hb = d_out.sum(axis=0)
            g = d_out @ head_w
            grads_w = [None] * len(ws)
            for i in reversed(range(len(ws))):
                g = g * (pre[i] > 0)
                grads_w[i] = g.T @ acts[i]
                g = g @ ws[i]
            adam_step([*ws, head_w, head_b], [*grads_w, g_hw, g_hb], state)
    return [*ws, head_w, head_b]


class TestConfigValidation:
    """Degenerate settings fail at construction, not inside training."""

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 0), ("batch_size", 0), ("hidden", ()), ("lr", float("nan"))],
    )
    def test_train_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_samples", 1), ("dim", 0), ("n_classes", 1), ("noise_std", math.nan),
        ("noise_std", math.inf), ("noise_std", -math.inf), ("noise_std", -0.5),
    ])
    def test_task_spec_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            TaskSpec(**{field: value})

    def test_two_samples_are_enough(self):
        TaskSpec(n_samples=2)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task 'mnist'; valid: "
                           "gaussian_regression, synthetic_classification"):
            TaskSpec(kind="mnist")


class TestTraining:
    def small_task(self):
        return TaskSpec(kind=TASK_GAUSSIAN, n_samples=300, dim=16, seed=4)

    def small_cfg(self, **kw):
        qcfg = kw.pop("qcfg", QLinearConfig(spec=BlockSpec(block_size=16)))
        defaults = dict(
            qcfg=qcfg, hidden=(16,), epochs=3, batch_size=64, lr=1e-3, seed=4
        )
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_reproducible(self):
        rec1 = train(self.small_task(), self.small_cfg())
        rec2 = train(self.small_task(), self.small_cfg())
        assert rec1.train_losses == rec2.train_losses
        assert rec1.val_losses == rec2.val_losses
        for a, b in zip(rec1.final_params, rec2.final_params):
            np.testing.assert_array_equal(a, b)

    def test_quantize_disabled_matches_dense_reference(self):
        task = self.small_task()
        cfg = self.small_cfg(
            qcfg=QLinearConfig(spec=BlockSpec(block_size=16), quantize=False)
        )
        rec = train(task, cfg)
        ref = dense_reference_train(task, cfg)
        for a, b in zip(rec.final_params, ref):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_losses_decrease_without_quantization(self):
        cfg = self.small_cfg(
            qcfg=QLinearConfig(spec=BlockSpec(block_size=16), quantize=False),
            epochs=5,
            lr=1e-2,
        )
        rec = train(self.small_task(), cfg)
        assert rec.train_losses[-1] < rec.train_losses[0]
        assert not rec.diverged

    def test_quantized_run_finishes_and_records(self):
        rec = train(self.small_task(), self.small_cfg())
        assert len(rec.train_losses) == 3
        assert len(rec.val_losses) == 3
        assert all(np.isfinite(rec.val_losses))

    def test_loss_scaling_run(self):
        cfg = self.small_cfg(loss_scaling=True)
        rec = train(self.small_task(), cfg)
        assert all(np.isfinite(rec.train_losses))

    def test_growth_step_unscales_at_the_scale_it_was_computed_at(self, monkeypatch):
        # A scaler at 4 that grows every 2 steps: step 2 is computed at scale
        # 4 and grows the scale to 8, yet must still be unscaled by 4.  Dense
        # layers scale exactly by powers of two, so the applied gradients
        # must equal those of the unscaled run bit for bit.
        monkeypatch.setattr(trainer, "LOSS_SCALE_GROWTH_INTERVAL", 2)

        def applied_grads(loss_scaling):
            seen = []

            def recording_adam(params, grads, state):
                seen.append([g.copy() for g in grads])
                adam_step(params, grads, state)

            monkeypatch.setattr(trainer, "adam_step", recording_adam)
            monkeypatch.setattr(
                trainer, "LossScaler",
                lambda enabled: _scaler(4.0, enabled),
            )
            cfg = self.small_cfg(
                qcfg=QLinearConfig(spec=BlockSpec(block_size=16), quantize=False),
                epochs=1, loss_scaling=loss_scaling,
            )
            train(self.small_task(), cfg)
            return seen

        scaled, plain = applied_grads(True), applied_grads(False)
        assert len(scaled) == len(plain) >= 4
        for step, (a, b) in enumerate(zip(scaled, plain), start=1):
            for ga, gb in zip(a, b):
                np.testing.assert_array_equal(ga, gb, err_msg=f"step {step}")


class TestSkipAndStop:
    """Steps whose loss or gradient is not finite apply no update and halve
    the loss scale; a run whose loss stays blown up stops early."""

    small_task = TestTraining.small_task
    small_cfg = TestTraining.small_cfg

    def _run(self, monkeypatch, cfg, backward=None):
        updates, scalers = [], []

        def recording_adam(params, grads, state):
            updates.append(state.t)
            adam_step(params, grads, state)

        def recording_scaler(enabled):
            scalers.append(LossScaler(enabled=enabled))
            return scalers[-1]

        monkeypatch.setattr(trainer, "adam_step", recording_adam)
        monkeypatch.setattr(trainer, "LossScaler", recording_scaler)
        if backward is not None:
            monkeypatch.setattr(trainer, "backward", backward)
        return train(self.small_task(), cfg), len(updates), scalers[0]

    def test_non_finite_loss_skips_the_step_and_diverges(self, monkeypatch):
        # The first update moves every dense weight by about lr = 1e100, so
        # every later batch's squared error overflows to inf.
        cfg = self.small_cfg(
            qcfg=QLinearConfig(spec=BlockSpec(block_size=16), quantize=False),
            epochs=DIVERGENCE_PATIENCE + 2, lr=1e100, loss_scaling=True,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            rec, updates, scaler = self._run(monkeypatch, cfg)
        assert rec.diverged
        assert len(rec.train_losses) == DIVERGENCE_PATIENCE < cfg.epochs
        assert rec.train_losses == [np.inf] * DIVERGENCE_PATIENCE
        assert updates == 1
        assert scaler.scale == 2.0**16 / 2.0 ** (rec.steps - 1)

    def test_non_finite_gradient_skips_the_step(self, monkeypatch):
        calls, real = [], trainer.backward

        def failing_backward(g, ctx, qcfg):
            calls.append(ctx.step)
            if ctx.step == 2:
                raise NonFiniteGradientError("incoming gradient is not finite")
            return real(g, ctx, qcfg)

        cfg = self.small_cfg(epochs=1, loss_scaling=True)
        rec, updates, scaler = self._run(monkeypatch, cfg, failing_backward)
        assert not rec.diverged and np.isfinite(rec.train_losses).all()
        assert calls.count(2) == 1 and updates == rec.steps - 1
        assert scaler.scale == 2.0**15
