"""Desk-scale training loop over quantized linear layers.

A small MLP of quantized linear layers (plus an unquantized output head)
is trained with bias-corrected Adam and optional dynamic loss scaling.
Tasks are synthetic regression and classification generators; everything
is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qlinear import NonFiniteGradientError, QLinearConfig, backward, forward

# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    lr: float = 1e-3
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """Standard bias-corrected Adam update, in place; each parameter's
    temporaries go into two scratch arrays, in the order of the plain formulas."""
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        a, b = np.empty((2, *p.shape))  # one block, reused with no page faults
        m *= b1
        m += np.multiply(g, 1 - b1, out=a)  # m = b1 m + (1 - b1) g
        v *= b2
        v += np.multiply(np.multiply(g, 1 - b2, out=a), g, out=a)  # ((1 - b2) g) g
        np.sqrt(np.divide(v, 1 - b2**state.t, out=a), out=a)
        a += ADAM_EPS  # sqrt(v_hat) + eps
        np.multiply(np.divide(m, 1 - b1**state.t, out=b), state.lr, out=b)  # lr m_hat
        p -= np.divide(b, a, out=b)


# ---------------------------------------------------------------------------
# Dynamic loss scaling
# ---------------------------------------------------------------------------

MIN_LOSS_SCALE = 1.0
MAX_LOSS_SCALE = 2.0**24
INITIAL_LOSS_SCALE = 2.0**16
LOSS_SCALE_GROWTH_INTERVAL = 2000  # finite steps in a row before the scale doubles


@dataclass
class LossScaler:
    """Power-of-two multiplier on the loss; halves on overflow, grows back."""

    enabled: bool = True
    scale: float = field(default=INITIAL_LOSS_SCALE, init=False)
    good_steps: int = field(default=0, init=False)

    def update(self, grads_finite: bool) -> bool:
        """Adjust the scale; returns whether the step should be applied."""
        if not self.enabled:
            return grads_finite
        if grads_finite:
            self.good_steps += 1
            if self.good_steps >= LOSS_SCALE_GROWTH_INTERVAL:
                self.scale = min(self.scale * 2.0, MAX_LOSS_SCALE)
                self.good_steps = 0
            return True
        self.scale = max(self.scale / 2.0, MIN_LOSS_SCALE)
        self.good_steps = 0
        return False

    @property
    def value(self) -> float:
        return self.scale if self.enabled else 1.0


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

TASK_GAUSSIAN = "gaussian_regression"
TASK_CLASSIFICATION = "synthetic_classification"
TASKS = (TASK_GAUSSIAN, TASK_CLASSIFICATION)
CLASS_MARGIN = 5.0  # spacing of the classification blob centers, in sigmas


@dataclass(frozen=True)
class TaskSpec:
    kind: str = TASK_GAUSSIAN
    n_samples: int = 5000
    dim: int = 64
    n_classes: int = 2
    seed: int = 0
    noise_std: float = 0.0

    def __post_init__(self):
        if self.kind not in TASKS:
            raise ValueError(f"unknown task {self.kind!r}; valid: {', '.join(TASKS)}")
        if self.n_samples < 2:
            raise ValueError(
                "n_samples must be at least 2: one training and one validation sample"
            )
        if self.dim < 1 or self.n_classes < 2:
            raise ValueError("dim must be positive and n_classes at least 2")
        if not 0.0 <= self.noise_std < math.inf:  # NaN fails too
            raise ValueError(f"noise_std must be finite and non-negative, got "
                             f"{self.noise_std}")


def gen_gaussian_regression(spec: TaskSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear data: X and the true weights iid standard normal, plus
    optional Gaussian observation noise of standard deviation noise_std."""
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n_samples, spec.dim))
    w_true = rng.standard_normal(spec.dim)
    y = X @ w_true
    if spec.noise_std > 0.0:
        y = y + spec.noise_std * rng.standard_normal(spec.n_samples)
    return X, y[:, None], w_true


def gen_synthetic_classification(spec: TaskSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian blobs, one unit-variance cluster per class, separable at
    the ``CLASS_MARGIN`` between centers."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.standard_normal((spec.n_classes, spec.dim))
    centers *= CLASS_MARGIN / np.linalg.norm(centers, axis=1, keepdims=True) * np.sqrt(spec.dim)
    labels = rng.integers(0, spec.n_classes, size=spec.n_samples)
    X = centers[labels] + rng.standard_normal((spec.n_samples, spec.dim))
    return X, labels


def load_task(spec: TaskSpec) -> tuple[np.ndarray, np.ndarray, bool]:
    """Returns (features, targets, is_classification)."""
    if spec.kind == TASK_GAUSSIAN:
        X, y, _ = gen_gaussian_regression(spec)
        return X, y, False
    X, y = gen_synthetic_classification(spec)
    return X, y, True


# ---------------------------------------------------------------------------
# Model and training
# ---------------------------------------------------------------------------

#: A run diverges after DIVERGENCE_PATIENCE epochs in a row whose training
#: loss is non-finite or above DIVERGENCE_FACTOR times the first finite one.
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 3
VAL_FRACTION = 0.1


@dataclass
class TrainConfig:
    qcfg: QLinearConfig = field(default_factory=QLinearConfig)
    hidden: tuple[int, ...] = (64, 32)
    epochs: int = 20
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    loss_scaling: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError("hidden needs at least one layer, each of positive width")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")


@dataclass
class RunRecord:
    dataset: str
    train_losses: list[float]
    val_losses: list[float]
    diverged: bool
    final_params: list[np.ndarray]
    steps: int


def init_params(
    rng: np.random.Generator, dims: list[int]
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Quantized-layer weights plus the dense head weight and bias."""
    ws = []
    for d_in, d_out in zip(dims[:-2], dims[1:-1]):
        ws.append(rng.standard_normal((d_out, d_in)) * np.sqrt(2.0 / d_in))
    head_w = rng.standard_normal((dims[-1], dims[-2])) * np.sqrt(1.0 / dims[-2])
    head_b = np.zeros(dims[-1])
    return ws, head_w, head_b


def _model_forward(xb, ws, head_w, head_b, cfg: TrainConfig, step: int):
    a = xb
    ctxs = []
    pre = []
    for i, w in enumerate(ws):
        z, ctx = forward(a, w, cfg.qcfg, seed=cfg.seed + 7919 * i, step=step)
        ctxs.append(ctx)
        pre.append(z)
        a = np.maximum(z, 0.0)
    out = a @ head_w.T + head_b
    return out, ctxs, pre


def _model_backward(d_out, ctxs, pre, ws, head_w, cfg: TrainConfig):
    a_last = np.maximum(pre[-1], 0.0)
    grads_w = [None] * len(ws)
    g_head_w = d_out.T @ a_last
    g_head_b = d_out.sum(axis=0)
    g = d_out @ head_w
    for i in reversed(range(len(ws))):
        g = g * (pre[i] > 0)
        g, gw = backward(g, ctxs[i], cfg.qcfg)
        grads_w[i] = gw
    return grads_w, g_head_w, g_head_b


def _loss_and_grad(out, yb, is_classification):
    if is_classification:
        shifted = out - out.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        logp = shifted - logsumexp
        n = out.shape[0]
        loss = -logp[np.arange(n), yb].mean()
        probs = np.exp(logp)
        d_out = probs
        d_out[np.arange(n), yb] -= 1.0
        return loss, d_out / n
    diff = out - yb
    loss = float(np.mean(diff**2))
    return loss, 2.0 * diff / diff.size


def _eval_loss(X, y, ws, head_w, head_b, cfg, is_classification, step):
    out, _, _ = _model_forward(X, ws, head_w, head_b, cfg, step=step)
    loss, _ = _loss_and_grad(out, y, is_classification)
    return float(loss)


def train(task: TaskSpec, cfg: TrainConfig) -> RunRecord:
    """Train the quantized MLP; deterministic for a given (task, cfg)."""
    X, y, is_classification = load_task(task)
    # A task holds at least 2 samples, so at least one is left to train on.
    n_val = max(1, int(len(X) * VAL_FRACTION))
    X_train, y_train = X[:-n_val], y[:-n_val]
    X_val, y_val = X[-n_val:], y[-n_val:]

    out_dim = task.n_classes if is_classification else y.shape[1]
    dims = [X.shape[1], *cfg.hidden, out_dim]
    rng = np.random.default_rng(cfg.seed)
    ws, head_w, head_b = init_params(rng, dims)

    state = AdamState(lr=cfg.lr)
    scaler = LossScaler(enabled=cfg.loss_scaling)

    train_losses: list[float] = []
    val_losses: list[float] = []
    diverged = False
    bad_epochs = 0
    initial_loss = None
    step = 0
    n = len(X_train)

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = X_train[idx], y_train[idx]
            step += 1
            out, ctxs, pre = _model_forward(xb, ws, head_w, head_b, cfg, step)
            loss, d_out = _loss_and_grad(out, yb, is_classification)
            epoch_loss += loss if np.isfinite(loss) else np.inf
            batches += 1
            if not np.isfinite(loss):
                scaler.update(False)
                continue
            # The update below may grow the scale; unscale by this one.
            scale = scaler.value
            try:
                grads_w, g_hw, g_hb = _model_backward(
                    d_out * scale, ctxs, pre, ws, head_w, cfg
                )
            except NonFiniteGradientError:
                scaler.update(False)
                continue
            grads = [*grads_w, g_hw, g_hb]
            finite = all(np.isfinite(g).all() for g in grads)
            if scaler.update(finite):
                inv = 1.0 / scale
                adam_step([*ws, head_w, head_b], [g * inv for g in grads], state)

        train_loss = epoch_loss / max(batches, 1)
        val_loss = _eval_loss(X_val, y_val, ws, head_w, head_b, cfg,
                              is_classification, step)
        train_losses.append(train_loss)
        val_losses.append(val_loss)

        if initial_loss is None and np.isfinite(train_loss):
            initial_loss = train_loss
        blown_up = not np.isfinite(train_loss) or (
            initial_loss is not None
            and train_loss > DIVERGENCE_FACTOR * initial_loss
        )
        bad_epochs = bad_epochs + 1 if blown_up else 0
        if bad_epochs >= DIVERGENCE_PATIENCE:
            diverged = True
            break

    return RunRecord(
        dataset=task.kind,
        train_losses=train_losses,
        val_losses=val_losses,
        diverged=diverged,
        final_params=[*ws, head_w, head_b],
        steps=step,
    )
