"""Mini-batch training with cross-entropy loss and Adam, deterministically seeded."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import layers
from .artifacts import write_atomic
from .network import (
    ModelConfig,
    NetworkParameters,
    Workspace,
    backward,
    forward,
    init_parameters,
)
from .windowing import WindowSet

# Adam's moment decay rates and denominator guard, the standard values.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainingConfig:
    """Learning rate and loop settings; Adam's other constants are fixed."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AdamState:
    """First/second-moment accumulators over the learnable vector plus step
    count, and two vectors like them that ``adam_step`` works in."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def init_adam_state(params: NetworkParameters) -> AdamState:
    return AdamState(m=np.zeros_like(params.learnable), v=np.zeros_like(params.learnable))


def adam_step(
    params: NetworkParameters,
    grads: NetworkParameters,
    state: AdamState,
    config: TrainingConfig,
) -> tuple[NetworkParameters, AdamState]:
    """One Adam update of the whole learnable vector, in place.

    m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2; bias-corrected m_hat/v_hat;
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps), with b1, b2 and eps
    the ``ADAM_*`` constants. Every intermediate lives in ``state.scratch``,
    so a step allocates nothing.
    """
    if grads.config != params.config:
        raise ValueError("gradient was built for another model config than the parameters")
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.t
    bias2 = 1.0 - ADAM_BETA2 ** state.t
    g, m, v = grads.learnable, state.m, state.v
    a, b = state.scratch
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
    v *= ADAM_BETA2
    np.multiply(g, g, out=a)
    v += np.multiply(1.0 - ADAM_BETA2, a, out=a)
    np.multiply(config.learning_rate, np.divide(m, bias1, out=a), out=a)
    np.add(np.sqrt(np.divide(v, bias2, out=b), out=b), ADAM_EPS, out=b)
    params.learnable -= np.divide(a, b, out=a)
    return params, state


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    train_acc: float


def train(
    model_config: ModelConfig,
    windows: WindowSet,
    config: TrainingConfig,
) -> tuple[NetworkParameters, list[EpochStats]]:
    """Train a freshly initialized network on a window set.

    Per epoch: shuffle with a seeded generator, batch, forward in training
    mode, backprop, Adam step. Deterministic for fixed (config, windows);
    the shuffle and dropout generators derive from config.seed. Input
    windows are never mutated.
    One workspace holds each batch (gathered by ``windows.batch``) and its
    activations; the last, partial batch runs on its leading rows. A
    non-finite loss or gradient raises ValueError naming the epoch and batch,
    before the Adam step that would spread it into the parameters.
    """
    y = windows.labels
    if y.size == 0:
        raise ValueError("empty training window set")
    if windows.window != model_config.input_length:
        raise ValueError(
            f"windows have length {windows.window}, model expects {model_config.input_length}"
        )
    if y.min() < 0 or y.max() >= model_config.num_classes:
        raise ValueError(
            f"window labels span [{y.min()}, {y.max()}], outside the model's "
            f"{model_config.num_classes} classes"
        )
    counts = np.bincount(y, minlength=model_config.num_classes)
    if np.any(counts == 0):
        missing = [int(c) for c in np.flatnonzero(counts == 0)]
        raise ValueError(f"no training windows for class(es) {missing}")

    params = init_parameters(model_config, config.seed)
    state = init_adam_state(params)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(1,))
    )
    dropout_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(2,))
    )

    history: list[EpochStats] = []
    n = y.size
    workspace = Workspace(model_config, min(config.batch_size, n))
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for batch, start in enumerate(range(0, n, config.batch_size), start=1):
            idx = order[start : start + config.batch_size]
            ws = workspace.head(idx.size)
            xb, yb = windows.batch(idx, out=ws.windows), y[idx]
            _, trace = forward(params, xb, ws, training=True, dropout_rng=dropout_rng)
            losses, probs, grad_logits = layers.softmax_cross_entropy(trace.logits, yb)
            grads = backward(params, trace, grad_logits / idx.size)
            if not (np.isfinite(losses).all() and np.isfinite(grads.learnable).all()):
                raise ValueError(
                    f"training diverged at epoch {epoch + 1}, batch {batch}: "
                    "non-finite loss or gradient"
                )
            adam_step(params, grads, state, config)
            total_loss += float(losses.sum())
            correct += int((probs.argmax(axis=1) == yb).sum())
        history.append(EpochStats(epoch=epoch + 1, loss=total_loss / n, train_acc=correct / n))
    return params, history


def write_history_csv(history: Sequence[EpochStats], path: str | Path) -> None:
    """Emit the per-epoch history as ``epoch,loss,train_acc`` CSV, replacing
    the file atomically."""
    rows = ["epoch,loss,train_acc\n"]
    rows += [f"{row.epoch},{row.loss!r},{row.train_acc!r}\n" for row in history]
    write_atomic(path, "".join(rows))
