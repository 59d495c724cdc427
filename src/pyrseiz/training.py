"""Mini-batch training with cross-entropy loss and Adam, deterministically seeded."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import layers
from .network import ModelConfig, NetworkParameters, backward, forward, init_parameters
from .windowing import WindowSet


@dataclass(frozen=True)
class TrainingConfig:
    """Optimizer and loop settings; defaults follow the standard Adam values."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    shuffle: bool = True
    dropout_seed: int | None = None
    balance_classes: bool = False

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class AdamState:
    """First/second-moment accumulators per learnable tensor plus step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam_state(params: NetworkParameters) -> AdamState:
    m = {name: np.zeros_like(tensor) for name, tensor in params.named_learnables()}
    v = {name: np.zeros_like(tensor) for name, tensor in params.named_learnables()}
    return AdamState(m=m, v=v)


def adam_step(
    params: NetworkParameters,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainingConfig,
) -> tuple[NetworkParameters, AdamState]:
    """One Adam update over every learnable tensor (updates in place).

    m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2; bias-corrected m_hat/v_hat;
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).
    """
    state.t += 1
    bias1 = 1.0 - config.beta1 ** state.t
    bias2 = 1.0 - config.beta2 ** state.t
    for name, tensor in params.named_learnables():
        try:
            g = grads[name]
        except KeyError:
            raise ValueError(f"missing gradient for {name}") from None
        if g.shape != tensor.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match {name} shape {tensor.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        tensor -= config.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + config.eps)
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
    """Train a freshly initialized network on pre-normalized windows.

    Per epoch: shuffle with a seeded generator, batch, forward in training
    mode, backprop, Adam step. Deterministic for fixed (config, windows);
    the shuffle and dropout generators derive from config.seed (dropout_seed
    overrides the dropout stream only). Input windows are never mutated.
    """
    X, y = windows.values, windows.labels
    if y.size == 0:
        raise ValueError("empty training window set")
    if X.shape[1] != model_config.input_length:
        raise ValueError(
            f"windows have length {X.shape[1]}, model expects {model_config.input_length}"
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
    dropout_entropy = config.seed if config.dropout_seed is None else config.dropout_seed
    dropout_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=dropout_entropy, spawn_key=(2,))
    )
    class_weights = None
    if config.balance_classes:
        class_weights = y.size / (model_config.num_classes * counts.astype(np.float64))

    history: list[EpochStats] = []
    n = y.size
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n) if config.shuffle else np.arange(n)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = X[idx], y[idx]
            probs, trace = forward(
                model_config, params, xb, training=True, dropout_rng=dropout_rng
            )
            losses, _, grad_logits = layers.softmax_cross_entropy(trace.logits, yb)
            if class_weights is not None:
                losses = losses * class_weights[yb]
                grad_logits = grad_logits * class_weights[yb][:, None]
            grads = backward(model_config, params, trace, grad_logits / idx.size)
            adam_step(params, grads, state, config)
            total_loss += float(losses.sum())
            correct += int((probs.argmax(axis=1) == yb).sum())
        history.append(EpochStats(epoch=epoch + 1, loss=total_loss / n, train_acc=correct / n))
    return params, history


def write_history_csv(history: Sequence[EpochStats], path: str | Path) -> None:
    """Emit the per-epoch history as ``epoch,loss,train_acc`` CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("epoch,loss,train_acc\n")
        for row in history:
            fh.write(f"{row.epoch},{row.loss!r},{row.train_acc!r}\n")
