"""Forward/backward primitives: strided 1-D convolution, batch norm, dense, dropout, softmax.

All arrays are float64. Conv-stack activations are channel-last, (batch,
length, channels), so a batch is a C-contiguous (batch*length, channels)
matrix: convolution is one im2col copy plus one GEMM, and batch-norm
statistics are reductions over that matrix's rows. Convolution is valid (no
padding) cross-correlation; batch normalization carries no learnable
scale/shift, only running statistics. Functions taking ``out`` write their
result there (C-contiguous buffers a caller reuses) and allocate without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def conv_output_length(signal_length: int, receptive_field: int, stride: int) -> int:
    """Output positions of a valid strided sweep: (L - Rf) // stride + 1."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if signal_length < receptive_field:
        raise ValueError(
            f"input length {signal_length} is shorter than the receptive field "
            f"{receptive_field}"
        )
    return (signal_length - receptive_field) // stride + 1


def _view(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reshape that must not copy, so writes through it land in ``a``."""
    if not a.flags.c_contiguous:
        raise ValueError("output buffers must be C-contiguous")
    return a.reshape(shape)


def _kernel_matrix(weights: np.ndarray) -> np.ndarray:
    """(K, C, Rf) kernels as a (K, Rf*C) matrix in im2col's patch order."""
    k, c, rf = weights.shape
    return weights.transpose(0, 2, 1).reshape(k, rf * c)


def _channel_sums(rows: np.ndarray) -> np.ndarray:
    """Column sums of an (n, C) matrix, as one matrix-vector product."""
    return np.ones(rows.shape[0]) @ rows


def im2col(
    x: np.ndarray, receptive_field: int, stride: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Sliding patches of a channel-last batch: (B, L, C) -> (B, m, Rf*C).

    Row j of sample b is x[b, j*stride : j*stride + Rf, :] flattened, so on a
    C-contiguous input every patch is one contiguous Rf*C block and the unfold
    is a single copy of a strided view. ``out`` must be C-contiguous.
    """
    batch, length, channels = x.shape
    m = conv_output_length(length, receptive_field, stride)
    if out is None:
        out = np.empty((batch, m, receptive_field * channels))
    sb, sl, sc = x.strides
    patches = as_strided(
        x, (batch, m, receptive_field, channels), (sb, stride * sl, sl, sc), writeable=False
    )
    np.copyto(_view(out, patches.shape), patches)
    return out


def conv1d_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    stride: int,
    cols: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Valid strided cross-correlation of a channel-last batch.

    x: (B, L, C), weights: (K, C, Rf), bias: (K,) -> (B, m, K) where
    out[b, j, k] = bias[k] + sum_{c,e} weights[k, c, e] * x[b, j*stride + e, c].
    The patches are unfolded into ``cols`` (B, m, Rf*C), which a training
    pass keeps for conv1d_backward, and the (B*m, K) GEMM result is written
    into ``out``; fresh arrays are used for whichever is not given.
    """
    k, c, rf = weights.shape
    if x.ndim != 3 or x.shape[2] != c:
        raise ValueError(
            f"input shape {x.shape} does not match kernel channels {c}"
        )
    if bias.shape != (k,):
        raise ValueError(f"bias shape {bias.shape} does not match {k} kernels")
    cols = im2col(x, rf, stride, out=cols)
    batch, m = cols.shape[0], cols.shape[1]
    if out is None:
        out = np.empty((batch, m, k))
    np.matmul(
        cols.reshape(batch * m, rf * c), _kernel_matrix(weights).T,
        out=_view(out, (batch * m, k)),
    )
    out += bias
    return out


def conv1d_backward(
    cols: np.ndarray,
    weights: np.ndarray,
    stride: int,
    grad_out: np.ndarray,
    grad_x: np.ndarray | None = None,
    grad_cols: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss through conv1d_forward.

    ``cols`` are the (B, m, Rf*C) patches the forward pass unfolded and
    grad_out is (B, m, K); returns (grad_x, grad_weights, grad_bias). The
    input gradient is written into ``grad_x``, a (B, L, C) array; without
    one it is skipped and None is returned in its place, as for a first
    layer whose input is data. ``grad_cols`` (B, m, Rf*C) is the scratch
    space of that scatter; a fresh array is used when it is not given.
    """
    k, c, rf = weights.shape
    batch, m, width = cols.shape
    if width != rf * c:
        raise ValueError(
            f"columns of width {width} do not match kernels of shape {weights.shape}"
        )
    if grad_out.shape != (batch, m, k):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward output "
            f"({batch}, {m}, {k})"
        )
    g = grad_out.reshape(batch * m, k)
    grad_bias = _channel_sums(g)
    grad_weights = np.ascontiguousarray(
        (g.T @ cols.reshape(batch * m, width)).reshape(k, rf, c).transpose(0, 2, 1)
    )
    if grad_x is None:
        return None, grad_weights, grad_bias
    if (
        grad_x.ndim != 3
        or (grad_x.shape[0], grad_x.shape[2]) != (batch, c)
        or conv_output_length(grad_x.shape[1], rf, stride) != m
    ):
        raise ValueError(f"grad_x shape {grad_x.shape} does not match the columns")
    if grad_cols is None:
        grad_cols = np.empty_like(cols)
    np.matmul(g, _kernel_matrix(weights), out=_view(grad_cols, (batch * m, width)))
    # col2im: window j's Rf*C block adds onto the contiguous run of grad_x
    # starting at position j*stride; windows ceil(Rf/stride) apart do not
    # overlap, so each such group is one add over whole blocks
    grad_x.fill(0.0)
    flat = _view(grad_x, (batch, grad_x.shape[1] * c))
    runs = as_strided(
        flat, (batch, m, width), (flat.strides[0], stride * c * flat.itemsize, flat.itemsize)
    )
    group = -(-rf // stride)
    for first in range(group):
        runs[:, first::group] += grad_cols[:, first::group]
    return grad_x, grad_weights, grad_bias


@dataclass
class BatchNormCache:
    """Training-mode intermediates needed to backprop through batch statistics."""

    x_hat: np.ndarray
    inv_std: np.ndarray  # per channel, 1 / sqrt(var + eps)
    count: int  # batch * positions pooled into each channel statistic


def batchnorm_train(
    x: np.ndarray, eps: float = BN_EPS, out: np.ndarray | None = None
) -> tuple[np.ndarray, BatchNormCache, np.ndarray, np.ndarray]:
    """Normalize channel-last (B, L, C) by the batch's per-channel mean/variance.

    Statistics pool over batch and positions, as reductions over the rows of
    the (B*L, C) matrix; variance is population (/N). ``out`` may be ``x``
    itself. Returns (y, cache, batch_mean, batch_var).
    """
    if x.ndim != 3:
        raise ValueError(f"expected a (batch, length, channels) array, got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("batch must be nonempty")
    channels = x.shape[2]
    rows = x.reshape(-1, channels)
    count = rows.shape[0]
    if out is None:
        out = np.empty_like(x)
    centered = _view(out, rows.shape)
    mean = _channel_sums(rows) / count
    np.subtract(rows, mean, out=centered)
    var = np.einsum("ij,ij->j", centered, centered) / count
    inv_std = 1.0 / np.sqrt(var + eps)
    centered *= inv_std
    return out, BatchNormCache(x_hat=out, inv_std=inv_std, count=count), mean, var


def batchnorm_infer(
    x: np.ndarray,
    running_mean: np.ndarray | None,
    running_var: np.ndarray | None,
    eps: float = BN_EPS,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Normalize channel-last x by running statistics (inference path).

    ``out`` may be ``x`` itself.
    """
    if running_mean is None or running_var is None:
        raise ValueError("batch-norm running statistics are uninitialized")
    rv = np.asarray(running_var, dtype=np.float64)
    if not np.all(np.isfinite(rv)) or np.any(rv <= 0.0):
        raise ValueError("batch-norm running variances must be finite and positive")
    y = np.subtract(x, np.asarray(running_mean), out=out)
    return np.divide(y, np.sqrt(rv + eps), out=y)


def batchnorm_backward(
    cache: BatchNormCache,
    grad_out: np.ndarray,
    relu: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Backprop through the standardization, including the stats' dependence on x.

    With ``relu`` the gradient arrives at relu(y) instead of y, and the ReLU
    mask (y > 0) is applied here: the fused BN+ReLU backward. ``out`` may be
    ``grad_out`` itself.
    """
    channels = cache.x_hat.shape[-1]
    x_hat = cache.x_hat.reshape(-1, channels)
    g = grad_out.reshape(-1, channels)
    if out is None:
        out = np.empty_like(grad_out)
    res = _view(out, g.shape)
    if relu:
        np.multiply(g, x_hat > 0.0, out=res)
    else:
        np.copyto(res, g)
    n = cache.count
    mean_g = _channel_sums(res) / n
    mean_gx = np.einsum("ij,ij->j", res, x_hat) / n
    res -= mean_g
    res -= x_hat * mean_gx
    res *= cache.inv_std
    return out


def update_running_stat(
    running: np.ndarray, batch_value: np.ndarray, momentum: float = BN_MOMENTUM
) -> np.ndarray:
    """EMA update: momentum * running + (1 - momentum) * batch_value."""
    return momentum * running + (1.0 - momentum) * batch_value


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return grad_out * (x > 0)


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: (B, F_in) @ (F_in, F_out) + (F_out,)."""
    return x @ weights + bias


def dense_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return grad_out @ weights.T, x.T @ grad_out, grad_out.sum(axis=0)


def dropout_forward(
    x: np.ndarray,
    rate: float,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: zero units w.p. ``rate``, scale survivors by 1/(1-rate).

    Identity at inference or when rate == 0. Returns (y, mask); the mask is
    None when dropout was not applied.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("training-mode dropout needs a seeded generator")
    mask = (rng.random(x.shape) >= rate).astype(x.dtype)
    return x * mask / (1.0 - rate), mask


def dropout_backward(
    mask: np.ndarray | None, rate: float, grad_out: np.ndarray
) -> np.ndarray:
    if mask is None:
        return grad_out
    return grad_out * mask / (1.0 - rate)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross-entropy over raw logits and integer labels.

    Returns (per-sample losses, probabilities, grad w.r.t. logits), where the
    gradient is probs - onehot per sample (unscaled by batch size).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} does not match batch {logits.shape[0]}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    num_classes = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    norm = e.sum(axis=1)
    probs = e / norm[:, None]
    rows = np.arange(logits.shape[0])
    losses = np.log(norm) - z[rows, labels]
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    return losses, probs, grad
