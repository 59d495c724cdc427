"""Forward/backward primitives: strided 1-D convolution, batch norm, dense, dropout, softmax.

All arrays are float64. Conv-stack activations are channel-last, (batch,
length, channels), so a batch is a C-contiguous (batch*length, channels)
matrix and batch-norm statistics are reductions over that matrix's rows. A
convolution reads its input in place: each of its ceil(Rf / stride) taps is
a strided view of the input whose rows BLAS multiplies without a copy, so a
layer is one GEMM per tap and no patch matrix is made (``tap_views``). The
one input unfolded is the first layer's, one channel wide, whose patches
are Rf*C_in = 5 values wide: by the fused conv and batch norm in training,
by conv1d_forward at inference. Convolution is
valid (no padding) cross-correlation; batch normalization carries no
learnable scale/shift, only running statistics. Functions taking ``out``
write their result there: a C-contiguous buffer their caller owns and they
never allocate.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


class ConvLayer(NamedTuple):
    """One conv layer's geometry: in_channels x input_length -> kernels x output_length."""

    in_channels: int
    kernels: int
    receptive_field: int
    stride: int
    input_length: int
    output_length: int


def count_windows(signal_length: int, window: int, stride: int) -> int:
    """Windows a valid strided sweep fits into a signal, (L - window) // stride
    + 1: a conv layer's output positions, or a record's training windows."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if window > signal_length:
        raise ValueError(f"window {window} exceeds signal length {signal_length}")
    return (signal_length - window) // stride + 1


def _view(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reshape that must not copy, so writes through it land in ``a``."""
    if not a.flags.c_contiguous:
        raise ValueError("output buffers must be C-contiguous")
    return a.reshape(shape)


def _leading(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading values of the C-contiguous ``buffer``, viewed as ``shape``."""
    return _view(buffer, (buffer.size,))[: math.prod(shape)].reshape(shape)


def _kernel_matrix(weights: np.ndarray) -> np.ndarray:
    """(K, C, Rf) kernels as a (K, Rf*C) matrix in im2col's patch order."""
    k, c, rf = weights.shape
    return weights.transpose(0, 2, 1).reshape(k, rf * c)


def _channel_sums(rows: np.ndarray) -> np.ndarray:
    """Column sums of an (n, C) matrix, as one matrix-vector product."""
    return np.ones(rows.shape[0]) @ rows


def im2col(x: np.ndarray, receptive_field: int, stride: int, out: np.ndarray) -> np.ndarray:
    """Sliding patches of a channel-last batch: (B, L, C) -> (B, m, Rf*C).

    Row j of sample b is x[b, j*stride : j*stride + Rf, :] flattened: on the
    C-contiguous input ``x`` every patch is one contiguous Rf*C block and the
    unfold is a single copy of a strided view. ``out`` must be C-contiguous.
    """
    if not x.flags.c_contiguous:
        raise ValueError("im2col inputs must be C-contiguous")
    batch, length, channels = x.shape
    m = count_windows(length, receptive_field, stride)
    row = channels * x.itemsize
    # the ndarray constructor, as in tap_views: views made by as_strided
    # raised a long training loop's peak memory by 0.8 MB
    patches = np.ndarray(
        (batch, m, receptive_field, channels), x.dtype, x, 0,
        (length * row, stride * row, row, x.itemsize),
    )
    np.copyto(_view(out, patches.shape), patches)
    return out


def tap_views(x: np.ndarray, receptive_field: int, stride: int) -> list[np.ndarray]:
    """The ceil(Rf / stride) taps of a valid strided convolution over the
    C-contiguous channel-last batch ``x`` (B, L, C), as read-only views of x.

    Tap d covers kernel positions d*stride up to n_d = min(stride, Rf -
    d*stride) past it: it is the (B, m, n_d*C) view whose row j is
    x[b, (j + d)*stride : (j + d)*stride + n_d, :] flattened. Its rows are
    stride*C values apart and at most that wide, so each sample's tap is a
    matrix BLAS reads in place; no row reaches past the input's end, so no
    length needs padding or divisibility.
    """
    if not x.flags.c_contiguous:
        raise ValueError("convolution inputs must be C-contiguous")
    batch, length, channels = x.shape
    m = count_windows(length, receptive_field, stride)
    row = channels * x.itemsize
    taps = []
    for start in range(0, receptive_field, stride):
        width = min(stride, receptive_field - start) * channels
        # the ndarray constructor builds the view several times faster than as_strided
        tap = np.ndarray(
            (batch, m, width), x.dtype, x, start * row, (length * row, stride * row, x.itemsize)
        )
        tap.flags.writeable = False
        taps.append(tap)
    return taps


def _check_conv_input(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None = None) -> None:
    if x.ndim != 3 or x.shape[2] != weights.shape[1]:
        raise ValueError(
            f"input shape {x.shape} does not match kernel channels {weights.shape[1]}"
        )
    if bias is not None and bias.shape != weights.shape[:1]:
        raise ValueError(f"bias shape {bias.shape} does not match {weights.shape[0]} kernels")


def conv1d_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Valid strided cross-correlation of a channel-last batch.

    x: (B, L, C), weights: (K, C, Rf), bias: (K,) -> (B, m, K) where
    out[b, j, k] = bias[k] + sum_{c,e} weights[k, c, e] * x[b, j*stride + e, c].
    A None bias adds nothing: batch norm in training cancels it. Each tap of
    ``tap_views`` is one batched GEMM with its rows of the kernel matrix,
    read from ``x`` in place: the first writes ``out``, each later one
    writes ``scratch`` and is then added into ``out``. A one-channel input's
    taps are a few values deep, too shallow for a GEMM per sample and tap to
    pay, so it is unfolded into ``scratch`` (``im2col``) and convolved by one
    GEMM. ``scratch`` is C-contiguous and holds at least out's values, or a
    one-channel input's B*m*Rf patch values; a layer of more than one
    channel with Rf <= stride has one tap and leaves it alone.
    """
    k, c, rf = weights.shape
    _check_conv_input(x, weights, bias)
    batch, length, _ = x.shape
    m = count_windows(length, rf, stride)
    kernel = weights.transpose(2, 1, 0).reshape(rf * c, k)  # row (e, c), column k
    result = _view(out, (batch, m, k))
    if c == 1:
        cols = im2col(x, rf, stride, out=_leading(scratch, (batch, m, rf)))
        np.matmul(cols.reshape(batch * m, rf), kernel, out=result.reshape(batch * m, k))
    else:
        taps = tap_views(x, rf, stride)
        np.matmul(taps[0], kernel[: taps[0].shape[2]], out=result)
        for start, tap in zip(range(stride, rf, stride), taps[1:]):
            rows = kernel[start * c : start * c + tap.shape[2]]
            result += np.matmul(tap, rows, out=_leading(scratch, result.shape))
    if bias is not None:
        result += bias
    return out


def _input_gradient_blocks(length: int, receptive_field: int, stride: int) -> tuple[int, int]:
    """(rows, taps) of conv1d_backward's input gradient for an input of ``length``.

    The gradient is computed as ``rows`` = ceil(length / stride) rows of
    stride*C values, each a sum over ``taps`` = ceil(Rf / stride) rows of
    the zero-padded output gradient. Per sample, that padded gradient is
    (rows + taps - 1, K) and its patches are (rows, taps*K).
    """
    return -(-length // stride), -(-receptive_field // stride)


def input_gradient_scratch(length: int, receptive_field: int, stride: int, kernels: int) -> int:
    """Scratch values conv1d_backward takes per sample of an input of
    ``length``: the sample's zero-padded output gradient and its patches."""
    rows, taps = _input_gradient_blocks(length, receptive_field, stride)
    return (rows + taps - 1) * kernels + rows * taps * kernels


def conv_backward_scratch(batch: int, layer: ConvLayer) -> int:
    """Scratch values conv1d_backward needs through ``layer`` at ``batch``:
    the larger of a tap's weight-gradient products, (B, K, n*C) for the
    widest tap n = min(stride, Rf), and one sample's padded output gradient
    (``input_gradient_scratch``). More makes the input gradient in blocks
    of more samples."""
    products = batch * layer.kernels * min(layer.stride, layer.receptive_field) * layer.in_channels
    padded = input_gradient_scratch(
        layer.input_length, layer.receptive_field, layer.stride, layer.kernels
    )
    return max(products, padded)


def backward_scratch(batch: int, convs: Iterable[ConvLayer], dense_inputs: Iterable[int]) -> int:
    """Values of the one scratch a training step's backward pass shares: the
    largest of its uses, since each ends before the next begins. They are,
    for each conv layer of ``convs`` (those batchnorm_backward and
    conv1d_backward run through), its batch-norm x_hat term, (B, m, K), and
    ``conv_backward_scratch``; for each dense layer of ``dense_inputs``
    input features, its (B, F_in) input gradient (``dense_backward``)."""
    sizes = [batch * features for features in dense_inputs]
    for layer in convs:
        sizes += [batch * layer.output_length * layer.kernels, conv_backward_scratch(batch, layer)]
    return max(sizes)


def _input_gradient_kernel(weights: np.ndarray, stride: int, taps: int) -> np.ndarray:
    """(K, C, Rf) kernels re-blocked as the (taps*K, stride*C) matrix of the
    input-gradient correlation: row (e, k), column (r, c) holds
    weights[k, c, (taps - 1 - e)*stride + r], zero past Rf."""
    k, c, rf = weights.shape
    padded = np.zeros((k, c, taps * stride))
    padded[:, :, :rf] = weights
    blocks = padded.reshape(k, c, taps, stride)[:, :, ::-1]
    return blocks.transpose(2, 0, 3, 1).reshape(taps * k, stride * c)


def conv1d_backward(
    x: np.ndarray,
    weights: np.ndarray,
    stride: int,
    grad_out: np.ndarray,
    grad_x: np.ndarray,
    scratch: np.ndarray,
    relu: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss through conv1d_forward.

    ``x`` is the (B, L, C) input the forward pass convolved and grad_out is
    (B, m, K); returns (grad_x, grad_weights, grad_bias). The weight gradient
    of each tap is grad_out^T times that tap's view of ``x`` (``tap_views``),
    one batched GEMM summed over the batch, whose (B, K, n*C) products are
    written into ``scratch``, so no patches of ``x`` are kept or made. The
    input gradient is written into ``grad_x``, shaped like x, after the
    weight gradient has read x: grad_x may be ``x`` itself, which is then
    overwritten, but must not otherwise overlap it. ``relu`` says x is a
    ReLU's output and makes grad_x the gradient at the ReLU's input: each
    block of grad_x is multiplied by its ReLU mask, x > 0, read from the
    block of x just before the block is written.

    Input position q*stride + r receives grad_out[q - d] through kernel tap
    d*stride + r, so grad_x, read as rows of stride*C values, is a stride-1
    correlation of the zero-padded output gradient: an im2col of the padded
    gradient and a GEMM with the re-blocked kernels, written straight into
    grad_x. They are made a block of samples at a time in the C-contiguous
    ``scratch``, as many samples as it holds (``input_gradient_scratch``
    values each); every sample is one GEMM of the same arithmetic per row.
    ``scratch`` holds at least ``conv_backward_scratch`` values.
    """
    k, c, rf = weights.shape
    _check_conv_input(x, weights)
    taps = tap_views(x, rf, stride)
    batch, m = taps[0].shape[:2]
    if grad_out.shape != (batch, m, k):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward output "
            f"({batch}, {m}, {k})"
        )
    if grad_x.shape != x.shape:
        raise ValueError(f"grad_x shape {grad_x.shape} does not match the input {x.shape}")
    if grad_x is not x and np.may_share_memory(grad_x, x):
        raise ValueError("grad_x must be the input itself or lie apart from it")
    length = x.shape[1]
    needed = conv_backward_scratch(batch, ConvLayer(c, k, rf, stride, length, m))
    if scratch.size < needed:
        raise ValueError(
            f"scratch of {scratch.size} values is too small: conv1d_backward needs {needed}, "
            "for a tap's weight-gradient products or one sample's padded gradient"
        )
    rows, n_taps = _input_gradient_blocks(length, rf, stride)
    block = min(batch, scratch.size // input_gradient_scratch(length, rf, stride, k))
    grad_bias = _channel_sums(grad_out.reshape(batch * m, k))
    grad_weights = np.empty((k, c, rf))
    g_t = grad_out.transpose(0, 2, 1)
    for start, tap in zip(range(0, rf, stride), taps):
        n = tap.shape[2] // c
        products = np.matmul(g_t, tap, out=_leading(scratch, (batch, k, n * c)))
        grad_weights[:, :, start : start + n] = (
            _channel_sums(products.reshape(batch, k * n * c)).reshape(k, n, c).transpose(0, 2, 1)
        )
    kernel = _input_gradient_kernel(weights, stride, n_taps)
    for first in range(0, batch, block):  # x is read past here only block by block
        last = min(first + block, batch)
        n = last - first
        positive = x[first:last] > 0.0 if relu else None  # before grad_x, maybe x, is written
        grad_pad = _leading(scratch, (n, rows + n_taps - 1, k))
        grad_pad[:, : n_taps - 1] = 0.0
        grad_pad[:, n_taps - 1 : n_taps - 1 + m] = grad_out[first:last]
        grad_pad[:, n_taps - 1 + m :] = 0.0
        patches = _leading(scratch.reshape(-1)[grad_pad.size :], (n, rows, n_taps * k))
        patches = im2col(grad_pad, n_taps, 1, out=patches)
        if rows * stride == length:
            np.matmul(patches, kernel, out=_view(grad_x[first:last], (n, rows, stride * c)))
        else:  # the last row runs past the input's end: keep what lies inside
            grad_x[first:last] = (patches @ kernel).reshape(n, rows * stride, c)[:, :length]
        if relu:
            np.multiply(grad_x[first:last], positive, out=grad_x[first:last])
    return grad_x, grad_weights, grad_bias


@dataclass
class BatchNormCache:
    """Training-mode intermediates needed to backprop through batch statistics."""

    x_hat: np.ndarray
    inv_std: np.ndarray  # per channel, 1 / sqrt(var + BN_EPS)
    count: int  # batch * positions pooled into each channel statistic


def batchnorm_train(
    x: np.ndarray, out: np.ndarray
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
    centered = _view(out, rows.shape)
    mean = _channel_sums(rows) / count
    np.subtract(rows, mean, out=centered)
    var = np.einsum("ij,ij->j", centered, centered) / count
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    centered *= inv_std
    return out, BatchNormCache(x_hat=out, inv_std=inv_std, count=count), mean, var


def batchnorm_infer(
    weights: np.ndarray,
    bias: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold inference batch norm into the preceding convolution.

    Normalizing a conv output by running statistics is itself a convolution:
    with s = sqrt(running_var + BN_EPS) per output channel, the (K, C, Rf)
    ``weights`` become W / s and the (K,) ``bias`` becomes (b - mean) / s.
    Returns fresh (weights', bias'); conv1d_forward with them gives the
    normalized output without a pass over the activations.
    """
    if not np.all(np.isfinite(running_var)) or np.any(running_var <= 0.0):
        raise ValueError("batch-norm running variances must be finite and positive")
    scale = np.sqrt(running_var + BN_EPS)
    return weights / scale[:, None, None], (bias - running_mean) / scale


def batchnorm_backward(
    cache: BatchNormCache, grad: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Backprop through the standardization, including the stats' dependence on x.

    In place: ``grad``, the C-contiguous gradient at the batch-norm output,
    is overwritten with the gradient at its input and returned. A ReLU after
    the batch norm is backpropagated by whoever writes ``grad``, with the
    ReLU mask. ``scratch``, shaped like grad, takes the x_hat term.
    """
    channels = cache.x_hat.shape[-1]
    x_hat = cache.x_hat.reshape(-1, channels)
    res = _view(grad, x_hat.shape)
    n = cache.count
    mean_g = _channel_sums(res) / n
    mean_gx = np.einsum("ij,ij->j", res, x_hat) / n
    res -= mean_g
    res -= np.multiply(x_hat, mean_gx, out=_view(scratch, res.shape))
    res *= cache.inv_std
    return grad


@dataclass
class ConvBatchNormCache(BatchNormCache):
    """conv_batchnorm_train's intermediates: the batch-norm cache plus the
    statistics of the patches, whose centred copy the caller keeps."""

    patch_mean: np.ndarray  # (Rf*C,) column mean of the patches
    scatter: np.ndarray  # (Rf*C, Rf*C) centred patches' Gram matrix, n times their covariance


def conv_batchnorm_train(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    stride: int,
    cols: np.ndarray,
    out: np.ndarray,
) -> tuple[np.ndarray, ConvBatchNormCache, np.ndarray, np.ndarray]:
    """batchnorm_train(conv1d_forward(x, ...)) from the statistics of the patches.

    For a layer whose patches are narrow (the first, Rf*C_in wide), the n
    patch rows P are centred in place in ``cols`` (P_c = P - mu) and reduced
    to their Gram matrix S = P_c^T P_c. The convolution's batch mean is then
    W mu + b, its variance w_k^T S w_k / n, and x_hat = P_c (W / sigma)^T is
    one GEMM into ``out``: no pass over the (n, K) output for the bias or the
    statistics. Returns (x_hat, cache, batch_mean, batch_var) as
    batchnorm_train does; ``cols`` is left holding the centred patches.
    """
    k, c, rf = weights.shape
    _check_conv_input(x, weights, bias)
    cols = im2col(x, rf, stride, out=cols)
    batch, m, width = cols.shape
    count = batch * m
    centered = _view(cols, (count, width))
    patch_mean = _channel_sums(centered) / count
    centered -= patch_mean
    scatter = centered.T @ centered
    w = _kernel_matrix(weights)
    mean = w @ patch_mean + bias
    # S is positive semi-definite; round-off must not make a variance negative
    var = np.maximum(np.einsum("kj,kj->k", w @ scatter, w) / count, 0.0)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scaled = np.ascontiguousarray((w * inv_std[:, None]).T)  # GEMM-ready (Rf*C, K)
    np.matmul(centered, scaled, out=_view(out, (count, k)))
    cache = ConvBatchNormCache(
        x_hat=out, inv_std=inv_std, count=count, patch_mean=patch_mean, scatter=scatter
    )
    return out, cache, mean, var


def conv_batchnorm_backward(
    cache: ConvBatchNormCache,
    cols: np.ndarray,
    weights: np.ndarray,
    grad_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(grad_weights, grad_bias) through conv_batchnorm_train(...).

    ``cols`` are the centred patches conv_batchnorm_train left behind and
    grad_out (B, m, K) the gradient at its output x_hat, which is not read
    and may have been overwritten: a ReLU after it is backpropagated by
    whoever writes grad_out. With g that gradient and s1 and s2 the
    per-channel sums of g and g*x_hat, the gradient dz at the convolution
    output is (g - s1/n - x_hat s2/n) / sigma. Since x_hat = P_c (W /
    sigma)^T, s2 is the row-wise dot of g^T P_c with W / sigma, x_hat^T P_c
    = (W / sigma) S and so dz^T P_c = (g^T P_c - (s1/n) (1^T P_c) - (s2/n)
    (W / sigma) S) / sigma: the only pass over the (n, K) gradient is the
    GEMM g^T P_c. grad_bias = 1^T dz and grad_weights = dz^T P_c +
    grad_bias mu^T. 1^T P_c is zero up to round-off; it is kept as computed.
    """
    k, c, rf = weights.shape
    count = cache.count
    if grad_out.shape != cache.x_hat.shape:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match the layer output "
            f"{cache.x_hat.shape}"
        )
    centered = cols.reshape(count, rf * c)
    g = grad_out.reshape(count, k)
    sum_g = _channel_sums(g)
    mean_g = sum_g / count
    scaled = _kernel_matrix(weights) * cache.inv_std[:, None]
    col_sums = _channel_sums(centered)
    grad_centered = g.T @ centered
    mean_gx = np.einsum("kj,kj->k", grad_centered, scaled) / count
    grad_centered -= np.outer(mean_g, col_sums)
    grad_centered -= mean_gx[:, None] * (scaled @ cache.scatter)
    grad_centered *= cache.inv_std[:, None]
    grad_bias = cache.inv_std * (sum_g - count * mean_g - (scaled @ col_sums) * mean_gx)
    grad_centered += np.outer(grad_bias, cache.patch_mean)
    grad_weights = np.ascontiguousarray(grad_centered.reshape(k, rf, c).transpose(0, 2, 1))
    return grad_weights, grad_bias


def update_running_stat(running: np.ndarray, batch_value: np.ndarray) -> np.ndarray:
    """EMA update: BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch_value."""
    return BN_MOMENTUM * running + (1.0 - BN_MOMENTUM) * batch_value


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return grad_out * (x > 0)


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: (B, F_in) @ (F_in, F_out) + (F_out,)."""
    return x @ weights + bias


def dense_backward(
    x: np.ndarray,
    weights: np.ndarray,
    grad_out: np.ndarray,
    grad_weights: np.ndarray,
    grad_bias: np.ndarray,
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients through dense_forward: (grad_x, grad_weights, grad_bias).
    The weight and bias gradients are written into ``grad_weights`` and
    ``grad_bias``, C-contiguous and shaped like the weights and the bias,
    and grad_x, shaped like x, into the leading values of the C-contiguous
    ``scratch``."""
    if scratch.size < x.size:
        raise ValueError(
            f"scratch of {scratch.size} values is too small: dense_backward needs "
            f"{x.size} for its {x.shape[0]} x {x.shape[1]} input gradient"
        )
    np.matmul(x.T, grad_out, out=grad_weights)
    np.sum(grad_out, axis=0, out=grad_bias)
    grad_x = np.matmul(grad_out, weights.T, out=_leading(scratch, x.shape))
    return grad_x, grad_weights, grad_bias


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
