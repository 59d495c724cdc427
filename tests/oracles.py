"""Independent reference implementations used as test oracles.

Everything here is deliberately brute-force and written without touching the
package's own code paths, so a bug cannot hide on both sides of a comparison.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# Adam's constants come from the package; the update formulas are written out below
from pyrseiz.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def central_difference(loss_fn, tensor: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function w.r.t. an array."""
    grad = np.zeros_like(tensor)
    flat = tensor.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        plus = loss_fn()
        flat[i] = orig - h
        minus = loss_fn()
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2.0 * h)
    return grad


def max_relative_error(
    analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6
) -> float:
    """Worst elementwise relative error, floored so exact zeros compare sanely."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def count_offsets(signal_length: int, window: int, stride: int) -> int:
    """Enumerate every valid window start offset and count them."""
    count = 0
    offset = 0
    while offset + window <= signal_length:
        count += 1
        offset += stride
    return count


def conv1d_loops(x, weights, bias, stride):
    """Direct triple-loop valid cross-correlation, (B, C, L) x (K, C, Rf)."""
    b, c, length = x.shape
    k, _, rf = weights.shape
    m = (length - rf) // stride + 1
    out = np.zeros((b, k, m))
    for bi in range(b):
        for ki in range(k):
            for j in range(m):
                acc = bias[ki]
                for ci in range(c):
                    for e in range(rf):
                        acc += weights[ki, ci, e] * x[bi, ci, j * stride + e]
                out[bi, ki, j] = acc
    return out


def conv1d_gradients_loops(x, weights, stride, grad_out):
    """(grad_x, grad_weights) of a valid strided cross-correlation by direct
    loops over every (sample, kernel, window, channel, tap) product:
    (B, C, L) input, (K, C, Rf) weights and (B, K, m) output gradient."""
    b, c, length = x.shape
    k, _, rf = weights.shape
    m = grad_out.shape[2]
    grad_x = np.zeros_like(x)
    grad_w = np.zeros_like(weights)
    for bi in range(b):
        for ki in range(k):
            for j in range(m):
                g = grad_out[bi, ki, j]
                for ci in range(c):
                    for e in range(rf):
                        grad_x[bi, ci, j * stride + e] += g * weights[ki, ci, e]
                        grad_w[ki, ci, e] += g * x[bi, ci, j * stride + e]
    return grad_x, grad_w


def metrics_from_pairs(true_labels, predicted, positive):
    """Binary metrics by direct pair counting (TP against the positive class)."""
    tp = fn = fp = tn = 0
    for t, p in zip(true_labels, predicted):
        if t == positive:
            if p == positive:
                tp += 1
            else:
                fn += 1
        else:
            if p == positive:
                fp += 1
            else:
                tn += 1
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    sen = tp / (tp + fn) if tp + fn else None
    spe = tn / (tn + fp) if tn + fp else None
    precision = tp / (tp + fp) if tp + fp else None
    if sen is None or precision is None or precision + sen == 0:
        f_m = None
    else:
        f_m = 2 * precision * sen / (precision + sen)
    g_m = None if sen is None or spe is None else math.sqrt(spe * sen)
    return acc, sen, spe, precision, f_m, g_m


def vote_oracle(votes, probs):
    """Count-then-mass-then-lowest-index fusion, written independently."""
    counts = Counter(votes)
    top = max(counts.values())
    leaders = sorted(c for c, n in counts.items() if n == top)
    if len(leaders) == 1:
        return leaders[0], False
    mass = {c: sum(p[c] for p in probs) for c in leaders}
    best = max(mass.values())
    winner = min(c for c in leaders if mass[c] == best)
    return winner, True


def adam_scalar_reference(grad_fn, theta, lr, beta1, beta2, eps, steps):
    """Scalar Adam trajectory written from the update equations."""
    m = v = 0.0
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def adam_per_tensor_reference(tensors, grads, m, v, t, lr, beta1, beta2, eps):
    """Step ``t`` of Adam tensor by tensor over dicts of arrays, all updated in place."""
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for name, tensor in tensors.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        tensor -= lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)


def adam_step_allocating(params, grads, state, config):
    """The Adam update as one expression per moment and one for the step,
    each allocating its intermediates."""
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.t
    bias2 = 1.0 - ADAM_BETA2 ** state.t
    g, m, v = grads.learnable, state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    params.learnable -= config.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def window_matrix(records, stride, window=512):
    """Every training window of ``records``, normalized and stacked row-wise:
    the (n, window) matrix a WindowSet's rows are gathered from."""
    from pyrseiz.windowing import normalize

    return np.concatenate([
        normalize(np.lib.stride_tricks.sliding_window_view(samples, window)[::stride])
        for samples in records
    ])


def read_samples_by_line(path):
    """Sample-file parser one line at a time: blank lines skipped, the first
    non-numeric or non-finite sample raises ValueError with its ``path:line``."""
    values = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric sample {text!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite sample {text!r}")
            values.append(value)
    return np.array(values, dtype=np.float64)


def save_checkpoint_v1(params, config, path):
    """The decimal ``p1dcnn-v1`` checkpoint: config echo, then each tensor as
    whitespace-separated 17-significant-digit decimals on one line."""
    lines = ["p1dcnn-v1"]
    lines.append("config kernel_counts " + " ".join(str(v) for v in config.kernel_counts))
    lines.append(
        "config receptive_fields " + " ".join(str(v) for v in config.receptive_fields)
    )
    lines.append("config strides " + " ".join(str(v) for v in config.strides))
    lines.append(f"config fc1_width {config.fc1_width}")
    lines.append(f"config dropout_rate {format(config.dropout_rate, '.17g')}")
    lines.append(f"config num_classes {config.num_classes}")
    lines.append(f"config input_length {config.input_length}")
    for name, tensor in params.tensors.items():
        lines.append(f"tensor {name} " + " ".join(str(d) for d in tensor.shape))
        lines.append(" ".join(format(v, ".17g") for v in tensor.ravel()))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _unfold_channels_first(x, rf, stride):
    """Per-tap gather of sliding patches: (B, C, L) -> (B, m, C, Rf)."""
    batch, channels, length = x.shape
    m = (length - rf) // stride + 1
    cols = np.empty((batch, m, channels, rf))
    stop = stride * (m - 1) + 1
    for e in range(rf):
        cols[:, :, :, e] = x[:, :, e : e + stop : stride].transpose(0, 2, 1)
    return cols


def forward_reference(config, params, windows, training=False, dropout_rng=None):
    """The network's forward pass on (batch, channels, length) activations.

    Convolution is a per-tap unfold plus one GEMM, batch norm pools over axes
    (0, 2), and the flatten reads (kernel, position) order, so it checks the
    channel-last implementation against an independent layout. Training mode
    updates ``params``' running statistics (momentum 0.9, eps 1e-5) and draws
    the dropout mask from ``dropout_rng``. Inference is unfolded: conv plus
    bias, minus the running mean, divided by sqrt(var + eps), then ReLU,
    where the network folds batch norm into the conv weights and bias.
    Returns (probs, trace dict).
    """
    h = np.asarray(windows, dtype=np.float64)[:, None, :]
    trace = {"inputs": [], "x_hat": [], "inv_std": []}
    for i in range(3):
        w, stride = params.conv_weights[i], config.strides[i]
        k, c, rf = w.shape
        trace["inputs"].append(h)
        cols = _unfold_channels_first(h, rf, stride)
        batch, m = cols.shape[:2]
        z = (cols.reshape(batch * m, c * rf) @ w.reshape(k, c * rf).T).reshape(batch, m, k)
        z = z.transpose(0, 2, 1) + params.conv_biases[i][None, :, None]
        if training:
            mean, var = z.mean(axis=(0, 2)), z.var(axis=(0, 2))
            inv_std = 1.0 / np.sqrt(var + 1e-5)
            z = (z - mean[None, :, None]) * inv_std[None, :, None]
            params.bn_running_mean[i][...] = 0.9 * params.bn_running_mean[i] + (1.0 - 0.9) * mean
            params.bn_running_var[i][...] = 0.9 * params.bn_running_var[i] + (1.0 - 0.9) * var
            trace["x_hat"].append(z)
            trace["inv_std"].append(inv_std)
        else:
            scale = np.sqrt(params.bn_running_var[i] + 1e-5)
            z = (z - params.bn_running_mean[i][None, :, None]) / scale[None, :, None]
        h = np.maximum(z, 0.0)
    trace["flat"] = flat = h.reshape(h.shape[0], -1)
    trace["fc1_pre"] = fc1_pre = flat @ params.fc1_weight + params.fc1_bias
    hidden = np.maximum(fc1_pre, 0.0)
    trace["mask"] = None
    if training and config.dropout_rate > 0.0:
        mask = (dropout_rng.random(hidden.shape) >= config.dropout_rate).astype(np.float64)
        hidden = hidden * mask / (1.0 - config.dropout_rate)
        trace["mask"] = mask
    trace["fc2_input"] = hidden
    trace["logits"] = logits = hidden @ params.fc2_weight + params.fc2_bias
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True), trace


def backward_reference(config, params, trace, grad_logits):
    """Gradients of every learnable tensor through ``forward_reference``'s trace."""
    grads = {
        "fc2.weight": trace["fc2_input"].T @ grad_logits,
        "fc2.bias": grad_logits.sum(axis=0),
    }
    d = grad_logits @ params.fc2_weight.T
    if trace["mask"] is not None:
        d = d * trace["mask"] / (1.0 - config.dropout_rate)
    d = d * (trace["fc1_pre"] > 0)
    grads["fc1.weight"] = trace["flat"].T @ d
    grads["fc1.bias"] = d.sum(axis=0)
    d = d @ params.fc1_weight.T
    d = d.reshape(d.shape[0], config.kernel_counts[2], -1)
    for i in (2, 1, 0):
        x_hat, inv_std = trace["x_hat"][i], trace["inv_std"][i]
        d = d * (x_hat > 0)
        n = d.shape[0] * d.shape[2]
        sum_g = d.sum(axis=(0, 2))
        sum_gx = (d * x_hat).sum(axis=(0, 2))
        d = (inv_std[None, :, None] / n) * (
            n * d - sum_g[None, :, None] - x_hat * sum_gx[None, :, None]
        )
        x, w, stride = trace["inputs"][i], params.conv_weights[i], config.strides[i]
        k, c, rf = w.shape
        cols = _unfold_channels_first(x, rf, stride)
        batch, m = cols.shape[:2]
        g = d.transpose(0, 2, 1).reshape(batch * m, k)
        grads[f"conv{i + 1}.bias"] = d.sum(axis=(0, 2))
        grads[f"conv{i + 1}.weight"] = (g.T @ cols.reshape(batch * m, c * rf)).reshape(k, c, rf)
        d = conv1d_input_gradient_loops(d, w, stride, x.shape[2])
    return grads


def conv1d_input_gradient_loops(grad_out, weights, stride, length):
    """Input gradient of a valid strided convolution by col2im: each window's
    column gradient is added, tap by tap, onto the input positions it read.
    (B, K, m) x (K, C, Rf) -> (B, C, length), channels first."""
    batch, k, m = grad_out.shape
    _, c, rf = weights.shape
    g = grad_out.transpose(0, 2, 1).reshape(batch * m, k)
    grad_cols = (g @ weights.reshape(k, c * rf)).reshape(batch, m, c, rf)
    d = np.zeros((batch, c, length))
    stop = stride * (m - 1) + 1
    for e in range(rf):
        d[:, :, e : e + stop : stride] += grad_cols[:, :, :, e].transpose(0, 2, 1)
    return d


def confusion_from_pairs(true_labels, predicted, num_classes):
    """Counts matrix with rows = true class, columns = predicted class."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(true_labels, predicted, strict=True):
        cm[t, p] += 1
    return cm
