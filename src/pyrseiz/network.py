"""The pyramidal 1-D CNN: model configs, parameters, forward/backward, parameter audit.

Pipeline: [Conv-BN-ReLU] x3 -> flatten -> FC1 -> ReLU -> Dropout -> FC2 -> softmax.
No pooling; downsampling comes from the convolution strides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import layers
from .layers import conv_output_length

PYRAMID_KERNELS = (24, 16, 8)
TRADITIONAL_KERNELS = (8, 16, 24)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of one network variant.

    Defaults describe the pyramid model on 512-sample windows: kernel counts
    (24, 16, 8), receptive fields (5, 3, 3), strides (3, 2, 2), giving conv
    output lengths 170 -> 84 -> 41.
    """

    kernel_counts: tuple[int, int, int] = PYRAMID_KERNELS
    receptive_fields: tuple[int, int, int] = (5, 3, 3)
    strides: tuple[int, int, int] = (3, 2, 2)
    fc1_width: int = 20
    dropout_rate: float = 0.5
    num_classes: int = 2
    input_length: int = 512

    def __post_init__(self) -> None:
        for name in ("kernel_counts", "receptive_fields", "strides"):
            triple = getattr(self, name)
            if len(triple) != 3 or any(int(v) < 1 for v in triple):
                raise ValueError(f"{name} must be three positive integers, got {triple}")
            object.__setattr__(self, name, tuple(int(v) for v in triple))
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.fc1_width < 1:
            raise ValueError(f"fc1_width must be >= 1, got {self.fc1_width}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_length < 1:
            raise ValueError(f"input_length must be >= 1, got {self.input_length}")
        self.conv_lengths()  # raises if the conv chain does not fit

    def conv_lengths(self) -> tuple[int, int, int]:
        """Per-layer output lengths under the valid strided sweep."""
        lengths = []
        z = self.input_length
        for rf, stride in zip(self.receptive_fields, self.strides):
            z = conv_output_length(z, rf, stride)
            lengths.append(z)
        return tuple(lengths)

    @property
    def flatten_width(self) -> int:
        return self.kernel_counts[2] * self.conv_lengths()[2]

    @property
    def family(self) -> str:
        k1, k2, k3 = self.kernel_counts
        if k1 > k2 > k3:
            return "pyramid"
        if k1 < k2 < k3:
            return "traditional"
        return "custom"


@dataclass(frozen=True)
class ModelVariant:
    """One named entry of the M1..M8 grid."""

    name: str
    kernel_counts: tuple[int, int, int]
    fc1_width: int
    dropout_rate: float


# M1-M4 traditional, M5-M8 pyramid; within a family the grid order is
# (FC1=20, DO=0), (20, 0.5), (40, 0), (40, 0.5). M5 is pinned to the
# pyramid/FC1=20/dropout=0.5 settings (same as M6); pass dropout_rate=0
# explicitly to run the dropout-free sibling.
MODEL_GRID: dict[str, ModelVariant] = {
    "M1": ModelVariant("M1", TRADITIONAL_KERNELS, 20, 0.0),
    "M2": ModelVariant("M2", TRADITIONAL_KERNELS, 20, 0.5),
    "M3": ModelVariant("M3", TRADITIONAL_KERNELS, 40, 0.0),
    "M4": ModelVariant("M4", TRADITIONAL_KERNELS, 40, 0.5),
    "M5": ModelVariant("M5", PYRAMID_KERNELS, 20, 0.5),
    "M6": ModelVariant("M6", PYRAMID_KERNELS, 20, 0.5),
    "M7": ModelVariant("M7", PYRAMID_KERNELS, 40, 0.0),
    "M8": ModelVariant("M8", PYRAMID_KERNELS, 40, 0.5),
}

MODEL_NAMES = tuple(MODEL_GRID)


def model_config(
    name: str,
    num_classes: int,
    fc1_width: int | None = None,
    dropout_rate: float | None = None,
) -> ModelConfig:
    """Resolve a model name (M1..M8) into a ModelConfig, with optional overrides."""
    try:
        variant = MODEL_GRID[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; valid names: {', '.join(MODEL_NAMES)}"
        ) from None
    return ModelConfig(
        kernel_counts=variant.kernel_counts,
        fc1_width=variant.fc1_width if fc1_width is None else fc1_width,
        dropout_rate=variant.dropout_rate if dropout_rate is None else dropout_rate,
        num_classes=num_classes,
    )


@lru_cache(maxsize=64)
def _layout(config: ModelConfig) -> tuple[tuple[tuple[str, slice, tuple[int, ...]], ...], int, int]:
    """Where each tensor lives in the flat vector: ((name, slice, shape), ...)
    in ``parameter_shapes`` order, the learnable length and the total length."""
    slices = []
    start = learnable = 0
    for name, shape in parameter_shapes(config).items():
        stop = start + math.prod(shape)
        slices.append((name, slice(start, stop), shape))
        if not name.startswith("bn"):
            learnable = stop
        start = stop
    return tuple(slices), learnable, start


def _views(template: str) -> property:
    return property(lambda self: tuple(self.tensors[template.format(i)] for i in (1, 2, 3)))


def _view(name: str) -> property:
    return property(lambda self: self.tensors[name])


class NetworkParameters:
    """Every tensor of one network, stored as named views into one flat vector.

    ``flat`` is a float64 vector in ``parameter_shapes`` order: the learnable
    tensors fill its leading ``learnable`` slice, the batch-norm running
    statistics (buffers) follow. ``tensors`` maps each name to its reshaped
    view. Conv weights are (K, C_in, Rf); dense weights are (F_in, F_out) so
    the forward pass is x @ W + b. The per-layer accessors are read-only
    views: write into them, never rebind them.
    """

    conv_weights = _views("conv{}.weight")
    conv_biases = _views("conv{}.bias")
    bn_running_mean = _views("bn{}.running_mean")
    bn_running_var = _views("bn{}.running_var")
    fc1_weight = _view("fc1.weight")
    fc1_bias = _view("fc1.bias")
    fc2_weight = _view("fc2.weight")
    fc2_bias = _view("fc2.bias")

    def __init__(self, config: ModelConfig, flat: np.ndarray | None = None) -> None:
        slices, learnable, size = _layout(config)
        if flat is None:
            flat = np.zeros(size)
        elif not isinstance(flat, np.ndarray) or flat.dtype != np.float64 or flat.shape != (size,):
            raise ValueError(
                f"flat parameters must be a float64 vector of {size} values, got "
                f"{getattr(flat, 'dtype', type(flat).__name__)} {np.shape(flat)}"
            )
        self.config = config
        self.flat = flat
        self.learnable = flat[:learnable]
        self.tensors = {name: flat[where].reshape(shape) for name, where, shape in slices}

    def copy(self) -> "NetworkParameters":
        return NetworkParameters(self.config, self.flat.copy())

    def __reduce__(self):
        # rebuild the views on unpickling; a default pickle would detach them from flat
        return NetworkParameters, (self.config, self.flat)


class Workspace:
    """Activation and gradient buffers for one batch size, reused pass to pass.

    Every array is C-contiguous and channel-last. ``forward`` and
    ``backward`` write into the buffers with ``out=``, so a trace made with a
    workspace is valid only until the next pass that uses the same
    workspace. Buffers only training needs are allocated on first use.
    """

    def __init__(self, config: ModelConfig, batch: int) -> None:
        self.config = config
        self.batch = batch
        self.cols: list[np.ndarray] = []  # im2col patches, kept for backward
        self.normalized: list[np.ndarray] = []  # conv output, batch-normalized in place
        self.act: list[np.ndarray] = []  # ReLU outputs
        in_channels = (1,) + config.kernel_counts[:2]
        for m, k, c, rf in zip(
            config.conv_lengths(), config.kernel_counts, in_channels, config.receptive_fields
        ):
            self.cols.append(np.empty((batch, m, rf * c)))
            self.normalized.append(np.empty((batch, m, k)))
            self.act.append(np.empty((batch, m, k)))
        self.flat = np.empty((batch, config.flatten_width))

    @cached_property
    def windows(self) -> np.ndarray:
        """Where a training loop gathers its (batch, input_length) batch."""
        return np.empty((self.batch, self.config.input_length))

    @cached_property
    def grad_act(self) -> list[np.ndarray]:
        """Loss gradient at each conv layer's ReLU output; allocated by the first backward."""
        return [np.empty_like(a) for a in self.act]

    @cached_property
    def grad_cols(self) -> list[np.ndarray | None]:
        """Scatter space of each conv input gradient; conv1's input is data and has none."""
        return [None] + [np.empty_like(c) for c in self.cols[1:]]


@dataclass
class ForwardTrace:
    """Intermediates cached by a training-mode forward pass for backprop."""

    conv_cols: list[np.ndarray]  # im2col patches of each conv input
    bn_caches: list[layers.BatchNormCache]  # x_hat: the batch-norm outputs feeding each ReLU
    fc1_input: np.ndarray  # flattened conv stack output
    fc1_pre: np.ndarray  # FC1 pre-activation
    dropout_mask: np.ndarray | None
    fc2_input: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    workspace: Workspace


def forward(
    config: ModelConfig,
    params: NetworkParameters,
    windows: np.ndarray,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, ForwardTrace | None]:
    """Run a window batch through the network; returns (probs, trace).

    ``windows`` is (B, input_length) or a single window. The trace is None at
    inference. Training mode normalizes by batch statistics and updates the
    running statistics in place in ``params``; inference normalizes by running
    statistics and applies no dropout. Activations are written into
    ``workspace``; without one, training makes a fresh workspace and
    inference allocates as it goes. The returned probabilities are always a
    fresh array.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != config.input_length:
        raise ValueError(
            f"expected windows of length {config.input_length}, got shape {x.shape}"
        )
    batch = x.shape[0]
    ws = Workspace(config, batch) if workspace is None and training else workspace
    if ws is not None and (ws.config != config or ws.batch != batch):
        raise ValueError(
            f"workspace for {ws.batch} windows does not fit a batch of {batch} "
            "under this config"
        )
    # without a workspace (inference) each layer allocates arrays that die with it
    buffers = zip(ws.cols, ws.normalized, ws.act) if ws is not None else [(None,) * 3] * 3
    h = x[:, :, None]  # (B, L, 1): channel-last from the first layer
    bn_caches: list[layers.BatchNormCache] = []
    weights, biases = params.conv_weights, params.conv_biases
    running_mean, running_var = params.bn_running_mean, params.bn_running_var
    for i, (cols, normalized, act) in enumerate(buffers):
        z = layers.conv1d_forward(
            h, weights[i], biases[i], config.strides[i], cols=cols, out=normalized
        )
        if training:
            z, cache, mean, var = layers.batchnorm_train(z, out=z)
            running_mean[i][...] = layers.update_running_stat(running_mean[i], mean)
            running_var[i][...] = layers.update_running_stat(running_var[i], var)
            bn_caches.append(cache)
        else:
            layers.batchnorm_infer(z, running_mean[i], running_var[i], out=z)
        h = layers.relu(z, out=z if act is None else act)  # inference keeps no x_hat
    # flatten in (kernel, position) order, the order fc1.weight's rows are stored in
    flat = ws.flat if ws is not None else np.empty((batch, config.flatten_width))
    np.copyto(flat.reshape(batch, h.shape[2], h.shape[1]), h.transpose(0, 2, 1))
    fc1_pre = layers.dense_forward(flat, params.fc1_weight, params.fc1_bias)
    hidden = layers.relu(fc1_pre)
    dropped, mask = layers.dropout_forward(
        hidden, config.dropout_rate, rng=dropout_rng, training=training
    )
    logits = layers.dense_forward(dropped, params.fc2_weight, params.fc2_bias)
    probs = layers.softmax(logits)
    if not training:
        return probs, None
    trace = ForwardTrace(
        conv_cols=ws.cols,
        bn_caches=bn_caches,
        fc1_input=flat,
        fc1_pre=fc1_pre,
        dropout_mask=mask,
        fc2_input=dropped,
        logits=logits,
        probs=probs,
        workspace=ws,
    )
    return probs, trace


def backward(
    config: ModelConfig,
    params: NetworkParameters,
    trace: ForwardTrace,
    grad_logits: np.ndarray,
) -> NetworkParameters:
    """Gradients of a scalar loss w.r.t. every learnable tensor.

    ``grad_logits`` is the loss gradient at the FC2 output (already scaled by
    any batch averaging). Conv-stack gradients are written into the trace's
    workspace; the result is a fresh ``NetworkParameters`` laid out like
    ``params``, whose batch-norm buffer slots stay zero.
    """
    ws = trace.workspace
    grads = NetworkParameters(config)
    d, grads.fc2_weight[...], grads.fc2_bias[...] = layers.dense_backward(
        trace.fc2_input, params.fc2_weight, grad_logits
    )
    d = layers.dropout_backward(trace.dropout_mask, config.dropout_rate, d)
    d = layers.relu_backward(trace.fc1_pre, d)
    d, grads.fc1_weight[...], grads.fc1_bias[...] = layers.dense_backward(
        trace.fc1_input, params.fc1_weight, d
    )
    g = ws.grad_act[2]
    np.copyto(g, d.reshape(g.shape[0], g.shape[2], g.shape[1]).transpose(0, 2, 1))
    for i in (2, 1, 0):
        g = layers.batchnorm_backward(trace.bn_caches[i], g, relu=True, out=g)
        g, grads.conv_weights[i][...], grads.conv_biases[i][...] = layers.conv1d_backward(
            trace.conv_cols[i], params.conv_weights[i], config.strides[i], g,
            grad_x=ws.grad_act[i - 1] if i else None, grad_cols=ws.grad_cols[i],
        )
    return grads


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor a config implies, by name, in storage order.

    The one table of a network's tensors: ``NetworkParameters`` lays its flat
    vector out in this order and checkpoints write it. Conv weights are
    (K, C_in, Rf), dense weights (F_in, F_out); the batch-norm running
    statistics (``bn*``) come last.
    """
    shapes: dict[str, tuple[int, ...]] = {}
    c_in = 1
    for i, (k, rf) in enumerate(zip(config.kernel_counts, config.receptive_fields), start=1):
        shapes[f"conv{i}.weight"] = (k, c_in, rf)
        shapes[f"conv{i}.bias"] = (k,)
        c_in = k
    shapes["fc1.weight"] = (config.flatten_width, config.fc1_width)
    shapes["fc1.bias"] = (config.fc1_width,)
    shapes["fc2.weight"] = (config.fc1_width, config.num_classes)
    shapes["fc2.bias"] = (config.num_classes,)
    for i, k in enumerate(config.kernel_counts, start=1):
        shapes[f"bn{i}.running_mean"] = (k,)
        shapes[f"bn{i}.running_var"] = (k,)
    return shapes


def count_parameters(config: ModelConfig) -> int:
    """Learnable tensor count: conv kernels+biases plus dense weights+biases.

    Batch-norm running statistics are buffers and are excluded.
    """
    return _layout(config)[1]


def init_parameters(config: ModelConfig, seed: int) -> NetworkParameters:
    """He-style init: N(0, sqrt(2/fan_in)) weights, zero biases, (0, 1) BN stats.

    Weights are drawn in ``parameter_shapes`` order: conv1..conv3, fc1, fc2.
    """
    rng = np.random.default_rng(seed)
    params = NetworkParameters(config)
    for name, tensor in params.tensors.items():
        if name.endswith(".weight"):
            # conv (K, C_in, Rf) fans in over C_in * Rf; dense (F_in, F_out) over F_in
            fan_in = tensor[0].size if name.startswith("conv") else len(tensor)
            tensor[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=tensor.shape)
        elif name.endswith(".running_var"):
            tensor.fill(1.0)
    return params
