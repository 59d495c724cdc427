"""The pyramidal 1-D CNN: model configs, parameters, forward/backward, parameter audit.

Pipeline: [Conv-BN-ReLU] x3 -> flatten -> FC1 -> ReLU -> Dropout -> FC2 -> softmax.
No pooling; downsampling comes from the convolution strides.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class NetworkParameters:
    """Learnable weights/biases plus batch-norm running statistics.

    Conv weights are (K, C_in, Rf); dense weights are (F_in, F_out) so the
    forward pass is x @ W + b. Running statistics are buffers, not learnable.
    """

    conv_weights: list[np.ndarray]
    conv_biases: list[np.ndarray]
    fc1_weight: np.ndarray
    fc1_bias: np.ndarray
    fc2_weight: np.ndarray
    fc2_bias: np.ndarray
    bn_running_mean: list[np.ndarray]
    bn_running_var: list[np.ndarray]

    def named_learnables(self) -> list[tuple[str, np.ndarray]]:
        out: list[tuple[str, np.ndarray]] = []
        for i, (w, b) in enumerate(zip(self.conv_weights, self.conv_biases), start=1):
            out.append((f"conv{i}.weight", w))
            out.append((f"conv{i}.bias", b))
        out.append(("fc1.weight", self.fc1_weight))
        out.append(("fc1.bias", self.fc1_bias))
        out.append(("fc2.weight", self.fc2_weight))
        out.append(("fc2.bias", self.fc2_bias))
        return out

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        out: list[tuple[str, np.ndarray]] = []
        for i, (m, v) in enumerate(zip(self.bn_running_mean, self.bn_running_var), start=1):
            out.append((f"bn{i}.running_mean", m))
            out.append((f"bn{i}.running_var", v))
        return out

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return self.named_learnables() + self.named_buffers()

    @classmethod
    def from_named(cls, tensors: dict[str, np.ndarray]) -> "NetworkParameters":
        """Inverse of ``named_tensors``: assemble parameters from tensors by name."""
        return cls(
            conv_weights=[tensors[f"conv{i}.weight"] for i in (1, 2, 3)],
            conv_biases=[tensors[f"conv{i}.bias"] for i in (1, 2, 3)],
            fc1_weight=tensors["fc1.weight"],
            fc1_bias=tensors["fc1.bias"],
            fc2_weight=tensors["fc2.weight"],
            fc2_bias=tensors["fc2.bias"],
            bn_running_mean=[tensors[f"bn{i}.running_mean"] for i in (1, 2, 3)],
            bn_running_var=[tensors[f"bn{i}.running_var"] for i in (1, 2, 3)],
        )

    def copy(self) -> "NetworkParameters":
        return NetworkParameters(
            conv_weights=[w.copy() for w in self.conv_weights],
            conv_biases=[b.copy() for b in self.conv_biases],
            fc1_weight=self.fc1_weight.copy(),
            fc1_bias=self.fc1_bias.copy(),
            fc2_weight=self.fc2_weight.copy(),
            fc2_bias=self.fc2_bias.copy(),
            bn_running_mean=[m.copy() for m in self.bn_running_mean],
            bn_running_var=[v.copy() for v in self.bn_running_var],
        )


@dataclass
class ForwardTrace:
    """Intermediates cached by a training-mode forward pass for backprop."""

    conv_inputs: list[np.ndarray]
    bn_caches: list[layers.BatchNormCache]
    relu_inputs: list[np.ndarray]  # batch-norm outputs feeding each conv ReLU
    fc1_input: np.ndarray  # flattened conv stack output
    fc1_pre: np.ndarray  # FC1 pre-activation
    dropout_mask: np.ndarray | None
    fc2_input: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


def forward(
    config: ModelConfig,
    params: NetworkParameters,
    windows: np.ndarray,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTrace | None]:
    """Run a window batch through the network; returns (probs, trace).

    ``windows`` is (B, input_length) or a single window. The trace is None at
    inference. Training mode normalizes by batch statistics and updates the
    running statistics in ``params``; inference normalizes by running
    statistics and applies no dropout.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != config.input_length:
        raise ValueError(
            f"expected windows of length {config.input_length}, got shape {x.shape}"
        )
    h = x[:, None, :]
    conv_inputs: list[np.ndarray] = []
    bn_caches: list[layers.BatchNormCache] = []
    relu_inputs: list[np.ndarray] = []
    for i in range(3):
        conv_inputs.append(h)
        h = layers.conv1d_forward(
            h, params.conv_weights[i], params.conv_biases[i], config.strides[i]
        )
        if training:
            h, cache, mean, var = layers.batchnorm_train(h)
            params.bn_running_mean[i] = layers.update_running_stat(
                params.bn_running_mean[i], mean
            )
            params.bn_running_var[i] = layers.update_running_stat(
                params.bn_running_var[i], var
            )
            bn_caches.append(cache)
        else:
            h = layers.batchnorm_infer(
                h, params.bn_running_mean[i], params.bn_running_var[i]
            )
        relu_inputs.append(h)
        h = layers.relu(h)
    flat = h.reshape(h.shape[0], -1)
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
        conv_inputs=conv_inputs,
        bn_caches=bn_caches,
        relu_inputs=relu_inputs,
        fc1_input=flat,
        fc1_pre=fc1_pre,
        dropout_mask=mask,
        fc2_input=dropped,
        logits=logits,
        probs=probs,
    )
    return probs, trace


def backward(
    config: ModelConfig,
    params: NetworkParameters,
    trace: ForwardTrace,
    grad_logits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every learnable tensor.

    ``grad_logits`` is the loss gradient at the FC2 output (already scaled by
    any batch averaging).
    """
    grads: dict[str, np.ndarray] = {}
    d, g_w, g_b = layers.dense_backward(trace.fc2_input, params.fc2_weight, grad_logits)
    grads["fc2.weight"], grads["fc2.bias"] = g_w, g_b
    d = layers.dropout_backward(trace.dropout_mask, config.dropout_rate, d)
    d = layers.relu_backward(trace.fc1_pre, d)
    d, g_w, g_b = layers.dense_backward(trace.fc1_input, params.fc1_weight, d)
    grads["fc1.weight"], grads["fc1.bias"] = g_w, g_b
    batch = trace.fc1_input.shape[0]
    d = d.reshape(batch, config.kernel_counts[2], config.conv_lengths()[2])
    for i in (2, 1, 0):
        d = layers.relu_backward(trace.relu_inputs[i], d)
        d = layers.batchnorm_backward(trace.bn_caches[i], d)
        d, g_w, g_b = layers.conv1d_backward(
            trace.conv_inputs[i], params.conv_weights[i], config.strides[i], d
        )
        grads[f"conv{i + 1}.weight"], grads[f"conv{i + 1}.bias"] = g_w, g_b
    return grads


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor a config implies, by name, in ``named_tensors`` order.

    Conv weights are (K, C_in, Rf), dense weights (F_in, F_out); the batch-norm
    running statistics (``bn*``) come last.
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
    return sum(
        int(np.prod(shape))
        for name, shape in parameter_shapes(config).items()
        if not name.startswith("bn")
    )


def init_parameters(config: ModelConfig, seed: int) -> NetworkParameters:
    """He-style init: N(0, sqrt(2/fan_in)) weights, zero biases, (0, 1) BN stats.

    Weights are drawn in ``parameter_shapes`` order: conv1..conv3, fc1, fc2.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".weight"):
            # conv (K, C_in, Rf) fans in over C_in * Rf; dense (F_in, F_out) over F_in
            fan_in = int(np.prod(shape[1:])) if name.startswith("conv") else shape[0]
            tensors[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        elif name.endswith(".running_var"):
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = np.zeros(shape)
    return NetworkParameters.from_named(tensors)
