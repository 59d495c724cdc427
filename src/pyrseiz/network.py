"""The pyramidal 1-D CNN: model configs, parameters, forward/backward, parameter audit.

Pipeline: [Conv-BN-ReLU] x3 -> flatten -> FC1 -> ReLU -> Dropout -> FC2 -> softmax.
No pooling; downsampling comes from the convolution strides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import layers
from .dataset import WINDOW_SIZE
from .layers import ConvLayer

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
    input_length: int = WINDOW_SIZE

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
        self.conv_layers  # raises if the conv chain does not fit

    @cached_property
    def conv_layers(self) -> tuple[ConvLayer, ...]:
        """The conv stack's geometry, the one table its tensor and buffer shapes read."""
        table, channels, length = [], 1, self.input_length
        for k, rf, stride in zip(self.kernel_counts, self.receptive_fields, self.strides):
            out = layers.count_windows(length, rf, stride)
            table.append(ConvLayer(channels, k, rf, stride, length, out))
            channels, length = k, out
        return tuple(table)

    @property
    def flatten_width(self) -> int:
        return self.conv_layers[2].kernels * self.conv_layers[2].output_length

    @property
    def family(self) -> str:
        k1, k2, k3 = self.kernel_counts
        if k1 > k2 > k3:
            return "pyramid"
        if k1 < k2 < k3:
            return "traditional"
        return "custom"


# M1-M4 traditional, M5-M8 pyramid; within a family the grid order is
# (FC1=20, DO=0), (20, 0.5), (40, 0), (40, 0.5). M5 is pinned to the
# pyramid/FC1=20/dropout=0.5 settings (same as M6); pass dropout_rate=0
# explicitly to run the dropout-free sibling. Each entry is the 2-class
# config; ``model_config`` sets the class count.
MODEL_GRID: dict[str, ModelConfig] = {
    "M1": ModelConfig(TRADITIONAL_KERNELS, fc1_width=20, dropout_rate=0.0),
    "M2": ModelConfig(TRADITIONAL_KERNELS, fc1_width=20, dropout_rate=0.5),
    "M3": ModelConfig(TRADITIONAL_KERNELS, fc1_width=40, dropout_rate=0.0),
    "M4": ModelConfig(TRADITIONAL_KERNELS, fc1_width=40, dropout_rate=0.5),
    "M5": ModelConfig(PYRAMID_KERNELS, fc1_width=20, dropout_rate=0.5),
    "M6": ModelConfig(PYRAMID_KERNELS, fc1_width=20, dropout_rate=0.5),
    "M7": ModelConfig(PYRAMID_KERNELS, fc1_width=40, dropout_rate=0.0),
    "M8": ModelConfig(PYRAMID_KERNELS, fc1_width=40, dropout_rate=0.5),
}

MODEL_NAMES = tuple(MODEL_GRID)


def model_config(
    name: str, num_classes: int, dropout_rate: float | None = None
) -> ModelConfig:
    """Resolve a model name (M1..M8) into a ModelConfig, with an optional
    dropout rate: every FC1 width is already a grid name."""
    try:
        entry = MODEL_GRID[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; valid names: {', '.join(MODEL_NAMES)}"
        ) from None
    return replace(
        entry,
        dropout_rate=entry.dropout_rate if dropout_rate is None else dropout_rate,
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


def _carve(shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """C-contiguous float64 arrays of ``shapes``, one after the other in one
    new block. Each array starts a multiple of 8 values (64 bytes) into the
    block, so it is as aligned as the block, as a separately allocated array
    would be."""
    sizes = [math.prod(shape) for shape in shapes]
    starts = [0]
    for size in sizes:
        starts.append(starts[-1] + -(-size // 8) * 8)
    block = np.empty(starts[-1])
    return [block[a : a + n].reshape(shape) for a, n, shape in zip(starts, sizes, shapes)]


class Workspace:
    """Every array a pass writes, for one batch size, reused pass to pass.

    Every array is C-contiguous and channel-last, shaped by ``conv_layers``.
    ``forward`` and ``backward`` write into them with ``out=``, so a trace,
    and the gradients ``backward`` returns, are valid only until the next
    pass through the workspace. The pass arrays are each layer's output
    ``normalized[i]`` (its batch-norm output in training), conv2's rectified
    output ``act`` (conv3's input), the flattened rectified conv3 output
    ``flat``, and ``patches``, conv1's unfolded input (centred in training).
    conv1's output is rectified in place, so ``rectified``, the inputs of
    conv2 and conv3, is ``[normalized[0], act]``. Each conv layer's
    ``conv1d_forward`` scratch, ``tap_scratch[i]``, is a pass array of the
    size it needs: conv1 unfolds its input into ``patches`` at inference
    (so inference faults its pages in too, about 0.1 MB of a ``cv``
    process's peak RSS; README has the figures), and conv2's and conv3's
    later taps put their products in ``act`` and ``flat``, which the pass
    writes right after that layer. The pass arrays are carved from one
    block, which the C heap reuses where separate arrays would be given
    back to the system and faulted in again on every ``classify`` call. The arrays only training needs
    (``windows``, ``scratch``, ``grads``) are allocated on first use, each
    on its own: carved from a second block, they fragmented the heap of a
    ``cv`` process, which peaked 1.5 MB higher and ran its calls about 5%
    slower.
    ``head(b)`` is a workspace for a smaller batch on the leading rows of
    these arrays; it allocates nothing of its own.

    ``backward`` keeps no gradient arrays of its own: it writes each
    gradient over the activation of that shape it has finished with, and
    every temporary into ``scratch``. The gradient at conv3's ReLU input
    goes into ``flat`` once FC1's weight gradient has read it, conv2's into
    ``act`` and conv1's into ``normalized[0]`` once the next layer's weight
    gradient has read them. Each is masked as it is written, by its ReLU's
    mask read from an activation the pass keeps anyway: conv3's from its
    x_hat, ``normalized[2]``, and conv1's and conv2's from their rectified
    outputs, each block just before its gradient overwrites it. A training
    trace therefore serves one ``backward``.
    """

    def __init__(self, config: ModelConfig, batch: int, base: Workspace | None = None) -> None:
        self.config = config
        self.batch = batch
        self._base = base
        if base:
            arrays = [a[:batch] for a in base._pass]
        else:
            conv1 = config.conv_layers[0]
            outputs = [(batch, c.output_length, c.kernels) for c in config.conv_layers]
            patches = (batch, conv1.output_length, conv1.receptive_field * conv1.in_channels)
            arrays = _carve([outputs[0], outputs[1], outputs[1], outputs[2],
                             (batch, config.flatten_width), patches])
        self._pass = arrays
        self.normalized = [arrays[0], arrays[1], arrays[3]]
        self.act, self.flat, self.patches = arrays[2], arrays[4], arrays[5]
        self.rectified = [self.normalized[0], self.act]
        self.tap_scratch = [self.patches, self.act, self.flat]

    def head(self, batch: int) -> Workspace:
        """This workspace for the first ``batch`` rows: itself at full size."""
        if not 1 <= batch <= self.batch:
            raise ValueError(f"a workspace for {self.batch} windows has no head of {batch}")
        return self if batch == self.batch else Workspace(self.config, batch, base=self)

    @cached_property
    def windows(self) -> np.ndarray:
        """Where a training loop gathers its (batch, input_length) batch."""
        if self._base:
            return self._base.windows[: self.batch]
        return np.empty((self.batch, self.config.input_length))

    @cached_property
    def scratch(self) -> np.ndarray:
        """Backward-pass scratch: batch-norm backward's x_hat term,
        ``conv1d_backward``'s tap products and padded output gradients,
        made in blocks of as many samples as it holds, and the dense
        layers' input gradients. Each use ends before the next begins, so
        they share one vector of ``layers.backward_scratch`` values; a head
        uses its base's."""
        if self._base:
            return self._base.scratch
        config = self.config
        size = layers.backward_scratch(
            self.batch, config.conv_layers[1:], (config.flatten_width, config.fc1_width)
        )
        return np.empty(size)

    @cached_property
    def grads(self) -> NetworkParameters:
        """The gradients ``backward`` writes and returns, batch-norm slots zero."""
        return self._base.grads if self._base else NetworkParameters(self.config)


@dataclass
class ForwardTrace:
    """Intermediates cached by a training-mode forward pass for backprop.

    The conv stack's inputs (conv1's centred patches, then ``rectified``)
    and its flattened output stay in the workspace.
    ``backward`` writes its gradients over those activations, so a trace
    serves one backward: it is then ``spent``, and a second raises.
    """

    bn_caches: list[layers.BatchNormCache]  # x_hat: the batch-norm outputs feeding each ReLU
    fc1_pre: np.ndarray  # FC1 pre-activation
    dropout_mask: np.ndarray | None
    fc2_input: np.ndarray
    logits: np.ndarray
    workspace: Workspace
    spent: bool = False


def forward(
    params: NetworkParameters,
    windows: np.ndarray,
    workspace: Workspace,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray | None, ForwardTrace | None]:
    """Run a window batch through the network ``params.config`` describes;
    returns (probs, None) at inference and (None, trace) in training.

    ``windows`` is (B, input_length), and ``workspace`` must be built for
    that config and B windows: activations are written into it, and
    ``ensemble.classify`` runs large inference batches in bounded passes
    through one. Training mode normalizes by batch statistics and updates
    the running statistics in place in ``params``; its loss computes the
    probabilities from ``trace.logits`` (``layers.softmax_cross_entropy``).
    Inference folds the running statistics into each layer's conv weights
    and bias (``layers.batchnorm_infer``) and applies no dropout. conv1's
    ReLU rectifies its output in place, since its backward needs only the
    mask, which the rectified output holds; conv2's writes
    ``workspace.act``, since its batch-norm backward reads the whole x_hat;
    conv3's is applied by the flatten. The returned probabilities are
    always a fresh array.
    """
    config = params.config
    x = np.ascontiguousarray(windows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.input_length:
        raise ValueError(
            f"expected windows of length {config.input_length}, got shape {x.shape}"
        )
    batch = x.shape[0]
    if workspace.config != config or workspace.batch != batch:
        raise ValueError(
            f"workspace for {workspace.batch} windows does not fit a batch of {batch} "
            "under this config"
        )
    h = x[:, :, None]  # (B, L, 1): channel-last from the first layer
    bn_caches: list[layers.BatchNormCache] = []
    weights, biases = params.conv_weights, params.conv_biases
    running_mean, running_var = params.bn_running_mean, params.bn_running_var
    for i, normalized in enumerate(workspace.normalized):
        stride = config.strides[i]
        if not training:  # batch norm folded into the conv weights and bias
            w, b = layers.batchnorm_infer(weights[i], biases[i], running_mean[i], running_var[i])
            h = layers.conv1d_forward(
                h, w, b, stride, out=normalized, scratch=workspace.tap_scratch[i]
            )
        else:
            if i == 0:  # data input, Rf-wide patches: statistics from the patches
                z, cache, mean, var = layers.conv_batchnorm_train(
                    h, weights[i], biases[i], stride, cols=workspace.patches, out=normalized
                )
            else:  # batch norm cancels the conv bias; it reaches only the running mean
                z = layers.conv1d_forward(
                    h, weights[i], None, stride, out=normalized,
                    scratch=workspace.tap_scratch[i],
                )
                z, cache, mean, var = layers.batchnorm_train(z, out=z)
                mean += biases[i]
            running_mean[i][...] = layers.update_running_stat(running_mean[i], mean)
            running_var[i][...] = layers.update_running_stat(running_var[i], var)
            bn_caches.append(cache)
            h = z  # the batch-norm output x_hat
        if i < 2:
            h = np.maximum(h, 0.0, out=workspace.rectified[i])
    # flatten in (kernel, position) order, the order fc1.weight's rows are stored
    # in, applying conv3's ReLU
    flat = workspace.flat
    np.maximum(h.transpose(0, 2, 1), 0.0, out=flat.reshape(batch, h.shape[2], h.shape[1]))
    fc1_pre = layers.dense_forward(flat, params.fc1_weight, params.fc1_bias)
    hidden = layers.relu(fc1_pre)
    dropped, mask = layers.dropout_forward(
        hidden, config.dropout_rate, rng=dropout_rng, training=training
    )
    logits = layers.dense_forward(dropped, params.fc2_weight, params.fc2_bias)
    if not training:
        return layers.softmax(logits), None
    trace = ForwardTrace(
        bn_caches=bn_caches,
        fc1_pre=fc1_pre,
        dropout_mask=mask,
        fc2_input=dropped,
        logits=logits,
        workspace=workspace,
    )
    return None, trace


def backward(
    params: NetworkParameters,
    trace: ForwardTrace,
    grad_logits: np.ndarray,
) -> NetworkParameters:
    """Gradients of a scalar loss w.r.t. every learnable tensor of the
    network ``params.config`` describes.

    ``grad_logits`` is the loss gradient at the FC2 output (already scaled by
    any batch averaging). Every gradient is written into the trace's
    workspace: the result is its ``grads``, laid out like ``params``, valid
    until the next backward through it, with the batch-norm slots zero. The
    activation gradients overwrite the activations (see ``Workspace``), so
    the trace is spent: a second backward on it raises ValueError.
    """
    if trace.spent:
        raise ValueError("this trace has served a backward pass already; run forward again")
    trace.spent = True
    config = params.config
    ws = trace.workspace
    grads = ws.grads
    d, _, _ = layers.dense_backward(
        trace.fc2_input, params.fc2_weight, grad_logits, grads.fc2_weight, grads.fc2_bias,
        ws.scratch,
    )
    d = layers.dropout_backward(trace.dropout_mask, config.dropout_rate, d)
    d = layers.relu_backward(trace.fc1_pre, d)
    d, _, _ = layers.dense_backward(
        ws.flat, params.fc1_weight, d, grads.fc1_weight, grads.fc1_bias, ws.scratch
    )
    batch, positions, kernels = ws.normalized[2].shape
    g = ws.flat.reshape(batch, positions, kernels)  # flat is read: the gradient takes its place
    # copied, then masked in place: one multiply that also transposed made
    # numpy buffer twice as much (127 KB) and ran slower. The mask is read
    # from conv3's x_hat, which its batch-norm backward reads too.
    np.copyto(g, d.reshape(batch, kernels, positions).transpose(0, 2, 1))
    np.multiply(g, ws.normalized[2] > 0.0, out=g)
    for i in (2, 1):
        g = layers.batchnorm_backward(trace.bn_caches[i], g, scratch=ws.scratch)
        x = ws.rectified[i - 1]  # read for the weight gradient, then overwritten
        g, grads.conv_weights[i][...], grads.conv_biases[i][...] = layers.conv1d_backward(
            x, params.conv_weights[i], config.strides[i], g, grad_x=x, scratch=ws.scratch,
            relu=True,
        )
    grads.conv_weights[0][...], grads.conv_biases[0][...] = layers.conv_batchnorm_backward(
        trace.bn_caches[0], ws.patches, params.conv_weights[0], g
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
    for i, c in enumerate(config.conv_layers, start=1):
        shapes[f"conv{i}.weight"] = (c.kernels, c.in_channels, c.receptive_field)
        shapes[f"conv{i}.bias"] = (c.kernels,)
    shapes["fc1.weight"] = (config.flatten_width, config.fc1_width)
    shapes["fc1.bias"] = (config.fc1_width,)
    shapes["fc2.weight"] = (config.fc1_width, config.num_classes)
    shapes["fc2.bias"] = (config.num_classes,)
    for i, c in enumerate(config.conv_layers, start=1):
        shapes[f"bn{i}.running_mean"] = (c.kernels,)
        shapes[f"bn{i}.running_var"] = (c.kernels,)
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
