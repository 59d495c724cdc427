import inspect
import math
import pickle
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from oracles import backward_reference, central_difference, forward_reference, max_relative_error
from pyrseiz import layers
from pyrseiz.ensemble import INFER_BATCH, classify
from pyrseiz.network import (
    MODEL_GRID,
    MODEL_NAMES,
    ModelConfig,
    NetworkParameters,
    Workspace,
    backward,
    count_parameters,
    forward,
    init_parameters,
    model_config,
    parameter_shapes,
)

README = Path(__file__).resolve().parent.parent / "README.md"

EXPECTED_COUNTS = {
    ("traditional", 20, 2): 21366,
    ("traditional", 20, 3): 21387,
    ("traditional", 40, 2): 41106,
    ("traditional", 40, 3): 41147,
    ("pyramid", 20, 2): 8326,
    ("pyramid", 20, 3): 8347,
    ("pyramid", 40, 2): 14946,
    ("pyramid", 40, 3): 14987,
}


class TestModelConfig:
    def test_default_conv_lengths(self):
        assert [c.output_length for c in ModelConfig().conv_layers] == [170, 84, 41]

    def test_alternate_stride_triple_also_gives_41(self):
        cfg = ModelConfig(strides=(2, 3, 2))
        assert cfg.conv_layers[2].output_length == 41

    def test_flatten_width_m5(self):
        assert ModelConfig(kernel_counts=(24, 16, 8)).flatten_width == 8 * 41

    def test_family_classification(self):
        assert ModelConfig(kernel_counts=(24, 16, 8)).family == "pyramid"
        assert ModelConfig(kernel_counts=(8, 16, 24)).family == "traditional"
        assert ModelConfig(kernel_counts=(8, 8, 8)).family == "custom"

    def test_infeasible_chain_rejected(self):
        with pytest.raises(ValueError, match="exceeds signal length"):
            ModelConfig(input_length=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(num_classes=1)
        with pytest.raises(ValueError):
            ModelConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            ModelConfig(kernel_counts=(0, 1, 2))


class TestModelGrid:
    def test_names(self):
        assert MODEL_NAMES == ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8")

    def test_m5_is_pyramid_fc20_dropout_half(self):
        cfg = model_config("M5", 3)
        assert cfg.kernel_counts == (24, 16, 8)
        assert cfg.fc1_width == 20
        assert cfg.dropout_rate == 0.5

    def test_overrides(self):
        cfg = replace(model_config("M5", 2, dropout_rate=0.0), fc1_width=40)
        assert cfg.fc1_width == 40 and cfg.dropout_rate == 0.0

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="M1, M2"):
            model_config("M9", 2)

    def test_families(self):
        for name in ("M1", "M2", "M3", "M4"):
            assert MODEL_GRID[name].kernel_counts == (8, 16, 24)
        for name in ("M5", "M6", "M7", "M8"):
            assert MODEL_GRID[name].kernel_counts == (24, 16, 8)

    def test_readme_table_matches_the_grid(self):
        """README's model table is the one copy of the grid written by hand,
        its 3-class count split between conv1-3, FC1 and FC2."""
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in README.read_text().splitlines()
            if line.startswith("| M")
        ]
        assert [row[0] for row in rows] == list(MODEL_NAMES)
        for name, family, kernels, fc1, dropout, params2, params3, *split in rows:
            two, three = model_config(name, 2), model_config(name, 3)
            assert family == two.family
            assert tuple(int(k) for k in kernels.split(",")) == two.kernel_counts
            assert int(fc1) == two.fc1_width
            assert float(dropout) == two.dropout_rate
            assert (int(params2), int(params3)) == (count_parameters(two), count_parameters(three))
            shapes = parameter_shapes(three)
            assert [int(n) for n in split] == [
                sum(math.prod(s) for t, s in shapes.items() if t.startswith(group))
                for group in ("conv", "fc1", "fc2")
            ]
            assert sum(int(n) for n in split) == int(params3)


# Worked by hand from the paper's geometry on 512-sample windows: receptive
# fields 5, 3, 3 at strides 3, 2, 2 give (512 - 5) // 3 + 1 = 170,
# (170 - 3) // 2 + 1 = 84 and (84 - 3) // 2 + 1 = 41 positions. A patch is
# Rf * C_in wide, and a conv layer has K * C_in * Rf weights plus K biases.
# Its taps are ceil(Rf / stride) views of its input, min(stride, Rf - d *
# stride) * C_in wide: 3 and 2 for conv1, 2 * C_in and C_in for conv2 and conv3.
HAND_GEOMETRY = {
    "pyramid": {
        "in_channels": (1, 24, 16),
        "kernels": (24, 16, 8),
        "patch_widths": (5, 72, 48),
        "tap_widths": ((3, 2), (48, 24), (32, 16)),
        "conv_parameters": 24 * 5 + 24 + 16 * 24 * 3 + 16 + 8 * 16 * 3 + 8,  # 1,704
    },
    "traditional": {
        "in_channels": (1, 8, 16),
        "kernels": (8, 16, 24),
        "patch_widths": (5, 24, 48),
        "tap_widths": ((3, 2), (16, 8), (32, 16)),
        "conv_parameters": 8 * 5 + 8 + 16 * 8 * 3 + 16 + 24 * 16 * 3 + 24,  # 1,624
    },
}


class TestConvGeometry:
    @pytest.mark.parametrize("num_classes", [2, 3])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_table_matches_the_hand_computation(self, name, num_classes):
        """Channels, lengths, patch and tap widths of every grid model, and
        the parameter count and workspace buffers that follow from them:
        each layer's output, conv2's rectified output, the flattened conv3
        output and conv1's patches, the only patches a pass keeps."""
        cfg = model_config(name, num_classes)
        hand = HAND_GEOMETRY[cfg.family]
        table = cfg.conv_layers
        assert [c.in_channels for c in table] == list(hand["in_channels"])
        assert [c.kernels for c in table] == list(hand["kernels"])
        assert [(c.receptive_field, c.stride) for c in table] == [(5, 3), (3, 2), (3, 2)]
        assert [c.input_length for c in table] == [512, 170, 84]
        assert [c.output_length for c in table] == [170, 84, 41]
        assert [c.receptive_field * c.in_channels for c in table] == list(hand["patch_widths"])
        flatten = hand["kernels"][2] * 41
        assert cfg.flatten_width == flatten
        fc1 = cfg.fc1_width
        dense = flatten * fc1 + fc1 + fc1 * num_classes + num_classes
        assert count_parameters(cfg) == hand["conv_parameters"] + dense
        ws = Workspace(cfg, 2)
        assert [a.shape for a in ws.normalized] == [
            (2, m, k) for m, k in zip((170, 84, 41), hand["kernels"])
        ]
        assert ws.act.shape == (2, 84, hand["kernels"][1])
        assert ws.flat.shape == (2, flatten)
        assert ws.patches.shape == (2, 170, 5)
        inputs = [np.empty((2, 512, 1)), *ws.rectified]
        assert [a.shape for a in inputs] == [
            (2, n, c) for n, c in zip((512, 170, 84), hand["in_channels"])
        ]
        for x, c, widths in zip(inputs, table, hand["tap_widths"]):
            taps = layers.tap_views(x, c.receptive_field, c.stride)
            assert [t.shape for t in taps] == [(2, c.output_length, w) for w in widths]

    def test_config_fields_hold_no_derived_geometry(self):
        """The table is derived, so the config's fields, and with them the
        checkpoint header and the settings echo, stay the seven it had."""
        assert [f.name for f in fields(ModelConfig)] == [
            "kernel_counts", "receptive_fields", "strides", "fc1_width", "dropout_rate",
            "num_classes", "input_length",
        ]
        assert "conv_layers" not in asdict(ModelConfig())


class TestCountParameters:
    def test_pyramid_fc20_two_classes(self):
        cfg = ModelConfig(kernel_counts=(24, 16, 8), fc1_width=20, num_classes=2)
        assert count_parameters(cfg) == 8326

    def test_traditional_fc40_three_classes(self):
        cfg = ModelConfig(kernel_counts=(8, 16, 24), fc1_width=40, num_classes=3)
        assert count_parameters(cfg) == 41147

    def test_reduction_at_fc40(self):
        pyramid = count_parameters(ModelConfig(kernel_counts=(24, 16, 8), fc1_width=40, num_classes=2))
        traditional = count_parameters(ModelConfig(kernel_counts=(8, 16, 24), fc1_width=40, num_classes=2))
        assert pyramid == 14946 and traditional == 41106
        reduction = 100.0 * (1.0 - pyramid / traditional)
        assert abs(reduction - 63.64) < 0.01

    @pytest.mark.parametrize("family,kernels", [("pyramid", (24, 16, 8)), ("traditional", (8, 16, 24))])
    @pytest.mark.parametrize("fc1", [20, 40])
    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_full_grid(self, family, kernels, fc1, num_classes):
        cfg = ModelConfig(kernel_counts=kernels, fc1_width=fc1, num_classes=num_classes)
        assert count_parameters(cfg) == EXPECTED_COUNTS[(family, fc1, num_classes)]

    def test_stride_choice_does_not_change_counts(self):
        a = ModelConfig(strides=(3, 2, 2), num_classes=3)
        b = ModelConfig(strides=(2, 3, 2), num_classes=3)
        assert count_parameters(a) == count_parameters(b)


class TestNetworkParameters:
    def test_tensors_are_consecutive_views_of_flat(self, tiny_config):
        params = NetworkParameters(tiny_config)
        assert params.flat.shape == (sum(t.size for t in params.tensors.values()),)
        assert params.learnable.size == count_parameters(tiny_config)
        offset = 0
        for tensor in params.tensors.values():
            assert np.shares_memory(tensor, params.flat[offset : offset + tensor.size])
            offset += tensor.size
        params.fc2_bias[1] = 3.0
        assert params.learnable[-1] == 3.0
        params.bn_running_var[2][0] = 5.0
        assert params.flat[-2] == 5.0

    def test_accessors_cannot_be_rebound(self, tiny_config):
        params = init_parameters(tiny_config, seed=0)
        with pytest.raises(TypeError):
            params.bn_running_mean[0] = np.ones(4)
        with pytest.raises(AttributeError):
            params.fc1_weight = np.zeros((8, 5))
        assert np.shares_memory(params.bn_running_mean[0], params.flat)

    def test_flat_of_wrong_shape_or_dtype_rejected(self, tiny_config):
        size = NetworkParameters(tiny_config).flat.size
        for bad in (np.zeros(size - 1), np.zeros((1, size)), np.zeros(size, dtype=np.float32),
                    [0.0] * size):
            with pytest.raises(ValueError, match=f"float64 vector of {size} values"):
                NetworkParameters(tiny_config, bad)

    def test_flat_is_adopted_not_copied(self, tiny_config):
        flat = np.arange(NetworkParameters(tiny_config).flat.size, dtype=np.float64)
        params = NetworkParameters(tiny_config, flat)
        assert params.flat is flat
        assert params.conv_weights[0][0, 0, 1] == 1.0

    def test_copy_is_independent(self, tiny_config):
        params = init_parameters(tiny_config, seed=1)
        twin = params.copy()
        assert np.array_equal(twin.flat, params.flat) and twin.config == params.config
        twin.fc1_weight[...] = 0.0
        assert params.fc1_weight.any()

    def test_pickle_keeps_views_on_flat(self, tiny_config):
        params = init_parameters(tiny_config, seed=2)
        restored = pickle.loads(pickle.dumps(params))
        assert restored.config == tiny_config
        assert np.array_equal(restored.flat, params.flat)
        for tensor in (*restored.tensors.values(), restored.learnable,
                       *restored.conv_weights, *restored.bn_running_var, restored.fc2_bias):
            assert np.shares_memory(tensor, restored.flat)
        restored.fc1_bias[...] = 7.0
        assert np.all(restored.tensors["fc1.bias"] == 7.0)
        assert not np.shares_memory(restored.flat, params.flat)


class TestInitParameters:
    def test_deterministic(self, tiny_config):
        a = init_parameters(tiny_config, seed=3)
        b = init_parameters(tiny_config, seed=3)
        assert np.array_equal(a.flat, b.flat)

    def test_biases_zero_and_bn_stats(self, tiny_config):
        params = init_parameters(tiny_config, seed=0)
        assert all(not b.any() for b in params.conv_biases)
        assert not params.fc1_bias.any() and not params.fc2_bias.any()
        assert all(not m.any() for m in params.bn_running_mean)
        assert all(np.all(v == 1.0) for v in params.bn_running_var)

    @pytest.mark.parametrize("name", ["M1", "M8"])
    def test_parameter_shapes_list_every_tensor_in_order(self, name):
        cfg = model_config(name, 3)
        params = init_parameters(cfg, seed=0)
        named = [(n, t.shape) for n, t in params.tensors.items()]
        assert named == list(parameter_shapes(cfg).items())

    def test_he_scale_on_large_layer(self):
        """Empirical std of a >= 10^4-weight layer within 5% of sqrt(2/fan_in)."""
        cfg = ModelConfig(kernel_counts=(24, 16, 8), fc1_width=40, num_classes=2)
        params = init_parameters(cfg, seed=12)
        w = params.fc1_weight  # 328 x 40 = 13120 weights
        assert w.size >= 10_000
        expected = np.sqrt(2.0 / cfg.flatten_width)
        assert abs(w.std() / expected - 1.0) < 0.05


class TestForward:
    def test_zero_parameters_give_uniform_probs(self, tiny_config):
        params = init_parameters(tiny_config, seed=0)
        params.learnable[:] = 0.0
        x = np.random.default_rng(0).standard_normal((4, 64))
        ws = Workspace(tiny_config, 4)
        probs, trace = forward(params, x, ws, training=True)
        assert probs is None  # training leaves the probabilities to the loss
        assert np.allclose(layers.softmax(trace.logits), 1.0 / tiny_config.num_classes)
        probs_inf, trace_inf = forward(params, x, ws, training=False)
        assert np.allclose(probs_inf, 1.0 / tiny_config.num_classes)
        assert trace_inf is None

    def test_probabilities_form_a_simplex(self, tiny_config):
        rng = np.random.default_rng(1)
        params = init_parameters(tiny_config, seed=1)
        _, trace = forward(
            params, rng.standard_normal((8, 64)), Workspace(tiny_config, 8), training=True
        )
        probs = layers.softmax(trace.logits)
        assert np.all(probs >= 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_window_length_mismatch(self, tiny_config):
        params = init_parameters(tiny_config, seed=0)
        with pytest.raises(ValueError, match="expected windows of length"):
            forward(params, np.zeros((2, 63)), Workspace(tiny_config, 2))

    def test_inference_independent_of_batch_composition(self, tiny_config):
        rng = np.random.default_rng(2)
        params = init_parameters(tiny_config, seed=2)
        # train one batch so running stats are informative
        forward(params, rng.standard_normal((16, 64)), Workspace(tiny_config, 16), training=True)
        x = rng.standard_normal((5, 64))
        ws = Workspace(tiny_config, 5)
        full, _ = forward(params, x, ws, training=False)
        alone, _ = forward(params, x[2:3], Workspace(tiny_config, 1), training=False)
        # BLAS kernel choice may differ across batch shapes; anything beyond
        # ulp noise would mean batch statistics leaked into inference
        assert np.allclose(full[2], alone[0], rtol=0.0, atol=1e-12)
        again, _ = forward(params, x, ws, training=False)
        assert np.array_equal(full, again)

    def test_training_is_the_fourth_parameter(self):
        """Callers may pass ``training`` positionally after the workspace, as
        the benchmark's span names do when they read it from the arguments."""
        assert list(inspect.signature(forward).parameters)[3] == "training"

    def test_training_mode_updates_running_stats(self, tiny_config):
        rng = np.random.default_rng(3)
        params = init_parameters(tiny_config, seed=3)
        before = [m.copy() for m in params.bn_running_mean]
        forward(params, rng.standard_normal((8, 64)), Workspace(tiny_config, 8), training=True)
        assert any(not np.array_equal(b, a) for b, a in zip(before, params.bn_running_mean))


def _mean_loss_and_trace(cfg, params, x, y):
    _, trace = forward(params, x, Workspace(cfg, len(x)), training=True)
    losses, _, _ = layers.softmax_cross_entropy(trace.logits, y)
    return float(losses.mean()), trace


class TestEndToEndGradients:
    def test_three_random_tiny_configs(self):
        """Full-parameter finite-difference check; the acceptance suite runs 20."""
        from gradcheck import draw_generic_scenario

        rng = np.random.default_rng(99)
        for trial in range(3):
            cfg = ModelConfig(
                kernel_counts=tuple(rng.integers(2, 5, size=3)),
                receptive_fields=(int(rng.integers(3, 6)), 3, 3),
                strides=(int(rng.integers(2, 4)), 2, 2),
                fc1_width=int(rng.integers(3, 7)),
                dropout_rate=0.0,
                num_classes=int(rng.integers(2, 4)),
                input_length=64,
            )
            params, x, y = draw_generic_scenario(cfg, rng)
            _, trace = forward(params, x, Workspace(cfg, len(x)), training=True)
            _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, y)
            grads = backward(params, trace, grad_logits / y.size)
            fd = NetworkParameters(cfg)
            fd.learnable[:] = central_difference(
                lambda: _mean_loss_and_trace(cfg, params, x, y)[0], params.learnable
            )
            for name, grad in grads.tensors.items():  # buffer slots: zero on both sides
                assert max_relative_error(grad, fd.tensors[name]) < 1e-4, name


def _perturbed(cfg, seed):
    """Initialized parameters with nonzero biases and informative running stats."""
    rng = np.random.default_rng(seed)
    params = init_parameters(cfg, seed=seed)
    params.learnable += rng.normal(0.0, 0.1, size=params.learnable.shape)
    for mean, var in zip(params.bn_running_mean, params.bn_running_var):
        mean += rng.normal(0.0, 0.5, size=mean.shape)
        var *= rng.uniform(0.5, 2.0, size=var.shape)
    return params


def _pass_arrays(ws):
    return [*ws.normalized, ws.act, ws.flat, ws.patches]


def _workspace_buffers(ws):
    """Every array a training step writes into, in no particular order."""
    return _pass_arrays(ws) + [ws.windows, ws.scratch, ws.grads.learnable]


class TestChannelLastLayout:
    @pytest.mark.parametrize("name", ["M4", "M5"])
    def test_matches_channels_first_reference(self, name):
        """Probabilities within 1e-12, weight gradients within 1e-12 of their
        largest entry, conv-bias gradients (round-off under batch norm) within
        1e-12, running statistics within 1e-12."""
        cfg = model_config(name, 3)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((32, 512))
        y = rng.integers(0, 3, size=32)
        params = _perturbed(cfg, seed=6)
        reference = params.copy()

        ws = Workspace(cfg, 32)
        probs, _ = forward(params, x, ws, training=False)
        ref_probs, _ = forward_reference(cfg, reference, x, training=False)
        assert np.max(np.abs(probs - ref_probs)) <= 1e-12

        _, trace = forward(params, x, ws, training=True, dropout_rng=np.random.default_rng(7))
        ref_probs, ref_trace = forward_reference(
            cfg, reference, x, training=True, dropout_rng=np.random.default_rng(7)
        )
        assert np.max(np.abs(layers.softmax(trace.logits) - ref_probs)) <= 1e-12
        # the learnable slices are untouched, so this compares the running statistics
        assert np.max(np.abs(params.flat - reference.flat)) <= 1e-12

        _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, y)
        grads = backward(params, trace, grad_logits / y.size)
        _, _, ref_grad_logits = layers.softmax_cross_entropy(ref_trace["logits"], y)
        ref_grads = backward_reference(cfg, reference, ref_trace, ref_grad_logits / y.size)
        assert sorted(ref_grads) == sorted(n for n in grads.tensors if not n.startswith("bn"))
        assert not grads.flat[grads.learnable.size :].any()
        for key, ref in ref_grads.items():
            err = np.max(np.abs(grads.tensors[key] - ref))
            if key.startswith("conv") and key.endswith(".bias"):
                assert err <= 1e-12, key
            else:
                assert err <= 1e-12 * np.max(np.abs(ref)), key

    def test_scratch_holds_tap_products_larger_than_the_batch_norm_scratch(self):
        """A config whose conv2 tap products, (B, K2, 2*K1) = 3 x 40 x 48
        values, outgrow its batch-norm scratch (3 x 9 x 40) and one sample's
        padded gradient (1,240): the workspace's scratch is sized by the
        products, a training step through it matches the channels-first
        reference, and conv2's backward handed only the batch-norm scratch
        refuses it in one line naming the values it needs."""
        cfg = ModelConfig(
            kernel_counts=(24, 40, 2), fc1_width=3, dropout_rate=0.0, num_classes=2,
            input_length=64,
        )
        batch = 3
        conv2 = cfg.conv_layers[1]
        bn_values = batch * conv2.output_length * conv2.kernels
        products = batch * conv2.kernels * conv2.stride * conv2.in_channels
        assert (bn_values, products) == (1080, 5760)
        assert layers.input_gradient_scratch(20, 3, 2, 40) == 1240
        ws = Workspace(cfg, batch)
        assert ws.scratch.size == products
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((batch, 64)), np.array([0, 1, 1])
        params = _perturbed(cfg, seed=8)
        reference = params.copy()
        _, trace = forward(params, x, ws, training=True)
        _, ref_trace = forward_reference(cfg, reference, x, training=True)
        _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, y)
        grads = backward(params, trace, grad_logits)
        _, _, ref_grad_logits = layers.softmax_cross_entropy(ref_trace["logits"], y)
        ref_grads = backward_reference(cfg, reference, ref_trace, ref_grad_logits)
        for key, ref in ref_grads.items():
            err = np.max(np.abs(grads.tensors[key] - ref))
            if key.startswith("conv") and key.endswith(".bias"):
                assert err <= 1e-12, key
            else:
                assert err <= 1e-12 * np.max(np.abs(ref)), key
        h = rng.standard_normal((batch, conv2.input_length, conv2.in_channels))
        g = rng.standard_normal((batch, conv2.output_length, conv2.kernels))
        with pytest.raises(ValueError, match="conv1d_backward needs 5760,") as caught:
            layers.conv1d_backward(
                h, params.conv_weights[1], conv2.stride, g, grad_x=h, scratch=np.empty(bn_values)
            )
        assert "\n" not in str(caught.value)

    def test_trace_activations_are_channel_last_and_contiguous(self, tiny_config):
        cfg = tiny_config
        params = init_parameters(cfg, seed=0)
        x = np.random.default_rng(0).standard_normal((5, 64))
        probs, trace = forward(params, x, Workspace(cfg, 5), training=True)
        ws = trace.workspace
        for i, m in enumerate(c.output_length for c in cfg.conv_layers):
            k = cfg.kernel_counts[i]
            assert trace.bn_caches[i].x_hat.shape == (5, m, k)
            assert trace.bn_caches[i].x_hat.flags.c_contiguous
        assert ws.patches.shape == (5, 20, 5)
        assert ws.flat.shape == (5, cfg.flatten_width)
        for name in ("fc1_pre", "fc2_input", "logits"):
            assert getattr(trace, name).flags.c_contiguous, name
        assert probs is None
        assert all(b.flags.c_contiguous for b in _pass_arrays(ws))

    def test_relu_outputs_are_the_next_layers_inputs(self, tiny_config):
        """conv1's batch-norm output is rectified in place, its cache holding
        the rectified values, whose mask is x_hat's; conv2's is rectified
        into ``act``, its cache keeping the whole x_hat; conv3's goes to the
        flatten. The rectified outputs are conv2's and conv3's inputs."""
        cfg = tiny_config
        params = init_parameters(cfg, seed=6)
        x = np.random.default_rng(6).standard_normal((5, 64))
        _, trace = forward(params, x, Workspace(cfg, 5), training=True)
        ws, caches = trace.workspace, trace.bn_caches
        assert caches[0].x_hat is ws.normalized[0] is ws.rectified[0]
        assert caches[0].x_hat.min() == 0.0
        assert caches[1].x_hat is ws.normalized[1] and caches[1].x_hat.min() < 0.0
        assert ws.rectified[1] is ws.act
        assert np.array_equal(ws.act, np.maximum(caches[1].x_hat, 0.0))
        assert np.array_equal(
            ws.flat, np.maximum(caches[2].x_hat, 0.0).transpose(0, 2, 1).reshape(5, -1)
        )
        w, stride = params.conv_weights[1], cfg.strides[1]
        z = np.stack([  # conv2 of the rectified conv1 output, window by window
            np.einsum("bec,kce->bk", ws.rectified[0][:, j * stride : j * stride + 3], w)
            for j in range(ws.act.shape[1])
        ], axis=1)
        x_hat, _, _, _ = layers.batchnorm_train(z, np.empty_like(z))
        assert np.max(np.abs(x_hat - caches[1].x_hat)) <= 1e-12

    def test_reused_workspace_matches_fresh_arrays(self, tiny_config):
        """Two passes through one workspace give what fresh buffers give, also
        when every buffer, the backward scratch that holds the padded
        gradients' zero borders and the gradient vector included, holds nan
        (the ReLU mask True) from the pass before."""
        cfg = tiny_config
        rng = np.random.default_rng(1)
        x1, x2 = rng.standard_normal((2, 4, 64))
        y = np.array([0, 1, 1, 0])
        ws = Workspace(cfg, 4)
        results = []
        for reuse in (True, False):
            params = init_parameters(cfg, seed=1)
            step = []
            for x in (x1, x2):
                workspace = ws if reuse else Workspace(cfg, 4)
                probs, trace = forward(params, x, workspace, training=True)
                _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, y)
                step.append((probs, backward(params, trace, grad_logits).flat.copy()))
                for buffer in _workspace_buffers(trace.workspace):
                    buffer.fill(np.nan)
            results.append(step)
        for (p_ws, g_ws), (p_fresh, g_fresh) in zip(*results):
            assert np.array_equal(p_ws, p_fresh)
            assert np.array_equal(g_ws, g_fresh)
        # conv2 reads 20 positions at stride 2 and conv3 9 (the odd tail row):
        # per sample, padded gradients of (11, 3) and (6, 2) values and patches
        # of (10, 6) and (5, 4), 93 and 32 values. The scratch is sized by
        # conv2's batch-norm x_hat term, (4, 9, 3) values, so conv2's input
        # gradient is made one sample at a time and conv3's in blocks of 3 and 1.
        assert ws.scratch.size == 4 * 9 * 3 == 108
        assert [(c.kernels, c.output_length) for c in tiny_config.conv_layers[1:]] == [
            (3, 9), (2, 4)
        ]

    def test_workspace_buffers_do_not_overlap(self, tiny_config):
        """No buffer aliases another, the training-only ones and the gradient
        vector included, and the probabilities a step returns are not
        workspace memory; the gradients are the workspace's own. The one
        flat backward scratch holds each batch-norm x_hat term."""
        params = init_parameters(tiny_config, seed=3)
        x = np.random.default_rng(3).standard_normal((4, 64))
        probs, trace = forward(params, x, Workspace(tiny_config, 4), training=True)
        _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, np.array([0, 1, 0, 1]))
        grads = backward(params, trace, grad_logits)
        ws = trace.workspace
        buffers = _workspace_buffers(ws)
        assert len(buffers) == 6 + 3
        assert grads is ws.grads
        for i, a in enumerate(buffers):
            assert a.flags.c_contiguous
            assert not np.shares_memory(a, probs)
            for b in buffers[i + 1 :]:
                assert not np.shares_memory(a, b)
        assert ws.scratch.ndim == 1
        for i in (1, 2):
            assert ws.scratch.size >= ws.normalized[i].size

    def test_tap_scratch_overlaps_only_arrays_written_later(self, tiny_config):
        """Each conv layer's scratch is the pass array written after it:
        conv1 unfolds its input into ``patches``, conv2's and conv3's tap
        products go into ``act`` and ``flat``. Each holds that layer's
        values, and none overlaps its layer's input, its output or anything
        a training pass keeps from before it."""
        ws = Workspace(tiny_config, 4).head(3)
        assert len(ws.tap_scratch) == 3
        assert all(a is b for a, b in zip(ws.tap_scratch, (ws.patches, ws.act, ws.flat)))
        kept = (
            [ws.windows, ws.normalized[0]],
            [ws.patches, ws.normalized[0], ws.normalized[1]],
            [ws.patches, *ws.normalized, ws.act],
        )
        for i, arrays in enumerate(kept):
            tap, conv = ws.tap_scratch[i], tiny_config.conv_layers[i]
            values = conv.receptive_field if i == 0 else conv.kernels  # per output position
            assert tap.size == 3 * conv.output_length * values
            assert tap.flags.c_contiguous and tap.base is ws.flat.base
            assert not any(np.shares_memory(tap, a) for a in arrays)

    def test_head_runs_a_smaller_batch_on_leading_rows(self, tiny_config):
        """Training and inference passes of 3 windows through the head of a
        5-window workspace give bitwise what a 3-window workspace gives; the
        head's buffers are the leading rows of its base's."""
        cfg = tiny_config
        x = np.random.default_rng(4).standard_normal((3, 64))
        y = np.array([0, 1, 1])
        base = Workspace(cfg, 5)
        head = base.head(3)
        assert base.head(5) is base
        results = []
        for ws in (head, Workspace(cfg, 3)):
            params = init_parameters(cfg, seed=4)
            probs, trace = forward(params, x, ws, training=True)
            _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, y)
            grads = backward(params, trace, grad_logits)
            infer, _ = forward(params, x, ws)
            results.append((probs, grads.flat, params.flat, infer))
        for a, b in zip(*results):
            assert np.array_equal(a, b)
        for a, b in zip(_workspace_buffers(head), _workspace_buffers(base)):
            if a is not b:  # the shared backward scratch is carved, not sliced
                assert a.shape[0] == 3 and b.shape[0] == 5
                assert np.shares_memory(a, b) and a.ctypes.data == b.ctypes.data
        assert head.scratch is base.scratch
        for bad in (0, 6):
            with pytest.raises(ValueError, match=f"no head of {bad}"):
                base.head(bad)

    @pytest.mark.parametrize("name", ["M4", "M5"])
    def test_pass_arrays_share_one_block(self, name):
        """A workspace's pass arrays, and its heads', are views of one block,
        no larger than they need but for up to 64 bytes of alignment each."""
        cfg = model_config(name, 3)
        base = Workspace(cfg, 12)
        block = base.flat.base
        assert block is not None and block.flags.owndata
        for ws in (base, base.head(5)):
            assert all(a.base is block for a in _pass_arrays(ws))
        pass_bytes = sum(a.nbytes for a in _pass_arrays(base))
        assert pass_bytes <= block.nbytes < pass_bytes + 6 * 64

    def test_conv1_inference_needs_no_room_past_its_output(self):
        """A conv1 output larger than every later pass array together needs
        no longer block: conv1 at inference unfolds its input into
        ``patches``, and inference through that workspace matches the
        reference within 1e-12."""
        cfg = ModelConfig(kernel_counts=(40, 2, 2), num_classes=2)
        ws = Workspace(cfg, 3)
        output = ws.normalized[0]
        assert sum(a.nbytes for a in _pass_arrays(ws)[1:]) < output.nbytes
        assert ws.flat.base.nbytes < sum(a.nbytes for a in _pass_arrays(ws)) + 6 * 64
        params = _perturbed(cfg, seed=13)
        x = np.random.default_rng(13).standard_normal((3, 512))
        ws.patches.fill(np.nan)
        probs, _ = forward(params, x, ws)
        conv1 = cfg.conv_layers[0]
        starts = np.arange(conv1.output_length) * conv1.stride
        unfolded = x[:, starts[:, None] + np.arange(conv1.receptive_field)]
        assert np.array_equal(ws.patches, unfolded)
        ref_probs, _ = forward_reference(cfg, params.copy(), x)
        assert np.max(np.abs(probs - ref_probs)) <= 1e-12

    def test_gradients_live_in_the_workspace(self, tiny_config):
        """Two backward passes through one workspace return its one gradient
        vector, rewritten by the second; a second workspace's gradients are
        its own, and the first workspace's backward leaves them as they were."""
        params = init_parameters(tiny_config, seed=5)
        x1, x2 = np.random.default_rng(5).standard_normal((2, 4, 64))
        y = np.array([0, 1, 1, 0])

        def gradients(ws, x):
            _, trace = forward(params, x, ws, training=True)
            _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, y)
            return backward(params, trace, grad_logits)

        ws, other = Workspace(tiny_config, 4), Workspace(tiny_config, 4)
        first = gradients(ws, x1)
        kept = first.flat.copy()
        independent = gradients(other, x2)
        from_other = independent.flat.copy()
        second = gradients(ws, x2)
        assert first is second is ws.grads
        assert independent is other.grads
        assert not np.shares_memory(ws.grads.flat, other.grads.flat)
        assert not np.array_equal(second.flat, kept)
        assert np.array_equal(second.flat, from_other)
        assert np.array_equal(independent.flat, from_other)

    def test_a_trace_serves_one_backward(self, tiny_config):
        """backward writes its activation gradients over the trace's
        activations, so a second backward on the same trace raises one
        line; a fresh forward pass gives a trace that serves again."""
        params = init_parameters(tiny_config, seed=8)
        x = np.random.default_rng(8).standard_normal((4, 64))
        ws = Workspace(tiny_config, 4)
        _, trace = forward(params, x, ws, training=True)
        _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, np.array([0, 1, 1, 0]))
        first = backward(params, trace, grad_logits).flat.copy()
        assert trace.spent
        with pytest.raises(ValueError, match="served a backward pass already") as error:
            backward(params, trace, grad_logits)
        assert "\n" not in str(error.value)
        _, trace = forward(params, x, ws, training=True)
        assert np.array_equal(backward(params, trace, grad_logits).flat, first)

    def test_workspace_must_fit_the_batch(self, tiny_config):
        """A workspace for 4 windows, or for 3 windows of a network that
        differs only in its dropout rate, does not take this 3-window batch."""
        params = init_parameters(tiny_config, seed=0)
        for workspace in (Workspace(tiny_config, 4),
                          Workspace(replace(tiny_config, dropout_rate=0.5), 3)):
            with pytest.raises(ValueError, match=f"workspace for {workspace.batch} windows"):
                forward(params, np.zeros((3, 64)), workspace, training=True)

    def test_inference_results_are_never_overwritten(self, tiny_config):
        """Probabilities one inference call returns survive later calls."""
        rng = np.random.default_rng(2)
        params = _perturbed(tiny_config, seed=2)
        ws = Workspace(tiny_config, 6)
        first, _ = forward(params, rng.standard_normal((6, 64)), ws)
        kept = first.copy()
        for _ in range(3):
            forward(params, rng.standard_normal((6, 64)), ws)
            forward(params, rng.standard_normal((6, 64)), ws, training=True)
        assert np.array_equal(first, kept)


class TestInferencePath:
    """Inference reads nothing a workspace held before the call."""

    def test_fresh_workspace_is_bitwise_a_reused_one(self, tiny_config):
        """A call through a fresh workspace gives bitwise what a call through
        a reused workspace gives, whose buffers first held nan."""
        cfg = tiny_config
        params = _perturbed(cfg, seed=8)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 64))
        ws = Workspace(cfg, 6)
        forward(params, rng.standard_normal((6, 64)), ws)
        for buffer in _pass_arrays(ws):
            buffer.fill(np.nan)
        fresh, _ = forward(params, x, Workspace(cfg, 6))
        reused, _ = forward(params, x, ws)
        assert np.array_equal(reused.view(np.int64), fresh.view(np.int64))

    @pytest.mark.parametrize("instances, n_passes", [(10, 1), (33, 4)])
    def test_classify_is_forward_pass_by_pass(self, instances, n_passes):
        """classify's probabilities on M5 windows, three per instance, are
        bitwise forward's through a fresh workspace on the same passes: all
        30 windows in one pass, or 99 in passes of INFER_BATCH and a last
        partial one."""
        cfg = model_config("M5", 3)
        params = _perturbed(cfg, seed=9)
        windows = np.random.default_rng(9).standard_normal((instances, 3, 512))
        rows = windows.reshape(-1, 512)
        passes = range(0, len(rows), INFER_BATCH)
        assert len(passes) == n_passes
        chunks = [rows[s : s + INFER_BATCH] for s in passes]
        expected = np.concatenate(
            [forward(params, chunk, Workspace(cfg, len(chunk)))[0] for chunk in chunks]
        )
        probs = np.concatenate([r.probabilities for r in classify(params, windows)])
        assert np.array_equal(probs.view(np.int64), expected.view(np.int64))


# Set before measuring: the fold divides the weights where the oracle divides
# the activations, so the two differ by float64 rounding alone.
FOLD_TOLERANCE = 1e-12


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_folded_inference_matches_unfolded_oracle(name):
    """Inference with batch norm folded into the conv weights and bias gives
    the probabilities of conv plus bias, minus the running mean, divided by
    sqrt(var + eps), then ReLU, within FOLD_TOLERANCE (absolute)."""
    cfg = model_config(name, 3)
    params = _perturbed(cfg, seed=11)
    assert all(np.ptp(var) > 0.1 and np.abs(mean).max() > 0.1 for mean, var in
               zip(params.bn_running_mean, params.bn_running_var))
    x = np.random.default_rng(12).standard_normal((16, 512))
    probs, _ = forward(params, x, Workspace(cfg, 16), training=False)
    ref_probs, _ = forward_reference(cfg, params.copy(), x, training=False)
    assert np.max(np.abs(probs - ref_probs)) <= FOLD_TOLERANCE
