import pickle

import numpy as np
import pytest

from oracles import backward_reference, central_difference, forward_reference, max_relative_error
from pyrseiz import (
    MODEL_GRID,
    MODEL_NAMES,
    ModelConfig,
    NetworkParameters,
    backward,
    count_parameters,
    forward,
    init_parameters,
    model_config,
    parameter_shapes,
)
from pyrseiz import layers
from pyrseiz.network import Workspace

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
        assert ModelConfig().conv_lengths() == (170, 84, 41)

    def test_alternate_stride_triple_also_gives_41(self):
        cfg = ModelConfig(strides=(2, 3, 2))
        assert cfg.conv_lengths()[2] == 41

    def test_flatten_width_m5(self):
        assert ModelConfig(kernel_counts=(24, 16, 8)).flatten_width == 8 * 41

    def test_family_classification(self):
        assert ModelConfig(kernel_counts=(24, 16, 8)).family == "pyramid"
        assert ModelConfig(kernel_counts=(8, 16, 24)).family == "traditional"
        assert ModelConfig(kernel_counts=(8, 8, 8)).family == "custom"

    def test_infeasible_chain_rejected(self):
        with pytest.raises(ValueError, match="shorter than the receptive field"):
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
        cfg = model_config("M5", 2, fc1_width=40, dropout_rate=0.0)
        assert cfg.fc1_width == 40 and cfg.dropout_rate == 0.0

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="M1, M2"):
            model_config("M9", 2)

    def test_families(self):
        for name in ("M1", "M2", "M3", "M4"):
            assert MODEL_GRID[name].kernel_counts == (8, 16, 24)
        for name in ("M5", "M6", "M7", "M8"):
            assert MODEL_GRID[name].kernel_counts == (24, 16, 8)


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
        probs, trace = forward(tiny_config, params, x, training=True)
        assert np.allclose(probs, 1.0 / tiny_config.num_classes)
        assert trace is not None
        probs_inf, trace_inf = forward(tiny_config, params, x, training=False)
        assert np.allclose(probs_inf, 1.0 / tiny_config.num_classes)
        assert trace_inf is None

    def test_probabilities_form_a_simplex(self, tiny_config):
        rng = np.random.default_rng(1)
        params = init_parameters(tiny_config, seed=1)
        probs, _ = forward(tiny_config, params, rng.standard_normal((8, 64)), training=True)
        assert np.all(probs >= 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_window_length_mismatch(self, tiny_config):
        params = init_parameters(tiny_config, seed=0)
        with pytest.raises(ValueError, match="expected windows of length"):
            forward(tiny_config, params, np.zeros((2, 63)))

    def test_inference_independent_of_batch_composition(self, tiny_config):
        rng = np.random.default_rng(2)
        params = init_parameters(tiny_config, seed=2)
        # train one batch so running stats are informative
        forward(tiny_config, params, rng.standard_normal((16, 64)), training=True)
        x = rng.standard_normal((5, 64))
        full, _ = forward(tiny_config, params, x, training=False)
        alone, _ = forward(tiny_config, params, x[2], training=False)
        # BLAS kernel choice may differ across batch shapes; anything beyond
        # ulp noise would mean batch statistics leaked into inference
        assert np.allclose(full[2], alone[0], rtol=0.0, atol=1e-12)
        again, _ = forward(tiny_config, params, x, training=False)
        assert np.array_equal(full, again)

    def test_training_mode_updates_running_stats(self, tiny_config):
        rng = np.random.default_rng(3)
        params = init_parameters(tiny_config, seed=3)
        before = [m.copy() for m in params.bn_running_mean]
        forward(tiny_config, params, rng.standard_normal((8, 64)), training=True)
        assert any(not np.array_equal(b, a) for b, a in zip(before, params.bn_running_mean))


def _mean_loss_and_trace(cfg, params, x, y):
    _, trace = forward(cfg, params, x, training=True)
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
            _, trace = forward(cfg, params, x, training=True)
            _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, y)
            grads = backward(cfg, params, trace, grad_logits / y.size)
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

        probs, _ = forward(cfg, params, x, training=False)
        ref_probs, _ = forward_reference(cfg, reference, x, training=False)
        assert np.max(np.abs(probs - ref_probs)) <= 1e-12

        probs, trace = forward(
            cfg, params, x, training=True, dropout_rng=np.random.default_rng(7)
        )
        ref_probs, ref_trace = forward_reference(
            cfg, reference, x, training=True, dropout_rng=np.random.default_rng(7)
        )
        assert np.max(np.abs(probs - ref_probs)) <= 1e-12
        # the learnable slices are untouched, so this compares the running statistics
        assert np.max(np.abs(params.flat - reference.flat)) <= 1e-12

        _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, y)
        grads = backward(cfg, params, trace, grad_logits / y.size)
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

    def test_trace_activations_are_channel_last_and_contiguous(self, tiny_config):
        cfg = tiny_config
        params = init_parameters(cfg, seed=0)
        _, trace = forward(cfg, params, np.random.default_rng(0).standard_normal((5, 64)),
                           training=True)
        in_channels = (1,) + cfg.kernel_counts[:2]
        for i, m in enumerate(cfg.conv_lengths()):
            k, rf = cfg.kernel_counts[i], cfg.receptive_fields[i]
            assert trace.conv_cols[i].shape == (5, m, rf * in_channels[i])
            assert trace.bn_caches[i].x_hat.shape == (5, m, k)
            assert trace.conv_cols[i].flags.c_contiguous
            assert trace.bn_caches[i].x_hat.flags.c_contiguous
        for name in ("fc1_input", "fc1_pre", "fc2_input", "logits", "probs"):
            assert getattr(trace, name).flags.c_contiguous, name
        ws = trace.workspace
        for buffers in (ws.cols, ws.normalized, ws.act):
            assert all(b.flags.c_contiguous for b in buffers)

    def test_reused_workspace_matches_fresh_arrays(self, tiny_config):
        """Two passes through one workspace give what fresh buffers give."""
        cfg = tiny_config
        rng = np.random.default_rng(1)
        x1, x2 = rng.standard_normal((2, 4, 64))
        y = np.array([0, 1, 1, 0])
        ws = Workspace(cfg, 4)
        results = []
        for workspace in (ws, None):
            params = init_parameters(cfg, seed=1)
            step = []
            for x in (x1, x2):
                probs, trace = forward(cfg, params, x, training=True, workspace=workspace)
                _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, y)
                step.append((probs, backward(cfg, params, trace, grad_logits)))
            results.append(step)
        for (p_ws, g_ws), (p_fresh, g_fresh) in zip(*results):
            assert np.array_equal(p_ws, p_fresh)
            assert np.array_equal(g_ws.flat, g_fresh.flat)

    def test_workspace_must_fit_the_batch(self, tiny_config):
        params = init_parameters(tiny_config, seed=0)
        with pytest.raises(ValueError, match="workspace for 4 windows"):
            forward(tiny_config, params, np.zeros((3, 64)), training=True,
                    workspace=Workspace(tiny_config, 4))

    def test_inference_results_are_never_overwritten(self, tiny_config):
        """Probabilities one inference call returns survive later calls."""
        rng = np.random.default_rng(2)
        params = _perturbed(tiny_config, seed=2)
        first, _ = forward(tiny_config, params, rng.standard_normal((6, 64)))
        kept = first.copy()
        for _ in range(3):
            forward(tiny_config, params, rng.standard_normal((6, 64)))
            forward(tiny_config, params, rng.standard_normal((6, 64)), training=True)
        assert np.array_equal(first, kept)
