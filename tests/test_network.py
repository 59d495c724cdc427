import numpy as np
import pytest

from oracles import central_difference, max_relative_error
from pyrseiz import (
    MODEL_GRID,
    MODEL_NAMES,
    ModelConfig,
    backward,
    count_parameters,
    forward,
    init_parameters,
    model_config,
    parameter_shapes,
)
from pyrseiz import layers

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


class TestInitParameters:
    def test_deterministic(self, tiny_config):
        a = init_parameters(tiny_config, seed=3)
        b = init_parameters(tiny_config, seed=3)
        for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert np.array_equal(ta, tb)

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
        named = [(n, t.shape) for n, t in params.named_tensors()]
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
        for _, tensor in params.named_learnables():
            tensor[...] = 0.0
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
            for name, tensor in params.named_learnables():
                fd = central_difference(
                    lambda: _mean_loss_and_trace(cfg, params, x, y)[0], tensor
                )
                assert max_relative_error(grads[name], fd) < 1e-4, name
