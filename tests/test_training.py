from dataclasses import replace

import numpy as np
import pytest

from oracles import adam_per_tensor_reference, adam_scalar_reference
from pyrseiz import (
    CheckpointError,
    ModelConfig,
    NetworkParameters,
    TrainingConfig,
    WindowSet,
    adam_step,
    forward,
    init_adam_state,
    init_parameters,
    load_checkpoint,
    model_config,
    parameter_shapes,
    save_checkpoint,
    train,
    write_history_csv,
)


def _take(windows, rows):
    """The rows of a WindowSet picked by an index array, in that order."""
    rows = np.asarray(rows, dtype=np.int64)
    return WindowSet(
        values=windows.values[rows],
        labels=windows.labels[rows],
        origins=tuple(windows.origins[i] for i in rows),
    )


class TestTrainingConfig:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999 and cfg.eps == 1e-8
        assert cfg.batch_size == 32 and cfg.epochs == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)


class TestAdamStep:
    def test_zero_gradient_is_a_fixed_point(self, tiny_config):
        params = init_parameters(tiny_config, seed=0)
        before = params.flat.copy()
        state = init_adam_state(params)
        adam_step(params, NetworkParameters(tiny_config), state, TrainingConfig())
        assert np.array_equal(params.flat, before)
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self, tiny_config):
        """First-step update is ~alpha regardless of the gradient scale."""
        config = TrainingConfig(learning_rate=0.01)
        for scale in (1e-4, 1.0, 1e4):
            params = init_parameters(tiny_config, seed=1)
            before = params.learnable.copy()
            state = init_adam_state(params)
            grads = NetworkParameters(tiny_config)
            grads.learnable[:] = scale
            adam_step(params, grads, state, config)
            step = before - params.learnable
            assert np.allclose(step, config.learning_rate, rtol=1e-3)

    def test_scalar_quadratic_convergence_matches_reference(self):
        """100 steps on f(t)=t^2 from t=1, lr=0.1 drive |t| below 0.1."""
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        reference = adam_scalar_reference(lambda t: 2.0 * t, 1.0, lr, b1, b2, eps, 100)
        assert abs(reference) < 0.1

        cfg = ModelConfig(
            kernel_counts=(1, 1, 1), receptive_fields=(1, 1, 1), strides=(1, 1, 1),
            fc1_width=1, dropout_rate=0.0, num_classes=2, input_length=1,
        )
        params = init_parameters(cfg, seed=0)
        params.learnable[:] = 0.0
        theta = params.fc1_weight  # treat one scalar tensor as the variable
        theta[...] = 1.0
        state = init_adam_state(params)
        config = TrainingConfig(learning_rate=lr, beta1=b1, beta2=b2, eps=eps)
        for _ in range(100):
            grads = NetworkParameters(cfg)
            grads.fc1_weight[...] = 2.0 * theta
            adam_step(params, grads, state, config)
        assert abs(theta.item()) < 0.1
        assert np.isclose(theta.item(), reference, atol=1e-12)

    def test_gradient_for_another_config_rejected(self, tiny_config):
        params = init_parameters(tiny_config, seed=0)
        before = params.flat.copy()
        state = init_adam_state(params)
        other = ModelConfig(
            kernel_counts=(4, 3, 2), receptive_fields=(5, 3, 3), strides=(3, 2, 2),
            fc1_width=6, dropout_rate=0.0, num_classes=2, input_length=64,
        )
        with pytest.raises(ValueError, match="another model config"):
            adam_step(params, NetworkParameters(other), state, TrainingConfig())
        assert np.array_equal(params.flat, before) and state.t == 0

    def test_flat_update_equals_per_tensor_reference_bitwise(self):
        """20 steps on M5 (3 classes) with gradients spanning eight orders of
        magnitude: parameters and both moments match the per-tensor loop."""
        cfg = model_config("M5", 3)
        config = TrainingConfig(learning_rate=3e-3, beta1=0.8, beta2=0.99, eps=1e-7)
        params = init_parameters(cfg, seed=4)
        state = init_adam_state(params)
        names = [name for name in parameter_shapes(cfg) if not name.startswith("bn")]
        ref = {name: params.tensors[name].copy() for name in names}
        ref_m = {name: np.zeros_like(t) for name, t in ref.items()}
        ref_v = {name: np.zeros_like(t) for name, t in ref.items()}
        rng = np.random.default_rng(11)
        for step in range(1, 21):
            grads = NetworkParameters(cfg)
            size = grads.learnable.size
            grads.learnable[:] = rng.standard_normal(size) * 10.0 ** rng.uniform(-4, 4, size)
            adam_step(params, grads, state, config)
            adam_per_tensor_reference(
                ref, {name: grads.tensors[name] for name in names}, ref_m, ref_v, step,
                config.learning_rate, config.beta1, config.beta2, config.eps,
            )
        assert state.t == 20
        for flat, tensors in ((params.learnable, ref), (state.m, ref_m), (state.v, ref_v)):
            assert np.array_equal(flat, np.concatenate([tensors[n].ravel() for n in names]))


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self, tiny_config, toy_windows):
        config = TrainingConfig(epochs=5, batch_size=8, seed=0)
        _, history = train(tiny_config, toy_windows, config)
        assert len(history) == 5
        assert history[-1].train_acc == 1.0

    def test_identical_runs_are_bitwise_identical(self, tiny_config, toy_windows):
        config = TrainingConfig(epochs=3, batch_size=8, seed=4)
        params_a, hist_a = train(tiny_config, toy_windows, config)
        params_b, hist_b = train(tiny_config, toy_windows, config)
        assert np.array_equal(params_a.flat, params_b.flat)
        assert hist_a == hist_b

    def test_zero_epochs_returns_untouched_init(self, tiny_config, toy_windows):
        config = TrainingConfig(epochs=0, seed=9)
        params, history = train(tiny_config, toy_windows, config)
        assert history == []
        fresh = init_parameters(tiny_config, seed=9)
        assert np.array_equal(params.flat, fresh.flat)

    def test_empty_window_set_rejected(self, tiny_config, toy_windows):
        with pytest.raises(ValueError, match="empty"):
            train(tiny_config, _take(toy_windows, []), TrainingConfig(epochs=1))

    def test_missing_class_rejected(self, tiny_config, toy_windows):
        only_class0 = _take(toy_windows, np.flatnonzero(toy_windows.labels == 0))
        with pytest.raises(ValueError, match="no training windows for class"):
            train(tiny_config, only_class0, TrainingConfig(epochs=1))

    def test_label_outside_model_classes_rejected(self, tiny_config):
        windows = WindowSet(
            values=np.stack([np.ones(64), -np.ones(64)]),
            labels=np.array([0, 2]),
            origins=(("T1", 0), ("T2", 0)),
        )
        with pytest.raises(ValueError, match="outside the model"):
            train(tiny_config, windows, TrainingConfig(epochs=1))

    def test_inputs_never_mutated(self, tiny_config, toy_windows):
        values, labels = toy_windows.values.copy(), toy_windows.labels.copy()
        train(tiny_config, toy_windows, TrainingConfig(epochs=2, seed=1))
        assert np.array_equal(toy_windows.values, values)
        assert np.array_equal(toy_windows.labels, labels)

    def test_active_dropout_changes_training(self, tiny_config, toy_windows):
        """Rate 0.5 against rate 0 under one seed: same init, different weights."""
        config = TrainingConfig(epochs=2, seed=7)
        active = replace(tiny_config, dropout_rate=0.5)
        params_a, _ = train(tiny_config, toy_windows, config)
        params_b, _ = train(active, toy_windows, config)
        assert np.array_equal(
            init_parameters(tiny_config, 7).flat, init_parameters(active, 7).flat
        )
        assert not np.array_equal(params_a.learnable, params_b.learnable)

    def test_accessors_stay_views_of_flat_after_training(self, tiny_config, toy_windows):
        params, _ = train(tiny_config, toy_windows, TrainingConfig(epochs=2, seed=3))
        accessors = [
            *params.conv_weights, *params.conv_biases,
            *params.bn_running_mean, *params.bn_running_var,
            params.fc1_weight, params.fc1_bias, params.fc2_weight, params.fc2_bias,
        ]
        assert len(accessors) == len(params.tensors)
        for tensor in accessors:
            assert np.shares_memory(tensor, params.flat)
        assert np.shares_memory(params.learnable, params.flat)

    def test_loss_decreases_over_first_five_steps(self, tiny_config):
        """Fixed-batch loss falls strictly for 5 Adam steps; >= 9 of 10 seeds."""
        from pyrseiz import backward, layers
        from pyrseiz.network import forward as net_forward

        rng = np.random.default_rng(0)
        t = np.arange(64)
        rows = []
        for i in range(32):
            cycles = 2.0 if i % 2 == 0 else 12.0
            phase = rng.uniform(0, 2 * np.pi)
            values = np.sin(2 * np.pi * cycles * t / 64 + phase)
            values += 0.05 * rng.standard_normal(64)
            rows.append(values)
        X, y = np.stack(rows), np.arange(32) % 2

        passed = 0
        for seed in range(10):
            params = init_parameters(tiny_config, seed=seed)
            state = init_adam_state(params)
            config = TrainingConfig(seed=seed)
            losses = []
            for step in range(6):
                _, trace = net_forward(tiny_config, params, X, training=True)
                step_losses, _, grad = layers.softmax_cross_entropy(trace.logits, y)
                losses.append(float(step_losses.mean()))
                if step < 5:
                    grads = backward(tiny_config, params, trace, grad / y.size)
                    adam_step(params, grads, state, config)
            if all(b < a for a, b in zip(losses, losses[1:])):
                passed += 1
        assert passed >= 9

    @pytest.mark.parametrize("batch_size", [7, 50])
    def test_partial_and_oversized_batches_are_repeatable(
        self, tiny_config, toy_windows, batch_size
    ):
        """24 windows in batches of 7 (a partial last batch) or of 50 (one
        batch larger than the set): the reused buffers leave no trace between
        runs."""
        config = TrainingConfig(epochs=3, batch_size=batch_size, seed=3)
        params_a, hist_a = train(tiny_config, toy_windows, config)
        params_b, hist_b = train(tiny_config, toy_windows, config)
        assert np.array_equal(params_a.flat, params_b.flat)
        assert hist_a == hist_b

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_window_stops_training_before_the_update(
        self, tiny_config, toy_windows, monkeypatch
    ):
        """An inf in window 10 breaks batch 2 of epoch 1 (batches of 8, no
        shuffle); the Adam step never sees a non-finite gradient."""
        import pyrseiz.training as training

        values = toy_windows.values.copy()
        values[10, 5] = np.inf
        bad = WindowSet(values=values, labels=toy_windows.labels, origins=toy_windows.origins)
        steps = []

        def checked_step(params, grads, state, config):
            assert np.isfinite(grads.flat).all()
            steps.append(state.t)
            return adam_step(params, grads, state, config)

        monkeypatch.setattr(training, "adam_step", checked_step)
        config = TrainingConfig(epochs=2, batch_size=8, seed=0, shuffle=False)
        with pytest.raises(ValueError, match="epoch 1, batch 2: non-finite loss or gradient"):
            train(tiny_config, bad, config)
        assert steps == [0]

    def test_bn_stats_finite_and_positive_after_training(self, tiny_config, toy_windows):
        params, _ = train(tiny_config, toy_windows, TrainingConfig(epochs=3, seed=2))
        for mean in params.bn_running_mean:
            assert np.all(np.isfinite(mean))
        for var in params.bn_running_var:
            assert np.all(np.isfinite(var)) and np.all(var > 0)

    def test_balance_classes_flag_runs(self, tiny_config, toy_windows):
        rows = np.arange(len(toy_windows))
        skewed = _take(toy_windows, np.concatenate([rows, rows[toy_windows.labels == 0]]))
        config = TrainingConfig(epochs=2, seed=0, balance_classes=True)
        _, history = train(tiny_config, skewed, config)
        assert len(history) == 2


class TestCheckpointRoundTrip:
    def test_forward_identical_after_round_trip(self, tiny_config, toy_windows, tmp_path):
        params, _ = train(tiny_config, toy_windows, TrainingConfig(epochs=2, seed=5))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, tiny_config, path)
        loaded, config = load_checkpoint(path)
        assert config == tiny_config
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 64))
        probs_a, _ = forward(tiny_config, params, x, training=False)
        probs_b, _ = forward(config, loaded, x, training=False)
        assert np.array_equal(probs_a, probs_b)

    def test_values_exact(self, tiny_config, tmp_path):
        params = init_parameters(tiny_config, seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, tiny_config, path)
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(params.flat, loaded.flat)

    def test_m5_header_echoes_kernel_counts(self, tmp_path):
        cfg = model_config("M5", 3)
        params = init_parameters(cfg, seed=0)
        path = tmp_path / "m5.ckpt"
        save_checkpoint(params, cfg, path)
        text = path.read_text()
        assert text.splitlines()[0] == "p1dcnn-v1"
        assert "config kernel_counts 24 16 8" in text

    def test_truncated_file_rejected(self, tiny_config, tmp_path):
        params = init_parameters(tiny_config, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, tiny_config, path)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text("p1dcnn-v2\nend\n")
        with pytest.raises(CheckpointError, match="version mismatch"):
            load_checkpoint(path)

    def test_corrupt_shape_rejected(self, tiny_config, tmp_path):
        params = init_parameters(tiny_config, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, tiny_config, path)
        text = path.read_text().replace("tensor conv1.weight 4 1 5", "tensor conv1.weight 4 1 6")
        path.write_text(text)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)

    def test_missing_tensor_block_rejected(self, tiny_config, tmp_path):
        """A whole tensor block gone, ``end`` still there: the load names the
        tensor instead of leaving its slots at zero."""
        params = init_parameters(tiny_config, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, tiny_config, path)
        lines = path.read_text().splitlines()
        header = lines.index("tensor bn2.running_var 3")
        del lines[header : header + 2]
        assert lines[-1] == "end"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=r"missing tensors \['bn2.running_var'\]"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "none.ckpt")


def test_history_csv_schema(tmp_path, tiny_config, toy_windows):
    _, history = train(tiny_config, toy_windows, TrainingConfig(epochs=2, seed=0))
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss,train_acc"
    assert len(lines) == 3
    epoch, loss, acc = lines[1].split(",")
    assert int(epoch) == 1
    assert float(loss) == history[0].loss
    assert float(acc) == history[0].train_acc
