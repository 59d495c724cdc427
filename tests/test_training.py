import base64
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_rows, rows_window_set
from oracles import (
    adam_per_tensor_reference,
    adam_scalar_reference,
    adam_step_allocating,
    save_checkpoint_v1,
)
from pyrseiz.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from pyrseiz.network import (
    ModelConfig,
    NetworkParameters,
    Workspace,
    forward,
    init_parameters,
    model_config,
    parameter_shapes,
)
from pyrseiz.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainingConfig,
    adam_step,
    init_adam_state,
    train,
    write_history_csv,
)


# init_parameters(tiny_config, 11) as written by save_checkpoint at commit
# 0001c4c, the last p1dcnn-v1 writer, and at commit 1a55592 with case A-E and
# scheme 2: files older writers wrote must keep loading
GOLDEN = Path(__file__).parent / "data"


def _respelled(old, new):
    return lambda lines: [new if line == old else line for line in lines]


def _swapped(first, second, length):
    """An edit swapping the runs of ``length`` lines that start at ``first``
    and at ``second``."""

    def edit(lines):
        a, b = lines.index(first), lines.index(second)
        lines[a : a + length], lines[b : b + length] = lines[b : b + length], lines[a : a + length]
        return lines

    return edit


def _take(windows, rows):
    """The rows of a WindowSet picked by an index array, in that order."""
    rows = np.asarray(rows, dtype=np.int64)
    return replace(
        windows,
        sources=windows.sources[rows],
        starts=windows.starts[rows],
        shifts=windows.shifts[rows],
        scales=windows.scales[rows],
        labels=windows.labels[rows],
    )


class TestTrainingConfig:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert cfg.learning_rate == 1e-3
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert cfg.batch_size == 32 and cfg.epochs == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_rate_rejected(self, value):
        with pytest.raises(ValueError, match=f"^learning_rate must be finite, got {value}$"):
            TrainingConfig(learning_rate=value)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            TrainingConfig(seed=-1)
        assert TrainingConfig(seed=0).seed == 0


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
        lr = 0.1
        reference = adam_scalar_reference(
            lambda t: 2.0 * t, 1.0, lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, 100
        )
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
        config = TrainingConfig(learning_rate=lr)
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
        config = TrainingConfig(learning_rate=3e-3)
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
                config.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
            )
        assert state.t == 20
        for flat, tensors in ((params.learnable, ref), (state.m, ref_m), (state.v, ref_v)):
            assert np.array_equal(flat, np.concatenate([tensors[n].ravel() for n in names]))


    def test_in_place_step_equals_allocating_oracle_bitwise(self):
        """50 steps on M4 (5 classes, 41,229 learnable values) with gradients
        spanning eight orders of magnitude: parameters and both moments equal
        the allocating formula's bitwise."""
        cfg = model_config("M4", 5)
        config = TrainingConfig(learning_rate=3e-3)
        params = init_parameters(cfg, seed=8)
        assert params.learnable.size == 41229
        ref = params.copy()
        state, ref_state = init_adam_state(params), init_adam_state(ref)
        rng = np.random.default_rng(12)
        for _ in range(50):
            grads = NetworkParameters(cfg)
            size = grads.learnable.size
            grads.learnable[:] = rng.standard_normal(size) * 10.0 ** rng.uniform(-4, 4, size)
            adam_step(params, grads, state, config)
            adam_step_allocating(ref, grads, ref_state, config)
        assert state.t == ref_state.t == 50
        for a, b in ((params.flat, ref.flat), (state.m, ref_state.m), (state.v, ref_state.v)):
            assert np.array_equal(a, b)

    def test_step_allocates_no_vector(self):
        """Every intermediate of a step lives in the state's two scratch
        vectors: the traced peak of a step stays under one vector's bytes."""
        cfg = model_config("M4", 5)
        params = init_parameters(cfg, seed=8)
        state = init_adam_state(params)
        grads = NetworkParameters(cfg)
        grads.learnable[:] = 1e-3
        adam_step(params, grads, state, TrainingConfig())
        tracemalloc.start()
        try:
            adam_step(params, grads, state, TrainingConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.learnable.nbytes // 8


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
        windows = rows_window_set(
            np.stack([np.ones(64), -np.ones(64)]),
            labels=np.array([0, 2]),
        )
        with pytest.raises(ValueError, match="outside the model"):
            train(tiny_config, windows, TrainingConfig(epochs=1))

    def test_inputs_never_mutated(self, tiny_config, toy_windows):
        values, labels = all_rows(toy_windows), toy_windows.labels.copy()
        samples = [s.copy() for s in toy_windows.samples]
        train(tiny_config, toy_windows, TrainingConfig(epochs=2, seed=1))
        assert np.array_equal(all_rows(toy_windows), values)
        assert np.array_equal(toy_windows.labels, labels)
        assert len(toy_windows.samples) == len(samples)
        for got, expected in zip(toy_windows.samples, samples):
            assert np.array_equal(got, expected)

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
        from pyrseiz import layers
        from pyrseiz.network import Workspace, backward, forward as net_forward

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

        ws = Workspace(tiny_config, 32)
        passed = 0
        for seed in range(10):
            params = init_parameters(tiny_config, seed=seed)
            state = init_adam_state(params)
            config = TrainingConfig(seed=seed)
            losses = []
            for step in range(6):
                _, trace = net_forward(params, X, ws, training=True)
                step_losses, _, grad = layers.softmax_cross_entropy(trace.logits, y)
                losses.append(float(step_losses.mean()))
                if step < 5:
                    grads = backward(params, trace, grad / y.size)
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

    def test_one_workspace_per_run(self, tiny_config, toy_windows, monkeypatch):
        """24 windows in batches of 7 over 3 epochs build one workspace, of
        7 windows: the partial batches of 3 run on its head."""
        import pyrseiz.training as training

        built = []

        class CountingWorkspace(training.Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.batch)

        monkeypatch.setattr(training, "Workspace", CountingWorkspace)
        train(tiny_config, toy_windows, TrainingConfig(epochs=3, batch_size=7, seed=3))
        assert built == [7]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_window_stops_training_before_the_update(
        self, tiny_config, toy_windows, monkeypatch
    ):
        """An inf in the window the seeded shuffle puts third in batch 2 of
        epoch 1 (batches of 8) breaks that batch; the Adam step never sees a
        non-finite gradient."""
        import pyrseiz.training as training

        # the shuffle generator train() derives from seed 0
        shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(1,)))
        row = shuffle_rng.permutation(len(toy_windows))[10]
        values = all_rows(toy_windows)
        values[row, 5] = np.inf
        bad = rows_window_set(values, toy_windows.labels)
        steps = []

        def checked_step(params, grads, state, config):
            assert np.isfinite(grads.flat).all()
            steps.append(state.t)
            return adam_step(params, grads, state, config)

        monkeypatch.setattr(training, "adam_step", checked_step)
        config = TrainingConfig(epochs=2, batch_size=8, seed=0)
        with pytest.raises(ValueError, match="epoch 1, batch 2: non-finite loss or gradient"):
            train(tiny_config, bad, config)
        assert steps == [0]

    def test_bn_stats_finite_and_positive_after_training(self, tiny_config, toy_windows):
        params, _ = train(tiny_config, toy_windows, TrainingConfig(epochs=3, seed=2))
        for mean in params.bn_running_mean:
            assert np.all(np.isfinite(mean))
        for var in params.bn_running_var:
            assert np.all(np.isfinite(var)) and np.all(var > 0)


class TestCheckpointRoundTrip:
    def test_forward_identical_after_round_trip(self, tiny_config, toy_windows, tmp_path):
        params, _ = train(tiny_config, toy_windows, TrainingConfig(epochs=2, seed=5))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, tiny_config, path)
        loaded, config = load_checkpoint(path)
        assert config == tiny_config
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 64))
        probs_a, _ = forward(params, x, Workspace(tiny_config, 100), training=False)
        probs_b, _ = forward(loaded, x, Workspace(config, 100), training=False)
        assert np.array_equal(probs_a, probs_b)

    def test_another_config_raises_and_writes_nothing(self, tiny_config, tmp_path):
        """A config that differs from the parameters' only in its dropout
        rate would give a file that loads cleanly; it is refused before
        anything is written, and an existing file keeps its bytes."""
        params = init_parameters(tiny_config, seed=8)
        other = replace(tiny_config, dropout_rate=0.5)
        missing, existing = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
        save_checkpoint(params, tiny_config, existing)
        before = existing.read_bytes()
        for path in (missing, existing):
            with pytest.raises(ValueError, match="params.config"):
                save_checkpoint(params, other, path)
        assert not missing.exists()
        assert existing.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.ckpt"]

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
        assert text.splitlines()[0] == "p1dcnn-v2"
        assert "config kernel_counts 24 16 8" in text

    @pytest.mark.parametrize(
        "overrides, dropout_line",
        [({}, "config dropout_rate 0.5"),
         ({"dropout_rate": 0.1}, "config dropout_rate 0.10000000000000001")],
        ids=["m5", "dropout-0.1"],
    )
    def test_config_block_bytes(self, tmp_path, overrides, dropout_line):
        cfg = replace(model_config("M5", 3), **overrides)
        path = tmp_path / "m5.ckpt"
        save_checkpoint(init_parameters(cfg, seed=0), cfg, path)
        assert path.read_text().splitlines()[1:8] == [
            "config kernel_counts 24 16 8",
            "config receptive_fields 5 3 3",
            "config strides 3 2 2",
            "config fc1_width 20",
            dropout_line,
            "config num_classes 3",
            "config input_length 512",
        ]
        assert load_checkpoint(path).config == cfg

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            ("config fc1_width 5 99", "config fc1_width 5 99"),
            ("config fc1_width 5\nconfig flux 7", "config flux 7"),
            ("config fc1_width 40\nconfig fc1_width 5", "config fc1_width 5"),
        ],
        ids=["extra-value", "unknown-key", "repeated-key"],
    )
    @pytest.mark.parametrize("writer", [save_checkpoint, save_checkpoint_v1], ids=["v2", "v1"])
    def test_malformed_config_line_rejected(self, tiny_config, tmp_path, writer, lines, bad_line):
        """Each line in place of ``config fc1_width 5`` fails the load, naming
        the file and the offending line."""
        path = tmp_path / "model.ckpt"
        writer(init_parameters(tiny_config, seed=0), tiny_config, path)
        path.write_text(path.read_text().replace("config fc1_width 5\n", lines + "\n"))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")
        assert repr(bad_line) in str(info.value)

    @pytest.mark.parametrize(
        "canonical, spelling",
        [
            ("config input_length 512", "config input_length 5_12"),
            ("config fc1_width 20", "config fc1_width +20"),
            ("config dropout_rate 0.5", "config dropout_rate 0.50"),
            ("config num_classes 3", "config num_classes 03"),
            ("config strides 3 2 2", "config strides 3 2 ２"),
        ],
        ids=["underscore", "plus-sign", "trailing-zero", "leading-zero", "full-width-digit"],
    )
    @pytest.mark.parametrize("writer", [save_checkpoint, save_checkpoint_v1], ids=["v2", "v1"])
    def test_non_canonical_config_value_rejected(self, tmp_path, writer, canonical, spelling):
        """int() and float() read each spelling as the canonical value; the
        load fails instead, naming the file and the line."""
        cfg = model_config("M5", 3)
        path = tmp_path / "m5.ckpt"
        writer(init_parameters(cfg, seed=0), cfg, path)
        text = path.read_text()
        assert f"\n{canonical}\n" in text
        path.write_text(text.replace(f"\n{canonical}\n", f"\n{spelling}\n"))
        with pytest.raises(CheckpointError, match="non-canonical value") as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")
        assert repr(spelling) in str(info.value)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("config strides 3 2 2\n", "", r"config is missing \['strides'\]"),
            ("config num_classes 2\n", "config num_classes two\n", "invalid checkpoint config"),
            ("config strides 3 2 2\n", "config strides 3 2\n", "invalid checkpoint config"),
        ],
        ids=["missing-key", "non-integer", "two-strides"],
    )
    def test_bad_config_value_names_the_path(self, tiny_config, tmp_path, old, new, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_parameters(tiny_config, seed=0), tiny_config, path)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(CheckpointError, match=message) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")

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
        path.write_text("p1dcnn-v9\nend\n")
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

    def test_tensor_lines_are_base64_of_little_endian_float64(self, tiny_config, tmp_path):
        params = init_parameters(tiny_config, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, tiny_config, path)
        lines = path.read_text().splitlines()
        for name, tensor in params.tensors.items():
            at = lines.index(f"tensor {name} " + " ".join(map(str, tensor.shape)))
            assert base64.b64decode(lines[at + 1]) == tensor.astype("<f8").tobytes()

    def test_v1_file_loads_bitwise_equal_to_v2(self, tiny_config, tmp_path):
        params = init_parameters(tiny_config, seed=8)
        rng = np.random.default_rng(1)
        params.flat[:] = rng.standard_normal(params.flat.size) * 10.0 ** rng.integers(
            -300, 300, params.flat.size
        )
        save_checkpoint_v1(params, tiny_config, tmp_path / "v1.ckpt")
        save_checkpoint(params, tiny_config, tmp_path / "v2.ckpt", case="A-B", scheme=2)
        v1 = load_checkpoint(tmp_path / "v1.ckpt")
        v2 = load_checkpoint(tmp_path / "v2.ckpt")
        assert v1.config == v2.config == tiny_config
        assert v1.params.flat.tobytes() == v2.params.flat.tobytes() == params.flat.tobytes()
        assert (v1.case, v1.scheme) == (None, None)
        assert (v2.case, v2.scheme) == ("A-B", 2)

    def test_training_header_written_in_canonical_form(self, tmp_path):
        cfg = model_config("M5", 3)
        path = tmp_path / "m5.ckpt"
        save_checkpoint(init_parameters(cfg, seed=0), cfg, path, case="ab-c-d", scheme=1)
        assert "\ncase AB-C-D\nscheme 1\ntensor conv1.weight" in path.read_text()
        assert (load_checkpoint(path).case, load_checkpoint(path).scheme) == ("AB-C-D", 1)

    @pytest.mark.parametrize(
        "header",
        ["case A-B-C", "case a-b", "case A-Q", "scheme 3", "scheme x", "scheme 1 2",
         "scheme 1\nscheme 1", "scheme 01", "scheme +1", "scheme \u0661"],
    )
    def test_bad_training_header_rejected(self, tiny_config, tmp_path, header):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_parameters(tiny_config, seed=0), tiny_config, path)
        text = path.read_text().replace("\ntensor conv1.weight", f"\n{header}\ntensor conv1.weight")
        path.write_text(text)
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, bad_line",
        [
            (_respelled("tensor conv1.weight 4 1 5", "tensor conv1.weight 04 1 5"),
             "tensor conv1.weight 04 1 5"),
            (_swapped("config fc1_width 5", "config dropout_rate 0", 1), "config dropout_rate 0"),
            (_swapped("tensor conv1.weight 4 1 5", "tensor conv1.bias 4", 2),
             "tensor conv1.bias 4"),
        ],
        ids=["respelled-tensor-header", "config-lines-swapped", "tensor-blocks-swapped"],
    )
    @pytest.mark.parametrize("writer", [save_checkpoint, save_checkpoint_v1], ids=["v2", "v1"])
    def test_line_not_in_the_writers_spelling_or_order_rejected(
        self, tiny_config, tmp_path, writer, edit, bad_line
    ):
        path = tmp_path / "model.ckpt"
        writer(init_parameters(tiny_config, seed=0), tiny_config, path)
        path.write_text("\n".join(edit(path.read_text().split("\n"))))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")
        assert repr(bad_line) in str(info.value)

    def test_committed_v1_and_v2_files_load(self, tiny_config, tmp_path):
        v1 = load_checkpoint(GOLDEN / "tiny_v1.ckpt")
        v2 = load_checkpoint(GOLDEN / "tiny_v2.ckpt")
        assert v1.config == v2.config == tiny_config
        expected = init_parameters(tiny_config, seed=11).flat.tobytes()
        assert v1.params.flat.tobytes() == v2.params.flat.tobytes() == expected
        assert (v1.case, v1.scheme) == (None, None)
        assert (v2.case, v2.scheme) == ("A-E", 2)
        again = tmp_path / "again.ckpt"
        save_checkpoint(v2.params, v2.config, again, case=v2.case, scheme=v2.scheme)
        assert again.read_bytes() == (GOLDEN / "tiny_v2.ckpt").read_bytes()

    def test_v1_file_has_no_training_header(self, tiny_config, tmp_path):
        path = tmp_path / "v1.ckpt"
        save_checkpoint_v1(init_parameters(tiny_config, seed=0), tiny_config, path)
        path.write_text(path.read_text().replace("\ntensor conv1.weight", "\nscheme 1\ntensor conv1.weight"))
        with pytest.raises(CheckpointError, match="expected a tensor header"):
            load_checkpoint(path)

    def test_config_larger_than_the_file_rejected_before_allocating(self, tiny_config, tmp_path):
        """A corrupt input length implying trillions of values fails as a
        truncated file instead of asking numpy for terabytes."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_parameters(tiny_config, seed=0), tiny_config, path)
        text = path.read_text().replace("config input_length 64", "config input_length 6400000000000")
        path.write_text(text)
        with pytest.raises(CheckpointError, match="too short"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("writer", [save_checkpoint, save_checkpoint_v1], ids=["v2", "v1"])
    def test_non_finite_value_rejected(self, tiny_config, tmp_path, writer, bad):
        params = init_parameters(tiny_config, seed=0)
        params.tensors["fc2.weight"].flat[3] = bad
        path = tmp_path / "model.ckpt"
        writer(params, tiny_config, path)
        with pytest.raises(CheckpointError, match="tensor fc2.weight has a non-finite"):
            load_checkpoint(path)

    def _replace_block(self, tiny_config, tmp_path, name, data):
        params = init_parameters(tiny_config, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, tiny_config, path)
        lines = path.read_text().splitlines()
        at = lines.index(f"tensor {name} " + " ".join(map(str, params.tensors[name].shape)))
        lines[at + 1] = data(params.tensors[name])
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[:20] + "*" + text[20:],  # decodes to 40 bytes if skipped
            lambda text: text[:-1],
            lambda text: text[:-4] + "é" + text[-3:],
        ],
        ids=["foreign-character", "bad-padding", "non-ascii"],
    )
    def test_invalid_base64_rejected(self, tiny_config, tmp_path, damage):
        def data(tensor):
            return damage(base64.b64encode(tensor.astype("<f8").tobytes()).decode("ascii"))

        path = self._replace_block(tiny_config, tmp_path, "fc1.bias", data)
        with pytest.raises(CheckpointError, match="invalid base64 in tensor fc1.bias"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [-8, -1, 8])
    def test_wrong_byte_count_rejected(self, tiny_config, tmp_path, extra):
        def data(tensor):
            raw = tensor.astype("<f8").tobytes()
            raw = raw[:extra] if extra < 0 else raw + bytes(extra)
            return base64.b64encode(raw).decode("ascii")

        path = self._replace_block(tiny_config, tmp_path, "fc1.bias", data)
        with pytest.raises(CheckpointError, match=r"tensor fc1.bias has \d+ bytes, expected 40"):
            load_checkpoint(path)


_FUZZ_CONFIG = ModelConfig(
    kernel_counts=(4, 3, 2), fc1_width=5, dropout_rate=0.0, num_classes=2, input_length=64
)


def _saved_bytes(writer, tmp_path_factory):
    params = init_parameters(_FUZZ_CONFIG, seed=4)
    path = tmp_path_factory.mktemp("fuzz_base") / "model.ckpt"
    kwargs = {"case": "A-E", "scheme": 2} if writer is save_checkpoint else {}
    writer(params, _FUZZ_CONFIG, path, **kwargs)
    return path.read_bytes()


def _edit(data: bytes, kind: str, at: int, chunk: bytes) -> bytes:
    if kind == "truncate":
        return data[: at % (len(data) + 1)]
    if kind in ("drop_line", "repeat_line", "replace_line"):
        lines = data.split(b"\n")
        i = at % len(lines)
        new = {"drop_line": [], "repeat_line": [lines[i]] * 2, "replace_line": [chunk]}[kind]
        return b"\n".join(lines[:i] + new + lines[i + 1 :])
    at %= len(data) + 1
    if kind == "insert":
        return data[:at] + chunk + data[at:]
    if kind == "delete":
        return data[:at] + data[at + len(chunk) :]
    return data[:at] + chunk + data[at + len(chunk) :]  # overwrite


@settings(max_examples=200, deadline=None)
@given(
    version=st.sampled_from(["v1", "v2"]),
    edits=st.lists(
        st.tuples(
            st.sampled_from(
                ["truncate", "drop_line", "repeat_line", "replace_line", "insert", "delete",
                 "overwrite"]
            ),
            st.integers(0, 1 << 20),
            st.one_of(
                st.binary(min_size=1, max_size=8),
                st.sampled_from([b"9", b"0", b"-", b" ", b"\n", b"=", b"nan", b"end", b"A"]),
            ),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_random_edits_load_or_raise_checkpoint_error(version, edits, tmp_path_factory):
    """Whatever the damage, a checkpoint either loads whole and finite or
    raises CheckpointError; nothing else escapes and nothing loads partly. A
    v2 file that loads is one the writer writes: saving it gives its bytes."""
    writer = save_checkpoint if version == "v2" else save_checkpoint_v1
    data = _saved_bytes(writer, tmp_path_factory)
    for kind, at, chunk in edits:
        data = _edit(data, kind, at, chunk)
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    path.write_bytes(data)
    try:
        checkpoint = load_checkpoint(path)
    except CheckpointError:
        return
    params, config = checkpoint
    assert params.config == config
    assert np.isfinite(params.flat).all()
    if version == "v2":
        again = path.with_name("again.ckpt")
        save_checkpoint(params, config, again, case=checkpoint.case, scheme=checkpoint.scheme)
        assert again.read_bytes() == data


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
