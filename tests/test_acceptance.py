"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete. Criterion 7 needs a real Bonn-layout dataset and is skipped
unless PYRSEIZ_DATA points at one.
"""

import itertools
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from helpers import fresh_conv, fresh_conv_backward
from oracles import (
    central_difference,
    confusion_from_pairs,
    max_relative_error,
    metrics_from_pairs,
    vote_oracle,
)
from pyrseiz import layers
from pyrseiz.cli import main
from pyrseiz.dataset import (
    BandSpec,
    EegRecord,
    define_case,
    ids_by_set,
    plan_folds,
    synthesize_dataset,
)
from pyrseiz.ensemble import majority_vote
from pyrseiz.evaluation import RunSpec, compute_metrics, run_battery, run_cv
from pyrseiz.network import (
    ModelConfig,
    NetworkParameters,
    Workspace,
    backward,
    forward,
    model_config,
)
from pyrseiz.training import TrainingConfig
from pyrseiz.windowing import (
    SCHEME_1,
    SCHEME_2,
    augment_training,
    count_windows,
    segment_testing,
)

TABLE3_COUNTS = {21366, 21387, 41106, 41147, 8326, 8347, 14946, 14987}


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def _grid_counts(receptive_fields, strides):
    """Eight grid parameter counts for one Rf/stride choice, or None if infeasible.

    Independent arithmetic: chains the valid-convolution length formula and
    sums kernel/bias and dense weight/bias sizes directly.
    """
    length = 512
    for rf, stride in zip(receptive_fields, strides):
        if length < rf:
            return None
        length = (length - rf) // stride + 1
    counts = set()
    for kernels in ((24, 16, 8), (8, 16, 24)):
        k1, k2, k3 = kernels
        conv = (k1 * 1 * receptive_fields[0] + k1
                + k2 * k1 * receptive_fields[1] + k2
                + k3 * k2 * receptive_fields[2] + k3)
        flat = k3 * length
        for fc1 in (20, 40):
            for num_classes in (2, 3):
                counts.add(conv + flat * fc1 + fc1 + fc1 * num_classes + num_classes)
    return counts


def test_criterion_1_parameter_counts(capsys):
    """Exact Table-of-eight parameter reproduction plus architecture search."""
    with criterion("C1 parameter-counts"):
        assert main(["params", "--all"]) == 0
        out = capsys.readouterr().out
        printed = {int(tok) for tok in out.split() if tok.isdigit() and len(tok) > 3}
        assert printed == TABLE3_COUNTS

        pyramid = 14946
        traditional = 41106
        reduction = 100.0 * (1.0 - pyramid / traditional)
        assert abs(reduction - 63.64) <= 0.01

        # independent brute-force search over Rf in {1..11}^3, strides in {1..4}^3
        solutions = []
        for rf in itertools.product(range(1, 12), repeat=3):
            for strides in itertools.product(range(1, 5), repeat=3):
                if _grid_counts(rf, strides) == TABLE3_COUNTS:
                    solutions.append((rf, strides))
        assert solutions, "no architecture reproduces the published counts"
        assert all(rf == (5, 3, 3) for rf, _ in solutions)
        assert ((5, 3, 3), (3, 2, 2)) in solutions  # the frozen defaults
        length = 512
        for rf, stride in zip((5, 3, 3), (3, 2, 2)):
            length = (length - rf) // stride + 1
        assert length == 41


def test_criterion_2_augmentation_arithmetic():
    """Exact window counts for both schemes and the test segmentation."""
    with criterion("C2 augmentation-arithmetic"):
        assert count_windows(4097, 512, 64) == 57
        assert count_windows(4097, 512, 128) == 29

        rng = np.random.default_rng(0)
        records = [EegRecord("A", i + 1, rng.standard_normal(4097)) for i in range(90)]
        case = define_case("A-E")
        assert len(augment_training(records, case, SCHEME_1)) == 5130
        assert len(augment_training(records, case, SCHEME_2)) == 2610

        for scheme, width in ((SCHEME_1, 3), (SCHEME_2, 5)):
            instances = segment_testing(records[0], case, scheme)
            assert len(instances) == 4
            assert all(len(inst.windows) == width for inst in instances)


def _random_tiny_config(rng):
    while True:
        try:
            return ModelConfig(
                kernel_counts=tuple(int(v) for v in rng.integers(2, 6, size=3)),
                receptive_fields=tuple(int(v) for v in rng.integers(2, 6, size=3)),
                strides=tuple(int(v) for v in rng.integers(1, 4, size=3)),
                fc1_width=int(rng.integers(3, 8)),
                dropout_rate=0.0,
                num_classes=int(rng.integers(2, 4)),
                input_length=64,
            )
        except ValueError:  # conv chain did not fit; redraw
            continue


def test_criterion_3_gradient_correctness():
    """20 random tiny configs: every parameter against central differences."""
    with criterion("C3 gradient-correctness"):
        start = time.perf_counter()

        # isolated layers at 1e-6, on channel-last (batch, length, channels) arrays
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 2, 9)).transpose(0, 2, 1).copy()
        w = rng.standard_normal((3, 2, 3))
        b = rng.standard_normal(3)
        readout = rng.standard_normal((2, 3, 4)).transpose(0, 2, 1).copy()
        conv_loss = lambda: float((fresh_conv(x, w, b, 2) * readout).sum())
        gx, gw, gb = fresh_conv_backward(x, w, 2, readout, grad_x=np.empty_like(x))
        assert max_relative_error(gx, central_difference(conv_loss, x)) < 1e-6
        assert max_relative_error(gw, central_difference(conv_loss, w)) < 1e-6
        assert max_relative_error(gb, central_difference(conv_loss, b)) < 1e-6

        xb = rng.standard_normal((4, 3, 7)).transpose(0, 2, 1).copy()
        rb = rng.standard_normal((4, 3, 7)).transpose(0, 2, 1).copy()
        _, cache, _, _ = layers.batchnorm_train(xb, np.empty_like(xb))
        def bn_loss():
            y, _, _, _ = layers.batchnorm_train(xb, np.empty_like(xb))
            return float((y * rb).sum())
        assert max_relative_error(
            layers.batchnorm_backward(cache, rb, np.empty_like(rb), np.empty_like(rb)),
            central_difference(bn_loss, xb)
        ) < 1e-6

        xd = rng.standard_normal((5, 4))
        wd = rng.standard_normal((4, 3))
        bd = rng.standard_normal(3)
        rd = rng.standard_normal((5, 3))
        dense_loss = lambda: float((layers.dense_forward(xd, wd, bd) * rd).sum())
        gxd, gwd, gbd = layers.dense_backward(xd, wd, rd)
        assert max_relative_error(gwd, central_difference(dense_loss, wd)) < 1e-6
        assert max_relative_error(gbd, central_difference(dense_loss, bd)) < 1e-6

        # 20 end-to-end configs at 1e-4, checked at generic (kink-free) points
        from gradcheck import draw_generic_scenario

        rng = np.random.default_rng(2024)
        for trial in range(20):
            cfg = _random_tiny_config(rng)
            params, batch, labels = draw_generic_scenario(cfg, rng)

            def mean_loss():
                _, trace = forward(params, batch, Workspace(cfg, len(batch)), training=True)
                losses, _, _ = layers.softmax_cross_entropy(trace.logits, labels)
                return float(losses.mean())

            _, trace = forward(params, batch, Workspace(cfg, len(batch)), training=True)
            _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, labels)
            grads = backward(params, trace, grad_logits / labels.size)
            fd = NetworkParameters(cfg)
            fd.learnable[:] = central_difference(mean_loss, params.learnable)
            for name, grad in grads.tensors.items():  # buffer slots: zero on both sides
                err = max_relative_error(grad, fd.tensors[name])
                assert err < 1e-4, f"trial {trial}, {name}: {err:.3e}"

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_4_vote_and_metric_oracles():
    """Exhaustive vote enumeration and exact metric agreement."""
    with criterion("C4 vote-and-metric-oracles"):
        rng = np.random.default_rng(3)
        for votes in itertools.product(range(3), repeat=3):
            raw = rng.random((3, 3))
            probs = raw / raw.sum(axis=1, keepdims=True)
            assert majority_vote(list(votes), probs) == vote_oracle(list(votes), probs)
        for votes in itertools.product(range(2), repeat=5):
            raw = rng.random((5, 2))
            probs = raw / raw.sum(axis=1, keepdims=True)
            assert majority_vote(list(votes), probs) == vote_oracle(list(votes), probs)

        for _ in range(1000):
            n = int(rng.integers(2, 50))
            true = rng.integers(0, 2, size=n)
            pred = rng.integers(0, 2, size=n)
            cm = confusion_from_pairs(true, pred, 2)
            ours = compute_metrics(cm)
            acc, sen, spe, precision, f_m, g_m = metrics_from_pairs(true, pred, positive=1)
            assert (ours["acc"], ours["sen"], ours["spe"], ours["precision"], ours["f_m"],
                    ours["g_m"]) == (acc, sen, spe, precision, f_m, g_m)
            if ours["g_m"] is not None:
                assert abs(ours["g_m"]**2 - ours["spe"] * ours["sen"]) < 1e-12


def test_criterion_5_cv_determinism(tmp_path):
    """Two cmd_cv runs with identical flags: byte-identical reports/checkpoints."""
    with criterion("C5 determinism"):
        data = tmp_path / "data"
        assert main(
            ["synth", "--classes", "2", "--records", "4", "--seed", "5", "--out", str(data)]
        ) == 0
        out = tmp_path / "runs"
        flags = [
            "cv",
            "--data-root", str(data),
            "--case", "A-B",
            "--model", "M5",
            "--scheme", "1",
            "--folds", "2",
            "--epochs", "2",
            "--seed", "5",
            "--format", "json",
            "--out", str(out),
        ]
        assert main(flags) == 0
        artifacts = sorted(p for p in out.iterdir() if p.is_file())
        assert artifacts
        first = {p.name: p.read_bytes() for p in artifacts}
        assert main(flags) == 0  # identical flags, same output directory
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"


def test_criterion_6_synthetic_end_to_end():
    """3 classes x 30 records, M5 + Scheme-1 + 5-fold CV: Acc and Acc_V >= 0.90."""
    with criterion("C6 synthetic-end-to-end"):
        start = time.perf_counter()
        profiles = [BandSpec(2, 4), BandSpec(8, 12), BandSpec(20, 30)]
        records = synthesize_dataset(30, profiles, seed=7)
        case = define_case("A-B-C")
        cfg = model_config("M5", case.num_classes)
        training = TrainingConfig(epochs=8, seed=7)
        plan = plan_folds(ids_by_set(records), k=5, seed=7)
        report = run_cv(records, RunSpec(case, SCHEME_1, cfg, training), plan)
        elapsed = time.perf_counter() - start
        print(
            f"\n  mean window acc {report.mean['acc']:.4f}, "
            f"mean voted acc {report.mean['acc_v']:.4f}, {elapsed:.0f}s"
        )
        assert report.mean["acc"] >= 0.90
        assert report.mean["acc_v"] >= 0.90
        assert elapsed < 300.0, f"took {elapsed:.0f}s, budget is 300s"


def _bonn_root():
    root = os.environ.get("PYRSEIZ_DATA")
    if not root:
        return None
    root = Path(root)
    from pyrseiz.dataset import _set_directory

    for letter in ("A", "B", "C", "D", "E"):
        if _set_directory(root, letter) is None:
            return None
    return root


needs_bonn = pytest.mark.skipif(
    _bonn_root() is None,
    reason="criterion 7 needs a Bonn-layout dataset at $PYRSEIZ_DATA (not part of CI)",
)


@needs_bonn
def test_criterion_7_bonn_a_vs_e():
    from pyrseiz.dataset import load_bonn_root

    with criterion("C7a bonn-A-vs-E"):
        records = load_bonn_root(_bonn_root(), letters=("A", "E"))
        case = define_case("A-E")
        cfg = model_config("M5", case.num_classes)
        training = TrainingConfig(epochs=20, seed=1)
        plan = plan_folds(ids_by_set(records), k=10, seed=1)
        report = run_cv(records, RunSpec(case, SCHEME_1, cfg, training), plan)
        print(f"\n  A-E mean acc_v {report.mean['acc_v']:.4f}")
        assert report.mean["acc_v"] >= 0.99


@needs_bonn
def test_criterion_7_bonn_ternary():
    from pyrseiz.dataset import load_bonn_root

    with criterion("C7b bonn-AB-CD-E"):
        records = load_bonn_root(_bonn_root())
        case = define_case("AB-CD-E")
        cfg = model_config("M5", case.num_classes)
        training = TrainingConfig(epochs=30, seed=1)
        plan = plan_folds(ids_by_set(records), k=10, seed=1)
        report = run_cv(records, RunSpec(case, SCHEME_1, cfg, training), plan)
        print(f"\n  AB-CD-E mean acc_v {report.mean['acc_v']:.4f}")
        assert report.mean["acc_v"] >= 0.97
        cm = report.mean_confusion
        adjacent = cm[0, 1] + cm[1, 0] + cm[1, 2] + cm[2, 1]
        extreme = cm[0, 2] + cm[2, 0]
        assert adjacent >= extreme  # confusion concentrates on neighboring states


@pytest.mark.skipif(
    _bonn_root() is None or os.environ.get("PYRSEIZ_FULL_BATTERY") != "1",
    reason="full 16-case battery is multi-hour; set PYRSEIZ_FULL_BATTERY=1 to run",
)
def test_criterion_7_bonn_full_battery():
    from pyrseiz.dataset import load_bonn_root

    with criterion("C7c bonn-battery"):
        records = load_bonn_root(_bonn_root())
        template = model_config("M5", 2)
        training = TrainingConfig(epochs=20, seed=1)
        battery = run_battery(records, RunSpec(None, SCHEME_1, template, training), k=10)
        mean_acc_v = float(np.mean([row.mean_acc_v for row in battery.rows]))
        print(f"\n  battery mean acc_v {mean_acc_v:.4f}")
        assert mean_acc_v >= 0.98
