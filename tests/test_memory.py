"""Traced memory bounds: a fold holds its records once, inference one pass,
a training step no patch matrix of conv2 or conv3.

Peaks are read with ``tracemalloc``, which numpy reports its array buffers
to, so they count the arrays a call makes and not the interpreter's heap.
"""

import tracemalloc

import numpy as np

from pyrseiz import layers
from pyrseiz.dataset import EegRecord, FoldPlan, define_case
from pyrseiz.ensemble import classify
from pyrseiz.evaluation import RunSpec, _run_fold
from pyrseiz.network import (
    ModelConfig, Workspace, backward, count_parameters, forward, init_parameters, model_config,
)
from pyrseiz.training import TrainingConfig, train
from pyrseiz.windowing import SCHEME_1, augment_training

TINY = ModelConfig(kernel_counts=(2, 2, 2), fc1_width=4, dropout_rate=0.0, num_classes=2)
# Per-window bookkeeping (source, start, shift, scale, label, shuffle slot)
# of the extra records' 684 windows, with room to spare for the objects of
# other Python and numpy versions.
TRAIN_ALLOWANCE = 384 * 1024
# The columns a WindowSet keeps per window: source, start, shift, scale, label.
WINDOW_COLUMN_BYTES = 5 * 8
# Per-record lists and arrays beside the columns: about 18 KB are measured
# for 12 extra records on CPython 3.11.
AUGMENT_ALLOWANCE = 64 * 1024
# Probabilities, vote records and per-pass temporaries beside the workspace.
INFER_ALLOWANCE = 512 * 1024
# A training step's temporaries beside its workspace: at batch 32 it peaks
# 162 KB (M5) and 151 KB (M4) above its arrays on CPython 3.11 and numpy
# 2.4, in conv2's backward (M5) or conv3's (M4): the bool ReLU mask read
# from a block of the layer's input (41 KB at M5), the 64 KB buffer numpy
# casts it through, the re-blocked kernels and the bias gradient's ones
# beside the trace's smaller arrays. The tap products and FC1's input
# gradient go into the workspace's scratch; made as temporaries they peaked
# 330 KB (M5) and 510 KB (M4) above the arrays. A conv3 patch matrix is
# 504 KB.
STEP_ALLOWANCE = 176 * 1024


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _records(n):
    rng = np.random.default_rng(0)
    return [EegRecord("AE"[i % 2], i // 2 + 1, rng.standard_normal(4097)) for i in range(n)]


def test_training_peak_grows_by_the_extra_samples_only():
    """Windowing and one epoch on 16 records peak at most the 12 extra
    records' bytes, plus TRAIN_ALLOWANCE, above 4 records: the windows stay
    views of the samples. A window matrix would add about 7 times those
    bytes (57 overlapping 512-sample windows per 4,097-sample record)."""
    case = define_case("A-E")
    config = TrainingConfig(epochs=1, seed=0)
    small, large = _records(4), _records(16)
    peaks = [
        _traced_peak(lambda: train(TINY, augment_training(records, case, SCHEME_1), config))
        for records in (small, large)
    ]
    extra_bytes = sum(r.samples.nbytes for r in large) - sum(r.samples.nbytes for r in small)
    assert peaks[1] - peaks[0] < extra_bytes + TRAIN_ALLOWANCE


def test_augment_peak_grows_by_the_window_columns_only():
    """Windowing 16 records peaks at most the extra 684 windows' columns,
    plus AUGMENT_ALLOWANCE, above 4 records: the records' samples are
    referenced, not copied. Concatenating them would add the 12 extra
    records' 393 KB."""
    case = define_case("A-E")
    small, large = _records(4), _records(16)
    sets, peaks = [], []
    for records in (small, large):
        peaks.append(_traced_peak(lambda: sets.append(augment_training(records, case, SCHEME_1))))
    extra_windows = len(sets[1]) - len(sets[0])
    assert extra_windows == 12 * 57
    assert peaks[1] - peaks[0] < extra_windows * WINDOW_COLUMN_BYTES + AUGMENT_ALLOWANCE


def test_fold_test_side_peak_does_not_grow_with_its_records():
    """A fold that tests on 4 times the records (16 against 4, the same 4
    training records) peaks less than the 12 extra records' sample bytes
    higher: the test side is scored one record at a time. Holding every
    test window, once as instances and once stacked, would add about 2.6
    times those bytes under scheme 1."""
    records = _records(20)
    by_set: dict = {}
    for record in records:
        by_set.setdefault(record.set_label, {})[record.index] = record
    spec = RunSpec(define_case("A-E"), SCHEME_1, TINY, TrainingConfig(epochs=1, seed=0))
    peaks = []
    for n_test in (2, 8):
        test_ids = tuple(range(3, 3 + n_test))
        plan = FoldPlan(k=2, seed=0, assignments={s: (test_ids, (1, 2)) for s in "AE"})
        peaks.append(_traced_peak(lambda: _run_fold(0, spec, plan, by_set)))
    extra_bytes = 12 * records[0].samples.nbytes
    assert peaks[1] - peaks[0] < extra_bytes


def _pass_bytes(cfg, batch):
    """The pass arrays of a workspace, from the conv layers' shapes: each
    layer's output, conv2's rectified output, the flattened conv3 output and
    conv1's patches, Rf * C_in = 5 values wide."""
    conv1, conv2, _ = cfg.conv_layers
    outputs = sum(c.output_length * c.kernels for c in cfg.conv_layers)
    act = conv2.output_length * conv2.kernels
    patches = conv1.output_length * conv1.receptive_field * conv1.in_channels
    return 8 * batch * (outputs + act + cfg.flatten_width + patches)


def test_inference_peak_is_one_pass():
    """classify on 1,000 M5 windows peaks below the pass arrays of one
    32-window pass plus INFER_ALLOWANCE: every pass reuses the same ones,
    conv1 unfolds its input into the patches array of the same block, and
    the workspace's training arrays (673 KB here) are never allocated."""
    cfg = model_config("M5", 3)
    params = init_parameters(cfg, seed=0)
    windows = np.random.default_rng(1).standard_normal((200, 5, 512))
    assert Workspace(cfg, 32).flat.base.nbytes == _pass_bytes(cfg, 32) == 2_118_144
    assert _traced_peak(lambda: classify(params, windows)) < _pass_bytes(cfg, 32) + INFER_ALLOWANCE


def test_training_step_keeps_no_conv2_or_conv3_patches():
    """One training step at batch 32, of M5 and of M4, peaks below its
    arrays, as the layer shapes give them, plus STEP_ALLOWANCE. The
    workspace is built in the traced call, and its training arrays are
    allocated before the step runs, as every step after a training loop's
    first finds them. The arrays are the pass arrays (2.12 MB at M5), the
    gathered windows, the backward scratch sized by conv2's batch-norm
    x_hat term, in which that term, the tap products, the padded output
    gradients (a block of samples at a time) and FC1's input gradient are
    made, and the gradient vector. No ReLU mask is kept: backward reads
    each from an activation. Each activation gradient is written over the
    activation it replaces, so none has an array of its own. conv2 and
    conv3 read their inputs in place, so a patch matrix of either, (32,
    84, 72) or (32, 41, 48) values at M5 (1.55 MB or 504 KB), kept or made
    in either pass, would cross the bound, as would the per-layer
    activation gradients (1.47 MB), the tap products and FC1's input
    gradient as temporaries, or the three ReLU masks kept as arrays (184
    KB)."""
    batch = 32
    for name, total in (("M5", 2_660_824), ("M4", 2_562_776)):
        cfg = model_config(name, 3)
        params = init_parameters(cfg, seed=0)
        rng = np.random.default_rng(2)
        windows, labels = rng.standard_normal((batch, 512)), rng.integers(0, 3, size=batch)
        conv2 = cfg.conv_layers[1]
        scratch = conv2.output_length * conv2.kernels
        buffers = 8 * (batch * (cfg.input_length + scratch) + len(params.flat))
        assert buffers + _pass_bytes(cfg, batch) == total, name
        assert len(params.flat) == count_parameters(cfg) + 2 * sum(cfg.kernel_counts)

        def step():
            ws = Workspace(cfg, batch)
            ws.scratch, ws.grads  # as a training loop's first step leaves them
            ws.windows[...] = windows
            _, trace = forward(params, ws.windows, ws, training=True,
                               dropout_rng=np.random.default_rng(3))
            _, _, grad_logits = layers.softmax_cross_entropy(trace.logits, labels)
            backward(params, trace, grad_logits / batch)

        assert _traced_peak(step) < _pass_bytes(cfg, batch) + buffers + STEP_ALLOWANCE, name
