"""Traced memory bounds: training holds its records once, inference one pass.

Peaks are read with ``tracemalloc``, which numpy reports its array buffers
to, so they count the arrays a call makes and not the interpreter's heap.
"""

import tracemalloc

import numpy as np

from pyrseiz.dataset import EegRecord, define_case
from pyrseiz.ensemble import classify
from pyrseiz.network import ModelConfig, Workspace, init_parameters, model_config
from pyrseiz.training import TrainingConfig, train
from pyrseiz.windowing import SCHEME_1, augment_training

# Per-window bookkeeping (start, shift, scale, label, origin tuple, shuffle
# slot) of the extra records' 684 windows: about 2.7 times the 140 KB
# measured on CPython 3.11, so object sizes of other versions fit.
TRAIN_ALLOWANCE = 384 * 1024
# Probabilities, vote records and per-pass temporaries beside the workspace.
INFER_ALLOWANCE = 512 * 1024


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
    cfg = ModelConfig(kernel_counts=(2, 2, 2), fc1_width=4, dropout_rate=0.0, num_classes=2)
    case = define_case("A-E")
    config = TrainingConfig(epochs=1, seed=0)
    small, large = _records(4), _records(16)
    peaks = [
        _traced_peak(lambda: train(cfg, augment_training(records, case, SCHEME_1), config))
        for records in (small, large)
    ]
    extra_bytes = sum(r.samples.nbytes for r in large) - sum(r.samples.nbytes for r in small)
    assert peaks[1] - peaks[0] < extra_bytes + TRAIN_ALLOWANCE


def test_inference_peak_is_one_pass():
    """classify on 1,000 M5 windows peaks below the buffers of one 32-window
    pass plus INFER_ALLOWANCE: every pass reuses the same ones."""
    cfg = model_config("M5", 3)
    params = init_parameters(cfg, seed=0)
    windows = np.random.default_rng(1).standard_normal((200, 5, 512))
    ws = Workspace(cfg, 32)
    pass_bytes = sum(a.nbytes for a in ws.cols + ws.normalized) + ws.flat.nbytes
    del ws
    assert _traced_peak(lambda: classify(params, cfg, windows)) < pass_bytes + INFER_ALLOWANCE
