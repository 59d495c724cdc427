"""Per-layer timing from outside the program.

Wrappers are installed under the module attribute each caller looks up
(``pyrseiz.training.forward``, ``pyrseiz.layers.conv1d_forward``, ...), so
nothing under ``src/`` changes. Every wrapper opens a span on a shared
stack; a span's self time is its duration minus the time of the spans it
encloses. Totals stay in memory and are appended to a JSON-lines file each
time a process's outermost span closes. Pool workers forked by
``run_cv --jobs N`` inherit the wrappers, start an empty stack and write
their own lines when each fold span closes, so fold-parallel runs are
traced too.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

# Span names whose individual durations are kept, not only their totals.
SAMPLED_SPANS = ("evaluation.fold",)

# A full Bonn battery: 53 set-groups x 10 folds x 50 epochs x 5,130 windows.
BATTERY_WINDOW_EPOCHS = 53 * 10 * 50 * 5130


class Tracer:
    """Span stack plus per-process totals, flushed to ``path`` as JSON lines."""

    def __init__(self) -> None:
        self.path: Path | None = None
        self.missing: list[str] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.stack: list[list] = []  # [name, start, child_seconds]
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])  # total, self
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child = frame
        duration = end - start
        self.stack.pop()
        totals = self.spans[name]
        totals[0] += duration
        totals[1] += duration - child
        if name in SAMPLED_SPANS:
            self.samples[name].append(duration)
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.flush()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def flush(self) -> None:
        if self.path is None:
            return
        line = json.dumps(
            {"pid": os.getpid(), "spans": self.spans, "samples": self.samples,
             "counts": self.counts}
        )
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, (line + "\n").encode())
        finally:
            os.close(fd)
        self._reset()


def _timed(tracer: Tracer, fn, name, note=None):
    """Wrap ``fn`` in a span; ``name`` may be a function of the call's args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if note is not None:
            note(args, kwargs, result)
        return result

    return wrapper


def _hooks(tracer: Tracer, conv_index: dict[tuple[int, ...], int]) -> list[tuple]:
    """(module name, attribute, span name, note) for every traced call site."""

    def conv_name(kind):
        return lambda args, kwargs: f"layers.conv{conv_index[args[1].shape]}.{kind}"

    def conv_fwd_flops(args, kwargs, out):
        _, c, rf = args[1].shape
        tracer.count("layers.conv.fwd_flops", 2.0 * out.size * c * rf)

    def conv_bwd_flops(args, kwargs, out):
        _, c, rf = args[1].shape
        tracer.count("layers.conv.bwd_flops", 4.0 * args[3].size * c * rf)

    def forward_name(args, kwargs):
        training = kwargs.get("training", args[3] if len(args) > 3 else False)
        return "network.forward.train" if training else "network.forward.infer"

    def forward_note(args, kwargs, out):
        if out[1] is None:
            windows = args[2]
            tracer.sample("network.infer_batch_windows",
                          windows.shape[0] if windows.ndim == 2 else 1)

    def train_note(args, kwargs, out):
        tracer.count("training.window_epochs", len(args[1]) * args[2].epochs)

    def vote_note(args, kwargs, out):
        tracer.count("ensemble.ties", int(out[1]))

    def saved_bytes(args, kwargs, out):
        tracer.count("checkpoint.bytes", os.path.getsize(args[2]))

    def loaded_bytes(args, kwargs, out):
        tracer.count("checkpoint.bytes", os.path.getsize(args[0]))

    # network reaches layers through the module; forward and backward are
    # looked up in their callers' modules.
    L, T, E, C = "pyrseiz.layers", "pyrseiz.training", "pyrseiz.evaluation", "pyrseiz.cli"
    return [
        (L, "conv1d_forward", conv_name("fwd"), conv_fwd_flops),
        (L, "conv1d_backward", conv_name("bwd"), conv_bwd_flops),
        (L, "batchnorm_train", "layers.bn.train", None),
        (L, "update_running_stat", "layers.bn.train", None),
        (L, "batchnorm_infer", "layers.bn.infer", None),
        (L, "batchnorm_backward", "layers.bn.bwd", None),
        (L, "relu", "layers.relu.fwd", None),
        (L, "relu_backward", "layers.relu.bwd", None),
        (L, "dense_forward", "layers.dense.fwd", None),
        (L, "dense_backward", "layers.dense.bwd", None),
        (L, "softmax", "layers.softmax_ce", None),
        (L, "softmax_cross_entropy", "layers.softmax_ce", None),
        (L, "dropout_forward", "layers.dropout", None),
        (L, "dropout_backward", "layers.dropout", None),
        (T, "forward", forward_name, None),
        (T, "backward", "network.backward", None),
        (T, "adam_step", "training.adam_step", None),
        (E, "_run_fold", "evaluation.fold", None),
        (E, "augment_training", "windowing.augment", None),
        (E, "train", "training.train", train_note),
        (E, "segment_testing", "windowing.segment", None),
        (E, "forward", forward_name, forward_note),
        (E, "majority_vote", "ensemble.majority_vote", vote_note),
        (C, "cmd_cv", "cli.cv", None),
        (C, "cmd_predict", "cli.predict", None),
        (C, "load_bonn_root", "dataset.load", None),
        (C, "run_cv", "evaluation.run_cv", None),
        (C, "save_checkpoint", "checkpoint.save", saved_bytes),
        (C, "load_checkpoint", "checkpoint.load", loaded_bytes),
        (C, "segment_signal", "windowing.segment", None),
        (C, "forward", forward_name, forward_note),
        (C, "majority_vote", "ensemble.majority_vote", vote_note),
        (C, "write_vote_log", "ensemble.vote_log", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, path: Path, conv_shapes: list[tuple[int, ...]]):
    """Install every wrapper for the duration of the block.

    ``conv_shapes`` are the (K, C, Rf) weight shapes of conv1..conv3 of the
    model under test; each conv call is attributed to a layer by its shape.
    Call sites absent from the program are listed in ``tracer.missing``.
    """
    conv_index = {shape: i for i, shape in enumerate(conv_shapes, start=1)}
    originals = []
    tracer.missing = []
    for module_name, attr, name, note in _hooks(tracer, conv_index):
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        originals.append((module, attr, fn))
        setattr(module, attr, _timed(tracer, fn, name, note))
    tracer.path = path
    try:
        yield
    finally:
        tracer.path = None
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def read_trace(path: Path) -> tuple[dict, dict, dict, set[int]]:
    """Merge every process's lines: (span totals, samples, counts, pids)."""
    spans: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    samples: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, float] = defaultdict(float)
    pids = set()
    if path.exists():
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            pids.add(entry["pid"])
            for name, (total, self_s) in entry["spans"].items():
                spans[name][0] += total
                spans[name][1] += self_s
            for name, values in entry["samples"].items():
                samples[name].extend(values)
            for name, value in entry["counts"].items():
                counts[name] += value
    return spans, samples, counts, pids


def layer_metrics(path: Path, units: dict[str, str], calls: int, wall_s: float,
                  jobs: int) -> dict[str, float]:
    """Per-layer metrics of ``calls`` traced calls taking ``wall_s`` in total,
    each running ``jobs`` fold processes; ``units`` maps the declared metric
    names to their units.

    Times are seconds per call. Rates and ratios are over all traced calls.
    """
    spans, samples, counts, pids = read_trace(path)

    def total(*names):
        return sum(spans[n][0] for n in names if n in spans)

    def self_time(*names):
        return sum(spans[n][1] for n in names if n in spans)

    out: dict[str, float] = {}
    for name, unit in units.items():  # layers.bn.train_s <- span layers.bn.train
        if name.startswith("layers.") and unit == "s":
            out[name] = total(name[: -len("_s")]) / calls
    fwd = total("layers.conv1.fwd", "layers.conv2.fwd", "layers.conv3.fwd")
    bwd = total("layers.conv1.bwd", "layers.conv2.bwd", "layers.conv3.bwd")
    out["layers.conv.fwd_gflops_per_s"] = (
        counts["layers.conv.fwd_flops"] / fwd / 1e9 if fwd else 0.0
    )
    out["layers.conv.bwd_gflops_per_s"] = (
        counts["layers.conv.bwd_flops"] / bwd / 1e9 if bwd else 0.0
    )

    out["network.forward.train_s"] = total("network.forward.train") / calls
    out["network.forward.infer_s"] = total("network.forward.infer") / calls
    out["network.backward_s"] = total("network.backward") / calls
    out["network.self_s"] = self_time(
        "network.forward.train", "network.forward.infer", "network.backward"
    ) / calls
    batches = samples.get("network.infer_batch_windows", [])
    out["network.infer_batch_windows"] = float(statistics.median(batches)) if batches else 0.0

    train_s = total("training.train")
    out["training.train_s"] = train_s / calls
    out["training.adam_step_s"] = total("training.adam_step") / calls
    out["training.loop_self_s"] = self_time("training.train") / calls
    rate = counts["training.window_epochs"] / train_s if train_s else 0.0
    out["training.window_epochs_per_s"] = rate

    out["windowing.augment_s"] = total("windowing.augment") / calls
    out["windowing.segment_s"] = total("windowing.segment") / calls
    out["ensemble.majority_vote_s"] = total("ensemble.majority_vote") / calls
    out["ensemble.ties"] = counts["ensemble.ties"] / calls

    folds = samples.get("evaluation.fold", [])
    out["evaluation.fold_s.median"] = statistics.median(folds) if folds else 0.0
    out["evaluation.fold_s.max"] = max(folds) if folds else 0.0
    # test side of each fold: everything in the fold but augmentation and training
    fold_total = total("evaluation.fold")
    out["evaluation.eval_s"] = (
        fold_total - total("windowing.augment", "training.train")
    ) / calls if fold_total else 0.0
    out["evaluation.parallel_efficiency"] = fold_total / (jobs * wall_s) if folds else 0.0

    out["checkpoint.save_s"] = total("checkpoint.save") / calls
    out["checkpoint.load_s"] = total("checkpoint.load") / calls
    out["checkpoint.bytes"] = counts["checkpoint.bytes"] / calls
    out["dataset.load_s"] = total("dataset.load") / calls
    out["cli.predict_self_s"] = self_time("cli.predict") / calls
    out["cli.cv_self_s"] = self_time("cli.cv") / calls
    out["battery_projection_h"] = BATTERY_WINDOW_EPOCHS / rate / 3600.0 if rate else 0.0
    out["trace.processes"] = float(len(pids))
    return out
