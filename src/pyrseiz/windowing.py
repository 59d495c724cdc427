"""Window normalization, training augmentation, and test segmentation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import WINDOW_SIZE, EegRecord, ExperimentCase
from .layers import count_windows

TEST_INSTANCE_LENGTH = 1024
NORM_EPS = 1e-8


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and scale (population std, at least NORM_EPS) of each window along
    the last axis, kept as (..., 1) columns."""
    if x.size == 0:
        raise ValueError("cannot normalize an empty sequence")
    if not np.isfinite(x).all():
        raise ValueError("cannot normalize a non-finite (nan or inf) sample")
    return x.mean(axis=-1, keepdims=True), np.maximum(x.std(axis=-1, keepdims=True), NORM_EPS)


def normalize(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance scaling with population std and an eps guard.

    Each window along the last axis is scaled by its own statistics, so a
    stack of windows normalizes exactly as its windows would one by one.
    Constant windows map to all zeros rather than dividing by zero; a nan or
    inf sample raises ValueError.
    """
    x = np.asarray(values, dtype=np.float64)
    shift, scale = _moments(x)
    return (x - shift) / scale


@dataclass(frozen=True)
class SchemeSpec:
    """Window/stride layout of one augmentation scheme.

    Training slides a 512 window at ``train_stride``; testing cuts the signal
    into 1024-sample instances, each split into overlapping expert windows at
    ``test_window_stride``.
    """

    id: int
    train_stride: int
    test_window_stride: int
    window: int = WINDOW_SIZE
    test_instance_length: int = TEST_INSTANCE_LENGTH

    def __post_init__(self) -> None:
        for name in ("train_stride", "test_window_stride", "window", "test_instance_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.window > self.test_instance_length:
            raise ValueError("window cannot exceed the test instance length")

    @property
    def ensemble_width(self) -> int:
        """Experts voting per test instance: 3 for scheme 1, 5 for scheme 2."""
        return count_windows(self.test_instance_length, self.window, self.test_window_stride)


SCHEME_1 = SchemeSpec(id=1, train_stride=64, test_window_stride=256)
SCHEME_2 = SchemeSpec(id=2, train_stride=128, test_window_stride=128)
_SCHEMES = {1: SCHEME_1, 2: SCHEME_2}


def get_scheme(scheme_id: int) -> SchemeSpec:
    try:
        return _SCHEMES[int(scheme_id)]
    except (KeyError, TypeError, ValueError):
        expected = " or ".join(map(str, _SCHEMES))
        raise ValueError(f"unknown scheme {scheme_id!r}; expected {expected}") from None


@dataclass(frozen=True)
class WindowSet:
    """Training windows as slices of their records, with labels.

    ``samples`` holds each training record's sample array as it is, one per
    record, never concatenated. Window i is
    ``samples[sources[i]][starts[i] : starts[i] + window]`` normalized by its
    own mean ``shifts[i]`` and scale ``scales[i]``; it has class
    ``labels[i]``. ``batch`` gathers normalized windows; no (n, window)
    matrix is ever built. ``len()`` is the window count.
    """

    samples: tuple[np.ndarray, ...]
    sources: np.ndarray
    starts: np.ndarray
    shifts: np.ndarray
    scales: np.ndarray
    labels: np.ndarray
    window: int = WINDOW_SIZE

    def __post_init__(self) -> None:
        samples = tuple(np.asarray(s, dtype=np.float64) for s in self.samples)
        sources = np.asarray(self.sources, dtype=np.int64)
        starts = np.asarray(self.starts, dtype=np.int64)
        shifts = np.asarray(self.shifts, dtype=np.float64)
        scales = np.asarray(self.scales, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        n = labels.size
        columns = (sources, starts, shifts, scales, labels)
        if any(s.ndim != 1 for s in samples) or any(a.shape != (n,) for a in columns):
            raise ValueError(
                f"expected 1-D sample arrays and n sources, starts, shifts, scales and "
                f"labels, got samples of shapes {[s.shape for s in samples]}, sources "
                f"{sources.shape}, starts {starts.shape}, shifts {shifts.shape}, scales "
                f"{scales.shape}, labels {labels.shape}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if n:
            if sources.min() < 0 or sources.max() >= len(samples):
                raise ValueError(f"a window source lies outside the {len(samples)} records")
            lengths = np.array([s.size for s in samples], dtype=np.int64)
            if starts.min() < 0 or np.any(starts > lengths[sources] - self.window):
                raise ValueError("a window start lies outside its record's samples")
        names = ("samples", "sources", "starts", "shifts", "scales", "labels")
        for name, value in zip(names, (samples, *columns)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return int(self.labels.size)

    def batch(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Windows ``rows``, in that order, normalized as ``normalize`` would:
        (slice - shift) / scale. Each row is copied from its record's slice
        into ``out``, a (len(rows), window) array."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size:
            spans = zip(self.sources[rows].tolist(), self.starts[rows].tolist())
            for j, (source, start) in enumerate(spans):
                out[j] = self.samples[source][start : start + self.window]
            out -= self.shifts[rows][:, None]
            out /= self.scales[rows][:, None]
        return out


@dataclass(frozen=True)
class TestInstance:
    """One 1024-sample test sub-signal as its scheme's expert windows.

    ``windows`` is (width, window), one normalized row per expert.
    """

    windows: np.ndarray
    label: int
    origin: tuple[str, int]  # (record id, sub-signal index)

    def __post_init__(self) -> None:
        windows = np.asarray(self.windows, dtype=np.float64)
        if windows.ndim != 2 or windows.shape[0] == 0:
            raise ValueError(
                f"a test instance needs a (width, window) array with at least one "
                f"window, got shape {windows.shape}"
            )
        object.__setattr__(self, "windows", windows)


def _class_of(record: EegRecord, case: ExperimentCase) -> int:
    if record.set_label not in case.class_of_set:
        raise ValueError(
            f"record {record.record_id} has set {record.set_label}, "
            f"which case {case.name} does not map"
        )
    return case.class_of_set[record.set_label]


def augment_training(
    records: Iterable[EegRecord], case: ExperimentCase, scheme: SchemeSpec
) -> WindowSet:
    """Slide the training window over each record; every window is one instance.

    Windows start at offsets 0, stride, 2*stride, ... and are normalized
    independently with their own statistics, computed here by ``normalize``'s
    reductions; the records' sample arrays are referenced, not copied, and
    each window stays a slice of its record until ``WindowSet.batch`` gathers
    it. Window i comes from ``records[sources[i]]`` at offset ``starts[i]``.
    Labels come from the case map.
    """
    records = list(records)
    labels = np.array([_class_of(record, case) for record in records], dtype=np.int64)
    counts = [count_windows(len(record), scheme.window, scheme.train_stride) for record in records]
    starts = np.empty(sum(counts), dtype=np.int64)
    shifts, scales = np.empty(starts.size), np.empty(starts.size)
    row = 0
    for record, n in zip(records, counts):
        views = sliding_window_view(record.samples, scheme.window)[:: scheme.train_stride]
        shift, scale = _moments(views)
        shifts[row : row + n], scales[row : row + n] = shift[:, 0], scale[:, 0]
        starts[row : row + n] = scheme.train_stride * np.arange(n)
        row += n
    return WindowSet(
        samples=tuple(record.samples for record in records),
        sources=np.repeat(np.arange(len(records)), counts),
        starts=starts,
        shifts=shifts,
        scales=scales,
        labels=np.repeat(labels, counts),
        window=scheme.window,
    )


def segment_signal(samples: np.ndarray, scheme: SchemeSpec) -> np.ndarray:
    """Cut a signal into 1024-sample sub-signals, each into expert windows.

    Returns (n_sub, width, window). Sub-signals start at offsets 0, 1024,
    2048, ...; trailing samples that do not fill a sub-signal are discarded
    (a 4097-sample record yields 4). Expert j of a sub-signal starts
    j * test_window_stride into it. Every window is normalized independently.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n_sub = samples.size // scheme.test_instance_length
    if n_sub == 0:
        raise ValueError(
            f"signal of {samples.size} samples is shorter than one "
            f"test instance ({scheme.test_instance_length})"
        )
    subsignals = samples[: n_sub * scheme.test_instance_length].reshape(n_sub, -1)
    views = sliding_window_view(subsignals, scheme.window, axis=1)
    return normalize(views[:, :: scheme.test_window_stride])


def segment_testing(
    record: EegRecord, case: ExperimentCase, scheme: SchemeSpec
) -> list[TestInstance]:
    """Two-stage test segmentation of one record into labeled TestInstances."""
    label = _class_of(record, case)
    return [
        TestInstance(windows=windows, label=label, origin=(record.record_id, k))
        for k, windows in enumerate(segment_signal(record.samples, scheme))
    ]
