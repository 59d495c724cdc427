"""Builders shared by the tests."""

import numpy as np

from pyrseiz.windowing import WindowSet


def rows_window_set(rows, labels):
    """A WindowSet whose windows are the rows of ``rows`` as given: each row
    is its own record, one window long, with shift 0 and scale 1, so
    ``batch`` returns it bitwise."""
    rows = np.asarray(rows, dtype=np.float64)
    n, window = rows.shape
    return WindowSet(
        samples=tuple(rows),
        sources=np.arange(n),
        starts=np.zeros(n, dtype=np.int64),
        shifts=np.zeros(n),
        scales=np.ones(n),
        labels=labels,
        window=window,
    )


def all_rows(windows):
    """Every window of a WindowSet, in order, as one (n, window) array."""
    return windows.batch(np.arange(len(windows)))


def origins(windows, records):
    """Each window's (record id, sample offset): its source names one of
    ``records``, the records the set was augmented from, in that order."""
    return [
        (records[source].record_id, start)
        for source, start in zip(windows.sources.tolist(), windows.starts.tolist())
    ]
