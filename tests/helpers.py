"""Builders shared by the tests."""

import numpy as np

from pyrseiz.windowing import WindowSet


def rows_window_set(rows, labels, origins=None):
    """A WindowSet whose windows are the rows of ``rows`` as given: each row
    is its own stretch of samples with shift 0 and scale 1, so ``batch``
    returns it bitwise."""
    rows = np.asarray(rows, dtype=np.float64)
    n, window = rows.shape
    return WindowSet(
        samples=rows.ravel(),
        starts=window * np.arange(n),
        shifts=np.zeros(n),
        scales=np.ones(n),
        labels=labels,
        origins=origins if origins is not None else tuple((f"W{i:03d}", 0) for i in range(n)),
        window=window,
    )


def all_rows(windows):
    """Every window of a WindowSet, in order, as one (n, window) array."""
    return windows.batch(np.arange(len(windows)))
