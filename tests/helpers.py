"""Builders shared by the tests."""

import numpy as np

from pyrseiz import layers
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
    return windows.batch(np.arange(len(windows)), np.empty((len(windows), windows.window)))


def origins(windows, records):
    """Each window's (record id, sample offset): its source names one of
    ``records``, the records the set was augmented from, in that order."""
    return [
        (records[source].record_id, start)
        for source, start in zip(windows.sources.tolist(), windows.starts.tolist())
    ]


def fresh_cols(x, receptive_field, stride):
    """``layers.im2col`` of the channel-last batch ``x`` into a fresh array."""
    batch, length, channels = x.shape
    m = layers.count_windows(length, receptive_field, stride)
    out = np.empty((batch, m, receptive_field * channels))
    return layers.im2col(x, receptive_field, stride, out)


def fresh_conv(x, weights, bias, stride):
    """``layers.conv1d_forward`` into a fresh output and scratch, both first
    filled with nan; the scratch holds the tap products or, for a
    one-channel input, its patches."""
    batch, length, _ = x.shape
    k, _, rf = weights.shape
    m = layers.count_windows(length, rf, stride)
    out, scratch = np.full((batch, m, k), np.nan), np.full((batch, m, max(k, rf)), np.nan)
    return layers.conv1d_forward(x, weights, bias, stride, out, scratch)


def fresh_conv_backward(x, weights, stride, grad_out, grad_x):
    """``layers.conv1d_backward`` of the input ``x`` into ``grad_x``, with
    a fresh scratch that holds the whole batch's padded gradient."""
    batch, length, _ = x.shape
    k, _, rf = weights.shape
    per_sample = layers.input_gradient_scratch(length, rf, stride, k)
    return layers.conv1d_backward(
        x, weights, stride, grad_out, grad_x, np.empty(batch * per_sample)
    )
