import numpy as np
import pytest

from pyrseiz.dataset import BandSpec, synthesize_dataset
from pyrseiz.network import ModelConfig
from helpers import rows_window_set


@pytest.fixture
def tiny_config():
    """Small but structurally complete network for fast tests."""
    return ModelConfig(
        kernel_counts=(4, 3, 2),
        receptive_fields=(5, 3, 3),
        strides=(3, 2, 2),
        fc1_width=5,
        dropout_rate=0.0,
        num_classes=2,
        input_length=64,
    )


@pytest.fixture
def toy_windows():
    """Linearly separable two-class windows: constant +1 vs constant -1."""
    signs = np.where(np.arange(24) % 2 == 0, 1.0, -1.0)
    return rows_window_set(
        np.repeat(signs[:, None], 64, axis=1),
        labels=(signs < 0).astype(np.int64),
    )


@pytest.fixture(scope="session")
def small_synthetic_records():
    """Three well-separated classes, 6 records each, full 4097-sample length."""
    profiles = [BandSpec(2, 4), BandSpec(8, 12), BandSpec(20, 30)]
    return synthesize_dataset(6, profiles, seed=42)
