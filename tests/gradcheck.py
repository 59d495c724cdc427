"""Scenario builder for finite-difference checks of the full network.

Central differences are only meaningful away from ReLU kinks, so scenarios
are redrawn until every cached pre-activation clears a safety margin that is
much larger than the probe step h = 1e-5. Biases are randomized because the
zero-bias init can park pre-activations exactly on the kink.
"""

from __future__ import annotations

import numpy as np

from pyrseiz.network import Workspace, forward, init_parameters

KINK_MARGIN = 1e-3


def _min_relu_distance(trace) -> float:
    extremes = [float(np.min(np.abs(c.x_hat))) for c in trace.bn_caches]
    extremes.append(float(np.min(np.abs(trace.fc1_pre))))
    return min(extremes)


def draw_generic_scenario(cfg, rng, batch_size=3, max_tries=50):
    """Random params/batch/labels with all ReLU inputs clear of the kink."""
    for _ in range(max_tries):
        params = init_parameters(cfg, seed=int(rng.integers(0, 2**31)))
        params.learnable += rng.normal(0.0, 0.1, size=params.learnable.shape)
        batch = rng.standard_normal((batch_size, cfg.input_length))
        labels = rng.integers(0, cfg.num_classes, size=batch_size)
        _, trace = forward(params, batch, Workspace(cfg, batch_size), training=True)
        if _min_relu_distance(trace) > KINK_MARGIN:
            return params, batch, labels
    raise RuntimeError("could not draw a kink-free gradient-check scenario")
