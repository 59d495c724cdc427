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


def _conv1_x_hat(params, trace) -> np.ndarray:
    """conv1's pre-ReLU batch-norm output, which the forward pass rectifies
    in place: the centred patches the trace keeps times W / sigma."""
    w = params.conv_weights[0]
    k, c, rf = w.shape
    scaled = w.transpose(0, 2, 1).reshape(k, rf * c) * trace.bn_caches[0].inv_std[:, None]
    return trace.workspace.patches.reshape(-1, rf * c) @ scaled.T


def _min_relu_distance(params, trace) -> float:
    x_hats = [_conv1_x_hat(params, trace)] + [c.x_hat for c in trace.bn_caches[1:]]
    extremes = [float(np.min(np.abs(x_hat))) for x_hat in x_hats]
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
        if _min_relu_distance(params, trace) > KINK_MARGIN:
            return params, batch, labels
    raise RuntimeError("could not draw a kink-free gradient-check scenario")
