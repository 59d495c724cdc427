import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import central_difference, conv1d_loops, max_relative_error
from pyrseiz import layers


def _channel_last(a):
    """(B, C, L) -> C-contiguous (B, L, C)."""
    return np.ascontiguousarray(a.transpose(0, 2, 1))


class TestConvForward:
    def test_hand_convolution(self):
        x = np.array([[[1.0], [2.0], [3.0], [4.0], [5.0]]])
        w = np.array([[[1.0, 0.0, -1.0]]])
        out = layers.conv1d_forward(x, w, np.zeros(1), stride=1)
        assert out[0, :, 0].tolist() == [-2.0, -2.0, -2.0]

    def test_output_length_512_rf5_stride3(self):
        x = np.zeros((1, 512, 1))
        w = np.zeros((2, 1, 5))
        out = layers.conv1d_forward(x, w, np.zeros(2), stride=3)
        assert out.shape == (1, 170, 2)

    def test_identity_kernel_subsamples(self):
        x = np.array([[[7.0], [8.0], [9.0], [10.0]]])
        w = np.ones((1, 1, 1))
        out = layers.conv1d_forward(x, w, np.zeros(1), stride=2)
        assert out[0, :, 0].tolist() == [7.0, 9.0]

    def test_bias_applied_per_kernel(self):
        x = np.zeros((1, 8, 1))
        w = np.zeros((3, 1, 3))
        out = layers.conv1d_forward(x, w, np.array([1.0, -2.0, 0.5]), stride=1)
        assert np.allclose(out[0, 0, :], [1.0, -2.0, 0.5])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for stride in (1, 2, 3):
            x = rng.standard_normal((2, 3, 17))
            w = rng.standard_normal((4, 3, 5))
            b = rng.standard_normal(4)
            fast = layers.conv1d_forward(_channel_last(x), w, b, stride)
            slow = conv1d_loops(x, w, b, stride)
            assert np.allclose(fast, _channel_last(slow), atol=1e-12)

    def test_columns_are_the_patches(self):
        """im2col row j of sample b is x[b, j*stride : j*stride + Rf, :] flattened."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 11, 3))
        cols = layers.im2col(x, 4, 3)
        assert cols.shape == (2, 3, 12) and cols.flags.c_contiguous
        for b in range(2):
            for j in range(3):
                assert np.array_equal(cols[b, j], x[b, 3 * j : 3 * j + 4].ravel())

    def test_writes_into_given_buffers(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 17, 3))
        w = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal(4)
        cols, out = np.empty((2, 7, 15)), np.empty((2, 7, 4))
        result = layers.conv1d_forward(x, w, b, 2, cols=cols, out=out)
        assert result is out
        assert np.array_equal(cols, layers.im2col(x, 5, 2))
        assert np.array_equal(out, layers.conv1d_forward(x, w, b, 2))

    def test_input_shorter_than_kernel(self):
        with pytest.raises(ValueError, match="shorter than the receptive field"):
            layers.conv1d_forward(np.zeros((1, 2, 1)), np.zeros((1, 1, 5)), np.zeros(1), 1)


class TestConvBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 9, 2))
        w = rng.standard_normal((3, 2, 3))
        cols = layers.im2col(x, 3, 2)
        gx, gw, gb = layers.conv1d_backward(
            cols, w, 2, np.zeros((2, 4, 3)), grad_x=np.full_like(x, np.nan)
        )
        assert not gx.any() and not gw.any() and not gb.any()

    def test_scalar_chain_rule_rf1(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 6, 1))
        w = rng.standard_normal((1, 1, 1))
        g = rng.standard_normal((1, 6, 1))
        _, gw, gb = layers.conv1d_backward(layers.im2col(x, 1, 1), w, 1, g)
        assert np.isclose(gw[0, 0, 0], (x[0, :, 0] * g[0, :, 0]).sum())
        assert np.isclose(gb[0], g.sum())

    def test_finite_difference_all_inputs(self):
        """c=2, z=9, K=3, Rf=3, stride 2 against central differences."""
        rng = np.random.default_rng(3)
        x = _channel_last(rng.standard_normal((2, 2, 9)))
        w = rng.standard_normal((3, 2, 3))
        b = rng.standard_normal(3)
        r = _channel_last(rng.standard_normal((2, 3, 4)))  # random linear readout

        def loss():
            return float((layers.conv1d_forward(x, w, b, 2) * r).sum())

        gx, gw, gb = layers.conv1d_backward(
            layers.im2col(x, 3, 2), w, 2, r, grad_x=np.empty_like(x)
        )
        assert max_relative_error(gx, central_difference(loss, x)) < 1e-6
        assert max_relative_error(gw, central_difference(loss, w)) < 1e-6
        assert max_relative_error(gb, central_difference(loss, b)) < 1e-6

    def test_finite_difference_from_cached_forward_columns(self):
        """Backward reads the columns the forward pass unfolded, including a
        trailing input sample no window reaches (L=10, Rf=3, stride 2)."""
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 10, 2))
        w = rng.standard_normal((4, 2, 3))
        b = rng.standard_normal(4)
        r = rng.standard_normal((3, 4, 4))
        cols = np.empty((3, 4, 6))
        layers.conv1d_forward(x, w, b, 2, cols=cols)

        def loss():
            return float((layers.conv1d_forward(x, w, b, 2) * r).sum())

        gx, gw, gb = layers.conv1d_backward(
            cols, w, 2, r, grad_x=np.empty_like(x), grad_cols=np.empty_like(cols)
        )
        assert not gx[:, -1].any()
        assert max_relative_error(gx, central_difference(loss, x)) < 1e-6
        assert max_relative_error(gw, central_difference(loss, w)) < 1e-6
        assert max_relative_error(gb, central_difference(loss, b)) < 1e-6

    def test_input_gradient_skipped_without_buffer(self):
        """The first layer's input is data: no grad_x, same weight gradients."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 9, 2))
        w = rng.standard_normal((3, 2, 3))
        r = rng.standard_normal((2, 4, 3))
        cols = layers.im2col(x, 3, 2)
        skipped = layers.conv1d_backward(cols, w, 2, r)
        full = layers.conv1d_backward(cols, w, 2, r, grad_x=np.empty_like(x))
        assert skipped[0] is None
        assert np.array_equal(skipped[1], full[1]) and np.array_equal(skipped[2], full[2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            layers.conv1d_backward(
                np.zeros((1, 4, 3)), np.zeros((1, 1, 3)), 2, np.zeros((1, 7, 1))
            )

    def test_input_gradient_buffer_shape_checked(self):
        with pytest.raises(ValueError, match="grad_x shape"):
            layers.conv1d_backward(
                np.zeros((1, 4, 3)), np.zeros((1, 1, 3)), 2, np.zeros((1, 4, 1)),
                grad_x=np.zeros((1, 12, 1)),
            )


class TestBatchNorm:
    def test_two_point_channel(self):
        x = np.array([[[1.0]], [[3.0]]])  # batch 2, length 1, 1 channel
        y, _, mean, var = layers.batchnorm_train(x)
        assert np.allclose(y.ravel(), [-1.0, 1.0], atol=1e-4)
        assert mean[0] == 2.0 and var[0] == 1.0

    def test_constant_channel_guarded(self):
        x = np.full((3, 5, 2), 7.0)
        y, _, _, var = layers.batchnorm_train(x)
        assert np.allclose(y, 0.0)
        assert np.all(var == 0.0)

    def test_statistics_pool_batch_and_positions_per_channel(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 7, 3)) * [1.0, 5.0, 0.1] + [0.0, -3.0, 2.0]
        _, _, mean, var = layers.batchnorm_train(x)
        assert np.allclose(mean, x.mean(axis=(0, 1)), rtol=0.0, atol=1e-14)
        assert np.allclose(var, x.var(axis=(0, 1)), rtol=1e-13, atol=0.0)

    def test_in_place(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 7, 3))
        expected, _, _, _ = layers.batchnorm_train(x)
        y, cache, _, _ = layers.batchnorm_train(x, out=x)
        assert y is x and cache.x_hat is x
        assert np.array_equal(x, expected)

    def test_backward_finite_difference(self):
        """batch 4, length 7, channels 3 against central differences."""
        rng = np.random.default_rng(4)
        x = _channel_last(rng.standard_normal((4, 3, 7)))
        r = _channel_last(rng.standard_normal((4, 3, 7)))

        def loss():
            y, _, _, _ = layers.batchnorm_train(x)
            return float((y * r).sum())

        _, cache, _, _ = layers.batchnorm_train(x)
        gx = layers.batchnorm_backward(cache, r)
        assert max_relative_error(gx, central_difference(loss, x)) < 1e-6

    def test_fused_relu_backward_finite_difference(self):
        """relu(batchnorm(x)) on batch 4, length 7, channels 3, also written in place."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 7, 3))
        r = rng.standard_normal((4, 7, 3))

        def loss():
            y, _, _, _ = layers.batchnorm_train(x)
            return float((layers.relu(y) * r).sum())

        _, cache, _, _ = layers.batchnorm_train(x)
        assert np.min(np.abs(cache.x_hat)) > 1e-3  # clear of the kink at the probe step
        gx = layers.batchnorm_backward(cache, r, relu=True)
        assert max_relative_error(gx, central_difference(loss, x)) < 1e-6
        unfused = layers.batchnorm_backward(cache, layers.relu_backward(cache.x_hat, r))
        assert np.allclose(gx, unfused, rtol=0.0, atol=1e-14)
        in_place = r.copy()
        assert layers.batchnorm_backward(cache, in_place, relu=True, out=in_place) is in_place
        assert np.array_equal(in_place, gx)

    def test_inference_uses_running_stats(self):
        x = np.ones((2, 4, 1))
        y = layers.batchnorm_infer(x, np.array([3.0]), np.array([4.0]))
        assert np.allclose(y, (1.0 - 3.0) / np.sqrt(4.0 + layers.BN_EPS))

    def test_inference_normalizes_each_channel(self):
        x = np.array([[[1.0, 10.0], [3.0, 20.0]]])
        y = layers.batchnorm_infer(x, np.array([1.0, 10.0]), np.array([4.0, 100.0]), eps=0.0)
        assert y.tolist() == [[[0.0, 0.0], [1.0, 1.0]]]

    def test_inference_requires_initialized_stats(self):
        with pytest.raises(ValueError, match="uninitialized"):
            layers.batchnorm_infer(np.ones((1, 2, 1)), None, None)

    def test_inference_rejects_bad_variance(self):
        with pytest.raises(ValueError, match="finite and positive"):
            layers.batchnorm_infer(np.ones((1, 2, 1)), np.zeros(1), np.array([-1.0]))

    def test_running_stat_update(self):
        running = np.array([1.0])
        updated = layers.update_running_stat(running, np.array([2.0]))
        assert np.allclose(updated, 0.9 * 1.0 + 0.1 * 2.0)


class TestDense:
    def test_affine_map(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([10.0, 20.0])
        assert layers.dense_forward(x, w, b).tolist() == [[11.0, 22.0]]

    def test_backward_finite_difference(self):
        """Random 5x4 case against central differences."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 4))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        r = rng.standard_normal((5, 3))

        def loss():
            return float((layers.dense_forward(x, w, b) * r).sum())

        gx, gw, gb = layers.dense_backward(x, w, r)
        assert max_relative_error(gx, central_difference(loss, x)) < 1e-6
        assert max_relative_error(gw, central_difference(loss, w)) < 1e-6
        assert max_relative_error(gb, central_difference(loss, b)) < 1e-6


class TestReluDropout:
    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert layers.relu(x).tolist() == [0.0, 0.0, 3.0]

    def test_relu_backward_mask(self):
        x = np.array([-1.0, 2.0])
        g = np.array([5.0, 5.0])
        assert layers.relu_backward(x, g).tolist() == [0.0, 5.0]

    def test_dropout_rate_zero_is_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        y, mask = layers.dropout_forward(x, 0.0, training=True)
        assert mask is None and np.array_equal(y, x)

    def test_dropout_inference_is_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        y, mask = layers.dropout_forward(x, 0.5, training=False)
        assert mask is None and np.array_equal(y, x)

    def test_dropout_mask_preserves_mean(self):
        """Monte-Carlo: inverted scaling keeps E[output] == input within 1%."""
        rng = np.random.default_rng(6)
        x = np.ones((100_000,))
        y, mask = layers.dropout_forward(x, 0.5, rng=rng, training=True)
        assert mask is not None
        assert abs(y.mean() - 1.0) < 0.01

    def test_dropout_needs_rng_in_training(self):
        with pytest.raises(ValueError, match="seeded generator"):
            layers.dropout_forward(np.ones(3), 0.5, training=True)

    def test_dropout_backward_uses_mask(self):
        mask = np.array([1.0, 0.0, 1.0])
        g = np.array([1.0, 1.0, 1.0])
        assert layers.dropout_backward(mask, 0.5, g).tolist() == [2.0, 0.0, 2.0]


class TestSoftmaxCrossEntropy:
    def test_symmetric_logits(self):
        losses, probs, grad = layers.softmax_cross_entropy(
            np.zeros((2, 2)), np.array([0, 1])
        )
        assert np.allclose(probs, 0.5)
        assert np.allclose(losses, np.log(2.0))
        assert np.allclose(grad, [[-0.5, 0.5], [0.5, -0.5]])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels must lie"):
            layers.softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_non_integer_labels(self):
        with pytest.raises(ValueError, match="integers"):
            layers.softmax_cross_entropy(np.zeros((1, 3)), np.array([0.5]))

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])

        def loss():
            losses, _, _ = layers.softmax_cross_entropy(logits, labels)
            return float(losses.sum())

        _, _, grad = layers.softmax_cross_entropy(logits, labels)
        assert max_relative_error(grad, central_difference(loss, logits)) < 1e-6

    @settings(max_examples=100)
    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=2,
            max_size=6,
        )
    )
    def test_simplex_for_extreme_logits(self, row):
        probs = layers.softmax(np.array([row]))
        assert np.all(np.isfinite(probs))
        assert np.all(probs >= 0.0)
        assert abs(probs.sum() - 1.0) < 1e-9
