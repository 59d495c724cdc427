import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import fresh_cols, fresh_conv, fresh_conv_backward
from oracles import (
    central_difference,
    conv1d_gradients_loops,
    conv1d_input_gradient_loops,
    conv1d_loops,
    im2col_as_strided,
    max_relative_error,
)
from pyrseiz import layers
from pyrseiz.network import MODEL_NAMES, ModelConfig, NetworkParameters, init_parameters, model_config


def _channel_last(a):
    """(B, C, L) -> C-contiguous (B, L, C)."""
    return np.ascontiguousarray(a.transpose(0, 2, 1))


class TestConvForward:
    def test_hand_convolution(self):
        x = np.array([[[1.0], [2.0], [3.0], [4.0], [5.0]]])
        w = np.array([[[1.0, 0.0, -1.0]]])
        out = fresh_conv(x, w, np.zeros(1), stride=1)
        assert out[0, :, 0].tolist() == [-2.0, -2.0, -2.0]

    def test_output_length_512_rf5_stride3(self):
        x = np.zeros((1, 512, 1))
        w = np.zeros((2, 1, 5))
        out = fresh_conv(x, w, np.zeros(2), stride=3)
        assert out.shape == (1, 170, 2)

    def test_identity_kernel_subsamples(self):
        x = np.array([[[7.0], [8.0], [9.0], [10.0]]])
        w = np.ones((1, 1, 1))
        out = fresh_conv(x, w, np.zeros(1), stride=2)
        assert out[0, :, 0].tolist() == [7.0, 9.0]

    def test_bias_applied_per_kernel(self):
        x = np.zeros((1, 8, 1))
        w = np.zeros((3, 1, 3))
        out = fresh_conv(x, w, np.array([1.0, -2.0, 0.5]), stride=1)
        assert np.allclose(out[0, 0, :], [1.0, -2.0, 0.5])

    def test_none_bias_adds_nothing(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 9, 2))
        w = rng.standard_normal((3, 2, 3))
        out = fresh_conv(x, w, None, stride=2)
        assert np.array_equal(out, fresh_conv(x, w, np.zeros(3), stride=2))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for stride in (1, 2, 3):
            x = rng.standard_normal((2, 3, 17))
            w = rng.standard_normal((4, 3, 5))
            b = rng.standard_normal(4)
            fast = fresh_conv(_channel_last(x), w, b, stride)
            slow = conv1d_loops(x, w, b, stride)
            assert np.allclose(fast, _channel_last(slow), atol=1e-12)

    def test_columns_are_the_patches(self):
        """im2col row j of sample b is x[b, j*stride : j*stride + Rf, :] flattened."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 11, 3))
        cols = fresh_cols(x, 4, 3)
        assert cols.shape == (2, 3, 12) and cols.flags.c_contiguous
        for b in range(2):
            for j in range(3):
                assert np.array_equal(cols[b, j], x[b, 3 * j : 3 * j + 4].ravel())

    @pytest.mark.parametrize("rf, stride, channels", [(5, 3, 1), (3, 2, 4), (2, 1, 3), (4, 5, 2)])
    def test_columns_match_as_strided(self, rf, stride, channels):
        """The patches equal those of an ``as_strided`` view, bitwise, also
        on an input that is a C-contiguous view into a larger array."""
        rng = np.random.default_rng(rf * 10 + stride)
        x = rng.standard_normal((4, 19, channels))[1:3]
        assert x.flags.c_contiguous and x.base is not None
        assert np.array_equal(fresh_cols(x, rf, stride), im2col_as_strided(x, rf, stride))

    def test_im2col_refuses_a_non_contiguous_input(self):
        """im2col reads its input through fixed strides, so it refuses an
        input whose positions or channels are not C-contiguous."""
        x = np.zeros((2, 3, 11)).transpose(0, 2, 1)
        with pytest.raises(ValueError, match="im2col inputs must be C-contiguous"):
            fresh_cols(x, 4, 3)
        with pytest.raises(ValueError, match="C-contiguous"):
            fresh_cols(np.zeros((2, 22, 3))[:, ::2], 4, 3)

    def test_writes_into_given_buffers(self):
        """The output is the given buffer; a two-tap layer (Rf 5, stride 3)
        writes its second tap's products into the scratch, and the input is
        left as it was."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 17, 3))
        before = x.copy()
        w = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal(4)
        out, scratch = np.full((2, 5, 4), np.nan), np.full((2, 5, 4), np.nan)
        result = layers.conv1d_forward(x, w, b, 3, out=out, scratch=scratch)
        assert result is out
        assert np.array_equal(out, fresh_conv(x, w, b, 3))
        assert np.isfinite(scratch).all()
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("kernels, stride", [(4, 3), (2, 3), (2, 6)])
    def test_one_channel_input_is_unfolded_into_the_scratch(self, kernels, stride):
        """A one-channel input (conv1 at inference) is one GEMM over its
        patches, which the scratch is left holding, also where they are
        wider than the output (Rf 5 against 2 kernels) and where Rf <=
        stride; the output is within 1e-12 of direct loops."""
        rng = np.random.default_rng(kernels + stride)
        x = rng.standard_normal((2, 17, 1))
        w = rng.standard_normal((kernels, 1, 5))
        b = rng.standard_normal(kernels)
        m = layers.count_windows(17, 5, stride)
        scratch = np.full((2, m, 5), np.nan)
        out = layers.conv1d_forward(x, w, b, stride, np.empty((2, m, kernels)), scratch)
        assert np.array_equal(scratch, fresh_cols(x, 5, stride))
        expected = _channel_last(conv1d_loops(x.transpose(0, 2, 1), w, b, stride))
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_one_tap_leaves_the_scratch_alone(self):
        """Rf <= stride is one GEMM straight into the output."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 13, 2))
        w = rng.standard_normal((2, 2, 3))
        scratch = np.full((3, 4, 2), np.nan)
        layers.conv1d_forward(x, w, None, 3, out=np.empty((3, 4, 2)), scratch=scratch)
        assert np.isnan(scratch).all()

    def test_input_shorter_than_kernel(self):
        with pytest.raises(ValueError, match="exceeds signal length"):
            layers.conv1d_forward(
                np.zeros((1, 2, 1)), np.zeros((1, 1, 5)), np.zeros(1), 1,
                np.empty((1, 1, 1)), np.empty((1, 1, 1)),
            )

    def test_non_contiguous_input_rejected(self):
        """Tap views need the input's positions and channels contiguous."""
        x = np.zeros((2, 3, 9)).transpose(0, 2, 1)
        with pytest.raises(ValueError, match="C-contiguous"):
            fresh_conv(x, np.zeros((1, 3, 3)), None, 2)


class TestTapViews:
    @pytest.mark.parametrize("rf, stride", [(5, 3), (3, 2), (3, 3), (2, 4), (4, 1)])
    def test_taps_are_views_of_the_patch_columns(self, rf, stride):
        """Tap d holds the patch columns of kernel positions d*stride up to
        min(stride, Rf - d*stride) past it: each a read-only view of the
        input, with no copy, rows stride*C apart and at most that wide."""
        rng = np.random.default_rng(rf * 10 + stride)
        x = rng.standard_normal((3, 23, 2))
        taps = layers.tap_views(x, rf, stride)
        assert len(taps) == -(-rf // stride)
        cols = fresh_cols(x, rf, stride)
        for d, tap in enumerate(taps):
            n = min(stride, rf - d * stride)
            assert tap.shape == cols.shape[:2] + (n * 2,)
            assert np.array_equal(tap, cols[:, :, d * stride * 2 : (d * stride + n) * 2])
            assert np.shares_memory(tap, x) and not tap.flags.writeable
            assert tap.strides[1:] == (stride * 2 * 8, 8)


class TestConvBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 9, 2))
        w = rng.standard_normal((3, 2, 3))
        gx, gw, gb = fresh_conv_backward(
            x, w, 2, np.zeros((2, 4, 3)), grad_x=np.full_like(x, np.nan)
        )
        assert not gx.any() and not gw.any() and not gb.any()

    def test_scalar_chain_rule_rf1(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 6, 1))
        w = rng.standard_normal((1, 1, 1))
        g = rng.standard_normal((1, 6, 1))
        _, gw, gb = fresh_conv_backward(x, w, 1, g, grad_x=np.empty_like(x))
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
            return float((fresh_conv(x, w, b, 2) * r).sum())

        gx, gw, gb = fresh_conv_backward(x, w, 2, r, grad_x=np.empty_like(x))
        assert max_relative_error(gx, central_difference(loss, x)) < 1e-6
        assert max_relative_error(gw, central_difference(loss, w)) < 1e-6
        assert max_relative_error(gb, central_difference(loss, b)) < 1e-6

    def test_finite_difference_with_a_trailing_sample(self):
        """Backward reads the forward input in place, including a trailing
        input sample no window reaches (L=10, Rf=3, stride 2); the input is
        left as it was."""
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 10, 2))
        before = x.copy()
        w = rng.standard_normal((4, 2, 3))
        b = rng.standard_normal(4)
        r = rng.standard_normal((3, 4, 4))

        def loss():
            return float((fresh_conv(x, w, b, 2) * r).sum())

        gx, gw, gb = layers.conv1d_backward(  # in blocks of 2 samples and 1
            x, w, 2, r, grad_x=np.empty_like(x), scratch=np.full(2 * (6 * 4 + 5 * 8), np.nan)
        )
        assert np.array_equal(x, before)
        assert not gx[:, -1].any()
        assert max_relative_error(gx, central_difference(loss, x)) < 1e-6
        assert max_relative_error(gw, central_difference(loss, w)) < 1e-6
        assert max_relative_error(gb, central_difference(loss, b)) < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            fresh_conv_backward(
                np.zeros((1, 9, 1)), np.zeros((1, 1, 3)), 2, np.zeros((1, 7, 1)),
                grad_x=np.zeros((1, 9, 1)),
            )

    def test_input_channels_checked(self):
        with pytest.raises(ValueError, match="kernel channels"):
            fresh_conv_backward(
                np.zeros((1, 9, 2)), np.zeros((1, 1, 3)), 2, np.zeros((1, 4, 1)),
                grad_x=np.zeros((1, 9, 2)),
            )

    def test_input_gradient_buffer_shape_checked(self):
        with pytest.raises(ValueError, match="grad_x shape"):
            fresh_conv_backward(
                np.zeros((1, 9, 1)), np.zeros((1, 1, 3)), 2, np.zeros((1, 4, 1)),
                grad_x=np.zeros((1, 12, 1)),
            )

    def test_padded_gradient_buffer_shape_checked(self):
        """One sample's padded gradient, (5 + 2 - 1, 1), and its patches,
        (5, 2), take 16 values, more than a tap's two weight-gradient
        products: a scratch of 15 holds no block."""
        assert layers.input_gradient_scratch(9, 3, 2, 1) == 16
        with pytest.raises(ValueError, match="conv1d_backward needs 16,"):
            layers.conv1d_backward(
                np.zeros((1, 9, 1)), np.zeros((1, 1, 3)), 2, np.zeros((1, 4, 1)),
                grad_x=np.zeros((1, 9, 1)), scratch=np.zeros(15),
            )

    def test_input_gradient_over_part_of_the_input_rejected(self):
        """grad_x may be the input itself, read before it is written, but
        not a view that overlaps it elsewhere."""
        values = np.zeros(19)
        x, shifted = values[:18].reshape(2, 9, 1), values[1:].reshape(2, 9, 1)
        with pytest.raises(ValueError, match="the input itself or lie apart"):
            fresh_conv_backward(x, np.zeros((1, 1, 3)), 2, np.zeros((2, 4, 1)), grad_x=shifted)

    @settings(max_examples=150, deadline=None)
    @given(
        batch=st.integers(1, 3),
        channels=st.integers(1, 4),
        kernels=st.integers(1, 4),
        rf=st.integers(1, 7),
        stride=st.integers(1, 4),
        m=st.integers(1, 9),
        tail=st.integers(0, 3),
        block=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # Rf < stride
    @example(batch=2, channels=3, kernels=2, rf=2, stride=3, m=4, tail=1, block=1, seed=0)
    # Rf == stride
    @example(batch=2, channels=2, kernels=3, rf=3, stride=3, m=5, tail=0, block=2, seed=1)
    # m == 1
    @example(batch=3, channels=2, kernels=2, rf=5, stride=2, m=1, tail=1, block=2, seed=2)
    # L % stride != 0
    @example(batch=1, channels=1, kernels=1, rf=3, stride=2, m=6, tail=0, block=1, seed=3)
    def test_input_gradient_matches_loop_col2im(
        self, batch, channels, kernels, rf, stride, m, tail, block, seed
    ):
        """The padded-gradient GEMM, in blocks of at least ``block`` samples
        (more where a tap's weight-gradient products need a larger scratch), against
        the tap-by-tap col2im, within 1e-12 of the largest gradient entry;
        ``tail`` input samples past the last window get zero gradient. Every
        buffer starts as nan."""
        tail = min(tail, stride - 1)
        length = (m - 1) * stride + rf + tail
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, length, channels))
        w = rng.standard_normal((kernels, channels, rf))
        g = rng.standard_normal((batch, m, kernels))
        per_sample = layers.input_gradient_scratch(length, rf, stride, kernels)
        layer = layers.ConvLayer(channels, kernels, rf, stride, length, m)
        size = max(layers.conv_backward_scratch(batch, layer), block * per_sample)
        grad_x = np.full_like(x, np.nan)
        result, _, _ = layers.conv1d_backward(
            x, w, stride, g, grad_x=grad_x, scratch=np.full(size, np.nan)
        )
        expected = _channel_last(
            conv1d_input_gradient_loops(g.transpose(0, 2, 1), w, stride, length)
        )
        assert result is grad_x
        assert np.max(np.abs(grad_x - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert not grad_x[:, (m - 1) * stride + rf :].any()


@pytest.mark.parametrize("batch", [1, 7, 11, 32, 33])
@pytest.mark.parametrize("layer", [1, 2])
def test_input_gradient_in_place_and_in_blocks(layer, batch):
    """M5's conv2 or conv3 backward on a ReLU output x with exact zeros,
    with grad_x the input itself, ``relu`` set and the scratch
    ``layers.backward_scratch`` gives the layer, as a training step runs it
    (blocks of 2 to 10 samples, of 1 at batch 1, the last block partial),
    is bitwise the out-of-place backward with the whole batch in one block,
    its input gradient then multiplied by x > 0. The input gradient of the
    first and the last sample is within 1e-12 of direct loops, relative to
    its largest entry."""
    conv = model_config("M5", 3).conv_layers[layer]
    rng = np.random.default_rng(10 * layer + batch)
    x = np.maximum(rng.standard_normal((batch, conv.input_length, conv.in_channels)), 0.0)
    w = rng.standard_normal((conv.kernels, conv.in_channels, conv.receptive_field))
    g = rng.standard_normal((batch, conv.output_length, conv.kernels))
    mask = x > 0.0
    assert 0 < mask.sum() < mask.size
    whole = fresh_conv_backward(x, w, conv.stride, g, grad_x=np.full_like(x, np.nan))
    per_sample = layers.input_gradient_scratch(
        conv.input_length, conv.receptive_field, conv.stride, conv.kernels
    )
    scratch = np.full(layers.backward_scratch(batch, [conv], ()), np.nan)
    assert scratch.size // per_sample < batch or batch == 1
    x_first = x.transpose(0, 2, 1)[[0, -1]]
    ref_gx, _ = conv1d_gradients_loops(x_first, w, conv.stride, g.transpose(0, 2, 1)[[0, -1]])
    blocked = layers.conv1d_backward(x, w, conv.stride, g, grad_x=x, scratch=scratch, relu=True)
    assert blocked[0] is x
    assert np.array_equal(x, whole[0] * mask)
    for a, b in zip(blocked[1:], whole[1:]):
        assert np.array_equal(a, b)
    ref_gx = _channel_last(ref_gx) * mask[[0, -1]]
    assert np.max(np.abs(x[[0, -1]] - ref_gx)) <= 1e-12 * np.max(np.abs(ref_gx))


# Every receptive field 1-6 and stride 1-4: stride >= Rf is one tap, stride 1
# is Rf taps. Under strides above 1 the input's length is never a multiple of
# the stride, so it cannot be read as whole stride-long rows.
TAP_GEOMETRIES = [
    (rf, stride, batch)
    for rf in range(1, 7)
    for stride in range(1, 5)
    for batch in (1, 7)
]


@pytest.mark.parametrize("rf, stride, batch", TAP_GEOMETRIES)
def test_tap_convolution_matches_direct_loops(rf, stride, batch):
    """conv1d_forward and conv1d_backward, tap by tap over views of the
    input, give the output, the weight gradient and the input gradient of
    direct loops over every product, each within 1e-12 of its largest
    entry."""
    channels, kernels, m = 3, 4, 5
    tail = 0 if stride == 1 or rf % stride else 1  # samples past the last window
    length = (m - 1) * stride + rf + tail
    assert stride == 1 or length % stride != 0
    rng = np.random.default_rng(100 * rf + 10 * stride + batch)
    x_first = rng.standard_normal((batch, channels, length))
    w = rng.standard_normal((kernels, channels, rf))
    b = rng.standard_normal(kernels)
    g_first = rng.standard_normal((batch, kernels, layers.count_windows(length, rf, stride)))
    x, g = _channel_last(x_first), _channel_last(g_first)

    out = fresh_conv(x, w, b, stride)
    gx, gw, gb = fresh_conv_backward(x, w, stride, g, grad_x=np.full_like(x, np.nan))
    ref_out = _channel_last(conv1d_loops(x_first, w, b, stride))
    ref_gx, ref_gw = conv1d_gradients_loops(x_first, w, stride, g_first)
    for name, got, ref in (
        ("output", out, ref_out),
        ("weight gradient", gw, ref_gw),
        ("input gradient", gx, _channel_last(ref_gx)),
        ("bias gradient", gb, g_first.sum(axis=(0, 2))),
    ):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


class TestBatchNorm:
    def test_two_point_channel(self):
        x = np.array([[[1.0]], [[3.0]]])  # batch 2, length 1, 1 channel
        y, _, mean, var = layers.batchnorm_train(x, np.empty_like(x))
        assert np.allclose(y.ravel(), [-1.0, 1.0], atol=1e-4)
        assert mean[0] == 2.0 and var[0] == 1.0

    def test_constant_channel_guarded(self):
        x = np.full((3, 5, 2), 7.0)
        y, _, _, var = layers.batchnorm_train(x, np.empty_like(x))
        assert np.allclose(y, 0.0)
        assert np.all(var == 0.0)

    def test_statistics_pool_batch_and_positions_per_channel(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 7, 3)) * [1.0, 5.0, 0.1] + [0.0, -3.0, 2.0]
        _, _, mean, var = layers.batchnorm_train(x, np.empty_like(x))
        assert np.allclose(mean, x.mean(axis=(0, 1)), rtol=0.0, atol=1e-14)
        assert np.allclose(var, x.var(axis=(0, 1)), rtol=1e-13, atol=0.0)

    def test_in_place(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 7, 3))
        expected, _, _, _ = layers.batchnorm_train(x, np.empty_like(x))
        y, cache, _, _ = layers.batchnorm_train(x, out=x)
        assert y is x and cache.x_hat is x
        assert np.array_equal(x, expected)

    def test_backward_finite_difference(self):
        """batch 4, length 7, channels 3 against central differences."""
        rng = np.random.default_rng(4)
        x = _channel_last(rng.standard_normal((4, 3, 7)))
        r = _channel_last(rng.standard_normal((4, 3, 7)))

        def loss():
            y, _, _, _ = layers.batchnorm_train(x, np.empty_like(x))
            return float((y * r).sum())

        _, cache, _, _ = layers.batchnorm_train(x, np.empty_like(x))
        gx = layers.batchnorm_backward(cache, r.copy(), np.empty_like(r))
        assert max_relative_error(gx, central_difference(loss, x)) < 1e-6

    def test_fused_relu_backward_finite_difference(self):
        """relu(batchnorm(x)) on batch 4, length 7, channels 3: the gradient
        at the ReLU output is masked by x_hat > 0, as its writer masks it,
        and the batch-norm backward overwrites it in place."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 7, 3))
        r = rng.standard_normal((4, 7, 3))

        def loss():
            y, _, _, _ = layers.batchnorm_train(x, np.empty_like(x))
            return float((layers.relu(y) * r).sum())

        _, cache, _, _ = layers.batchnorm_train(x, np.empty_like(x))
        assert np.min(np.abs(cache.x_hat)) > 1e-3  # clear of the kink at the probe step
        masked = np.multiply(r, cache.x_hat > 0.0)
        gx = layers.batchnorm_backward(cache, masked, scratch=np.empty_like(r))
        assert gx is masked
        assert max_relative_error(gx, central_difference(loss, x)) < 1e-6
        unfused = layers.batchnorm_backward(
            cache, layers.relu_backward(cache.x_hat, r), np.empty_like(r)
        )
        assert np.array_equal(gx, unfused)

    def test_backward_takes_a_longer_flat_scratch(self):
        """A flat scratch longer than the gradient, as a workspace's one
        backward scratch is, gives bitwise the result of an exact-size
        scratch; the x_hat term takes only its leading values."""
        rng = np.random.default_rng(24)
        x = rng.standard_normal((4, 7, 3))
        r = rng.standard_normal((4, 7, 3))
        _, cache, _, _ = layers.batchnorm_train(x, np.empty_like(x))
        exact = layers.batchnorm_backward(cache, r.copy(), np.empty_like(r))
        scratch = np.full(r.size + 11, np.nan)
        longer = layers.batchnorm_backward(cache, r.copy(), scratch)
        assert np.array_equal(longer, exact)
        assert np.isnan(scratch[r.size :]).all()

    @staticmethod
    def _folded_conv(x, running_mean, running_var):
        """Batch norm of channel-last x by running statistics, as inference
        runs it: folded into a 1-tap identity convolution with zero bias."""
        channels = x.shape[2]
        weights, bias = layers.batchnorm_infer(
            np.eye(channels)[:, :, None], np.zeros(channels), running_mean, running_var
        )
        return fresh_conv(x, weights, bias, 1)

    def test_inference_uses_running_stats(self):
        x = np.ones((2, 4, 1))
        y = self._folded_conv(x, np.array([3.0]), np.array([4.0]))
        assert np.allclose(y, (1.0 - 3.0) / np.sqrt(4.0 + layers.BN_EPS))

    def test_inference_normalizes_each_channel(self):
        x = np.array([[[1.0, 10.0], [3.0, 20.0]]])
        y = self._folded_conv(x, np.array([1.0, 10.0]), np.array([4.0, 100.0]))
        s = np.sqrt(np.array([4.0, 100.0]) + layers.BN_EPS)
        assert np.allclose(y, [[[0.0, 0.0], [2.0, 10.0] / s]], rtol=1e-15, atol=1e-15)

    def test_inference_folds_into_weights_and_bias(self):
        weights = np.arange(12.0).reshape(2, 3, 2)
        weights_folded, bias_folded = layers.batchnorm_infer(
            weights, np.array([1.0, 2.0]), np.array([3.0, -2.0]), np.array([4.0, 16.0])
        )
        s = np.sqrt(np.array([4.0, 16.0]) + layers.BN_EPS)  # about 2 and 4
        assert weights_folded.shape == weights.shape
        assert np.array_equal(weights_folded[0], weights[0] / s[0])
        assert np.array_equal(weights_folded[1], weights[1] / s[1])
        assert bias_folded.tolist() == [-2.0 / s[0], 4.0 / s[1]]

    def test_inference_rejects_parameters_without_running_stats(self):
        """Parameters never initialized hold zero running variances, which
        inference refuses rather than dividing by sqrt(BN_EPS)."""
        params = NetworkParameters(ModelConfig())
        with pytest.raises(ValueError, match="finite and positive"):
            layers.batchnorm_infer(
                params.conv_weights[0], params.conv_biases[0],
                params.bn_running_mean[0], params.bn_running_var[0],
            )

    def test_inference_rejects_bad_variance(self):
        with pytest.raises(ValueError, match="finite and positive"):
            layers.batchnorm_infer(np.ones((1, 1, 1)), np.zeros(1), np.zeros(1), np.array([-1.0]))

    def test_running_stat_update(self):
        running = np.array([1.0])
        updated = layers.update_running_stat(running, np.array([2.0]))
        assert np.allclose(updated, 0.9 * 1.0 + 0.1 * 2.0)


def _unfused_first_layer(x, w, b, stride, grad_out):
    """conv1d_forward -> batchnorm_train -> relu, then the ReLU mask,
    batchnorm_backward and conv1d_backward: what conv_batchnorm_train and
    conv_batchnorm_backward fold together."""
    z = fresh_conv(x, w, b, stride)
    x_hat, cache, mean, var = layers.batchnorm_train(z, np.empty_like(z))
    dz = layers.batchnorm_backward(cache, grad_out * (x_hat > 0.0), np.empty_like(grad_out))
    _, gw, gb = fresh_conv_backward(x, w, stride, dz, grad_x=np.empty_like(x))
    return x_hat, mean, var, gw, gb


class TestConvBatchNorm:
    """The first layer's conv + batch norm from the patch statistics.

    Tolerances, set before measuring: on centred data x_hat, mean, var and the
    weight gradient agree with the unfused path within 1e-12 (absolute for
    x_hat, relative to the largest entry otherwise), and the conv-bias
    gradient, round-off under batch norm, within 1e-12 absolute. A 1e3 DC
    offset costs the unfused path ~1e-13 * 1e3 in its mean subtraction, so
    there everything agrees within 1e-9, except that the weight gradient
    carries grad_bias * mu^T: that bias round-off (~1e-10 on both paths)
    times the 1e3 patch mean reached 1.7e-9 of the largest entry when first
    measured, so the weight gradient is compared with that term taken out
    and the bias gradient on its own. A constant batch has zero variance:
    x_hat and both gradients are round-off scaled by 1/sqrt(eps) ~ 316 on both
    paths and agree within 1e-9 absolute.
    """

    @staticmethod
    def _fused(x, w, b, stride, grad_out):
        cols = np.empty((x.shape[0], (x.shape[1] - w.shape[2]) // stride + 1, w.shape[2]))
        x_hat, cache, mean, var = layers.conv_batchnorm_train(
            x, w, b, stride, cols=cols, out=np.empty(cols.shape[:2] + w.shape[:1])
        )
        assert x_hat is cache.x_hat
        centred = fresh_cols(x, w.shape[2], stride) - cache.patch_mean
        assert np.max(np.abs(cols - centred)) <= 1e-12 * max(1.0, np.max(np.abs(x)))
        g = grad_out * (x_hat > 0.0)
        gw, gb = layers.conv_batchnorm_backward(cache, cols, w, g)
        assert np.array_equal(g, grad_out * (x_hat > 0.0))  # read, not written
        return x_hat, mean, var, gw, gb, cache.patch_mean

    @staticmethod
    def _layer(name, batch, seed):
        cfg = model_config(name, 2)
        rng = np.random.default_rng(seed)
        params = init_parameters(cfg, seed=seed)
        w = params.conv_weights[0]
        b = rng.normal(0.0, 0.5, size=w.shape[0])
        x = rng.standard_normal((batch, cfg.input_length, 1))
        m = cfg.conv_layers[0].output_length
        grad_out = rng.standard_normal((batch, m, w.shape[0]))
        return x, w, b, cfg.strides[0], grad_out

    @pytest.mark.parametrize("batch", [1, 7, 32])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_matches_unfused_composition(self, name, batch):
        x, w, b, stride, grad_out = self._layer(name, batch, seed=batch)
        x_hat, mean, var, gw, gb, mu = self._fused(x, w, b, stride, grad_out)
        ref_x_hat, ref_mean, ref_var, ref_gw, ref_gb = _unfused_first_layer(
            x, w, b, stride, grad_out
        )
        assert np.max(np.abs(x_hat - ref_x_hat)) <= 1e-12
        assert np.max(np.abs(mean - ref_mean)) <= 1e-12 * np.max(np.abs(ref_mean))
        assert np.max(np.abs(var - ref_var)) <= 1e-12 * np.max(ref_var)
        assert np.max(np.abs(gw - ref_gw)) <= 1e-12 * np.max(np.abs(ref_gw))
        assert np.max(np.abs(gb - ref_gb)) <= 1e-12

    def test_dc_offset(self):
        x, w, b, stride, grad_out = self._layer("M5", 32, seed=3)
        x += 1e3
        x_hat, mean, var, gw, gb, mu = self._fused(x, w, b, stride, grad_out)
        ref_x_hat, ref_mean, ref_var, ref_gw, ref_gb = _unfused_first_layer(
            x, w, b, stride, grad_out
        )
        assert np.max(np.abs(x_hat - ref_x_hat)) <= 1e-9
        assert np.max(np.abs(mean - ref_mean)) <= 1e-9 * np.max(np.abs(ref_mean))
        assert np.max(np.abs(var - ref_var)) <= 1e-9 * np.max(ref_var)
        centred = gw[:, 0] - np.outer(gb, mu)  # C_in = 1: (K, Rf)
        ref_centred = ref_gw[:, 0] - np.outer(ref_gb, mu)
        assert np.max(np.abs(centred - ref_centred)) <= 1e-9 * np.max(np.abs(ref_centred))
        assert np.max(np.abs(gb - ref_gb)) <= 1e-9 * np.max(np.abs(ref_gw))

    def test_constant_batch_has_zero_variance(self):
        x, w, b, stride, grad_out = self._layer("M1", 7, seed=4)
        x[...] = 0.3
        x_hat, mean, var, gw, gb, mu = self._fused(x, w, b, stride, grad_out)
        ref_x_hat, ref_mean, ref_var, ref_gw, ref_gb = _unfused_first_layer(
            x, w, b, stride, grad_out
        )
        assert np.max(np.abs(var)) <= 1e-20 and np.max(np.abs(ref_var)) <= 1e-20
        assert np.max(np.abs(mean - ref_mean)) <= 1e-12 * np.max(np.abs(ref_mean))
        assert np.max(np.abs(x_hat - ref_x_hat)) <= 1e-9
        assert np.max(np.abs(gw - ref_gw)) <= 1e-9
        assert np.max(np.abs(gb - ref_gb)) <= 1e-9

    def test_backward_finite_difference(self):
        """relu(conv_batchnorm_train(x)) on batch 3, length 20, 2 channels,
        Rf 4, stride 2, against central differences in the weights and bias."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 20, 2))
        w = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal(3)
        r = rng.standard_normal((3, 9, 3))

        def loss():
            y, _, _, _ = layers.conv_batchnorm_train(
                x, w, b, 2, np.empty((3, 9, 8)), np.empty((3, 9, 3))
            )
            return float((layers.relu(y) * r).sum())

        cols = np.empty((3, 9, 8))
        y, cache, _, _ = layers.conv_batchnorm_train(
            x, w, b, 2, cols=cols, out=np.empty((3, 9, 3))
        )
        assert np.min(np.abs(y)) > 1e-3  # clear of the kink at the probe step
        gw, gb = layers.conv_batchnorm_backward(cache, cols, w, r * (y > 0.0))
        assert max_relative_error(gw, central_difference(loss, w)) < 1e-6
        assert np.max(np.abs(gb)) <= 1e-12  # batch norm cancels the bias
        assert np.max(np.abs(central_difference(loss, b))) <= 1e-8


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

        out_w, out_b = np.full_like(w, np.nan), np.full_like(b, np.nan)
        scratch = np.full(x.size + 3, np.nan)
        gx, gw, gb = layers.dense_backward(x, w, r, out_w, out_b, scratch)
        assert gw is out_w and gb is out_b
        assert np.array_equal(gw, x.T @ r) and np.array_equal(gb, r.sum(axis=0))
        assert gx.shape == x.shape and np.shares_memory(gx, scratch)
        assert np.array_equal(gx, r @ w.T) and np.isnan(scratch[x.size :]).all()
        assert max_relative_error(gx, central_difference(loss, x)) < 1e-6
        assert max_relative_error(gw, central_difference(loss, w)) < 1e-6
        assert max_relative_error(gb, central_difference(loss, b)) < 1e-6


    def test_small_scratch_rejected(self):
        """A scratch that cannot hold the (5, 4) input gradient is refused,
        in one line naming the 20 values it needs."""
        x, w, r = np.zeros((5, 4)), np.zeros((4, 3)), np.zeros((5, 3))
        with pytest.raises(ValueError, match="dense_backward needs 20 ") as caught:
            layers.dense_backward(x, w, r, np.empty((4, 3)), np.empty(3), np.empty(19))
        assert "\n" not in str(caught.value)


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
