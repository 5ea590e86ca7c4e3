"""Layer semantics against independent oracles.

The exact conv reference, oracles.loop_conv2d, is checked against a
scalar six-loop accumulating in the same (in_channel, kernel_row,
kernel_col) order, bit for bit, not within tolerance. conv2d sums in BLAS
order, so it is checked against loop_conv2d within float32 rounding.
Value-level cross-checks against scipy run in float64 as a second,
structurally unrelated route.
"""

import numpy as np
import pytest
import scipy.signal
import scipy.special
from hypothesis import given, settings, strategies as st

from gaternet import layers
from gaternet.layers import (
    BN_EPS,
    BN_MOMENTUM,
    FORWARD_BLOCK,
    BatchNormParams,
    Conv2dParams,
    avg_pool2d,
    batchnorm,
    bn_relu_gate,
    conv2d,
    fully_connected,
    global_avg_pool,
    relu,
    sigmoid,
    softmax_cross_entropy,
    _extract_patches,
)
from gaternet.tensor import Tensor, no_grad
from oracles import (
    avg_pool_reference,
    conv_block_reference,
    conv_weight_grad_reference,
    grad_check,
    loop_conv2d,
)


def naive_conv2d(x, w, stride, padding):
    """Scalar reference: same accumulation order, no vectorization."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=x.dtype)
    zero = x.dtype.type(0)
    for ni in range(n):
        for co in range(cout):
            for oi in range(oh):
                for oj in range(ow):
                    acc = zero
                    for ic in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc = acc + w[co, ic, ki, kj] * xp[
                                    ni, ic, oi * stride + ki, oj * stride + kj
                                ]
                    out[ni, co, oi, oj] = acc
    return out


def _conv_params(cout, cin, k, seed, stride=1, padding=1, dtype=np.float32):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.standard_normal((cout, cin, k, k)).astype(dtype),
               requires_grad=True)
    return Conv2dParams(filters=w, stride=stride, padding=padding)


class TestConv2d:
    @pytest.mark.parametrize("geometry", [
        # (cin, cout, k, stride, padding, h, w)
        (3, 8, 3, 1, 1, 8, 8),
        (3, 8, 3, 2, 0, 8, 8),
        (4, 6, 3, 2, 1, 9, 9),
        (2, 5, 5, 1, 2, 7, 7),
        (3, 4, 1, 1, 0, 6, 6),
        (1, 3, 3, 3, 0, 9, 12),
    ])
    def test_matches_naive_loop_bitwise(self, geometry):
        cin, cout, k, stride, padding, h, w = geometry
        rng = np.random.default_rng(hash(geometry) % 2**32)
        x = rng.standard_normal((2, cin, h, w)).astype(np.float32)
        p = _conv_params(cout, cin, k, seed=1, stride=stride, padding=padding)
        got = loop_conv2d(x, p)
        want = naive_conv2d(x, p.filters.data, stride, padding)
        assert got.dtype == np.float32
        assert np.array_equal(got, want), "vectorized loop diverged from scalar loop"

    def test_matches_scipy_correlate(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 8, 8))
        p = _conv_params(4, 3, 3, seed=2, dtype=np.float64)
        got = conv2d(Tensor(x), p).data
        want = np.zeros_like(got)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for ni in range(2):
            for co in range(4):
                want[ni, co] = sum(
                    scipy.signal.correlate(xp[ni, ic], p.filters.data[co, ic],
                                           mode="valid")
                    for ic in range(3)
                )
        assert np.allclose(got, want, atol=1e-12)

    def test_identity_kernel(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        p = Conv2dParams(filters=Tensor(w), stride=1, padding=1)
        assert np.array_equal(conv2d(Tensor(x), p).data, x)

    def test_sample_rows_are_independent(self):
        # row i of a batched conv must equal the conv of row i alone
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 3, 8, 8)).astype(np.float32)
        p = _conv_params(4, 3, 3, seed=3)
        full = loop_conv2d(x, p)
        one = loop_conv2d(x[2:3], p)
        assert np.array_equal(full[2:3], one)

    def test_output_channels_are_independent(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        p = _conv_params(6, 3, 3, seed=4)
        full = loop_conv2d(x, p)
        sub = Conv2dParams(filters=Tensor(p.filters.data[[1, 4]]),
                           stride=1, padding=1)
        assert np.array_equal(loop_conv2d(x, sub), full[:, [1, 4]])

    def test_shape_validation(self):
        p = _conv_params(4, 3, 3, seed=8)
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((2, 5, 8, 8), dtype=np.float32)), p)
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((3, 8, 8), dtype=np.float32)), p)
        with pytest.raises(ValueError):  # kernel larger than padded input
            conv2d(Tensor(np.zeros((1, 3, 1, 1), dtype=np.float32)),
                   _conv_params(4, 3, 5, seed=9, padding=0))

    def test_gradients(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        p = _conv_params(4, 3, 3, seed=11, stride=2, dtype=np.float64)
        assert grad_check(lambda t: (conv2d(t, p) * conv2d(t, p)).sum(), x) < 1e-6
        assert grad_check(
            lambda t: (conv2d(x, Conv2dParams(t, 2, 1)) * 3.0).sum(),
            p.filters) < 1e-6


class TestConv2dGemm:
    # n reaches past four forward blocks, so a partial last block is covered
    @settings(max_examples=60, deadline=None)
    @given(kernel=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
           padding=st.sampled_from([0, 1]),
           n=st.integers(1, 4 * FORWARD_BLOCK + 1), c_in=st.integers(1, 6),
           c_out=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_within_rounding(self, kernel, stride, padding,
                                          n, c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(max(kernel - 2 * padding, 1), 10, size=2)
        x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
        p = _conv_params(c_out, c_in, kernel, seed=seed, stride=stride,
                         padding=padding)
        want = loop_conv2d(x, p)
        # the filters need a gradient, so a recorded forward keeps one
        # full-batch patch matrix; under no_grad it runs in blocks
        recorded = conv2d(Tensor(x), p).data
        with no_grad():
            blocked = conv2d(Tensor(x), p).data
        for got in (recorded, blocked):
            assert got.shape == want.shape
            # NCHW shape over channel-major [C, H, W, N] memory
            assert got.dtype == np.float32
            assert got.transpose(1, 2, 3, 0).flags.c_contiguous
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(kernel=st.sampled_from([1, 3, 5]), stride=st.sampled_from([1, 2]),
           padding=st.sampled_from([0, 1, 2]), n=st.integers(1, 70),
           c_in=st.integers(1, 12), c_out=st.integers(1, 33),
           seed=st.integers(0, 2**32 - 1))
    def test_filter_grad_matches_old_gemm_orientation(self, kernel, stride,
                                                      padding, n, c_in, c_out,
                                                      seed):
        """The filters' gradient, now (patches @ g.T).T, against the former
        g @ patches.T within float32 rounding: both sum the same
        oh*ow*N products, in orders BLAS picks per orientation."""
        rng = np.random.default_rng(seed)
        h, w = rng.integers(max(kernel - 2 * padding, 1), 12, size=2)
        x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
        p = _conv_params(c_out, c_in, kernel, seed=seed, stride=stride,
                         padding=padding)
        y = conv2d(Tensor(x), p)
        g = rng.standard_normal(y.shape).astype(np.float32)
        (y * Tensor(g)).sum().backward()
        want = conv_weight_grad_reference(x, p, g)
        assert p.filters.grad.dtype == np.float32
        assert p.filters.grad.shape == want.shape
        # |error| of a k-term float32 dot product <= k * eps * sum |a_i b_i|
        k = y.shape[0] * y.shape[2] * y.shape[3]
        scale = conv_weight_grad_reference(np.abs(x), p, np.abs(g))
        bound = 2 * k * np.finfo(np.float32).eps * scale
        assert np.all(np.abs(p.filters.grad - want) <= bound)

    def test_same_input_gives_identical_bits(self):
        # a batch of two forward blocks and a partial one
        rng = np.random.default_rng(12)
        n = 2 * FORWARD_BLOCK + 8
        x = rng.standard_normal((n, 5, 9, 9)).astype(np.float32)
        mix = Tensor(rng.standard_normal((n, 6, 5, 5)).astype(np.float32))
        runs = []
        for _ in range(2):
            p = _conv_params(6, 5, 3, seed=13, stride=2)
            xt = Tensor(x.copy(), requires_grad=True)
            y = conv2d(xt, p)
            (y * mix).sum().backward()
            runs.append([a.tobytes() for a in (y.data, xt.grad, p.filters.grad)])
        assert runs[0] == runs[1]


    def test_patches_are_built_once_per_training_step(self, monkeypatch):
        calls = []

        def counting(x, *args):
            calls.append(len(x))
            return _extract_patches(x, *args)

        monkeypatch.setattr(layers, "_extract_patches", counting)
        rng = np.random.default_rng(14)
        n = 2 * FORWARD_BLOCK + 3
        x = Tensor(rng.standard_normal((n, 3, 6, 6)).astype(np.float32),
                   requires_grad=True)
        p = _conv_params(4, 3, 3, seed=15)
        with no_grad():
            conv2d(x, p)
        assert calls == [FORWARD_BLOCK, FORWARD_BLOCK, 3]
        calls.clear()
        loss = conv2d(x, p).sum()
        loss.backward()
        assert calls == [n]  # the forward's; the backward reused them
        calls.clear()
        loss.backward()
        assert calls == [n]  # dropped after use, so built again

    def test_kept_patch_backward_matches_finite_differences(self):
        # n past one forward block: the kept patches span the whole batch
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((FORWARD_BLOCK + 3, 2, 5, 5)),
                   requires_grad=True)
        p = _conv_params(3, 2, 3, seed=17, stride=2, dtype=np.float64)
        mix = Tensor(rng.standard_normal(conv2d(x, p).shape))
        assert grad_check(lambda t: (conv2d(t, p) * mix).sum(), x) < 1e-6
        assert grad_check(
            lambda t: (conv2d(x, Conv2dParams(t, 2, 1)) * mix).sum(),
            p.filters) < 1e-6

    def test_second_backward_gives_the_same_leaf_grads(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((FORWARD_BLOCK + 5, 3, 7, 7))
                   .astype(np.float32), requires_grad=True)
        p = _conv_params(5, 3, 3, seed=19, stride=2)
        q = _conv_params(2, 5, 3, seed=20)
        y = conv2d(relu(conv2d(x, p)), q)
        loss = (y * y).sum()
        leaves = (x, p.filters, q.filters)
        grads = []
        for _ in range(2):
            for t in leaves:
                t.zero_grad()
            loss.backward()
            grads.append([t.grad.tobytes() for t in leaves])
        assert grads[0] == grads[1]


class TestBatchNorm:
    """layers.batchnorm on the head's 2-D input, and the conv batchnorm
    inside layers.bn_relu_gate on 4-D input (gates None), whose relu is
    either part of the expected value or kept off every value by a
    large beta."""

    def _params(self, c, dtype=np.float32, seed=0):
        rng = np.random.default_rng(seed)
        return BatchNormParams(
            gamma=Tensor(rng.uniform(0.5, 1.5, c).astype(dtype),
                         requires_grad=True),
            beta=Tensor(rng.standard_normal(c).astype(dtype),
                        requires_grad=True),
            running_mean=np.zeros(c, dtype=dtype),
            running_var=np.ones(c, dtype=dtype),
        )

    def test_train_matches_hand_formula(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        p = self._params(3)
        got = bn_relu_gate(Tensor(x), p, None, training=True).data
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        diff = x - mean
        var = (diff * diff).mean(axis=(0, 2, 3), keepdims=True)  # biased
        xhat = diff / np.sqrt(var + np.float32(BN_EPS))
        want = p.gamma.data.reshape(1, 3, 1, 1) * xhat + p.beta.data.reshape(1, 3, 1, 1)
        assert np.array_equal(got, np.maximum(want, 0))
        assert got.dtype == np.float32

    def test_train_output_is_normalized(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 4, 6, 6)).astype(np.float64) * 3 + 5
        p = self._params(4, dtype=np.float64)
        p.gamma.data[...] = 1.0
        p.beta.data[...] = 100.0  # no value reaches the relu's kink
        y = bn_relu_gate(Tensor(x), p, None, training=True).data - 100.0
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0, atol=1e-10)
        assert np.allclose(y.var(axis=(0, 2, 3)), 1, atol=1e-6)

    def test_running_stats_ema(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        p = self._params(2)
        rm0, rv0 = p.running_mean.copy(), p.running_var.copy()
        bn_relu_gate(Tensor(x), p, None, training=True)
        bm = x.mean(axis=(0, 2, 3))
        bv = x.var(axis=(0, 2, 3))  # biased
        m = np.float32(BN_MOMENTUM)
        assert np.allclose(p.running_mean, m * rm0 + (1 - m) * bm, atol=1e-7)
        assert np.allclose(p.running_var, m * rv0 + (1 - m) * bv, atol=1e-7)

    def test_eval_uses_running_stats_and_skips_ema(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        p = self._params(2)
        p.running_mean[...] = [1.0, -1.0]
        p.running_var[...] = [4.0, 0.25]
        rm, rv = p.running_mean.copy(), p.running_var.copy()
        got = bn_relu_gate(Tensor(x), p, None, training=False).data
        xhat = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(
            rv.reshape(1, 2, 1, 1) + np.float32(BN_EPS))
        want = (p.gamma.data.reshape(1, 2, 1, 1) * xhat
                + p.beta.data.reshape(1, 2, 1, 1))
        assert np.array_equal(got, np.maximum(want, 0))
        assert np.array_equal(p.running_mean, rm)
        assert np.array_equal(p.running_var, rv)

    def test_2d_input(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 3)).astype(np.float32)
        p = self._params(3)
        y = batchnorm(Tensor(x), p, training=True).data
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        want = (p.gamma.data * (x - mean) / np.sqrt(var + np.float32(BN_EPS))
                + p.beta.data)
        assert np.allclose(y, want, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(four_d=st.booleans(), training=st.booleans(), n=st.integers(2, 5),
           c=st.integers(1, 3), hw=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_gradients_both_modes(self, four_d, training, n, c, hw, seed):
        # every branch of the closed-form backwards: batchnorm's 2-D and
        # bn_relu_gate's 4-D input, batch or running statistics; beta + 50
        # keeps every 4-D value clear of the relu's kink
        rng = np.random.default_rng(seed)
        shape = (n, c, hw, hw) if four_d else (n, c)
        axes = (0, 2, 3) if four_d else (0,)
        # unit spread per channel keeps the batch variance well away from 0,
        # where finite differences lose their accuracy
        raw = rng.standard_normal(shape)
        x = Tensor((raw - raw.mean(axis=axes, keepdims=True))
                   / raw.std(axis=axes, keepdims=True))
        p = self._params(c, dtype=np.float64, seed=seed + 1)
        p.running_mean[...] = rng.standard_normal(c)
        p.running_var[...] = rng.uniform(0.5, 2.0, c)
        if four_d:
            p.beta.data[...] += 50.0
        mix = Tensor(rng.standard_normal(shape))

        def loss(x, gamma, beta):
            # in training the EMA side effect does not reach the value
            bn = BatchNormParams(gamma, beta, p.running_mean, p.running_var)
            y = (bn_relu_gate(x, bn, None, training) if four_d
                 else batchnorm(x, bn, training))
            return (y * mix).sum()

        assert grad_check(lambda t: loss(t, p.gamma, p.beta), x) < 1e-6
        assert grad_check(lambda t: loss(x, t, p.beta), p.gamma) < 1e-6
        assert grad_check(lambda t: loss(x, p.gamma, t), p.beta) < 1e-6

    def test_one_graph_node_over_x_gamma_beta(self):
        rng = np.random.default_rng(8)
        x2 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x4 = Tensor(rng.standard_normal((4, 3, 2, 2)), requires_grad=True)
        gates = Tensor(rng.random((4, 3)), requires_grad=True)
        p = self._params(3, dtype=np.float64)
        for training in (True, False):
            assert batchnorm(x2, p, training)._parents == (x2, p.gamma, p.beta)
            y = bn_relu_gate(x4, p, None, training)
            assert y._parents == (x4, p.gamma, p.beta)
            y = bn_relu_gate(x4, p, gates, training)
            assert y._parents == (x4, p.gamma, p.beta, gates)

    def test_batchnorm_is_2d_only(self):
        p = self._params(3)
        for shape in [(4, 3, 2, 2), (3,), (4, 3, 2)]:
            with pytest.raises(ValueError, match="batchnorm expects 2-D input"):
                batchnorm(Tensor(np.ones(shape, np.float32)), p, True)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchNormParams(Tensor(np.ones(3)), Tensor(np.ones(4)),
                            np.zeros(3), np.ones(3))


class TestActivationsAndPooling:
    def test_relu_strict_positive_mask(self):
        x = Tensor(np.array([-1.0, -0.0, 0.0, 0.5]), requires_grad=True)
        y = relu(x)
        assert np.array_equal(y.data, [0.0, 0.0, 0.0, 0.5])
        y.sum().backward()
        assert np.array_equal(x.grad, [0.0, 0.0, 0.0, 1.0])  # grad 0 at 0

    def test_relu_grad(self):
        x = Tensor(np.array([-2.0, -0.7, 0.4, 1.9]), requires_grad=True)
        assert grad_check(lambda t: (relu(t) * relu(t)).sum(), x) < 1e-6

    def test_sigmoid_matches_scipy_and_is_stable(self):
        x = np.array([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
        got = sigmoid(Tensor(x)).data
        assert np.allclose(got, scipy.special.expit(x), atol=1e-12)
        assert np.all(np.isfinite(got))
        assert got[0] == 0.0 and got[-1] == 1.0

    def test_sigmoid_grad(self):
        x = Tensor(np.random.default_rng(8).standard_normal(7),
                   requires_grad=True)
        assert grad_check(lambda t: sigmoid(t).sum(), x) < 1e-6

    def test_global_avg_pool(self):
        x = np.arange(24, dtype=np.float64).reshape(1, 2, 3, 4)
        got = global_avg_pool(Tensor(x)).data
        assert got.shape == (1, 2)
        assert np.allclose(got, x.mean(axis=(2, 3)))

    def test_avg_pool2d(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        got = avg_pool2d(Tensor(x), 2).data
        want = np.array([[[[2.5, 4.5], [10.5, 12.5]]]])
        assert np.allclose(got, want)
        with pytest.raises(ValueError):
            avg_pool2d(Tensor(np.zeros((1, 1, 5, 4))), 2)

    @given(n=st.integers(1, 3), c=st.integers(1, 3), window=st.integers(1, 4),
           ph=st.integers(1, 5), pw=st.integers(1, 5),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_avg_pool2d_matches_reshape_mean(self, n, c, window, ph, pw, dtype,
                                             seed):
        """Forward and gradient against the reshape-mean oracle: byte-equal
        wherever the pooled width is above 1. At pooled width 1 numpy's mean
        sums each window as one contiguous run, in another order, so there
        the forward agrees within the dtype's rounding."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, ph * window, pw * window)).astype(dtype)
        g = rng.standard_normal((n, c, ph, pw)).astype(dtype)
        got_x = Tensor(x, requires_grad=True)
        ref_x = Tensor(x, requires_grad=True)
        got = avg_pool2d(got_x, window)
        ref = avg_pool_reference(ref_x, window)
        assert got.dtype == ref.dtype == dtype
        if pw > 1:
            assert got.data.tobytes() == ref.data.tobytes()
        else:
            scale = avg_pool_reference(Tensor(np.abs(x)), window).data
            bound = 2 * window**2 * np.finfo(dtype).eps * scale
            assert np.all(np.abs(got.data - ref.data) <= bound)
        (got * Tensor(g)).sum().backward()
        (ref * Tensor(g)).sum().backward()
        assert got_x.grad.tobytes() == ref_x.grad.tobytes()

    def test_pool_grads(self):
        x = Tensor(np.random.default_rng(9).standard_normal((2, 3, 4, 4)),
                   requires_grad=True)
        assert grad_check(lambda t: (global_avg_pool(t) * 2.0).sum(), x) < 1e-6
        assert grad_check(
            lambda t: (avg_pool2d(t, 2) * avg_pool2d(t, 2)).sum(), x) < 1e-6

    def test_fully_connected(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        w = Tensor(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]]),
                   requires_grad=True)
        b = Tensor(np.array([0.5, -0.5, 0.0]), requires_grad=True)
        y = fully_connected(x, w, b)
        assert np.allclose(y.data, [[1.5, 1.5, 8.0]])
        assert grad_check(lambda t: (fully_connected(t, w, b)
                                     * fully_connected(t, w, b)).sum(), x) < 1e-6


def _channel_major(x):
    """The values of NCHW x in channel-major [C, H, W, N] memory, as an
    NCHW view: the layout conv2d returns."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def _bn_copies(c, dtype, rng, k):
    """k BatchNormParams with equal values and separate arrays."""
    gamma = rng.uniform(-1.5, 1.5, c).astype(dtype)
    beta = rng.standard_normal(c).astype(dtype)
    mean = rng.standard_normal(c).astype(dtype)
    var = rng.uniform(0.5, 2.0, c).astype(dtype)
    return [BatchNormParams(Tensor(gamma.copy(), requires_grad=True),
                            Tensor(beta.copy(), requires_grad=True),
                            mean.copy(), var.copy()) for _ in range(k)]


class TestBnReluGate:
    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 9), c=st.integers(1, 6), h=st.integers(1, 5),
           w=st.integers(1, 5), gating=st.sampled_from(["binary", "soft", "none"]),
           training=st.booleans(), channel_major=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_composed_reference(self, n, c, h, w, gating, training,
                                        channel_major, dtype, seed):
        """Output and running statistics byte-equal to
        oracles.conv_block_reference (batchnorm, relu and the broadcast gate
        multiply as separate nodes), in both modes, with binary, soft and
        no gates, over either input layout, and under no_grad, where the op
        runs in place in one new buffer. The gradients sum the same
        products in another order, and the input's gradient uses another
        closed form, so they agree within the dtype's rounding: with dy the
        gradient reaching the relu's output times its mask, per channel
        S1 = sum|dy| and S2 = sum|dy * xhat| over its M = N*H*W values,
        |ddbeta| <= 2*M*eps*S1, |ddgamma| <= 2*(M+1)*eps*S2 and |ddx| <=
        8*eps*|gamma/std|*(|dy| + S1 + |xhat|*S2), and the gates' gradient
        within 2*H*W*eps*sum|g * relu output| over (H, W)."""
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((n, c, h, w)) * 2 + 0.5).astype(dtype)
        if channel_major:
            x = _channel_major(x)
        bn, ref_bn, plain_bn, free_bn = _bn_copies(c, dtype, rng, 4)
        gates = None
        if gating != "none":
            gates = rng.random((n, c)).astype(dtype)
            if gating == "binary":
                gates = (gates < 0.5).astype(dtype)
        g = rng.standard_normal((n, c, h, w)).astype(dtype)

        def run(op, p):
            xt = Tensor(x, requires_grad=True)
            gt = None if gates is None else Tensor(gates, requires_grad=True)
            out = op(xt, p, gt, training)
            (out * Tensor(g)).sum().backward()
            return out, xt, gt

        got, x_got, g_got = run(bn_relu_gate, bn)
        ref, x_ref, g_ref = run(conv_block_reference, ref_bn)
        assert got._parents == (x_got, bn.gamma, bn.beta) + (
            () if g_got is None else (g_got,))
        assert got.dtype == ref.dtype == dtype and got.shape == ref.shape
        if channel_major:  # the op keeps the channel-major layout
            assert got.data.transpose(1, 2, 3, 0).flags.c_contiguous
        assert got.data.tobytes() == ref.data.tobytes()
        assert bn.running_mean.tobytes() == ref_bn.running_mean.tobytes()
        assert bn.running_var.tobytes() == ref_bn.running_var.tobytes()
        x_before = x.copy()
        with no_grad():
            free = bn_relu_gate(Tensor(x), free_bn, None if gates is None
                                else Tensor(gates), training)
        assert free.data.tobytes() == ref.data.tobytes()
        assert free_bn.running_mean.tobytes() == ref_bn.running_mean.tobytes()
        assert np.array_equal(x, x_before)
        if channel_major:
            assert free.data.transpose(1, 2, 3, 0).flags.c_contiguous

        eps = np.finfo(dtype).eps
        axes = (0, 2, 3)
        x64, m = x.astype(np.float64), n * h * w
        if training:
            mu, var = x64.mean(axis=axes), x64.var(axis=axes)
        else:
            mu, var = bn.running_mean.astype(np.float64), bn.running_var
        std = np.sqrt(var.astype(np.float64) + BN_EPS)[None, :, None, None]
        xhat = np.abs(x64 - mu[None, :, None, None]) / std
        gate4 = 1.0 if gates is None else gates[:, :, None, None]
        # |g| through the gate and the relu mask; out is 0 where either is
        dy = np.abs(g * gate4) * (ref.data != 0)
        s1 = dy.sum(axis=axes)
        s2 = (dy * xhat).sum(axis=axes)
        assert np.all(np.abs(bn.beta.grad - ref_bn.beta.grad) <= 2 * m * eps * s1)
        assert np.all(np.abs(bn.gamma.grad - ref_bn.gamma.grad)
                      <= 2 * (m + 1) * eps * s2)
        k = np.abs(bn.gamma.data.astype(np.float64))[None, :, None, None] / std
        bound = 8 * eps * k * (dy + s1[None, :, None, None]
                               + xhat * s2[None, :, None, None])
        assert np.all(np.abs(x_got.grad - x_ref.grad) <= bound)
        if gates is not None:
            relu_out = conv_block_reference(Tensor(x), plain_bn, None, training)
            bound = 2 * h * w * eps * np.abs(g * relu_out.data).sum(axis=(2, 3))
            assert np.all(np.abs(g_got.grad - g_ref.grad) <= bound)

    def test_shape_mismatch_is_refused(self):
        bn = _bn_copies(3, np.float32, np.random.default_rng(0), 1)[0]
        y = Tensor(np.ones((4, 3, 2, 2), np.float32))
        for shape in [(4, 2), (3, 3), (1, 3), (4, 1), (4, 3, 1)]:
            with pytest.raises(ValueError, match="do not match input"):
                bn_relu_gate(y, bn, Tensor(np.ones(shape, np.float32)), True)
        with pytest.raises(ValueError, match="expects 4-D input"):
            bn_relu_gate(Tensor(np.ones((4, 3), np.float32)), bn,
                         Tensor(np.ones((4, 3), np.float32)), False)
        with pytest.raises(ValueError, match="channel mismatch"):
            bn_relu_gate(Tensor(np.ones((4, 2, 2, 2), np.float32)), bn, None,
                         False)

    @settings(max_examples=40, deadline=None)
    @given(kernel=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
           padding=st.sampled_from([0, 1]),
           n=st.integers(1, 2 * FORWARD_BLOCK + 1), c_in=st.integers(1, 5),
           c_out=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_eval_bytes_do_not_depend_on_input_layout(self, kernel, stride,
                                                      padding, n, c_in, c_out,
                                                      seed):
        """In eval, conv2d and the gated conv give the same bytes for an
        NCHW-contiguous input and for the same values stored channel-major:
        the patches hold the same values, and eval batchnorm, relu and the
        gate multiply are elementwise."""
        rng = np.random.default_rng(seed)
        h, w = rng.integers(max(kernel - 2 * padding, 1), 8, size=2)
        x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
        p = _conv_params(c_out, c_in, kernel, seed=seed, stride=stride,
                         padding=padding)
        bn = BatchNormParams(
            gamma=Tensor(rng.uniform(-1.5, 1.5, c_out).astype(np.float32)),
            beta=Tensor(rng.standard_normal(c_out).astype(np.float32)),
            running_mean=rng.standard_normal(c_out).astype(np.float32),
            running_var=rng.uniform(0.5, 2.0, c_out).astype(np.float32),
        )
        gates = Tensor((rng.random((n, c_out)) < 0.5).astype(np.float32))
        with no_grad():
            for f in (lambda t: conv2d(t, p),
                      lambda t: bn_relu_gate(conv2d(t, p), bn, gates, False)):
                nchw = f(Tensor(x)).data
                assert nchw.tobytes() == f(Tensor(_channel_major(x))).data.tobytes()


class TestSoftmaxCrossEntropy:
    def test_matches_scipy_log_softmax(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, 8)
        got = softmax_cross_entropy(Tensor(logits), labels).item()
        ls = scipy.special.log_softmax(logits, axis=1)
        want = -ls[np.arange(8), labels].mean()
        assert abs(got - want) < 1e-12

    def test_uniform_logits_give_log_k(self):
        logits = np.zeros((4, 7))
        got = softmax_cross_entropy(Tensor(logits), np.zeros(4, np.int64)).item()
        assert abs(got - np.log(7)) < 1e-12

    def test_confident_correct_gives_small_loss(self):
        logits = np.full((2, 3), -10.0)
        logits[:, 1] = 10.0
        loss = softmax_cross_entropy(Tensor(logits), np.array([1, 1])).item()
        assert loss < 1e-8

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        loss = softmax_cross_entropy(Tensor(logits), np.array([0]))
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-8

    def test_backward_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(12)
        logits = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        labels = rng.integers(0, 4, 6)
        loss = softmax_cross_entropy(logits, labels)
        loss.backward()
        p = scipy.special.softmax(logits.data, axis=1)
        onehot = np.eye(4)[labels]
        assert np.allclose(logits.grad, (p - onehot) / 6, atol=1e-12)

    def test_grad_check(self):
        rng = np.random.default_rng(13)
        logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        labels = rng.integers(0, 3, 5)
        assert grad_check(
            lambda t: softmax_cross_entropy(t, labels), logits) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros(3)), np.array([0]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((0, 3))),
                                  np.zeros(0, np.int64))
