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

from gaternet.layers import (
    BN_EPS,
    BN_MOMENTUM,
    FORWARD_BLOCK,
    BatchNormParams,
    Conv2dParams,
    avg_pool2d,
    batchnorm,
    conv2d,
    fully_connected,
    global_avg_pool,
    relu,
    sigmoid,
    softmax_cross_entropy,
)
from gaternet.tensor import Tensor
from oracles import grad_check, loop_conv2d


def naive_conv2d(x, w, b, stride, padding):
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
                    if b is not None:
                        acc = acc + b[co]
                    out[ni, co, oi, oj] = acc
    return out


def _conv_params(cout, cin, k, seed, stride=1, padding=1, bias=True,
                 dtype=np.float32):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.standard_normal((cout, cin, k, k)).astype(dtype),
               requires_grad=True)
    bt = (Tensor(rng.standard_normal(cout).astype(dtype), requires_grad=True)
          if bias else None)
    return Conv2dParams(filters=w, bias=bt, stride=stride, padding=padding)


class TestConv2d:
    @pytest.mark.parametrize("geometry", [
        # (cin, cout, k, stride, padding, h, w, bias)
        (3, 8, 3, 1, 1, 8, 8, True),
        (3, 8, 3, 1, 1, 8, 8, False),
        (4, 6, 3, 2, 1, 9, 9, True),
        (2, 5, 5, 1, 2, 7, 7, True),
        (3, 4, 1, 1, 0, 6, 6, True),
        (1, 3, 3, 3, 0, 9, 12, False),
    ])
    def test_matches_naive_loop_bitwise(self, geometry):
        cin, cout, k, stride, padding, h, w, bias = geometry
        rng = np.random.default_rng(hash(geometry) % 2**32)
        x = rng.standard_normal((2, cin, h, w)).astype(np.float32)
        p = _conv_params(cout, cin, k, seed=1, stride=stride, padding=padding,
                         bias=bias)
        got = loop_conv2d(x, p)
        want = naive_conv2d(
            x, p.filters.data, None if p.bias is None else p.bias.data,
            stride, padding,
        )
        assert got.dtype == np.float32
        assert np.array_equal(got, want), "vectorized loop diverged from scalar loop"

    def test_matches_scipy_correlate(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 8, 8))
        p = _conv_params(4, 3, 3, seed=2, bias=False, dtype=np.float64)
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
        p = Conv2dParams(filters=Tensor(w), bias=None, stride=1, padding=1)
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
                           bias=Tensor(p.bias.data[[1, 4]]),
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
            lambda t: (conv2d(x, Conv2dParams(t, p.bias, 2, 1)) * 3.0).sum(),
            p.filters) < 1e-6
        assert grad_check(
            lambda t: conv2d(x, Conv2dParams(p.filters, t, 2, 1)).sum(),
            p.bias) < 1e-6


class TestConv2dGemm:
    # n reaches past four forward blocks, so a partial last block is covered
    @settings(max_examples=60, deadline=None)
    @given(kernel=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
           padding=st.sampled_from([0, 1]), bias=st.booleans(),
           n=st.integers(1, 4 * FORWARD_BLOCK + 1), c_in=st.integers(1, 6),
           c_out=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_within_rounding(self, kernel, stride, padding, bias,
                                          n, c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(max(kernel - 2 * padding, 1), 10, size=2)
        x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
        p = _conv_params(c_out, c_in, kernel, seed=seed, stride=stride,
                         padding=padding, bias=bias)
        got = conv2d(Tensor(x), p).data
        want = loop_conv2d(x, p)
        assert got.shape == want.shape
        assert got.dtype == np.float32 and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

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
            runs.append([a.tobytes() for a in (y.data, xt.grad, p.filters.grad,
                                               p.bias.grad)])
        assert runs[0] == runs[1]


class TestBatchNorm:
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
        got = batchnorm(Tensor(x), p, training=True).data
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        diff = x - mean
        var = (diff * diff).mean(axis=(0, 2, 3), keepdims=True)  # biased
        xhat = diff / np.sqrt(var + np.float32(BN_EPS))
        want = p.gamma.data.reshape(1, 3, 1, 1) * xhat + p.beta.data.reshape(1, 3, 1, 1)
        assert np.allclose(got, want, atol=1e-6)
        assert got.dtype == np.float32

    def test_train_output_is_normalized(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 4, 6, 6)).astype(np.float64) * 3 + 5
        p = self._params(4, dtype=np.float64)
        p.gamma.data[...] = 1.0
        p.beta.data[...] = 0.0
        y = batchnorm(Tensor(x), p, training=True).data
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0, atol=1e-10)
        assert np.allclose(y.var(axis=(0, 2, 3)), 1, atol=1e-6)

    def test_running_stats_ema(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        p = self._params(2)
        rm0, rv0 = p.running_mean.copy(), p.running_var.copy()
        batchnorm(Tensor(x), p, training=True)
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
        got = batchnorm(Tensor(x), p, training=False).data
        xhat = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(
            rv.reshape(1, 2, 1, 1) + np.float32(BN_EPS))
        want = (p.gamma.data.reshape(1, 2, 1, 1) * xhat
                + p.beta.data.reshape(1, 2, 1, 1))
        assert np.allclose(got, want, atol=1e-6)
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

    def test_gradients_train_mode(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((5, 3, 4, 4)), requires_grad=True)
        p = self._params(3, dtype=np.float64, seed=7)
        f = lambda t: (batchnorm(t, p, True) * batchnorm(t, p, True)).mean()
        # EMA side effects do not affect the differentiated value
        assert grad_check(f, x) < 1e-6
        assert grad_check(
            lambda t: (batchnorm(
                x, BatchNormParams(t, p.beta, p.running_mean, p.running_var),
                True) * 2.0).sum(), p.gamma) < 1e-6
        assert grad_check(
            lambda t: (batchnorm(
                x, BatchNormParams(p.gamma, t, p.running_mean, p.running_var),
                True) * 3.0).sum(), p.beta) < 1e-6

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
