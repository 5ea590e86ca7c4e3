"""CNN building blocks: conv2d, batchnorm, activations, pooling, FC, loss.

conv2d is one im2col GEMM whose sums run in BLAS order, in training and
in eval alike. It equals a scalar loop convolution (tests/oracles.py's
loop_conv2d) within float32 rounding, not bit for bit; for one input it
gives the same bits every time, which is what reruns, save -> load ->
eval and the masked-vs-gated equivalence rely on. Its backward is two
GEMMs over the same patches (_extract_patches), checked against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gaternet.tensor import Array, Tensor, apply_op, sqrt, _stable_sigmoid


@dataclass
class Conv2dParams:
    """Filters [out_ch, in_ch, kh, kw], optional bias [out_ch]."""

    filters: Tensor
    bias: Tensor | None = None
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.filters.ndim != 4:
            raise ValueError(f"filters must be 4-D, got shape {self.filters.shape}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")

    @property
    def out_channels(self) -> int:
        return self.filters.shape[0]


# batchnorm's running-average momentum and its variance epsilon
BN_MOMENTUM = 0.9
BN_EPS = 1e-5


@dataclass
class BatchNormParams:
    """Per-channel scale and shift plus running statistics.

    gamma and beta are trainable; running_mean and running_var are plain
    arrays updated in place by an exponential moving average with momentum
    BN_MOMENTUM (running <- m * running + (1 - m) * batch). Batch variance
    is the biased (1/m) estimate, both for normalization and for the
    running average.
    """

    gamma: Tensor
    beta: Tensor
    running_mean: Array
    running_var: Array

    def __post_init__(self):
        n = self.gamma.shape[0]
        for name, v in (("beta", self.beta.data), ("running_mean", self.running_mean),
                        ("running_var", self.running_var)):
            if v.shape != (n,):
                raise ValueError(f"{name} shape {v.shape} does not match gamma ({n},)")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output length of a conv along one spatial dim (< 1 means empty)."""
    return (size + 2 * padding - kernel) // stride + 1


def conv_output_hw(shape: tuple, p: Conv2dParams) -> tuple[int, int]:
    """Output (height, width) of p over an input of this shape; ValueError
    unless the input is [N, C, H, W] with the filters' C and the output is
    not empty."""
    if len(shape) != 4:
        raise ValueError(f"conv2d input must be 4-D, got shape {shape}")
    _, c_in, h, w = shape
    _, c_in_f, kh, kw = p.filters.shape
    if c_in != c_in_f:
        raise ValueError(
            f"conv2d channel mismatch: input has {c_in} channels, "
            f"filters expect {c_in_f}"
        )
    s, pad = p.stride, p.padding
    oh, ow = conv_out_size(h, kh, s, pad), conv_out_size(w, kw, s, pad)
    if oh < 1 or ow < 1:
        raise ValueError(
            f"conv2d output would be empty: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {s}, padding {pad}"
        )
    return oh, ow


# The forward builds its im2col patches over blocks of at most this many
# samples, because the patch matrix is kh*kw times the size of its input.
# Where no backward follows (eval), that matrix sets the process's peak
# memory: on a 64-image gated eval of the synthetic_small model, peak RSS
# rose 17% with full-batch patches and 9% with 32-sample blocks, and
# stayed within 1% with 16, at no cost in time. The backward keeps
# full-batch patches.
FORWARD_BLOCK = 16


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """2-D convolution (cross-correlation) over [N, C, H, W] input: filters
    @ im2col patches, then bias, in BLAS summation order (see module
    docstring). Both gradients are GEMMs against the patches of the whole
    batch, which backward builds again."""
    oh, ow = conv_output_hw(x.shape, p)
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = p.filters.shape
    s, pad = p.stride, p.padding
    w_flat = p.filters.data.reshape(c_out, -1)
    out = np.empty((n, c_out, oh, ow), dtype=x.dtype)
    for lo in range(0, n, FORWARD_BLOCK):
        xb = x.data[lo : lo + FORWARD_BLOCK]
        patches = _extract_patches(xb, kh, kw, s, pad, oh, ow)
        out[lo : lo + len(xb)] = (w_flat @ patches).reshape(
            c_out, len(xb), oh, ow).transpose(1, 0, 2, 3)
    if p.bias is not None:
        out += p.bias.data.reshape(1, c_out, 1, 1)

    def backward(g: Array) -> None:
        g_flat = g.transpose(1, 0, 2, 3).reshape(c_out, -1)
        if p.filters.requires_grad:
            patches = _extract_patches(x.data, kh, kw, s, pad, oh, ow)
            p.filters._accumulate((g_flat @ patches.T).reshape(c_out, c_in, kh, kw))
            del patches
        if x.requires_grad:
            dpatch = (w_flat.T @ g_flat).reshape(c_in, kh, kw, n, oh, ow)
            dxp = np.zeros((c_in, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
            for ki in range(kh):
                for kj in range(kw):
                    dxp[:, :, ki : ki + s * oh : s, kj : kj + s * ow : s] += (
                        dpatch[:, ki, kj]
                    )
            x._accumulate(dxp[:, :, pad : pad + h, pad : pad + w].transpose(1, 0, 2, 3))
        if p.bias is not None and p.bias.requires_grad:
            p.bias._accumulate(g.sum(axis=(0, 2, 3)))

    parents = (x, p.filters) if p.bias is None else (x, p.filters, p.bias)
    return apply_op(out, parents, backward)


def _extract_patches(
    x: Array, kh: int, kw: int, stride: int, pad: int, oh: int, ow: int
) -> Array:
    """im2col: [N, C, H, W] -> [C*kh*kw, N*oh*ow], rows in (c, ki, kj) order
    and columns in (n, i, j) order, one strided slice copy per kernel
    offset out of a padded [C, N, H, W] copy of x."""
    n, c, h, w = x.shape
    xt = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xt[:, :, pad : pad + h, pad : pad + w] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, oh, ow), dtype=x.dtype)
    for ki in range(kh):
        for kj in range(kw):
            cols[:, ki, kj] = xt[
                :, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride
            ]
    return cols.reshape(c * kh * kw, n * oh * ow)


def batchnorm(x: Tensor, p: BatchNormParams, training: bool) -> Tensor:
    """Normalize per channel; 4-D inputs use (N, H, W) stats, 2-D use N.

    Training mode normalizes with batch statistics (gradients flow through
    them) and updates the running averages as a side effect. Eval mode uses
    the stored running statistics and has no side effects.
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
        pshape = (1, p.channels, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        pshape = (1, p.channels)
    else:
        raise ValueError(f"batchnorm expects 2-D or 4-D input, got {x.shape}")
    if x.shape[1] != p.channels:
        raise ValueError(
            f"batchnorm channel mismatch: input has {x.shape[1]}, params have "
            f"{p.channels}"
        )
    gamma = p.gamma.reshape(pshape)
    beta = p.beta.reshape(pshape)

    if training:
        mu = x.mean(axis=axes, keepdims=True)
        diff = x - mu
        var = (diff * diff).mean(axis=axes, keepdims=True)
        xhat = diff / sqrt(var + BN_EPS)
        out = gamma * xhat + beta

        m = BN_MOMENTUM
        p.running_mean[...] = m * p.running_mean + (1.0 - m) * mu.data.reshape(-1)
        p.running_var[...] = m * p.running_var + (1.0 - m) * var.data.reshape(-1)
        return out

    rm = Tensor(p.running_mean.reshape(pshape).astype(x.dtype, copy=False))
    denom = Tensor(
        np.sqrt(p.running_var.reshape(pshape).astype(x.dtype, copy=False) + BN_EPS)
    )
    xhat = (x - rm) / denom
    return gamma * xhat + beta


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the backward mask is built in backward, so eval skips it."""

    def backward(g: Array) -> None:
        x._accumulate(g * (x.data > 0))

    return apply_op(np.maximum(x.data, 0), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    out_data = _stable_sigmoid(x.data)

    def backward(g: Array) -> None:
        x._accumulate(g * out_data * (1.0 - out_data))

    return apply_op(out_data, (x,), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """[N, C, H, W] -> [N, C], mean over the spatial dims."""
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool expects 4-D input, got {x.shape}")
    return x.mean(axis=(2, 3))


def avg_pool2d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping average pooling; spatial dims must divide evenly."""
    if x.ndim != 4:
        raise ValueError(f"avg_pool2d expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if h % window or w % window:
        raise ValueError(
            f"avg_pool2d window {window} does not divide spatial dims {h}x{w}"
        )
    return x.reshape(n, c, h // window, window, w // window, window).mean(axis=(3, 5))


def fully_connected(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x [N, d] @ weight [d, k] + bias [k]."""
    return x @ weight + bias


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross entropy from raw logits [N, K] and integer labels [N]."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    n, k = logits.shape
    if n < 1:
        raise ValueError("softmax_cross_entropy needs at least one sample")
    if labels.shape != (n,):
        raise ValueError(
            f"labels shape {labels.shape} does not match logits batch {n}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(
            f"label out of range: values must be in [0, {k}), got "
            f"[{labels.min()}, {labels.max()}]"
        )
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    se = ez.sum(axis=1, keepdims=True)
    logp = z - np.log(se)
    rows = np.arange(n)
    loss = -logp[rows, labels].mean(dtype=logits.dtype)

    def backward(g: Array) -> None:
        grad = ez / se
        grad[rows, labels] -= 1.0
        logits._accumulate(g * grad / n)

    return apply_op(np.asarray(loss, dtype=logits.dtype), (logits,), backward)
