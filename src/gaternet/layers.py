"""CNN building blocks: conv2d, a conv's batchnorm -> relu -> gate epilogue,
batchnorm, activations, pooling, FC, loss.

Layout. Every 4-D activation has the shape [N, C, H, W] over
channel-major memory: .data is the transpose(3, 0, 1, 2) view of a
C-contiguous [C, H, W, N] array, the layout of conv2d's GEMM output.
numpy's elementwise ops, empty_like (so every gradient), bn_relu_gate and
avg_pool2d keep it, bn_relu_gate reduces over contiguous memory, and no
conv copies its input or output into another layout. Only the input
batch is NCHW (the first conv's im2col transposes it once), and the
flatten before the first fc reads values in NCHW order, so fc weights
keep their meaning.

conv2d is one im2col GEMM whose sums run in BLAS order, in training and
in eval alike. It equals a scalar loop convolution (tests/oracles.py's
loop_conv2d) within float32 rounding, not bit for bit; for one input it
gives the same bits every time, which is what reruns, save -> load ->
eval and the masked-vs-gated equivalence rely on. Its backward is two
GEMMs, one of them over the patches (_extract_patches) that a training
forward keeps for it, checked against finite differences.

batchnorm (the gater head's 2-D bottleneck) and bn_relu_gate (a conv's
epilogue: batchnorm over (N, H, W) -> relu -> per-channel gate multiply)
are one graph node each and share one normalize (_bn_normalize) and one
closed-form backward (_bn_backward, after Ioffe & Szegedy, 2015).
bn_relu_gate runs the expressions of relu(batchnorm(x)) * gates in their
order, so its output and running statistics have the bits of the composed
form (tests/oracles.py's conv_block_reference, separate nodes), in
training and in eval; with no graph recorded (eval under no_grad) every
step after the normalize runs in x-hat's buffer. Its relu mask is the sign
of the relu output (exactly 0 or 1) and the gates' gradient is one einsum
over (H, W). Backward sums run in another order than the separate nodes'
backwards, so gradients agree with them within rounding, checked against
finite differences. Over the nine epilogues of a synthetic_small joint
step at batch 64 (1 BLAS thread), forward plus backward took 20.3 and
21.6 ms in two runs, against 29.8 and 31.4 ms as separate batchnorm, relu
and gate nodes.

avg_pool2d is one op whose forward adds window**2 strided slices of its
input in one fixed order: each window row left to right, then the row
sums top to bottom, then one division by window**2. Wherever the pooled
width is above 1 that gives the same bits as numpy's mean over a 6-D
reshape (tests/oracles.py's avg_pool_reference); at pooled width 1 numpy
sums each window as one contiguous run in another order, so the two agree
only within float32 rounding. It replaced that reshape-mean, a reshape
and a mean node whose length-window inner reduction at a stride made each
pool cost about 20 times a relu over the same array, and GaterNet pools
in both of its stacks (five pools per forward in synthetic_small).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gaternet.tensor import Array, Tensor, apply_op, recording, _stable_sigmoid


@dataclass
class Conv2dParams:
    """Filters [out_ch, in_ch, kh, kw]; no bias, since every conv is
    followed by a batchnorm whose beta is the shift."""

    filters: Tensor
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.filters.ndim != 4:
            raise ValueError(f"filters must be 4-D, got shape {self.filters.shape}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")


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


# Where no backward can follow (eval, under no_grad), the forward builds
# its im2col patches over blocks of at most this many samples, because the
# patch matrix is kh*kw times the size of its input and sets the process's
# peak memory: on a 64-image gated eval of the synthetic_small model, peak
# RSS was 19% above one-sample blocks with full-batch patches, 6% with
# 32-sample blocks and 1% with 16, with no time difference beyond noise.
# A training forward builds full-batch patches once and keeps them for the
# filters' gradient.
FORWARD_BLOCK = 16


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """2-D convolution (cross-correlation) over [N, C, H, W] input: filters
    @ im2col patches, in BLAS summation order (see module docstring). The
    output is the GEMM's [C_out, oh, ow, N] result seen as NCHW, with no
    copy; the input may be in either layout. Both gradients are GEMMs over
    the whole batch. When the filters need a gradient and a graph is being
    recorded, the forward builds the whole batch's patches once and the
    backward reuses them for the filters' gradient, then drops them (a
    second backward over the same graph builds them again).

    The filters' gradient is (patches @ g.T).T, not g @ patches.T: the
    same sums over the oh*ow*N columns, with the long [C*kh*kw, oh*ow*N]
    patch matrix as the left operand, which OpenBLAS runs faster (7.2 ->
    5.1 ms summed over the 9 conv shapes of a synthetic_small joint step
    at batch 64, one BLAS thread). The two forms agree within rounding
    (tests/oracles.py's conv_weight_grad_reference is the old one); in
    float32 they gave the same bytes on 499 of 500 random shapes and on
    every synthetic_small shape, in float64 on about 19 of 20."""
    oh, ow = conv_output_hw(x.shape, p)
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = p.filters.shape
    s, pad = p.stride, p.padding
    w_flat = p.filters.data.reshape(c_out, -1)
    keep = p.filters.requires_grad and recording()
    kept = None  # the whole batch's patches, while backward may need them
    if keep or n <= FORWARD_BLOCK:
        patches = _extract_patches(x.data, kh, kw, s, pad, oh, ow)
        out = (w_flat @ patches).reshape(c_out, oh, ow, n)
        kept = patches if keep else None
    else:
        out = np.empty((c_out, oh, ow, n), dtype=x.dtype)
        for lo in range(0, n, FORWARD_BLOCK):
            xb = x.data[lo : lo + FORWARD_BLOCK]
            out[..., lo : lo + len(xb)] = (
                w_flat @ _extract_patches(xb, kh, kw, s, pad, oh, ow)
            ).reshape(c_out, oh, ow, len(xb))

    def backward(g: Array) -> None:
        nonlocal kept
        g_flat = g.transpose(1, 2, 3, 0).reshape(c_out, -1)
        if p.filters.requires_grad:
            if kept is None:
                kept = _extract_patches(x.data, kh, kw, s, pad, oh, ow)
            p.filters._accumulate((kept @ g_flat.T).T.reshape(c_out, c_in, kh, kw))
            kept = None
        if x.requires_grad:
            dpatch = (w_flat.T @ g_flat).reshape(c_in, kh, kw, oh, ow, n)
            dxp = np.zeros((c_in, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
            for ki in range(kh):
                for kj in range(kw):
                    dxp[:, ki : ki + s * oh : s, kj : kj + s * ow : s] += (
                        dpatch[:, ki, kj]
                    )
            x._accumulate(dxp[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2))

    return apply_op(out.transpose(3, 0, 1, 2), (x, p.filters), backward)


def _extract_patches(
    x: Array, kh: int, kw: int, stride: int, pad: int, oh: int, ow: int
) -> Array:
    """im2col: [N, C, H, W] -> [C*kh*kw, oh*ow*N], rows in (c, ki, kj) order
    and columns in (i, j, n) order, one strided slice copy per kernel
    offset out of a padded [C, H, W, N] copy of x, which for a channel-major
    x reads contiguous memory. With the sample axis innermost, each slice
    copy moves runs of N contiguous values."""
    n, c, h, w = x.shape
    xt = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    xt[:, pad : pad + h, pad : pad + w] = x.transpose(1, 2, 3, 0)
    cols = np.empty((c, kh, kw, oh, ow, n), dtype=x.dtype)
    for ki in range(kh):
        for kj in range(kw):
            cols[:, ki, kj] = xt[
                :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride
            ]
    return cols.reshape(c * kh * kw, oh * ow * n)


def _bn_normalize(xt: Array, p: BatchNormParams, training: bool
                  ) -> tuple[Array, Array]:
    """(xt - mu) / std over xt, a channel-first view [C, ...], in a fresh
    buffer, and std (shape [C, 1, ...]). Training uses the batch mean and
    biased variance (x - mu computed once) and updates p's running
    averages in place; eval uses the running statistics."""
    axes = tuple(range(1, xt.ndim))
    if training:
        mu = xt.mean(axis=axes, keepdims=True)
        xhat = xt - mu
        var = (xhat * xhat).mean(axis=axes, keepdims=True)
        m = BN_MOMENTUM
        p.running_mean[...] = m * p.running_mean + (1.0 - m) * mu.reshape(-1)
        p.running_var[...] = m * p.running_var + (1.0 - m) * var.reshape(-1)
    else:
        cshape = (-1,) + (1,) * len(axes)
        mu = p.running_mean.reshape(cshape).astype(xt.dtype, copy=False)
        var = p.running_var.reshape(cshape).astype(xt.dtype, copy=False)
        xhat = xt - mu
    std = np.sqrt(var + BN_EPS)
    xhat /= std
    return xhat, std


def _bn_backward(dy: Array, xhat: Array, std: Array, p: BatchNormParams,
                 training: bool, x_grad: bool) -> Array | None:
    """Batchnorm's backward over [C, M] views: accumulates dgamma and dbeta
    into p, computed once and reused, then if x_grad returns the input's
    gradient gamma/std * (dy - dbeta/M - xhat * dgamma/M) in dy's buffer
    (the two subtractions in training only: eval statistics are constants)."""
    c, m = dy.shape
    dbeta = dy.sum(axis=1)
    dgamma = np.einsum("cm,cm->c", dy, xhat)
    p.gamma._accumulate(dgamma)
    p.beta._accumulate(dbeta)
    if not x_grad:
        return None
    if training:
        dy -= (dbeta / m)[:, None]
        dy -= xhat * (dgamma / m)[:, None]
    dy *= (p.gamma.data.reshape(std.shape) / std).reshape(c, 1)
    return dy


def batchnorm(x: Tensor, p: BatchNormParams, training: bool) -> Tensor:
    """Normalize each column of a 2-D [N, C] input over the batch (the
    gater head's bottleneck; a conv's batchnorm is part of bn_relu_gate).

    Training mode normalizes with batch statistics (gradients flow through
    them) and updates the running averages as a side effect. Eval mode uses
    the stored running statistics and has no side effects.
    """
    if x.ndim != 2:
        raise ValueError(f"batchnorm expects 2-D input, got {x.shape}")
    if x.shape[1] != p.channels:
        raise ValueError(
            f"batchnorm channel mismatch: input has {x.shape[1]}, params have "
            f"{p.channels}"
        )
    xhat, std = _bn_normalize(x.data.T, p, training)
    out = p.gamma.data[:, None] * xhat + p.beta.data[:, None]

    def backward(g: Array) -> None:
        # a [C, N] copy in g's memory order, so the sums over N run as
        # they would over g
        dx = _bn_backward(g.T.copy(order="K"), xhat, std, p, training,
                          x.requires_grad)
        if dx is not None:
            x._accumulate(dx.T)

    return apply_op(out.T, (x, p.gamma, p.beta), backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the backward mask is built in backward, so eval skips it."""

    def backward(g: Array) -> None:
        x._accumulate(g * (x.data > 0))

    return apply_op(np.maximum(x.data, 0), (x,), backward)


def bn_relu_gate(x: Tensor, bn: BatchNormParams, gates: Tensor | None,
                 training: bool) -> Tensor:
    """A conv's epilogue as one op over (x, gamma, beta[, gates]): batchnorm
    of x [N, C, H, W] over (N, H, W), relu, then each (sample, channel) map
    times its gate in gates [N, C]; no multiply when gates is None. The
    output is channel-major (module docstring)."""
    if x.ndim != 4:
        raise ValueError(f"bn_relu_gate expects 4-D input, got {x.shape}")
    n, c = x.shape[:2]
    if c != bn.channels:
        raise ValueError(
            f"batchnorm channel mismatch: input has {c}, params have {bn.channels}"
        )
    if gates is not None and gates.shape != (n, c):
        raise ValueError(f"gates {gates.shape} do not match input {x.shape}")
    xhat, std = _bn_normalize(x.data.transpose(1, 2, 3, 0), bn, training)
    cshape = (c, 1, 1, 1)
    gamma = bn.gamma.data.reshape(cshape)
    # with no graph to keep xhat and r for the backward, the rest runs in
    # xhat's buffer
    graph = recording()
    r = gamma * xhat if graph else np.multiply(xhat, gamma, out=xhat)
    r += bn.beta.data.reshape(cshape)
    np.maximum(r, 0, out=r)
    gt = None if gates is None else gates.data.T[:, None, None, :]
    if gt is None:
        out = r
    else:
        out = r * gt if graph else np.multiply(r, gt, out=r)

    def backward(g: Array) -> None:
        gy = g.transpose(1, 2, 3, 0)
        dy = np.sign(r)  # the relu mask, exactly 0 or 1
        dy *= gy
        if gt is not None:
            gates._accumulate(np.einsum("chwn,chwn->nc", gy, r))
            dy *= gt
        # [C, M] views (copies unless x is channel-major)
        m = dy.size // c
        dx = _bn_backward(dy.reshape(c, m), xhat.reshape(c, m), std, bn,
                          training, x.requires_grad)
        if dx is not None:
            x._accumulate(dx.reshape(dy.shape).transpose(3, 0, 1, 2))

    parents = (x, bn.gamma, bn.beta) + (() if gates is None else (gates,))
    return apply_op(out.transpose(3, 0, 1, 2), parents, backward)


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
    """Non-overlapping average pooling; spatial dims must divide evenly.

    One graph node. The forward sums each window row left to right, adds
    the row sums top to bottom and divides by window**2 (see the module
    docstring); the backward writes g / window**2 into each of the
    window**2 strided slices of x's gradient."""
    if x.ndim != 4:
        raise ValueError(f"avg_pool2d expects 4-D input, got {x.shape}")
    _, _, h, w = x.shape
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if h % window or w % window:
        raise ValueError(
            f"avg_pool2d window {window} does not divide spatial dims {h}x{w}"
        )
    k = window
    d = x.data

    def row_sum(i: int) -> Array:
        s = d[:, :, i::k, 0::k].copy(order="K")
        for j in range(1, k):
            s += d[:, :, i::k, j::k]
        return s

    out = row_sum(0)
    for i in range(1, k):
        out += row_sum(i)
    out /= k * k

    def backward(g: Array) -> None:
        share = g / (k * k)
        gx = np.empty_like(d)
        for i in range(k):
            for j in range(k):
                gx[:, :, i::k, j::k] = share
        x._accumulate(gx)

    return apply_op(out, (x,), backward)


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
