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

Two cores. A training step runs the largest pieces of its work in two
fixed halves (_in_halves): the first on one worker thread, the second on
the calling thread; numpy releases the GIL inside GEMMs, copies and
ufuncs, so the halves overlap. conv2d's training im2col and forward GEMM
split by output rows, its filters' gradient by patch-matrix rows, then
its input gradient and col2im by input channels; bn_relu_gate's
elementwise forward passes after the normalize, and its whole backward,
split by channels. The batch mean and variance keep their whole-array
reductions, so they keep their bits. A conv or epilogue that records no
graph never splits; instead GaterNet's stack walk runs an eval batch of
more than 32 samples as two halves of samples through _in_halves, each
half the stack's layers up to its first fc under its own no_grad. The
pool has exactly one worker. It starts at the first split, never on
import. Where the process's CPU affinity holds one CPU there is no
worker, and both halves run on the calling thread, one after the other.
The split points depend only on shapes, so the output bytes do not depend
on the number of CPUs. Work splits only where each half is big enough to
repay the hand-off (SPLIT_MIN_MACS, SPLIT_MIN_ELEMENTS), and a GEMM half
that big sums as the whole product does, so the bytes are also those of
the unsplit kernels. Every large buffer a half writes is allocated before
the split: where the halves allocated their own, the order of two
threads' allocations changed the heap's layout, and a training run's peak
RSS varied by up to 4 MB from run to run. See BENCH_30.json (training)
and BENCH_31.json (eval) for the measured gains.

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

import contextvars
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from gaternet.tensor import Array, Tensor, apply_op, recording, _stable_sigmoid

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor


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


# Where the forward keeps no patches (eval, or filters that need no
# gradient), it builds at most this many im2col elements at once, over
# blocks of whole samples: the patch matrix is kh*kw times the size of its
# input and sets the process's peak memory. In synthetic_small that is
# 16-sample blocks for the 16->16 conv at 16x16 (36864 elements a sample)
# and one GEMM over a 32-sample eval half for each of the other eight
# convs, with the bytes of 16-sample blocks in every conv
# (tests/oracles.py's blocked_conv2d). On bench/run.py's eval-gated (2
# vCPUs, halves of 32), 4 alternating pairs against 2**18 elements (blocks
# of 7, 18 and 28 samples in three convs) read raw op p50s of 10.5-12.4 ms
# against 11.4-14.0 ms, and peak RSS 61.9-62.1 MB against 60.6-60.9 MB
# (57.6 MB one-threaded with 16-sample blocks in every conv): each thread's
# malloc arena keeps its own freed patch memory. A training forward builds
# full-batch patches once and keeps them for the filters' gradient.
EVAL_PATCH_ELEMENTS = 9 << 16  # 2.25 MiB of float32

# Work runs in two halves (_in_halves) only where each half is at least
# this big: SPLIT_MIN_MACS multiply-adds for a GEMM, SPLIT_MIN_ELEMENTS
# elements for an epilogue. Handing a half to the worker took 50-200 us on
# a 2-vCPU VM (more the longer the worker had slept), and at 2**20
# multiply-adds the split 4x4 convs of synthetic_small ran slower than
# whole. The GEMM bound also keeps bits: OpenBLAS runs products of up to
# about 10**6 multiply-adds in small-matrix kernels that sum in another
# order, and halves above the bound gave the whole product's bits on every
# synthetic_small shape and on 230 random conv shapes.
SPLIT_MIN_MACS = 1 << 22
SPLIT_MIN_ELEMENTS = 1 << 17

# The worker that runs the first half of _in_halves's work, started on
# first use, so that importing gaternet starts no thread; the lock keeps
# two threads that train or evaluate at once from starting two.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """A forked child's copies of the pool and its lock may belong to
    threads the child does not have."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _worker() -> ThreadPoolExecutor | None:
    """The one-thread pool, or None where this process may use one CPU."""
    global _pool
    if len(os.sched_getaffinity(0)) < 2:
        return None
    with _pool_lock:
        if _pool is None:
            # here: processes that never split work do not load it
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(1, thread_name_prefix="gaternet-half")
        return _pool


def _in_halves(f: Callable[[int, int], None], n: int, split: bool = True) -> None:
    """f(0, n // 2) on the worker thread while f(n // 2, n) runs on this
    one; f(0, n) alone here when split is False or n < 2. With one CPU both
    halves run here, one after the other: the split point depends on n
    alone, so the bytes f writes do not depend on the CPUs. The worker runs
    f in a copy of this thread's context, which holds numpy's errstate; f
    must run numpy only, or eval work under its own no_grad (no_grad is per
    thread, so a Tensor op on the worker would otherwise record a graph).
    f never splits its own work through _in_halves: there is one worker,
    so a split made on it would wait on itself."""
    mid = n // 2 if split else 0
    if mid == 0:
        f(0, n)
        return
    pool = _worker()
    if pool is None:
        f(0, mid)
        f(mid, n)
        return
    first = pool.submit(contextvars.copy_context().run, f, 0, mid)
    try:
        f(mid, n)
    finally:
        first.result()


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
    k = kh * kw
    w_flat = p.filters.data.reshape(c_out, -1)
    keep = p.filters.requires_grad and recording()
    kept = None  # the whole batch's patches, while backward may need them
    # multiply-adds of each GEMM's smaller half: the forward's over output
    # rows, the backward's over input channels
    split_fwd = (oh // 2) * ow * n * c_out * c_in * k >= SPLIT_MIN_MACS
    split_bwd = (c_in // 2) * k * c_out * oh * ow * n >= SPLIT_MIN_MACS
    # samples per patch matrix where none is kept
    block = max(1, EVAL_PATCH_ELEMENTS // (c_in * k * oh * ow))
    if keep or n <= block:
        # one GEMM over the whole batch's patches, in halves only where they
        # are kept: an eval conv may itself run in a half of _in_halves's work
        split = keep and split_fwd
        patches = _extract_patches(x.data, kh, kw, s, pad, oh, ow, split)
        if keep:
            kept = patches
        out = np.empty((c_out, oh, ow, n), dtype=np.result_type(w_flat, patches))
        out_flat = out.reshape(c_out, -1)

        def out_rows(lo: int, hi: int) -> None:
            cols = slice(lo * ow * n, hi * ow * n)
            np.matmul(w_flat, patches[:, cols], out=out_flat[:, cols])

        _in_halves(out_rows, oh, split)
    else:
        out = np.empty((c_out, oh, ow, n), dtype=x.dtype)
        for lo in range(0, n, block):
            xb = x.data[lo : lo + block]
            out[..., lo : lo + len(xb)] = (
                w_flat @ _extract_patches(xb, kh, kw, s, pad, oh, ow)
            ).reshape(c_out, oh, ow, len(xb))

    def backward(g: Array) -> None:
        nonlocal kept
        g_flat = g.transpose(1, 2, 3, 0).reshape(c_out, -1)
        if p.filters.requires_grad:
            if kept is None:
                kept = _extract_patches(x.data, kh, kw, s, pad, oh, ow, split_fwd)
            dw = np.empty((c_in * k, c_out), dtype=np.result_type(kept, g_flat))

            def filter_rows(lo: int, hi: int) -> None:
                rows = slice(lo * k, hi * k)
                np.matmul(kept[rows], g_flat.T, out=dw[rows])

            _in_halves(filter_rows, c_in, split_bwd)
            kept = None  # before the input gradient allocates its dpatch
            p.filters._accumulate(dw.T.reshape(c_out, c_in, kh, kw))
        if x.requires_grad:
            dpatch = np.empty((c_in * k, g_flat.shape[1]),
                              dtype=np.result_type(w_flat, g_flat))
            dpatch6 = dpatch.reshape(c_in, kh, kw, oh, ow, n)
            dxp = np.zeros((c_in, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)

            def input_channels(lo: int, hi: int) -> None:
                np.matmul(w_flat[:, lo * k : hi * k].T, g_flat,
                          out=dpatch[lo * k : hi * k])
                for ki in range(kh):
                    for kj in range(kw):
                        dxp[lo:hi, ki : ki + s * oh : s, kj : kj + s * ow : s] += (
                            dpatch6[lo:hi, ki, kj]
                        )

            _in_halves(input_channels, c_in, split_bwd)
            x._accumulate(dxp[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2))

    return apply_op(out.transpose(3, 0, 1, 2), (x, p.filters), backward)


def _extract_patches(
    x: Array, kh: int, kw: int, stride: int, pad: int, oh: int, ow: int,
    split: bool = False,
) -> Array:
    """im2col: [N, C, H, W] -> [C*kh*kw, oh*ow*N], rows in (c, ki, kj) order
    and columns in (i, j, n) order, one strided slice copy per kernel
    offset out of a padded [C, H, W, N] copy of x, which for a channel-major
    x reads contiguous memory. With the sample axis innermost, each slice
    copy moves runs of N contiguous values. With split, the slice copies
    run in two halves of the output rows (_in_halves)."""
    n, c, h, w = x.shape
    xt = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    xt[:, pad : pad + h, pad : pad + w] = x.transpose(1, 2, 3, 0)
    cols = np.empty((c, kh, kw, oh, ow, n), dtype=x.dtype)

    def out_rows(lo: int, hi: int) -> None:
        for ki in range(kh):
            for kj in range(kw):
                cols[:, ki, kj, lo:hi] = xt[
                    :, ki + stride * lo : ki + stride * hi : stride,
                    kj : kj + stride * ow : stride
                ]

    _in_halves(out_rows, oh, split)
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


def _bn_backward(dy: Array, xhat: Array, std: Array, gamma: Array,
                 training: bool, x_grad: bool, scratch: Array | None = None
                 ) -> tuple[Array, Array]:
    """Batchnorm's backward over [C, M] views, numpy only: returns (dgamma,
    dbeta), computed once and reused, and if x_grad turns dy, in place,
    into the input's gradient gamma/std * (dy - dbeta/M - xhat * dgamma/M)
    (the two subtractions in training only: eval statistics are constants),
    with xhat * dgamma/M in scratch when given."""
    c, m = dy.shape
    dbeta = dy.sum(axis=1)
    dgamma = np.einsum("cm,cm->c", dy, xhat)
    if x_grad:
        if training:
            dy -= (dbeta / m)[:, None]
            dy -= np.multiply(xhat, (dgamma / m)[:, None], out=scratch)
        dy *= (gamma.reshape(std.shape) / std).reshape(c, 1)
    return dgamma, dbeta


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
        dy = g.T.copy(order="K")
        dgamma, dbeta = _bn_backward(dy, xhat, std, p.gamma.data, training,
                                     x.requires_grad)
        p.gamma._accumulate(dgamma)
        p.beta._accumulate(dbeta)
        x._accumulate(dy.T)

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
    beta = bn.beta.data.reshape(cshape)
    gt = None if gates is None else gates.data.T[:, None, None, :]
    # a graph keeps xhat and r for the backward; without one the rest runs
    # in xhat's buffer, unsplit: an eval epilogue may itself run in a half
    # of _in_halves's work
    keep = recording()
    split = keep and (c // 2) * (xhat.size // c) >= SPLIT_MIN_ELEMENTS
    r = np.empty_like(xhat) if keep else xhat
    out = np.empty_like(r) if keep and gt is not None else r

    def forward_channels(lo: int, hi: int) -> None:
        rc = r[lo:hi]
        np.multiply(gamma[lo:hi], xhat[lo:hi], out=rc)
        rc += beta[lo:hi]
        np.maximum(rc, 0, out=rc)
        if gt is not None:
            np.multiply(rc, gt[lo:hi], out=out[lo:hi])

    _in_halves(forward_channels, c, split)

    def backward(g: Array) -> None:
        gy = g.transpose(1, 2, 3, 0)
        m = gy.size // c
        # [C, M]: the relu mask, then dy, then (in place) x's gradient
        dy = np.empty((c, m), dtype=r.dtype)
        dy4 = dy.reshape(gy.shape)
        xhat2 = xhat.reshape(c, m)  # a copy unless x is channel-major
        dgamma = np.empty(c, dtype=dy.dtype)
        dbeta = np.empty(c, dtype=dy.dtype)
        dgates = None if gt is None else np.empty((n, c), dtype=dy.dtype)
        # allocated here, not in the halves: two threads allocating at once
        # leave the heap's layout, and so its peak, to their timing
        scratch = np.empty_like(dy) if training and x.requires_grad else None

        def backward_channels(lo: int, hi: int) -> None:
            d = dy4[lo:hi]
            np.sign(r[lo:hi], out=d)  # the relu mask, exactly 0 or 1
            d *= gy[lo:hi]
            if gt is not None:
                dgates[:, lo:hi] = np.einsum("chwn,chwn->nc", gy[lo:hi], r[lo:hi])
                d *= gt[lo:hi]
            dgamma[lo:hi], dbeta[lo:hi] = _bn_backward(
                dy[lo:hi], xhat2[lo:hi], std[lo:hi], gamma[lo:hi], training,
                x.requires_grad, None if scratch is None else scratch[lo:hi])

        _in_halves(backward_channels, c, split)
        if gt is not None:
            gates._accumulate(dgates)
        bn.gamma._accumulate(dgamma)
        bn.beta._accumulate(dbeta)
        x._accumulate(dy4.transpose(3, 0, 1, 2))

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
