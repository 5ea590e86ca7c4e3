"""Test oracles: independent checkers that the package itself never runs.

A finite-difference gradient checker, the gradient-routing proof for the
sparsity penalty, the parameter count behind the bottleneck-head claim,
the exact loop convolution that layers.conv2d is checked against, the
16-sample blocked eval convolution whose bytes conv2d's patch budget
keeps, the filters' gradient in the GEMM orientation conv2d's backward
used before, the reshape-mean average pool that layers.avg_pool2d is
checked against, the conv epilogue composed of batchnorm, relu and a
broadcast gate multiply that layers.bn_relu_gate is checked against, the
masked gated conv built on it, the discretizer composed from six graph
nodes that semhash_forward is checked against, an rng stand-in that pins
every training sample to one discretizer branch, the thin-SVD PCA that
pca_reduce is checked against, the quoting csv.writer form that
persist.write_csv's row templates are checked against, and the restore
of a finished phase's model from its checkpoint (run_phase returns
none)."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gaternet.analyze import PCAResult
from gaternet.layers import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNormParams,
    Conv2dParams,
    _extract_patches,
    conv2d,
    conv_output_hw,
    relu,
)
from gaternet.model import GaterNet, ModelSpec
from gaternet.semhash import _sat_sigmoid_data, _sat_sigmoid_grad
from gaternet.tensor import Array, Tensor, apply_op
from gaternet.train import PhaseResult, l1_gate_penalty, restore


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-3,
    exclude: Array | None = None,
) -> float:
    """Max relative error between backward() and central differences.

    f must map a Tensor to a scalar Tensor and be deterministic; it is run
    twice and rejected if the outputs differ. Relative error per coordinate
    is |analytic - fd| / max(1, |fd|). Coordinates where exclude is True
    are skipped (the caller's kink policy: stay away from relu and
    saturating-sigmoid breakpoints, where one-sided derivatives disagree).

    For tight tolerances pass x in float64; float32 forward noise swamps
    central differences near their optimum.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    leaf = Tensor(x.data.copy(), requires_grad=True)
    y1 = f(leaf)
    y2 = f(Tensor(x.data.copy(), requires_grad=True))
    if not np.array_equal(y1.data, y2.data):
        raise ValueError("f is not deterministic: two runs disagree")
    if y1.data.size != 1:
        raise ValueError(f"f must return a scalar, got shape {y1.shape}")
    y1.backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

    flat = x.data.reshape(-1)
    excl = None if exclude is None else np.asarray(exclude).reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        if excl is not None and excl[i]:
            continue
        bump = np.zeros_like(flat)
        bump[i] = eps
        plus = f(Tensor((flat + bump).reshape(x.shape))).item()
        minus = f(Tensor((flat - bump).reshape(x.shape))).item()
        fd = (plus - minus) / (2.0 * eps)
        err = abs(float(analytic.reshape(-1)[i]) - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
    return worst


@dataclass
class RoutingReport:
    """What the sparsity penalty's gradient actually reaches."""

    backbone_reached: list[str]
    max_backbone_grad: float
    head_w2_grad_nonzero: bool
    gater_reached: list[str]


def _ancestor_leaves(node: Tensor) -> set[int]:
    seen: set[int] = set()
    stack = [node]
    leaves: set[int] = set()
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if not t._parents:
            leaves.add(id(t))
        stack.extend(t._parents)
    return leaves


def gradient_routing_check(
    model: GaterNet, x: Array, labels, lambda_: float = 0.1, seed: int = 0
) -> RoutingReport:
    """Prove the gate penalty cannot steer the backbone.

    Symbolic: the penalty node's ancestor set contains no backbone
    parameter. Numeric: backward on the penalty alone leaves every
    backbone gradient at exactly zero (None counts as zero).
    """
    rng = np.random.default_rng(seed)
    _, bundle = model.forward(Tensor(x), training=True, rng=rng)
    penalty = l1_gate_penalty(bundle.selected, lambda_)
    leaves = _ancestor_leaves(penalty)

    backbone_reached = [
        name for name, t in model.params.items()
        if name.startswith("backbone.") and id(t) in leaves
    ]
    gater_reached = [
        name for name, t in model.params.items()
        if (name.startswith("gater.") or name.startswith("head.")) and id(t) in leaves
    ]
    for t in model.params.values():
        t.zero_grad()
    penalty.backward()
    max_backbone = 0.0
    for name, t in model.params.items():
        if name.startswith("backbone.") and t.grad is not None:
            max_backbone = max(max_backbone, float(np.abs(t.grad).max()))
    w2 = model.params.get("head.W2")
    w2_nonzero = bool(w2 is not None and w2.grad is not None and np.any(w2.grad != 0))
    for t in model.params.values():
        t.zero_grad()
    return RoutingReport(
        backbone_reached=backbone_reached,
        max_backbone_grad=max_backbone,
        head_w2_grad_nonzero=w2_nonzero,
        gater_reached=gater_reached,
    )


@dataclass(frozen=True)
class ParamCountReport:
    backbone: int
    gater: int
    head: int
    probe: int
    total: int
    head_weight_count: int
    head_single_layer_weight_count: int


def param_count(model: GaterNet) -> ParamCountReport:
    def count(prefix: str) -> int:
        return sum(
            t.data.size for k, t in model.params.items()
            if k.startswith(prefix + ".")
        )

    backbone, gater, head, probe = (
        count("backbone"), count("gater"), count("head"), count("probe")
    )
    # Head weights without biases and batchnorm, (h + c) * b, against
    # the h * c a direct h -> c layer would cost.
    (h, b), (_, c) = model.params["head.W1"].shape, model.params["head.W2"].shape
    return ParamCountReport(
        backbone=backbone,
        gater=gater,
        head=head,
        probe=probe,
        total=backbone + gater + head,
        head_weight_count=(h + c) * b,
        head_single_layer_weight_count=h * c,
    )


class PinnedBranchRng:
    """Generator stand-in that sends every training sample down one branch.

    semhash_forward draws the noise with standard_normal and then the
    per-sample branch coin with random (hard branch where coin < 0.5).
    Here the noise comes from default_rng(seed), as it would from that
    generator itself, and the coin is the constant that picks branch
    ("alpha", the smooth sigmoid, or "beta", the hard indicator). Only
    for passes that draw nothing after the coin, i.e. dropout_rate 0.
    """

    def __init__(self, seed: int, branch: str):
        if branch not in ("alpha", "beta"):
            raise ValueError(f"branch must be alpha or beta, got {branch!r}")
        self._gen = np.random.default_rng(seed)
        self._coin = 1.0 if branch == "alpha" else 0.0

    def standard_normal(self, *args, **kwargs):
        return self._gen.standard_normal(*args, **kwargs)

    def random(self, size):
        return np.full(size, self._coin)


def _with_sat_sigmoid_grad(data: Array, x: Tensor) -> Tensor:
    """An op over x with forward value data and the saturating sigmoid's
    gradient at x."""

    def backward(g: Array) -> None:
        x._accumulate(g * _sat_sigmoid_grad(x.data))

    return apply_op(data, (x,), backward)


def semhash_reference(g_pre: Tensor, rng) -> Tensor:
    """The training discretizer's selected gates as six graph nodes: noise
    add, saturating sigmoid, hard gate (whose gradient is the saturating
    sigmoid's), two branch-mask products and their sum. It makes the same
    draws in the same order as semhash_forward (noise, then one coin per
    row, hard view where coin < 0.5). Autodiff routes the upstream
    gradient through both views and sums them, where semhash_forward
    writes the straight-through gradient in closed form."""
    noise = rng.standard_normal(g_pre.shape, dtype=g_pre.dtype)
    g_noisy = g_pre + Tensor(noise)
    g_alpha = _with_sat_sigmoid_grad(_sat_sigmoid_data(g_noisy.data), g_noisy)
    g_beta = _with_sat_sigmoid_grad((g_noisy.data > 0).astype(g_pre.dtype), g_noisy)
    use_beta = rng.random(g_pre.shape[0]) < 0.5
    mask = use_beta[:, None].astype(g_pre.dtype)
    return g_beta * mask + g_alpha * (1.0 - mask)


def loop_conv2d(x: Array, p: Conv2dParams) -> Array:
    """The exact reference convolution over [N, C, H, W] input: for each
    (ic, ki, kj) in that order, one product with every output position,
    added to the accumulator. A scalar loop adding terms in
    the same order gives the same float32 bits, and each (sample, output
    channel) map is computed independently of every other one."""
    oh, ow = conv_output_hw(x.shape, p)
    n, c_in = x.shape[:2]
    c_out, _, kh, kw = p.filters.shape
    s, pad = p.stride, p.padding
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    wdat = p.filters.data
    out = np.zeros((n, c_out, oh, ow), dtype=x.dtype)
    tmp = np.empty_like(out)
    for ic in range(c_in):
        for ki in range(kh):
            for kj in range(kw):
                window = xp[:, ic, ki : ki + s * oh : s, kj : kj + s * ow : s]
                np.multiply(
                    wdat[:, ic, ki, kj].reshape(1, c_out, 1, 1),
                    window[:, None, :, :],
                    out=tmp,
                )
                out += tmp
    return out


def blocked_conv2d(x: Array, p: Conv2dParams, block: int = 16) -> Array:
    """conv2d's eval forward before the patch budget: one im2col GEMM per
    block of at most block samples, into a [c_out, oh, ow, N] array seen
    as NCHW."""
    oh, ow = conv_output_hw(x.shape, p)
    n = x.shape[0]
    c_out, _, kh, kw = p.filters.shape
    w_flat = p.filters.data.reshape(c_out, -1)
    out = np.empty((c_out, oh, ow, n), dtype=x.dtype)
    for lo in range(0, n, block):
        xb = x[lo : lo + block]
        patches = _extract_patches(xb, kh, kw, p.stride, p.padding, oh, ow)
        out[..., lo : lo + len(xb)] = (w_flat @ patches).reshape(c_out, oh, ow, len(xb))
    return out.transpose(3, 0, 1, 2)


def conv_weight_grad_reference(x: Array, p: Conv2dParams, g: Array) -> Array:
    """d(sum(conv2d(x, p) * g)) / d(filters) as one GEMM g_flat @ patches.T
    over conv2d's own im2col patches: [c_out, oh*ow*N] times
    [oh*ow*N, C*kh*kw], the orientation conv2d's backward used before it
    put the patch matrix on the left."""
    oh, ow = conv_output_hw(x.shape, p)
    c_out, c_in, kh, kw = p.filters.shape
    patches = _extract_patches(x, kh, kw, p.stride, p.padding, oh, ow)
    g_flat = g.transpose(1, 2, 3, 0).reshape(c_out, -1)
    return (g_flat @ patches.T).reshape(c_out, c_in, kh, kw)


def avg_pool_reference(x: Tensor, window: int) -> Tensor:
    """Non-overlapping average pooling as two graph nodes: a reshape to
    [N, C, H/window, window, W/window, window] and numpy's mean over the
    two window axes, whose backward autodiff builds from the mean's and
    the reshape's."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // window, window, w // window, window).mean(axis=(3, 5))


def gate_reference(y: Tensor, gates: Tensor) -> Tensor:
    """y [N, C, H, W] times gates [N, C] as two graph nodes: a reshape of
    the gates to [N, C, 1, 1] and a broadcast multiply, whose gates'
    gradient autodiff sums over (H, W) of the NCHW product."""
    n, c = gates.shape
    return y * gates.reshape(n, c, 1, 1)


def batchnorm_reference(x: Tensor, p: BatchNormParams, training: bool) -> Tensor:
    """Batchnorm of x [N, C, H, W] over (N, H, W) as one graph node, the
    form layers.batchnorm had before a conv's batchnorm moved into
    bn_relu_gate: the same forward expressions, and Ioffe & Szegedy's
    backward written with means of g * gamma, which bn_relu_gate does not
    use. Training updates p's running statistics."""
    axes, pshape = (0, 2, 3), (1, p.channels, 1, 1)
    if training:
        mu = x.data.mean(axis=axes, keepdims=True)
        diff = x.data - mu
        var = (diff * diff).mean(axis=axes, keepdims=True)
        m = BN_MOMENTUM
        p.running_mean[...] = m * p.running_mean + (1.0 - m) * mu.reshape(-1)
        p.running_var[...] = m * p.running_var + (1.0 - m) * var.reshape(-1)
    else:
        mu = p.running_mean.reshape(pshape).astype(x.dtype, copy=False)
        var = p.running_var.reshape(pshape).astype(x.dtype, copy=False)
    std = np.sqrt(var + BN_EPS)
    xhat = (x.data - mu) / std
    gamma = p.gamma.data.reshape(pshape)
    out = gamma * xhat + p.beta.data.reshape(pshape)

    def backward(g: Array) -> None:
        p.gamma._accumulate((g * xhat).sum(axis=axes))
        p.beta._accumulate(g.sum(axis=axes))
        if x.requires_grad:
            gx = g * gamma
            if training:
                gx = (gx - gx.mean(axis=axes, keepdims=True)
                      - xhat * (gx * xhat).mean(axis=axes, keepdims=True))
            x._accumulate(gx / std)

    return apply_op(out, (x, p.gamma, p.beta), backward)


def conv_block_reference(x: Tensor, bn: BatchNormParams, gates: Tensor | None,
                         training: bool) -> Tensor:
    """layers.bn_relu_gate composed of three graph nodes (two without
    gates): batchnorm_reference, relu and gate_reference."""
    y = relu(batchnorm_reference(x, bn, training))
    return y if gates is None else gate_reference(y, gates)


def masked_reference(x, p, bn, gates):
    """The masked gated conv from reference primitives, in eval mode:
    relu(bn(conv2d(x))) * g."""
    return conv_block_reference(conv2d(Tensor(x), p), bn, Tensor(gates), False).data


def pca_svd_reference(x: Array, k: int) -> PCAResult:
    """pca_reduce by a thin SVD of the centered float64 data: the squared
    singular values are the scatter matrix's eigenvalues, and the rank cut
    is numpy.linalg.matrix_rank's default on the singular values. Same
    sign convention and ratios as pca_reduce; it raises no warning."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    xc = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(xc, full_matrices=False)
    tol = s[0] * max(n, d) * np.finfo(np.float64).eps
    components = vt[:k].copy()
    for i in range(k):
        j = int(np.abs(components[i]).argmax())
        if components[i, j] < 0:
            components[i] = -components[i]
    total_var = float((s * s).sum())
    if total_var > 0:
        ratios = (s[:k] * s[:k]) / total_var
    else:
        ratios = np.zeros(k, dtype=np.float64)
    return PCAResult(reduced=xc @ components.T, components=components,
                     explained_variance_ratio=ratios, rank=int((s > tol).sum()))


def csv_writer_reference(header, rows) -> bytes:
    """The bytes of a CSV written through csv.writer with bare-newline line
    ends: the header, then each row of values in header order. csv.writer
    quotes a field that holds a comma, a double quote or a line break, and
    writes every other value as str() (None as an empty field)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def phase_model(spec: ModelSpec, res: PhaseResult) -> GaterNet:
    """The model a finished run_phase trained, restored from the
    checkpoint it wrote last."""
    model = GaterNet(spec)
    restore(model, res.checkpoint_path)
    return model
