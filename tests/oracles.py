"""Test oracles: independent checkers that the package itself never runs.

A finite-difference gradient checker, the gradient-routing proof for the
sparsity penalty, the parameter count behind the bottleneck-head claim,
the exact loop convolution that layers.conv2d is checked against, the
masked gated conv from layers primitives, the discretizer composed from
six graph nodes that semhash_forward is checked against, and an rng
stand-in that pins every training sample to one discretizer branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gaternet.layers import Conv2dParams, batchnorm, conv2d, conv_output_hw, relu
from gaternet.model import GaterNet
from gaternet.semhash import _sat_sigmoid_data, _sat_sigmoid_grad
from gaternet.tensor import Array, Tensor, apply_op
from gaternet.train import l1_gate_penalty


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
    head_w = head_single = 0
    if model.spec.gated_filter_total > 0:
        (h, b), (_, c) = model.params["head.W1"].shape, model.params["head.W2"].shape
        head_w, head_single = (h + c) * b, h * c
    return ParamCountReport(
        backbone=backbone,
        gater=gater,
        head=head,
        probe=probe,
        total=backbone + gater + head,
        head_weight_count=head_w,
        head_single_layer_weight_count=head_single,
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
    added to the accumulator, then the bias. A scalar loop adding terms in
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
    if p.bias is not None:
        out += p.bias.data.reshape(1, c_out, 1, 1)
    return out


def masked_reference(x, p, bn, gates):
    """The masked gated conv from layers primitives, in eval mode:
    relu(bn(conv2d(x))) * g."""
    y = conv2d(Tensor(x), p)
    if bn is not None:
        y = batchnorm(y, bn, False)
    n, c = gates.shape
    return (relu(y) * Tensor(gates).reshape(n, c, 1, 1)).data
