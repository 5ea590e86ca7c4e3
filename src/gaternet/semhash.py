"""Binarizing gate scores with a straight-through gradient.

The gater head emits real scores g_pre. During training each score gets
unit Gaussian noise, then two views are formed: a soft view through a
saturating sigmoid (g_alpha) and a hard 0/1 view by thresholding at zero
(g_beta). Each sample in the batch uses one view or the other, picked by a
fair coin, and the hard view borrows the soft view's gradient so the
backbone's feedback still reaches the gater. At eval time noise and the soft
view are skipped and the hard view is always used, so deployed gates are
exactly binary and deterministic.

The saturating sigmoid is clip(1.2 * sigmoid(x) - 0.1, 0, 1). It hits
exactly 0 / 1 at x = -+ln(11) (about 2.398), which is what lets a finite
score produce an exactly-saturated soft gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gaternet.tensor import Array, Tensor, apply_op, _stable_sigmoid

MODES = ("train", "eval")


def _sat_sigmoid_data(x: Array) -> Array:
    return np.clip(1.2 * _stable_sigmoid(x) - 0.1, 0.0, 1.0).astype(x.dtype, copy=False)


def _sat_sigmoid_grad(x: Array) -> Array:
    """d/dx of the saturating sigmoid: zero in the clipped regions."""
    s = _stable_sigmoid(x)
    pre = 1.2 * s - 0.1
    inside = (pre > 0.0) & (pre < 1.0)
    return (1.2 * s * (1.0 - s) * inside).astype(x.dtype, copy=False)


def saturating_sigmoid(x: Tensor) -> Tensor:
    """clip(1.2 * sigmoid(x) - 0.1, 0, 1); gradient is zero where clipped."""

    def backward(g: Array) -> None:
        x._accumulate(g * _sat_sigmoid_grad(x.data))

    return apply_op(_sat_sigmoid_data(x.data), (x,), backward)


def hard_gate(x: Tensor) -> Tensor:
    """indicator(x > 0) with the saturating sigmoid's gradient.

    The forward value is exactly 0 or 1 (strict inequality: a score of 0
    gates off). The true derivative is zero almost everywhere, so backward
    substitutes the saturating sigmoid's derivative at the same point, the
    straight-through estimate that ties the hard branch to the soft one.
    It is computed in backward, so eval passes never pay for it.
    """

    def backward(g: Array) -> None:
        x._accumulate(g * _sat_sigmoid_grad(x.data))

    return apply_op((x.data > 0).astype(x.dtype), (x,), backward)


@dataclass
class GateBundle:
    """Everything one gating pass produces.

    branch_mask[i] is True where sample i uses the hard branch (g_beta);
    in eval mode that is every sample and g_alpha is None. selected is the
    [N, c] gate tensor the backbone actually consumes.
    """

    g_pre: Tensor
    g_noisy: Tensor
    g_alpha: Tensor | None
    g_beta: Tensor
    selected: Tensor
    branch_mask: Array
    mode: str


def semhash_forward(
    g_pre: Tensor,
    mode: str,
    rng: np.random.Generator | None = None,
) -> GateBundle:
    """Discretize gate scores [N, c] into a GateBundle.

    Training needs an rng for the noise and the per-sample branch coin.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if g_pre.ndim != 2:
        raise ValueError(f"g_pre must be [N, c], got shape {g_pre.shape}")
    n = g_pre.shape[0]

    if mode == "eval":
        g_beta = hard_gate(g_pre)
        return GateBundle(
            g_pre=g_pre,
            g_noisy=g_pre,
            g_alpha=None,
            g_beta=g_beta,
            selected=g_beta,
            branch_mask=np.ones(n, dtype=bool),
            mode=mode,
        )

    if rng is None:
        raise ValueError("training mode needs an rng for noise and branch choice")
    noise = rng.standard_normal(g_pre.shape, dtype=g_pre.dtype)
    g_noisy = g_pre + Tensor(noise)
    g_alpha = saturating_sigmoid(g_noisy)
    g_beta = hard_gate(g_noisy)

    use_beta = rng.random(n) < 0.5
    mask = use_beta[:, None].astype(g_pre.dtype)
    selected = g_beta * mask + g_alpha * (1.0 - mask)
    return GateBundle(
        g_pre=g_pre,
        g_noisy=g_noisy,
        g_alpha=g_alpha,
        g_beta=g_beta,
        selected=selected,
        branch_mask=use_beta,
        mode=mode,
    )


def gate_dropout(
    selected: Tensor, rate: float, rng: np.random.Generator
) -> Tensor:
    """Zero each gate independently with the given probability.

    No 1/(1-rate) rescaling: gates must stay exactly binary, and the
    backbone sees a genuine off gate rather than a scaled one. rate 0 is
    the identity. Training-time only; callers skip this in eval.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return selected
    keep = (rng.random(selected.shape) >= rate).astype(selected.dtype)
    return selected * Tensor(keep)
