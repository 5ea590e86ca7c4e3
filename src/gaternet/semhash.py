"""Binarizing gate scores with a straight-through gradient.

The gater head emits real scores g_pre. During training each score gets
unit Gaussian noise, then two views are formed: a soft view through a
saturating sigmoid and a hard 0/1 view by thresholding at zero. Each
sample in the batch uses one view or the other, picked by a fair coin,
and the hard view borrows the soft view's gradient so the backbone's
feedback still reaches the gater. Whichever view a row took, the gradient
that reaches g_pre is the saturating sigmoid's derivative at the noisy
score, so the whole discretizer is one autodiff op. At eval time noise
and the soft view are skipped and the hard view is always used, so
deployed gates are exactly binary and deterministic.

The saturating sigmoid is clip(1.2 * sigmoid(x) - 0.1, 0, 1). It hits
exactly 0 / 1 at x = -+ln(11) (about 2.398), which is what lets a finite
score produce an exactly-saturated soft gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gaternet.tensor import Array, Tensor, apply_op, _stable_sigmoid


def _sat_sigmoid_data(x: Array) -> Array:
    return np.clip(1.2 * _stable_sigmoid(x) - 0.1, 0.0, 1.0).astype(x.dtype, copy=False)


def _sat_sigmoid_grad(x: Array) -> Array:
    """d/dx of the saturating sigmoid: zero in the clipped regions."""
    s = _stable_sigmoid(x)
    pre = 1.2 * s - 0.1
    inside = (pre > 0.0) & (pre < 1.0)
    return (1.2 * s * (1.0 - s) * inside).astype(x.dtype, copy=False)


@dataclass
class GateBundle:
    """What one gating pass hands its callers.

    g_pre holds the gater's scores [N, c]; g_beta their hard 0/1 view (of
    the noisy scores in training); selected the [N, c] gates the backbone
    actually consumes. In eval selected is g_beta.
    """

    g_pre: Tensor
    g_beta: Tensor
    selected: Tensor


def semhash_forward(
    g_pre: Tensor,
    training: bool,
    rng: np.random.Generator | None = None,
) -> GateBundle:
    """Discretize gate scores [N, c] into a GateBundle.

    Training draws standard-normal noise of g_pre's shape, then one coin
    per row (hard view where coin < 0.5), from rng, which GaterNet.forward
    passes from the training step. selected is
    one graph node over g_pre whose backward is the straight-through
    g * sat'(noisy score), computed only when backward runs.
    """
    if g_pre.ndim != 2:
        raise ValueError(f"g_pre must be [N, c], got shape {g_pre.shape}")
    if training:
        g_noisy = g_pre.data + rng.standard_normal(g_pre.shape, dtype=g_pre.dtype)
        hard = (g_noisy > 0).astype(g_pre.dtype)
        use_hard = rng.random(g_pre.shape[0]) < 0.5
        mask = use_hard[:, None].astype(g_pre.dtype)
        out = hard * mask + _sat_sigmoid_data(g_noisy) * (1.0 - mask)
    else:
        g_noisy = g_pre.data
        out = hard = (g_noisy > 0).astype(g_pre.dtype)

    def backward(g: Array) -> None:
        g_pre._accumulate(g * _sat_sigmoid_grad(g_noisy))

    selected = apply_op(out, (g_pre,), backward)
    g_beta = Tensor(hard) if training else selected
    return GateBundle(g_pre=g_pre, g_beta=g_beta, selected=selected)


def gate_dropout(
    selected: Tensor, rate: float, rng: np.random.Generator
) -> Tensor:
    """Zero each gate independently with the given probability.

    No 1/(1-rate) rescaling: gates must stay exactly binary, and the
    backbone sees a genuine off gate rather than a scaled one. Training-time
    only, with 0 < rate < 1: GaterNet.forward calls it only for a rate above
    0, and TrainConfig bounds the schedule below 1.
    """
    keep = (rng.random(selected.shape) >= rate).astype(selected.dtype)
    return selected * Tensor(keep)
