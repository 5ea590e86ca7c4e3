"""Gated backbone CNN plus the gater network that drives it.

A ModelSpec describes two stacks: a backbone (conv/pool/fc layers, some
conv layers flagged as gated) and a gater (conv/pool layers feeding global
average pooling). The gater's pooled features go through a bottleneck head
(FC -> batchnorm -> relu -> FC) whose output width is the total number of
gated backbone filters; one semhash op binarizes those scores (noisy
and straight-through in training, a plain threshold in eval; see
semhash) and each gated conv's post-activation channels are multiplied
by their gate.

Every conv, gated or not, in training and in eval, is one im2col GEMM
(layers.conv2d); a gated conv then multiplies each post-relu channel by
its gate, so gating picks filters and saves no FLOPs. conv_macs counts
the multiply-adds that gating multiplies by zero. An eval forward runs
under tensor.no_grad and records no graph.

The bottleneck keeps the head at (h + c) * b weights instead of the h * c
a single FC layer would need.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from gaternet.tensor import Array, Tensor, no_grad
from gaternet.layers import (
    BatchNormParams,
    Conv2dParams,
    avg_pool2d,
    batchnorm,
    conv2d,
    conv_out_size,
    fully_connected,
    global_avg_pool,
    relu,
)
from gaternet.semhash import GateBundle, gate_dropout, semhash_forward

LAYER_KINDS = ("conv", "pool", "fc")


@dataclass(frozen=True)
class LayerSpec:
    """One backbone or gater layer.

    conv layers are conv -> (batchnorm) -> relu, with a bias only when
    batchnorm is off. pool is non-overlapping average pooling. fc layers
    flatten on entry if needed; every fc except the backbone's last gets a
    relu.
    """

    kind: str
    filters: int = 0
    kernel: int = 3
    stride: int = 1
    padding: int = 1
    gated: bool = False
    batchnorm: bool = True
    window: int = 2
    width: int = 0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}, expected {LAYER_KINDS}")
        if self.kind == "conv":
            if self.filters < 1:
                raise ValueError(f"conv layer needs filters >= 1, got {self.filters}")
            if self.kernel < 1 or self.stride < 1 or self.padding < 0:
                raise ValueError(
                    f"bad conv geometry: kernel={self.kernel}, stride={self.stride}, "
                    f"padding={self.padding}"
                )
        elif self.kind == "pool":
            if self.window < 1:
                raise ValueError(f"pool window must be >= 1, got {self.window}")
            if self.gated:
                raise ValueError("only conv layers can be gated")
        elif self.kind == "fc":
            if self.width < 1:
                raise ValueError(f"fc layer needs width >= 1, got {self.width}")
            if self.gated:
                raise ValueError("only conv layers can be gated")


@dataclass(frozen=True)
class ModelSpec:
    """Complete architecture description; hashable source of truth."""

    input_shape: tuple[int, int, int]
    num_classes: int
    backbone: tuple[LayerSpec, ...]
    gater: tuple[LayerSpec, ...]
    bottleneck: int

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "backbone", tuple(self.backbone))
        object.__setattr__(self, "gater", tuple(self.gater))
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ValueError(f"input_shape must be 3 positive dims, got {self.input_shape}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.bottleneck < 1:
            raise ValueError(f"bottleneck must be >= 1, got {self.bottleneck}")
        if not self.backbone:
            raise ValueError("backbone must have at least one layer")
        if any(l.gated for l in self.gater):
            raise ValueError("gater layers cannot be gated")
        if any(l.kind == "fc" for l in self.gater):
            raise ValueError("gater stack is conv/pool only")

    @property
    def gated_filter_total(self) -> int:
        """c: how many backbone filters receive a gate."""
        return sum(l.filters for l in self.backbone if l.kind == "conv" and l.gated)

    @property
    def feature_size(self) -> int:
        """h: gater feature width after global average pooling."""
        convs = [l for l in self.gater if l.kind == "conv"]
        return convs[-1].filters if convs else 0


@dataclass(frozen=True)
class GateIndexMap:
    """Bijection between flat gate indices and (backbone layer, filter)."""

    layer_ids: Array
    filter_ids: Array
    slices: dict[int, tuple[int, int]]

    @property
    def total(self) -> int:
        return len(self.layer_ids)


def build_gate_map(spec: ModelSpec) -> GateIndexMap:
    layer_ids: list[int] = []
    filter_ids: list[int] = []
    slices: dict[int, tuple[int, int]] = {}
    for i, layer in enumerate(spec.backbone):
        if layer.kind == "conv" and layer.gated:
            lo = len(layer_ids)
            layer_ids.extend([i] * layer.filters)
            filter_ids.extend(range(layer.filters))
            slices[i] = (lo, lo + layer.filters)
    return GateIndexMap(
        layer_ids=np.asarray(layer_ids, dtype=np.int64),
        filter_ids=np.asarray(filter_ids, dtype=np.int64),
        slices=slices,
    )


def trace_shapes(layers: tuple[LayerSpec, ...], input_shape, num_classes=None):
    """Walk a stack, validating geometry; returns (entry shapes, final shape).

    Entry shapes are (C, H, W) tuples, or ("flat", width) once flattened.
    Raises ValueError naming the offending layer on mismatch.
    """
    shape = tuple(input_shape)
    entries = []
    for i, layer in enumerate(layers):
        entries.append(shape)
        if layer.kind == "conv":
            if len(shape) != 3:
                raise ValueError(f"layer {i}: conv after flatten is not supported")
            c, h, w = shape
            oh = conv_out_size(h, layer.kernel, layer.stride, layer.padding)
            ow = conv_out_size(w, layer.kernel, layer.stride, layer.padding)
            if oh < 1 or ow < 1:
                raise ValueError(
                    f"layer {i}: conv kernel {layer.kernel} does not fit {h}x{w}"
                )
            shape = (layer.filters, oh, ow)
        elif layer.kind == "pool":
            if len(shape) != 3:
                raise ValueError(f"layer {i}: pool after flatten is not supported")
            c, h, w = shape
            if h % layer.window or w % layer.window:
                raise ValueError(
                    f"layer {i}: pool window {layer.window} does not divide {h}x{w}"
                )
            shape = (c, h // layer.window, w // layer.window)
        else:
            width = int(np.prod(shape)) if len(shape) == 3 else shape[1]
            shape = ("flat", layer.width)
            entries[-1] = ("flat_in", width)
    if num_classes is not None:
        if not layers or layers[-1].kind != "fc" or layers[-1].width != num_classes:
            raise ValueError(
                f"backbone must end in an fc layer of width {num_classes}"
            )
    return entries, shape


def validate_spec(spec: ModelSpec) -> None:
    trace_shapes(spec.backbone, spec.input_shape, spec.num_classes)
    if spec.gated_filter_total > 0 and spec.feature_size < 1:
        raise ValueError("gated layers need a gater with at least one conv")
    trace_shapes(spec.gater, spec.input_shape)


def spec_to_dict(spec: ModelSpec) -> dict:
    """JSON-ready form; round-trips through spec_from_dict losslessly."""
    return {
        "input_shape": list(spec.input_shape),
        "num_classes": spec.num_classes,
        "backbone": [asdict(l) for l in spec.backbone],
        "gater": [asdict(l) for l in spec.gater],
        "bottleneck": spec.bottleneck,
    }


def spec_from_dict(d: dict) -> ModelSpec:
    return ModelSpec(
        input_shape=tuple(d["input_shape"]),
        num_classes=int(d["num_classes"]),
        backbone=tuple(LayerSpec(**l) for l in d["backbone"]),
        gater=tuple(LayerSpec(**l) for l in d["gater"]),
        bottleneck=int(d["bottleneck"]),
    )


def init_params(
    spec: ModelSpec,
    rng: np.random.Generator,
    include_probe: bool = False,
) -> tuple[dict[str, Tensor], dict[str, Array]]:
    """Allocate every trainable tensor and batchnorm buffer.

    Draw order is fixed (backbone, gater, head, probe) so a seed pins the
    full initialization. Conv and hidden fc weights use He scaling; the
    classifier and head use 1/sqrt(fan_in); the head's output bias starts
    at +1 so training begins with most gates on.
    """
    params: dict[str, Tensor] = {}
    buffers: dict[str, Array] = {}

    def normal(shape, std):
        return Tensor(
            rng.standard_normal(shape, dtype=np.float32) * np.float32(std),
            requires_grad=True,
        )

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)

    def add_bn(prefix: str, channels: int):
        params[f"{prefix}.gamma"] = Tensor(
            np.ones(channels, dtype=np.float32), requires_grad=True
        )
        params[f"{prefix}.beta"] = zeros(channels)
        buffers[f"{prefix}.running_mean"] = np.zeros(channels, dtype=np.float32)
        buffers[f"{prefix}.running_var"] = np.ones(channels, dtype=np.float32)

    def add_stack(prefix: str, layers, input_shape, final_is_classifier: bool):
        entries, _ = trace_shapes(layers, input_shape)
        for i, layer in enumerate(layers):
            if layer.kind == "conv":
                c_in = entries[i][0]
                fan_in = c_in * layer.kernel * layer.kernel
                params[f"{prefix}.{i}.filters"] = normal(
                    (layer.filters, c_in, layer.kernel, layer.kernel),
                    np.sqrt(2.0 / fan_in),
                )
                if layer.batchnorm:
                    add_bn(f"{prefix}.{i}.bn", layer.filters)
                else:
                    params[f"{prefix}.{i}.bias"] = zeros(layer.filters)
            elif layer.kind == "fc":
                fan_in = entries[i][1]
                last = final_is_classifier and i == len(layers) - 1
                std = (1.0 if last else np.sqrt(2.0)) / np.sqrt(fan_in)
                params[f"{prefix}.{i}.W"] = normal((fan_in, layer.width), std)
                params[f"{prefix}.{i}.b"] = zeros(layer.width)

    add_stack("backbone", spec.backbone, spec.input_shape, True)
    if spec.gater:
        add_stack("gater", spec.gater, spec.input_shape, False)

    h, c, b = spec.feature_size, spec.gated_filter_total, spec.bottleneck
    if c > 0:
        params["head.W1"] = normal((h, b), 1.0 / np.sqrt(h))
        params["head.b1"] = zeros(b)
        add_bn("head.bn", b)
        params["head.W2"] = normal((b, c), 1.0 / np.sqrt(b))
        params["head.b2"] = Tensor(np.ones(c, dtype=np.float32), requires_grad=True)
    if include_probe:
        if h < 1:
            raise ValueError("probe needs a gater with at least one conv")
        params["probe.W"] = normal((h, spec.num_classes), 1.0 / np.sqrt(h))
        params["probe.b"] = zeros(spec.num_classes)
    return params, buffers


def gated_conv_forward(
    x: Tensor,
    p: Conv2dParams,
    bn: BatchNormParams | None,
    gates: Tensor | None,
    training: bool,
) -> Tensor:
    """conv -> (batchnorm) -> relu, then per-channel gate multiply.

    gates is [N, out_channels], or None for an ungated conv; binary gates
    switch channels fully on or off, soft gates (the training-time alpha
    branch) scale them. The conv is conv2d in both modes, so the result is
    relu(bn(conv2d(x))) * gates bit for bit, a gated-off channel is
    exactly 0, and an all-on gate row reproduces the ungated layer bit for
    bit because multiplying by 1.0 is exact.
    """
    if gates is not None:
        n, ch = gates.shape
        if ch != p.out_channels:
            raise ValueError(
                f"gate width {ch} does not match conv out_channels {p.out_channels}"
            )
        if x.shape[0] != n:
            raise ValueError(f"gate batch {n} does not match input batch {x.shape[0]}")
    y = conv2d(x, p)
    if bn is not None:
        y = batchnorm(y, bn, training)
    y = relu(y)
    return y if gates is None else y * gates.reshape(n, ch, 1, 1)


def conv_macs(spec: ModelSpec, gates: Array) -> tuple[int, int]:
    """Conv MACs of a gated forward over len(gates) samples (gater and
    backbone), and how many of them gating multiplies by zero.

    gates is the [N, c] binary eval gate matrix. A backbone (sample, out,
    in) triple is off when its gate is 0 or its input channel is not live;
    each triple costs kernel^2 x output-map MACs. Every conv
    still computes its off triples, so the second number is a count, not
    a measured saving.
    """
    n = len(gates)
    gate_map = build_gate_map(spec)
    total = off = 0
    for layers in (spec.backbone, spec.gater):
        entries, _ = trace_shapes(layers, spec.input_shape)
        live = None
        for i, layer in enumerate(layers):
            g = None
            if layer.kind == "conv":
                c_in, h, w = entries[i]
                oh = conv_out_size(h, layer.kernel, layer.stride, layer.padding)
                ow = conv_out_size(w, layer.kernel, layer.stride, layer.padding)
                triple = layer.kernel * layer.kernel * oh * ow
                dense = n * layer.filters * c_in
                total += dense * triple
                if layer.gated:
                    lo, hi = gate_map.slices[i]
                    g = gates[:, lo:hi]
                    live_in = c_in if live is None else np.count_nonzero(live, axis=1)
                    on = int((np.count_nonzero(g, axis=1) * live_in).sum())
                    off += (dense - on) * triple
            # Live input channels of the next layer: a gated conv's gates
            # ([N, filters], 0 = switched off), kept through pools, cleared
            # (None, all live) by an ungated conv or an fc.
            if layer.kind != "pool":
                live = g
    return total, off


class GaterNet:
    """The gated backbone and its gater, bound to one parameter set.

    params maps dotted names to trainable Tensors; buffers holds batchnorm
    running statistics. Both are flat dicts so checkpoints, optimizers and
    phase-wise parameter selection all work by name prefix. Forward passes
    are pure (apart from batchnorm's running-stat updates in training
    mode); evaluation during training should use the same instance only
    from the training thread, or a loaded snapshot elsewhere.
    """

    def __init__(
        self,
        spec: ModelSpec,
        seed: int = 0,
        include_probe: bool = False,
    ):
        validate_spec(spec)
        self.spec = spec
        self.gate_map = build_gate_map(spec)
        rng = np.random.default_rng(seed)
        self.params, self.buffers = init_params(spec, rng, include_probe)
        self.probe = None
        if include_probe:
            self.probe = (self.params["probe.W"], self.params["probe.b"])

    def _bn(self, name: str) -> BatchNormParams:
        return BatchNormParams(
            gamma=self.params[f"{name}.gamma"],
            beta=self.params[f"{name}.beta"],
            running_mean=self.buffers[f"{name}.running_mean"],
            running_var=self.buffers[f"{name}.running_var"],
        )

    # -- forward passes -------------------------------------------------------

    def _run_stack(
        self,
        prefix: str,
        layers: tuple[LayerSpec, ...],
        x: Tensor,
        training: bool,
        selected: Tensor | None = None,
    ) -> Tensor:
        """Walk one stack, reading each layer's parameters by name.

        selected holds every gate of the backbone ([N, c]); gated convs take
        their slice of it, and without it they run ungated.
        """
        h = x
        for i, layer in enumerate(layers):
            name = f"{prefix}.{i}"
            if layer.kind == "conv":
                conv = Conv2dParams(
                    filters=self.params[f"{name}.filters"],
                    bias=self.params.get(f"{name}.bias"),
                    stride=layer.stride,
                    padding=layer.padding,
                )
                bn = self._bn(f"{name}.bn") if layer.batchnorm else None
                gates = None
                if layer.gated and selected is not None:
                    lo, hi = self.gate_map.slices[i]
                    gates = selected[:, lo:hi]
                h = gated_conv_forward(h, conv, bn, gates, training)
            elif layer.kind == "pool":
                h = avg_pool2d(h, layer.window)
            else:
                w = self.params[f"{name}.W"]
                if h.ndim == 4:
                    h = h.reshape(h.shape[0], w.shape[0])
                h = fully_connected(h, w, self.params[f"{name}.b"])
                if i < len(layers) - 1:
                    h = relu(h)
        return h

    def gater_features(self, x: Tensor, training: bool) -> Tensor:
        """Gater conv stack then global average pooling: [N, h]."""
        if not self.spec.gater:
            raise ValueError("this spec has no gater stack")
        return global_avg_pool(self._run_stack("gater", self.spec.gater, x, training))

    def gater_head(self, f: Tensor, training: bool) -> Tensor:
        """Bottleneck head mapping pooled features [N, h] to scores [N, c]:
        W2 @ relu(batchnorm(W1 @ f + b1)) + b2."""
        if self.spec.gated_filter_total == 0:
            raise ValueError("this spec has no gated filters, so no head")
        p = self.params
        z = fully_connected(f, p["head.W1"], p["head.b1"])
        z = relu(batchnorm(z, self._bn("head.bn"), training))
        return fully_connected(z, p["head.W2"], p["head.b2"])

    def forward_backbone(self, x: Tensor, training: bool) -> Tensor:
        """Plain ungated backbone pass (every gate effectively 1)."""
        return self._run_stack("backbone", self.spec.backbone, x, training)

    def forward_probe(self, x: Tensor, training: bool) -> Tensor:
        """Gater features through the temporary pretraining classifier."""
        if self.probe is None:
            raise ValueError("model was built without a probe head")
        return fully_connected(self.gater_features(x, training), *self.probe)

    def forward(
        self,
        x: Tensor,
        training: bool,
        rng: np.random.Generator | None = None,
        dropout_rate: float = 0.0,
    ) -> tuple[Tensor, GateBundle]:
        """Full gated pass; returns logits and the gate bundle.

        A spec with no gated layers degrades to the plain backbone (the
        bundle is empty with width 0). dropout_rate only applies in
        training mode, after branch selection, so binary gates stay binary.
        An eval pass runs under no_grad and records no graph.
        """
        n = x.shape[0]
        with nullcontext() if training else no_grad():
            if self.spec.gated_filter_total == 0:
                empty = Tensor(np.zeros((n, 0), dtype=x.dtype))
                bundle = semhash_forward(empty, training, rng)
                return self._run_stack("backbone", self.spec.backbone, x, training), bundle
            f = self.gater_features(x, training)
            g_pre = self.gater_head(f, training)
            bundle = semhash_forward(g_pre, training, rng)
            selected = bundle.selected
            if training and dropout_rate > 0.0:
                selected = gate_dropout(selected, dropout_rate, rng)
            logits = self._run_stack("backbone", self.spec.backbone, x, training, selected)
        return logits, bundle

    # -- bookkeeping ----------------------------------------------------------

    def trainable(self, prefixes: tuple[str, ...] | None = None) -> dict[str, Tensor]:
        if prefixes is None:
            return dict(self.params)
        return {
            k: v for k, v in self.params.items()
            if any(k.startswith(p + ".") or k == p for p in prefixes)
        }
