"""Gated backbone CNN plus the gater network that drives it.

A ModelSpec describes two stacks: a backbone (conv/pool/fc layers, at
least one conv layer flagged as gated) and a gater (conv/pool layers, at
least one conv, feeding global average pooling). Every conv is conv ->
batchnorm -> relu. The gater's pooled features go through a bottleneck head
(FC -> batchnorm -> relu -> FC) whose output width is the total number of
gated backbone filters; one semhash op binarizes those scores (noisy
and straight-through in training, a plain threshold in eval; see
semhash) and each gated conv's post-activation channels are multiplied
by their gate. Every model also holds the probe, a linear classifier on
the gater's pooled features that only the pretrain_gater phase trains.

Every conv, gated or not, in training and in eval, is one im2col GEMM
(layers.conv2d) followed by one epilogue op (layers.bn_relu_gate:
batchnorm, relu and, in a gated conv, each channel times its gate), so
gating picks filters and saves no FLOPs. conv_macs counts the
multiply-adds that gating multiplies by zero. An eval forward runs under
tensor.no_grad and records no graph.

Activations have NCHW shapes over channel-major [C, H, W, N] memory (see
layers); fc weights and checkpoints keep their NCHW meaning. A model too
large to allocate is a ConfigError naming ModelSpec.param_count.

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
    bn_relu_gate,
    conv2d,
    conv_out_size,
    fully_connected,
    global_avg_pool,
    relu,
)
from gaternet.semhash import GateBundle, gate_dropout, semhash_forward

LAYER_KINDS = ("conv", "pool", "fc")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class LayerSpec:
    """One backbone or gater layer.

    conv layers are conv -> batchnorm -> relu. pool is non-overlapping
    average pooling. fc layers flatten on entry if needed; every fc except
    the backbone's last gets a relu.
    """

    kind: str
    filters: int = 0
    kernel: int = 3
    stride: int = 1
    padding: int = 1
    gated: bool = False
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
    """Complete architecture description; hashable source of truth.

    A spec is valid once built: both stacks pass trace_shapes (an error
    names the stack) and the backbone ends in an fc layer of width
    num_classes.
    """

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
        if not any(l.gated for l in self.backbone):
            raise ValueError("backbone needs at least one gated conv")
        if not any(l.kind == "conv" for l in self.gater):
            raise ValueError("gater needs at least one conv")
        for name, layers in (("backbone", self.backbone), ("gater", self.gater)):
            try:
                trace_shapes(layers, self.input_shape)
            except ValueError as e:
                raise ValueError(f"{name} {e}") from None
        last = self.backbone[-1]
        if last.kind != "fc" or last.width != self.num_classes:
            raise ValueError(
                f"backbone must end in an fc layer of width {self.num_classes}"
            )

    @property
    def gated_filter_total(self) -> int:
        """c: how many backbone filters receive a gate."""
        return sum(l.filters for l in self.backbone if l.kind == "conv" and l.gated)

    @property
    def feature_size(self) -> int:
        """h: gater feature width after global average pooling."""
        return [l for l in self.gater if l.kind == "conv"][-1].filters

    @property
    def param_count(self) -> int:
        """Trainable values init_params allocates: each conv's filters and
        batchnorm gamma and beta, each fc, the head and the probe."""
        n = 0
        for layers in (self.backbone, self.gater):
            for layer, entry in zip(layers, trace_shapes(layers, self.input_shape)[0]):
                if layer.kind == "conv":
                    n += layer.filters * (entry[0] * layer.kernel**2 + 2)
                elif layer.kind == "fc":
                    n += (entry[1] + 1) * layer.width
        h, c, b = self.feature_size, self.gated_filter_total, self.bottleneck
        return n + (h + 3) * b + (b + 1) * c + (h + 1) * self.num_classes


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


def trace_shapes(layers: tuple[LayerSpec, ...], input_shape):
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
    return entries, shape


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
    spec: ModelSpec, rng: np.random.Generator,
) -> tuple[dict[str, Tensor], dict[str, Array]]:
    """Allocate every trainable tensor and batchnorm buffer.

    Draw order is fixed (backbone, gater, head, probe) so a seed pins the
    full initialization; the probe (the pretrain_gater phase's classifier
    on the gater features) is drawn last, so no other tensor's init
    depends on it. Conv and hidden fc weights use He scaling; the
    classifier, head and probe use 1/sqrt(fan_in); the head's output bias
    starts at +1 so training begins with most gates on.
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
                add_bn(f"{prefix}.{i}.bn", layer.filters)
            elif layer.kind == "fc":
                fan_in = entries[i][1]
                last = final_is_classifier and i == len(layers) - 1
                std = (1.0 if last else np.sqrt(2.0)) / np.sqrt(fan_in)
                params[f"{prefix}.{i}.W"] = normal((fan_in, layer.width), std)
                params[f"{prefix}.{i}.b"] = zeros(layer.width)

    add_stack("backbone", spec.backbone, spec.input_shape, True)
    add_stack("gater", spec.gater, spec.input_shape, False)

    h, c, b = spec.feature_size, spec.gated_filter_total, spec.bottleneck
    params["head.W1"] = normal((h, b), 1.0 / np.sqrt(h))
    params["head.b1"] = zeros(b)
    add_bn("head.bn", b)
    params["head.W2"] = normal((b, c), 1.0 / np.sqrt(b))
    params["head.b2"] = Tensor(np.ones(c, dtype=np.float32), requires_grad=True)
    params["probe.W"] = normal((h, spec.num_classes), 1.0 / np.sqrt(h))
    params["probe.b"] = zeros(spec.num_classes)
    return params, buffers


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

    def __init__(self, spec: ModelSpec, seed: int = 0):
        self.spec = spec
        try:
            self.gate_map = build_gate_map(spec)
            self.params, self.buffers = init_params(spec, np.random.default_rng(seed))
        except MemoryError:
            raise ConfigError(
                f"model: too large to allocate ({spec.param_count:,} parameters)"
            ) from None

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
                    stride=layer.stride,
                    padding=layer.padding,
                )
                bn = self._bn(f"{name}.bn")
                gates = None
                if layer.gated and selected is not None:
                    lo, hi = self.gate_map.slices[i]
                    gates = selected[:, lo:hi]
                h = bn_relu_gate(conv2d(h, conv), bn, gates, training)
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
        return global_avg_pool(self._run_stack("gater", self.spec.gater, x, training))

    def gater_head(self, f: Tensor, training: bool) -> Tensor:
        """Bottleneck head mapping pooled features [N, h] to scores [N, c]:
        W2 @ relu(batchnorm(W1 @ f + b1)) + b2."""
        p = self.params
        z = fully_connected(f, p["head.W1"], p["head.b1"])
        z = relu(batchnorm(z, self._bn("head.bn"), training))
        return fully_connected(z, p["head.W2"], p["head.b2"])

    def forward_backbone(self, x: Tensor, training: bool) -> Tensor:
        """Plain ungated backbone pass (every gate effectively 1)."""
        return self._run_stack("backbone", self.spec.backbone, x, training)

    def forward_probe(self, x: Tensor, training: bool) -> Tensor:
        """Gater features through the temporary pretraining classifier."""
        f = self.gater_features(x, training)
        return fully_connected(f, self.params["probe.W"], self.params["probe.b"])

    def forward(
        self,
        x: Tensor,
        training: bool,
        rng: np.random.Generator | None = None,
        dropout_rate: float = 0.0,
    ) -> tuple[Tensor, GateBundle]:
        """Full gated pass; returns logits and the gate bundle.

        dropout_rate only applies in training mode, after branch selection,
        so binary gates stay binary. An eval pass runs under no_grad and
        records no graph.
        """
        with nullcontext() if training else no_grad():
            f = self.gater_features(x, training)
            g_pre = self.gater_head(f, training)
            bundle = semhash_forward(g_pre, training, rng)
            selected = bundle.selected
            if training and dropout_rate > 0.0:
                selected = gate_dropout(selected, dropout_rate, rng)
            logits = self._run_stack("backbone", self.spec.backbone, x, training, selected)
        return logits, bundle
