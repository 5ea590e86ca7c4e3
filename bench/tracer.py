"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of gaternet's modules from outside the
package. While a Tracer records, every module attribute bound to a traced
function (including names another module imported with ``from ... import``)
and every traced method on its class points at a wrapper; when recording
stops the originals go back, so untraced operations run unmodified code.

A span is ``[name, start, end, parent, op]``: times from perf_counter, the
index of the enclosing span (-1 at the top) and the id of the benchmark
operation it belongs to (-1 for set-up). Spans stay in memory until the
run ends. Backward closures are traced too: the tracer wraps
``tensor.apply_op`` and gives each graph node's backward closure a span
named ``<module>.<creating function>.bwd``.

Counts (MACs, graph nodes, gate bits, bytes written) are computed from
shapes and gate bits at the same boundaries, never measured, so they
repeat exactly for one seed.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Functions and methods that get a span, per gaternet module.
SPANS = {
    "tensor": ("Tensor.backward",),
    "layers": ("conv2d", "batchnorm", "relu", "sigmoid", "avg_pool2d",
               "global_avg_pool", "fully_connected", "softmax_cross_entropy"),
    "semhash": ("semhash_forward", "gate_dropout"),
    "model": ("GaterNet.forward", "GaterNet.gater_features",
              "GaterNet.gater_head"),
    "train": ("run_phase", "evaluate", "total_loss", "SGD.step"),
    "data": ("load_dataset",),
    "persist": ("save_checkpoint", "load_checkpoint", "atomic_write_bytes"),
    "analyze": ("save_gate_log", "load_gate_log", "classify_gates",
                "on_count_histogram", "fired_count_per_sample", "pca_reduce",
                "write_taxonomy_csv", "write_layer_distribution_csv",
                "write_histogram_csv", "export_usage_vectors"),
    "cli": ("main",),
}

_OTHER_LAYERS = ("relu", "sigmoid", "avg_pool2d", "global_avg_pool",
                 "fully_connected", "softmax_cross_entropy")

# Per-layer time metrics as sums of terms: ("incl", span) is the span's
# whole duration, ("self", span) its duration minus its child spans, and
# ("under", span, parent) the duration of span where its parent is parent.
# A leading "-" subtracts the term.
TIME_METRICS = {
    "layers.conv2d.fwd_ms": [("incl", "layers.conv2d")],
    "layers.conv2d.bwd_ms": [("incl", "layers.conv2d.bwd")],
    "tensor.backward_ms": [("incl", "tensor.Tensor.backward")],
    "tensor.backward.self_ms": [("self", "tensor.Tensor.backward")],
    "train.sgd_step_ms": [("incl", "train.SGD.step")],
    "model.gater_ms": [("incl", "model.GaterNet.gater_features"),
                       ("incl", "model.GaterNet.gater_head")],
    "semhash.forward_ms": [("incl", "semhash.semhash_forward")],
    "layers.batchnorm.fwd_ms": [("incl", "layers.batchnorm")],
    "layers.other.fwd_ms": [("incl", f"layers.{f}") for f in _OTHER_LAYERS],
    "semhash.gate_dropout_ms": [("incl", "semhash.gate_dropout")],
    "train.total_loss_ms": [("incl", "train.total_loss")],
    "train.evaluate_ms": [("incl", "train.evaluate")],
    "train.run_phase.self_ms": [("self", "train.run_phase")],
    "data.load_dataset_ms": [("incl", "data.load_dataset")],
    "persist.save_checkpoint_ms": [("incl", "persist.save_checkpoint")],
    "persist.load_checkpoint_ms": [("incl", "persist.load_checkpoint")],
    "analyze.save_gate_log_ms": [("incl", "analyze.save_gate_log")],
    "analyze.load_gate_log_ms": [("incl", "analyze.load_gate_log")],
    "analyze.classify_gates_ms": [("incl", "analyze.classify_gates")],
    "analyze.histograms_ms": [("self", "analyze.on_count_histogram"),
                              ("self", "analyze.fired_count_per_sample")],
    "analyze.pca_reduce_ms": [("incl", "analyze.pca_reduce")],
    "analyze.csv_write_ms": [
        ("incl", "analyze.write_taxonomy_csv"),
        ("incl", "analyze.write_layer_distribution_csv"),
        ("incl", "analyze.write_histogram_csv"),
        ("incl", "analyze.export_usage_vectors"),
        ("-under", "analyze.pca_reduce", "analyze.export_usage_vectors"),
    ],
}

COUNT_METRICS = ("layers.conv2d.macs", "model.macs_gated_off",
                 "tensor.graph_nodes", "persist.bytes_written")


def _conv_macs(x, p) -> int:
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = p.filters.shape
    oh = (h + 2 * p.padding - kh) // p.stride + 1
    ow = (w + 2 * p.padding - kw) // p.stride + 1
    return n * c_out * oh * ow * c_in * kh * kw


class Tracer:
    """Records spans and counts for the operations run inside record()."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []
        self._channel_macs: dict = {}

    @contextmanager
    def record(self, op: int):
        """Trace the calls made inside the block as operation ``op``."""
        self._op = op
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _count(self, key: str, value: int) -> None:
        self.counts[(self._op, key)] += value

    def _hooks(self, name: str, fn):
        """Counting wrappers that run inside a function's span."""
        if name == "layers.conv2d":
            def conv2d(x, p):
                self._count("layers.conv2d.macs", _conv_macs(x, p))
                return fn(x, p)
            return conv2d
        if name == "persist.atomic_write_bytes":
            def atomic_write_bytes(path, payload):
                self._count("persist.bytes_written", len(payload))
                return fn(path, payload)
            return atomic_write_bytes
        if name == "model.GaterNet.forward":
            def forward(model, x, training, *args, **kwargs):
                logits, bundle = fn(model, x, training, *args, **kwargs)
                if not training and model.spec.gated_filter_total:
                    self._count_gates(model, bundle.g_beta.data)
                return logits, bundle
            return forward
        return fn

    def _count_gates(self, model, gates) -> None:
        self._count("model.gates_on", int(gates.sum()))
        self._count("model.gates_total", int(gates.size))
        per_channel = self._channel_macs.get(model.spec)
        if per_channel is None:
            per_channel = self._channel_macs[model.spec] = _channel_macs(model.spec)
        off = 0
        for layer, (lo, hi) in model.gate_map.slices.items():
            off += int((gates[:, lo:hi] == 0).sum()) * per_channel[layer]
        self._count("model.macs_gated_off", off)

    def _apply_op(self, fn):
        def apply_op(data, parents, backward_fn):
            out = fn(data, parents, backward_fn)
            if out._backward_fn is not None:
                self._count("tensor.graph_nodes", 1)
                caller = sys._getframe(1)
                module = caller.f_globals.get("__name__", "").rpartition(".")[2]
                out._backward_fn = self._span(
                    f"{module}.{caller.f_code.co_name}.bwd", out._backward_fn
                )
            return out
        return apply_op

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "gaternet" or n.startswith("gaternet."))]
        replace: dict[int, object] = {}
        for short, attrs in SPANS.items():
            mod = importlib.import_module(f"gaternet.{short}")
            for attr in attrs:
                name = f"{short}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[meth]
                    self._set(cls, meth, self._span(name, self._hooks(name, fn)))
                else:
                    fn = getattr(mod, attr)
                    replace[id(fn)] = self._span(name, self._hooks(name, fn))
        tensor_mod = importlib.import_module("gaternet.tensor")
        replace[id(tensor_mod.apply_op)] = self._apply_op(tensor_mod.apply_op)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in replace:
                    self._set(mod, attr, replace[id(value)])

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summary --------------------------------------------------------------

    def metrics(self, timed_ops: list[int], count_ops: list[int]) -> dict[str, float]:
        """Per-layer metrics: the traced set-up plus the mean traced op.

        Times average over ``timed_ops``; counts average over ``count_ops``,
        a fixed set of operations that covers each distinct input equally,
        so they repeat exactly for one seed.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl: dict = defaultdict(float)
        self_t: dict = defaultdict(float)
        under: dict = defaultdict(float)
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            d = t1 - t0
            incl[(op, name)] += d
            self_t[(op, name)] += d - child[i]
            if parent >= 0:
                under[(op, name, self.spans[parent][0])] += d

        def per_op(table, key, ops) -> float:
            setup = table.get((-1, *key), 0.0)
            return setup + sum(table.get((op, *key), 0.0) for op in ops) / len(ops)

        out: dict[str, float] = {}
        for metric, terms in TIME_METRICS.items():
            total = 0.0
            for kind, *key in terms:
                sign = -1.0 if kind.startswith("-") else 1.0
                table = {"incl": incl, "self": self_t, "under": under}[kind.lstrip("-")]
                total += sign * per_op(table, tuple(key), timed_ops)
            out[metric] = total * 1000.0
        for metric in COUNT_METRICS:
            out[metric] = per_op(self.counts, (metric,), count_ops)
        on = per_op(self.counts, ("model.gates_on",), count_ops)
        total = per_op(self.counts, ("model.gates_total",), count_ops)
        out["model.gate_on_frac"] = on / total if total else 0.0
        return out

    def counts_differ(self, op: int, other: int) -> list[str]:
        """Names of the counts that differ between two operations."""
        keys = {k for o, k in self.counts if o in (op, other)}
        return sorted(k for k in keys
                      if self.counts.get((op, k)) != self.counts.get((other, k)))

    def dump(self) -> list[list]:
        """Spans as plain lists, times relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[name, round(a - t0, 9), round(b - t0, 9), parent, op]
                for name, a, b, parent, op in self.spans]


def _channel_macs(spec) -> dict[int, int]:
    """MACs one output channel of each backbone conv costs per sample."""
    from gaternet.model import trace_shapes

    entries, _ = trace_shapes(spec.backbone, spec.input_shape)
    macs = {}
    for i, layer in enumerate(spec.backbone):
        if layer.kind != "conv":
            continue
        c_in, h, w = entries[i]
        oh = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
        ow = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
        macs[i] = c_in * layer.kernel * layer.kernel * oh * ow
    return macs
