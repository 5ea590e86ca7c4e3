"""Architecture plumbing: specs, shape tracing, the gate-index map,
initialization, parameter counting, the equivalence between masked and
selectively computed gated convolutions, and the conv MAC count."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gaternet.layers as layers_mod
import gaternet.model as model_mod
import gaternet.semhash as semhash_mod
from gaternet.layers import (
    BN_EPS,
    BatchNormParams,
    Conv2dParams,
    avg_pool2d,
    bn_relu_gate,
    conv2d,
    fully_connected,
)
from gaternet.model import (
    ConfigError,
    GaterNet,
    LayerSpec,
    ModelSpec,
    build_gate_map,
    conv_macs,
    init_params,
    spec_from_dict,
    spec_to_dict,
    trace_shapes,
)
from gaternet.tensor import Tensor, no_grad
from oracles import conv_block_reference, masked_reference, param_count


def small_spec(gated=True) -> ModelSpec:
    return ModelSpec(
        input_shape=(3, 8, 8),
        num_classes=3,
        backbone=(
            LayerSpec("conv", filters=6),
            LayerSpec("pool"),
            LayerSpec("conv", filters=8, gated=gated),
            LayerSpec("conv", filters=4, gated=gated),
            LayerSpec("pool"),
            LayerSpec("fc", width=3),
        ),
        gater=(
            LayerSpec("conv", filters=4),
            LayerSpec("pool"),
            LayerSpec("conv", filters=5),
            LayerSpec("pool"),
        ),
        bottleneck=3,
    )


class TestSpecs:
    def test_layer_validation(self):
        with pytest.raises(ValueError):
            LayerSpec("dense")
        with pytest.raises(ValueError):
            LayerSpec("conv", filters=0)
        with pytest.raises(ValueError):
            LayerSpec("pool", gated=True)
        with pytest.raises(ValueError):
            LayerSpec("fc", width=3, gated=True)
        with pytest.raises(ValueError):
            LayerSpec("fc", width=0)
        with pytest.raises(ValueError):
            LayerSpec("conv", filters=4, stride=0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ModelSpec((3, 8, 8), 1, (LayerSpec("fc", width=1),), (), 1)
        with pytest.raises(ValueError):
            ModelSpec((3, 8, 8), 3, (), (), 1)
        with pytest.raises(ValueError):  # gated gater layer
            ModelSpec((3, 8, 8), 3, (LayerSpec("fc", width=3),),
                      (LayerSpec("conv", filters=2, gated=True),), 1)
        with pytest.raises(ValueError):  # fc in gater
            ModelSpec((3, 8, 8), 3, (LayerSpec("fc", width=3),),
                      (LayerSpec("fc", width=2),), 1)

    def test_derived_sizes(self):
        spec = small_spec()
        assert spec.gated_filter_total == 12  # 8 + 4
        assert spec.feature_size == 5

    def test_dict_round_trip(self):
        spec = small_spec()
        assert spec_from_dict(spec_to_dict(spec)) == spec
        import json
        json.dumps(spec_to_dict(spec))  # must be JSON-ready

    def test_every_model_needs_a_gated_conv_and_a_gater_conv(self):
        with pytest.raises(ValueError,
                           match="^backbone needs at least one gated conv$"):
            small_spec(gated=False)
        with pytest.raises(ValueError, match="^gater needs at least one conv$"):
            dataclasses.replace(small_spec(), gater=(LayerSpec("pool"),))

    def test_spec_without_gater_conv_never_reaches_init_params(self):
        # init_params scales the head by 1 / sqrt(feature_size), which a
        # gater without a conv would make a divide by zero
        with pytest.raises(ValueError, match="^gater needs at least one conv$"):
            init_params(dataclasses.replace(small_spec(), gater=()),
                        np.random.default_rng(0))

    @pytest.mark.parametrize("stack,layers,message", [
        ("backbone", (LayerSpec("conv", filters=4, gated=True),
                      LayerSpec("pool", window=3), LayerSpec("fc", width=3)),
         "backbone layer 1: pool window 3 does not divide 8x8"),
        ("backbone", (LayerSpec("conv", filters=4, gated=True, kernel=11,
                                padding=1), LayerSpec("fc", width=3)),
         "backbone layer 0: conv kernel 11 does not fit 8x8"),
        ("gater", (LayerSpec("conv", filters=4), LayerSpec("pool"),
                   LayerSpec("pool", window=3)),
         "gater layer 2: pool window 3 does not divide 4x4"),
        ("gater", (LayerSpec("pool", window=4), LayerSpec("conv", filters=4,
                                                         kernel=5, padding=1)),
         "gater layer 1: conv kernel 5 does not fit 2x2"),
    ])
    def test_geometry_error_names_its_stack(self, stack, layers, message):
        with pytest.raises(ValueError) as err:
            dataclasses.replace(small_spec(), **{stack: layers})
        assert str(err.value) == message

    def test_backbone_must_end_in_classifier(self):
        for last in (LayerSpec("conv", filters=3), LayerSpec("fc", width=5)):
            with pytest.raises(
                    ValueError,
                    match="^backbone must end in an fc layer of width 3$"):
                dataclasses.replace(
                    small_spec(), backbone=small_spec().backbone[:-1] + (last,))


class TestTraceShapes:
    def test_known_walk(self):
        spec = small_spec()
        entries, final = trace_shapes(spec.backbone, (3, 8, 8))
        assert entries == [
            (3, 8, 8), (6, 8, 8), (6, 4, 4), (8, 4, 4), (4, 4, 4),
            ("flat_in", 16),
        ]
        assert final == ("flat", 3)

    def test_conv_too_large(self):
        with pytest.raises(ValueError, match="does not fit"):
            trace_shapes((LayerSpec("conv", filters=2, kernel=5, padding=0),),
                         (3, 3, 3))

    def test_pool_divisibility(self):
        with pytest.raises(ValueError, match="divide"):
            trace_shapes((LayerSpec("pool", window=2),), (3, 5, 4))

    def test_conv_after_flatten(self):
        with pytest.raises(ValueError, match="^layer 1: conv after flatten"):
            trace_shapes((LayerSpec("fc", width=5), LayerSpec("conv", filters=2)),
                         (3, 8, 8))


class TestGateMap:
    def test_enumeration(self):
        gmap = build_gate_map(small_spec())
        assert gmap.total == 12
        # layer 2 has 8 gated filters, layer 3 has 4
        assert list(gmap.layer_ids) == [2] * 8 + [3] * 4
        assert list(gmap.filter_ids) == list(range(8)) + list(range(4))
        assert gmap.slices == {2: (0, 8), 3: (8, 12)}
        assert (gmap.layer_ids[9], gmap.filter_ids[9]) == (3, 1)


class TestInitParams:
    def test_deterministic_per_seed(self):
        spec = small_spec()
        p1, b1 = init_params(spec, np.random.default_rng(5))
        p2, b2 = init_params(spec, np.random.default_rng(5))
        p3, _ = init_params(spec, np.random.default_rng(6))
        for k in p1:
            assert np.array_equal(p1[k].data, p2[k].data)
        assert any(not np.array_equal(p1[k].data, p3[k].data) for k in p1)
        for k in b1:
            assert np.array_equal(b1[k], b2[k])

    def test_naming_and_shapes(self):
        spec = small_spec()
        params, buffers = init_params(spec, np.random.default_rng(0))
        assert params["backbone.0.filters"].shape == (6, 3, 3, 3)
        assert params["backbone.2.filters"].shape == (8, 6, 3, 3)
        assert params["backbone.5.W"].shape == (16, 3)
        assert params["gater.2.filters"].shape == (5, 4, 3, 3)
        assert params["head.W1"].shape == (5, 3)
        assert params["head.W2"].shape == (3, 12)
        assert params["probe.W"].shape == (5, 3)
        assert buffers["backbone.0.bn.running_mean"].shape == (6,)
        assert np.array_equal(buffers["backbone.0.bn.running_var"], np.ones(6))

    def test_head_output_bias_starts_at_one(self):
        params, _ = init_params(small_spec(), np.random.default_rng(1))
        assert np.array_equal(params["head.b2"].data, np.ones(12))

    def test_no_bias_under_batchnorm(self):
        params, _ = init_params(small_spec(), np.random.default_rng(2))
        assert "backbone.0.bias" not in params
        spec = ModelSpec(
            (3, 8, 8), 3,
            (LayerSpec("conv", filters=4, gated=True),
             LayerSpec("fc", width=3)),
            (LayerSpec("conv", filters=2),), 1,
        )
        params, buffers = init_params(spec, np.random.default_rng(3))
        assert "backbone.0.bias" not in params
        assert "backbone.0.bn.gamma" in params
        assert "backbone.0.bn.running_mean" in buffers


class TestParamCount:
    def test_hand_computed_small_spec(self):
        model = GaterNet(small_spec(), seed=0)
        report = param_count(model)
        # backbone: conv 6*3*3*3 + bn 2*6, conv 8*6*3*3 + bn 2*8,
        # conv 4*8*3*3 + bn 2*4, fc 16*3 + 3
        backbone = (162 + 12) + (432 + 16) + (288 + 8) + (48 + 3)
        # gater: conv 4*3*3*3 + bn 2*4, conv 5*4*3*3 + bn 2*5
        gater = (108 + 8) + (180 + 10)
        # head: W1 5*3 + b1 3 + bn 2*3 + W2 3*12 + b2 12
        head = 15 + 3 + 6 + 36 + 12
        assert report.backbone == backbone
        assert report.gater == gater
        assert report.head == head
        assert report.probe == 5 * 3 + 3  # W 5*3 + b 3
        assert report.total == backbone + gater + head
        assert report.head_weight_count == 15 + 36  # (h + c) * b = (5+12)*3
        assert report.head_single_layer_weight_count == 5 * 12

    def test_bottleneck_formula(self):
        spec = small_spec()
        h, c, b = spec.feature_size, spec.gated_filter_total, spec.bottleneck
        report = param_count(GaterNet(spec, seed=0))
        assert report.head_weight_count == (h + c) * b
        assert report.head_single_layer_weight_count == h * c

    def test_probe_excluded_from_total(self):
        model = GaterNet(small_spec(), seed=0)
        report = param_count(model)
        assert report.probe == 5 * 3 + 3
        assert report.total == report.backbone + report.gater + report.head

    def test_spec_count_is_what_init_allocates(self):
        """ModelSpec.param_count, from the spec alone, is every trainable
        value a GaterNet allocates, the probe's included."""
        for spec in (small_spec(), _skip_spec()):
            model = GaterNet(spec, seed=0)
            report = param_count(model)
            assert spec.param_count == report.total + report.probe
            assert spec.param_count == sum(t.data.size for t in model.params.values())

    def test_memory_error_while_building_is_a_config_error(self, monkeypatch):
        def refuse(spec, rng):
            raise MemoryError

        monkeypatch.setattr(model_mod, "init_params", refuse)
        spec = small_spec()
        with pytest.raises(ConfigError) as info:
            GaterNet(spec)
        assert str(info.value) == (
            f"model: too large to allocate ({spec.param_count:,} parameters)")


def _conv_setup(cout, seed, cin=3, size=6, batch=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, cin, size, size)).astype(np.float32)
    p = Conv2dParams(
        filters=Tensor(rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)),
        stride=1, padding=1,
    )
    bn = BatchNormParams(
        gamma=Tensor(rng.uniform(0.5, 1.5, cout).astype(np.float32)),
        beta=Tensor(rng.standard_normal(cout).astype(np.float32)),
        running_mean=rng.standard_normal(cout).astype(np.float32),
        running_var=rng.uniform(0.5, 2.0, cout).astype(np.float32),
    )
    return x, p, bn


def _selective_train_reference(x, p, bn, gates):
    """Training-mode skip oracle: compute a channel only where a gate is 1.

    Batch statistics need every sample of an enabled channel, so
    per-sample skipping only applies to the final write. Pure numpy, with
    conv2d's accumulation order; running stats are read, never written.
    """
    gates = np.asarray(gates)
    if not np.all((gates == 0) | (gates == 1)):
        raise ValueError("selective path needs binary gates, got non-binary values")
    n, c_in, hh, ww = x.shape
    c_out, _, kh, kw = p.filters.shape
    s, pad = p.stride, p.padding
    oh = (hh + 2 * pad - kh) // s + 1
    ow = (ww + 2 * pad - kw) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    wdat = p.filters.data
    on = gates == 1
    out = np.zeros((n, c_out, oh, ow), dtype=x.dtype)

    def conv_channel(rows, c):
        acc = np.zeros((len(rows), oh, ow), dtype=x.dtype)
        for ic in range(c_in):
            for ki in range(kh):
                for kj in range(kw):
                    acc += wdat[c, ic, ki, kj] * xp[
                        rows, ic, ki : ki + s * oh : s, kj : kj + s * ow : s
                    ]
        return acc

    all_rows = np.arange(n)
    # Batch statistics see the whole batch, so compute enabled channels
    # over all samples, with the same reduction geometry as batchnorm.
    full = np.zeros((n, c_out, oh, ow), dtype=x.dtype)
    needed = [c for c in range(c_out) if on[:, c].any()]
    for c in needed:
        full[:, c] = conv_channel(all_rows, c)
    mu = full.mean(axis=(0, 2, 3), keepdims=True)
    diff = full - mu
    var = (diff * diff).mean(axis=(0, 2, 3), keepdims=True)
    xhat = diff / np.sqrt(var + BN_EPS)
    y = bn.gamma.data.reshape(1, c_out, 1, 1) * xhat + bn.beta.data.reshape(
        1, c_out, 1, 1
    )
    r = np.maximum(y, 0)
    for c in needed:
        rows = all_rows[on[:, c]]
        out[rows, c] = r[rows, c]
    return out


class TestMaskedVsSelective:
    # Eval only: masked_reference is eval-mode batchnorm; the training path
    # is checked against the loop-order reference in the next test.
    def test_masked_equals_skip_path_bitwise(self):
        x, p, bn = _conv_setup(8, seed=42)
        rng = np.random.default_rng(7)
        gates = (rng.random((4, 8)) < 0.5).astype(np.float32)
        _, _, bn2 = _conv_setup(8, seed=42)
        masked = masked_reference(x, p, bn, gates)
        skipped = bn_relu_gate(conv2d(Tensor(x), p), bn2, Tensor(gates), False).data
        assert np.array_equal(masked, skipped)

    def test_training_matches_skip_reference(self):
        # Gated-off channels are exactly 0; gated-on ones match the
        # loop-order reference within float32 rounding.
        for seed in range(20):
            x, p, bn = _conv_setup(8, seed=100 + seed)
            gates = (np.random.default_rng(seed).random((4, 8)) < 0.5).astype(
                np.float32)
            want = _selective_train_reference(x, p, bn, gates)
            got = bn_relu_gate(conv2d(Tensor(x), p), bn, Tensor(gates), True).data
            off = np.broadcast_to(gates[:, :, None, None] == 0, got.shape)
            assert np.all(got[off] == 0)
            np.testing.assert_allclose(got[~off], want[~off], rtol=1e-5, atol=1e-5)

    def test_all_on_equals_ungated_bitwise(self):
        x, p, bn = _conv_setup(8, seed=43)
        ungated = bn_relu_gate(conv2d(Tensor(x), p), bn,
                               Tensor(np.ones((4, 8), np.float32)), False).data
        _, _, bn2 = _conv_setup(8, seed=43)
        plain = conv_block_reference(conv2d(Tensor(x), p), bn2, None, False).data
        assert np.array_equal(ungated, plain)

    def test_selective_rejects_soft_gates(self):
        x, p, bn = _conv_setup(4, seed=44)
        with pytest.raises(ValueError):
            _selective_train_reference(x, p, bn, np.full((4, 4), 0.5))

    def test_gate_shape_validation(self):
        x, p, bn = _conv_setup(4, seed=45)
        with pytest.raises(ValueError):
            bn_relu_gate(conv2d(Tensor(x), p), bn,
                         Tensor(np.ones((4, 5), np.float32)), False)
        with pytest.raises(ValueError):
            bn_relu_gate(conv2d(Tensor(x), p), bn,
                         Tensor(np.ones((3, 4), np.float32)), False)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("shape,message", [
        ((2, 2, 5, 5), "conv2d channel mismatch: input has 2 channels, "
                       "filters expect 3"),
        ((2, 3, 5), r"conv2d input must be 4-D, got shape \(2, 3, 5\)"),
        ((2, 3, 1, 1), "conv2d output would be empty: input 1x1, kernel 3x3, "
                       "stride 1, padding 0"),
    ], ids=["channels", "3-D", "kernel-too-large"])
    def test_bad_input_fails_alike_on_both_paths(self, training, shape,
                                                 message):
        _, p, bn = _conv_setup(4, seed=47)
        p.padding = 0
        x = np.ones(shape, np.float32)
        gates = np.zeros((2, 4), np.float32)
        gates[0, 0] = gates[1, 1] = 1.0
        with pytest.raises(ValueError, match=f"^{message}$"):
            bn_relu_gate(conv2d(Tensor(x), p), bn, Tensor(gates), training)

    @pytest.mark.parametrize("side", ["skip", "dense"])
    @settings(max_examples=40, deadline=None)
    @given(kernel=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
           padding=st.sampled_from([0, 1]),
           soft=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_skip_path_matches_masked_reference(self, side, kernel, stride,
                                                padding, soft, seed):
        # The production eval path against relu(bn(conv2d(x))) * g, with
        # sparse ("skip") and near-dense ("dense") gates, an all-on and an all-off gate row,
        # input channels zeroed the way a previous gated layer leaves them,
        # and soft gates and soft live channels: on values drawn from
        # {0.25, 0.5, 1}.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 13))
        c_in, c_out = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        size = int(rng.integers(max(kernel - 2 * padding, 1), 8))
        p_on = 0.4 if side == "skip" else 0.97
        gates = (rng.random((n, c_out)) < p_on).astype(np.float32)
        gates[0], gates[1] = 1.0, 0.0
        live = (rng.random((n, c_in)) < p_on).astype(np.float32)
        if soft:
            gates *= rng.choice(np.float32([0.25, 0.5, 1.0]), gates.shape)
            live *= rng.choice(np.float32([0.25, 0.5, 1.0]), live.shape)
        x = rng.standard_normal((n, c_in, size, size)).astype(np.float32)
        x *= live[:, :, None, None]
        p = Conv2dParams(
            filters=Tensor(rng.standard_normal(
                (c_out, c_in, kernel, kernel)).astype(np.float32)),
            stride=stride, padding=padding,
        )
        bn = BatchNormParams(
            gamma=Tensor(rng.uniform(-1.5, 1.5, c_out).astype(np.float32)),
            beta=Tensor(rng.standard_normal(c_out).astype(np.float32)),
            running_mean=rng.standard_normal(c_out).astype(np.float32),
            running_var=rng.uniform(0.5, 2.0, c_out).astype(np.float32),
        )
        want = masked_reference(x, p, bn, gates)
        got = bn_relu_gate(conv2d(Tensor(x), p), bn, Tensor(gates), False)
        assert got.data.dtype == want.dtype
        assert got.data.tobytes() == want.tobytes()


def _skip_spec() -> ModelSpec:
    """Gated convs on both sides of a pool, an ungated conv after a gated
    one, a 1x1 gated conv and a strided one."""
    return ModelSpec(
        input_shape=(3, 8, 8),
        num_classes=3,
        backbone=(
            LayerSpec("conv", filters=6, gated=True),
            LayerSpec("pool"),
            LayerSpec("conv", filters=8, gated=True),
            LayerSpec("conv", filters=5),
            LayerSpec("conv", filters=6, kernel=1, padding=0, gated=True),
            LayerSpec("conv", filters=4, stride=2, gated=True),
            LayerSpec("fc", width=3),
        ),
        gater=(LayerSpec("conv", filters=4), LayerSpec("pool")),
        bottleneck=3,
    )


def _half_gated_model(spec, x, seed=0) -> GaterNet:
    """A model whose head bias is shifted so each gate is on for about half
    of x (the initial +1 bias leaves nearly every gate on)."""
    model = GaterNet(spec, seed=seed)
    _, bundle = model.forward(Tensor(x), training=False)
    b2 = model.params["head.b2"].data
    b2 -= np.median(bundle.g_pre.data, axis=0).astype(b2.dtype)
    return model


def _masked_forward(model, x):
    """Eval logits and gates with every gated conv computed densely and
    multiplied by its gate, built from layers primitives."""
    f = model.gater_features(Tensor(x), False)
    gates = (model.gater_head(f, False).data > 0).astype(np.float32)
    h = Tensor(x)
    layers = model.spec.backbone
    for i, layer in enumerate(layers):
        name = f"backbone.{i}"
        if layer.kind == "conv":
            p = Conv2dParams(model.params[f"{name}.filters"],
                             layer.stride, layer.padding)
            g = None
            if layer.gated:
                lo, hi = model.gate_map.slices[i]
                g = gates[:, lo:hi]
            bn = model._bn(f"{name}.bn")
            if g is not None:
                h = Tensor(masked_reference(h.data, p, bn, g))
            else:
                h = conv_block_reference(conv2d(h, p), bn, None, False)
        elif layer.kind == "pool":
            h = avg_pool2d(h, layer.window)
        else:
            w = model.params[f"{name}.W"]
            h = fully_connected(h.reshape(h.shape[0], w.shape[0]), w,
                                model.params[f"{name}.b"])
    return h.data, gates


def test_eval_forward_equals_masked_forward_bitwise():
    x = np.random.default_rng(11).standard_normal((32, 3, 8, 8)).astype(np.float32)
    model = _half_gated_model(_skip_spec(), x)
    want_logits, want_gates = _masked_forward(model, x)
    assert 0.3 < want_gates.mean() < 0.7
    logits, bundle = model.forward(Tensor(x), training=False)
    assert np.array_equal(bundle.selected.data, want_gates)
    assert logits.data.tobytes() == want_logits.tobytes()


def test_conv_kernel_follows_mode():
    # every conv (gater, gated and ungated backbone) is conv2d in both modes
    x = np.random.default_rng(12).standard_normal((8, 3, 8, 8)).astype(np.float32)
    model = _half_gated_model(_skip_spec(), x)
    with mock.patch.object(model_mod, "conv2d", wraps=conv2d) as conv:
        logits, _ = model.forward(Tensor(x), training=True,
                                  rng=np.random.default_rng(0))
        logits.sum().backward()
        assert conv.call_count == 6
        model.forward(Tensor(x), training=False)
        assert conv.call_count == 12


def _brute_force_macs(spec, gates):
    """Conv MACs by walking every (sample, layer, out, in) triple; a triple
    is off when its gate is 0 or when the nearest layer before it, skipping
    pools, is a gated conv whose gate for that input channel is 0."""
    gate_map = build_gate_map(spec)
    total = off = 0
    for layers in (spec.backbone, spec.gater):
        entries, _ = trace_shapes(layers, spec.input_shape)
        for i, layer in enumerate(layers):
            if layer.kind != "conv":
                continue
            c_in, h, w = entries[i]
            oh = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
            ow = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
            per = layer.kernel * layer.kernel * oh * ow
            prev = i - 1
            while prev >= 0 and layers[prev].kind == "pool":
                prev -= 1
            prev_gated = prev >= 0 and layers[prev].gated
            for s in range(len(gates)):
                for o in range(layer.filters):
                    for ic in range(c_in):
                        total += per
                        if not layer.gated:
                            continue
                        on = gates[s, gate_map.slices[i][0] + o]
                        live = (not prev_gated
                                or gates[s, gate_map.slices[prev][0] + ic])
                        if not (on and live):
                            off += per
    return total, off


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p_on=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_conv_macs_matches_brute_force(seed, p_on):
    spec = _skip_spec()
    rng = np.random.default_rng(seed)
    gates = (rng.random((3, spec.gated_filter_total)) < p_on).astype(np.uint8)
    assert conv_macs(spec, gates) == _brute_force_macs(spec, gates)


class TestGaterNetForward:
    def test_shapes_and_bundle(self):
        model = GaterNet(small_spec(), seed=0)
        x = Tensor(np.random.default_rng(1).standard_normal(
            (5, 3, 8, 8)).astype(np.float32))
        logits, bundle = model.forward(x, training=False)
        assert logits.shape == (5, 3)
        assert bundle.selected.shape == (5, 12)
        assert bundle.g_beta is bundle.selected  # eval uses the hard view
        sel = bundle.selected.data
        assert np.all((sel == 0.0) | (sel == 1.0))

    def test_eval_deterministic(self):
        model = GaterNet(small_spec(), seed=0)
        x = Tensor(np.random.default_rng(2).standard_normal(
            (4, 3, 8, 8)).astype(np.float32))
        l1, b1 = model.forward(x, training=False)
        l2, b2 = model.forward(x, training=False)
        assert np.array_equal(l1.data, l2.data)
        assert np.array_equal(b1.selected.data, b2.selected.data)

    def test_eval_computes_no_surrogate_gradient(self):
        model = GaterNet(small_spec(), seed=0)
        x = Tensor(np.random.default_rng(3).standard_normal(
            (4, 3, 8, 8)).astype(np.float32))
        with mock.patch.object(semhash_mod, "_sat_sigmoid_grad",
                               wraps=semhash_mod._sat_sigmoid_grad) as grad:
            model.forward(x, training=False)
            assert grad.call_count == 0
            logits, bundle = model.forward(x, training=True,
                                           rng=np.random.default_rng(4))
            assert grad.call_count == 0
            (logits.sum() + bundle.selected.sum()).backward()
            assert grad.call_count == 1

    def test_eval_records_no_graph_training_does(self):
        model = GaterNet(small_spec(), seed=0)
        x = Tensor(np.random.default_rng(5).standard_normal(
            (4, 3, 8, 8)).astype(np.float32))
        logits, bundle = model.forward(x, training=False)
        for out in (logits, bundle.selected):
            assert not out.requires_grad and out._parents == ()
        logits, bundle = model.forward(x, training=True,
                                       rng=np.random.default_rng(6))
        for out in (logits, bundle.selected):
            assert out.requires_grad and out._parents

    def test_every_model_has_the_probe(self):
        model = GaterNet(small_spec(), seed=0)
        x = Tensor(np.zeros((2, 3, 8, 8), np.float32))
        assert model.forward_probe(x, training=False).shape == (2, 3)
        # drawn last, so every other tensor's init bits do not depend on it
        names = list(model.params)
        assert names[-2:] == ["probe.W", "probe.b"]

    def test_gater_head_width(self):
        model = GaterNet(small_spec(), seed=0)
        x = Tensor(np.random.default_rng(4).standard_normal(
            (3, 3, 8, 8)).astype(np.float32))
        f = model.gater_features(x, training=False)
        assert f.shape == (3, 5)
        scores = model.gater_head(f, training=False)
        assert scores.shape == (3, 12)

    def test_train_forward_backward_touches_all_joint_params(self):
        model = GaterNet(small_spec(), seed=0)
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((6, 3, 8, 8)).astype(np.float32))
        logits, bundle = model.forward(x, training=True,
                                       rng=np.random.default_rng(6))
        from gaternet.layers import softmax_cross_entropy
        loss = softmax_cross_entropy(logits, np.arange(6) % 3)
        loss = loss + bundle.selected.sum() * 0.01
        loss.backward()
        for name in ("backbone.0.filters", "backbone.5.W", "gater.0.filters",
                     "head.W1", "head.W2", "head.b2"):
            grad = model.params[name].grad
            assert grad is not None and np.any(grad != 0), name

    def test_dropout_only_in_training(self):
        # The bundle keeps pre-dropout gates (the sparsity term reads them);
        # dropout shows up downstream, in the gated backbone output.
        model = GaterNet(small_spec(), seed=0)
        x = Tensor(np.random.default_rng(7).standard_normal(
            (64, 3, 8, 8)).astype(np.float32))
        plain, b0 = model.forward(x, training=True,
                                  rng=np.random.default_rng(8))
        dropped, b1 = model.forward(x, training=True,
                                    rng=np.random.default_rng(8),
                                    dropout_rate=0.9)
        # same rng seed: semhash draws identically before dropout draws
        assert np.array_equal(b0.selected.data, b1.selected.data)
        assert not np.array_equal(plain.data, dropped.data)
        e0, _ = model.forward(x, training=False)
        e1, _ = model.forward(x, training=False, dropout_rate=0.9)
        assert np.array_equal(e0.data, e1.data)


@given(st.lists(st.tuples(st.integers(1, 6), st.booleans()),
                min_size=1, max_size=4).filter(lambda ls: any(g for _, g in ls)))
def test_gate_map_total_matches_spec(layers):
    backbone = tuple(
        LayerSpec("conv", filters=f, gated=g) for f, g in layers
    ) + (LayerSpec("fc", width=3),)
    spec = ModelSpec((3, 8, 8), 3, backbone,
                     (LayerSpec("conv", filters=2),), 2)
    gmap = build_gate_map(spec)
    assert gmap.total == spec.gated_filter_total
    assert len(gmap.layer_ids) == len(gmap.filter_ids) == gmap.total
    for j in range(gmap.total):
        layer, filt = int(gmap.layer_ids[j]), int(gmap.filter_ids[j])
        lo, hi = gmap.slices[layer]
        assert 0 <= filt < hi - lo and lo + filt == j


@st.composite
def _small_specs(draw) -> ModelSpec:
    """Specs with 1-3 same-padded 3x3 convs in the backbone (at least one
    gated), an optional pool after the first and an optional hidden fc,
    and a one-conv gater with an optional pool."""
    side = draw(st.sampled_from([4, 6, 8]))
    convs = draw(st.lists(st.tuples(st.integers(1, 6), st.booleans()),
                          min_size=1, max_size=3))
    i = draw(st.integers(0, len(convs) - 1))
    convs[i] = (convs[i][0], True)
    backbone = [LayerSpec("conv", filters=f, gated=g) for f, g in convs]
    if draw(st.booleans()):
        backbone.insert(1, LayerSpec("pool"))
    if draw(st.booleans()):
        backbone.append(LayerSpec("fc", width=draw(st.integers(1, 5))))
    gater = [LayerSpec("conv", filters=draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        gater.append(LayerSpec("pool"))
    return ModelSpec((3, side, side), 3, (*backbone, LayerSpec("fc", width=3)),
                     tuple(gater), bottleneck=draw(st.integers(1, 4)))


# A spec whose logits split and whole differed by 3e-8 at n = 33 (seed 0):
# its one-filter conv is a one-row GEMM, and numpy runs it as a
# matrix-vector product whose bits depend on the number of samples.
_ONE_FILTER_SPEC = ModelSpec(
    (3, 4, 4), 3,
    (LayerSpec("conv", filters=6, gated=True), LayerSpec("pool"),
     LayerSpec("conv", filters=1), LayerSpec("fc", width=3)),
    (LayerSpec("conv", filters=1),), bottleneck=2)


@settings(max_examples=40, deadline=None)
@given(spec=_small_specs(), n=st.integers(1, 65), seed=st.integers(0, 2**16))
@example(spec=_ONE_FILTER_SPEC, n=33, seed=0)
def test_eval_halves_give_the_bytes_of_one_thread(counting_pool, spec, n, seed):
    """Each eval forward (gated, forward_backbone and forward_probe, under
    no_grad) gives the same bytes with the first half of each stack it
    walks on the worker thread and with both halves run here one after the
    other (_worker returns None, as with one CPU), and hands one half to the
    worker per stack. Where no conv has one filter they are also the bytes
    of the batch run whole (no cut); a one-filter conv's bits depend on the
    number of samples (_ONE_FILTER_SPEC)."""
    model = GaterNet(spec, seed=seed)
    model.params["head.b2"].data[...] = 0.0  # about half the gates on
    x = Tensor(np.random.default_rng(seed).standard_normal(
        (n, *spec.input_shape), dtype=np.float32))
    one_filter = any(layer.kind == "conv" and layer.filters == 1
                     for layer in spec.backbone + spec.gater)
    for which, stacks in (("forward", 2), ("forward_backbone", 1),
                          ("forward_probe", 1)):
        submitted = counting_pool.submitted
        runs = []
        for worker, cut in ((counting_pool, model_mod.EVAL_CUT),
                            (None, model_mod.EVAL_CUT), (None, n + 1)):
            with mock.patch.object(layers_mod, "_worker", lambda: worker), \
                    mock.patch.object(model_mod, "EVAL_CUT", cut), no_grad():
                out = getattr(model, which)(x, training=False)
            if which == "forward":
                logits, bundle = out
                out = (logits, bundle.g_pre, bundle.g_beta, bundle.selected)
            else:
                out = (out,)
            runs.append([t.data.tobytes() for t in out])
        assert runs[0] == runs[1], which
        assert one_filter or runs[1] == runs[2], which
        assert (counting_pool.submitted - submitted
                == stacks * (n > 2 * model_mod.EVAL_CUT)), which


def test_worker_exception_reaches_the_caller(worker_pool):
    """An overflow in the first half, on the worker thread, raises its
    FloatingPointError in the caller, which runs under errstate raise; the
    second half alone runs clean."""
    model = GaterNet(small_spec(), seed=0)
    x = np.random.default_rng(9).standard_normal((48, 3, 8, 8)).astype(np.float32)
    x[:16] = 3e38  # the first half: 48 samples cut at 16
    with np.errstate(all="raise"):
        model.forward(Tensor(x[16:]), training=False)
        with pytest.raises(FloatingPointError):
            model.forward(Tensor(x), training=False)
    assert worker_pool.submitted == 1
