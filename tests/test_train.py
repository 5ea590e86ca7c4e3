"""Training machinery: schedules, the sparse-gate loss, gradient routing,
momentum SGD, and the per-phase loop with its checkpoint/resume contract."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import gaternet.train as train_mod
from gaternet.data import DatasetDescriptor, load_dataset
from gaternet.layers import softmax_cross_entropy
from gaternet.model import GaterNet, LayerSpec, ModelSpec
from gaternet.persist import CheckpointError, load_checkpoint, save_checkpoint
from gaternet.tensor import Tensor
from gaternet.train import (
    METRIC_COLUMNS,
    PHASES,
    SGD,
    TrainConfig,
    l1_gate_penalty,
    run_phase,
    sgd_step,
    total_loss,
    _epoch_rng,
    evaluate,
    restore,
)
from oracles import gradient_routing_check


def tiny_spec() -> ModelSpec:
    return ModelSpec(
        input_shape=(3, 8, 8),
        num_classes=3,
        backbone=(
            LayerSpec("conv", filters=4, gated=True),
            LayerSpec("pool"),
            LayerSpec("fc", width=3),
        ),
        gater=(LayerSpec("conv", filters=2), LayerSpec("pool")),
        bottleneck=2,
    )


def tiny_splits():
    desc = DatasetDescriptor(kind="synthetic", num_classes=3, train_size=48,
                             eval_size=24, image_size=8, noise=0.5)
    return load_dataset(desc, seed=11)


def tiny_cfg(phase, epochs=2, **kw):
    kw.setdefault("lr_schedule", ((0, 0.05),))
    return TrainConfig(phase=phase, epochs=epochs, batch_size=16, **kw)


class TestLrSchedule:
    def test_piecewise_lookup(self):
        cfg = tiny_cfg("joint", lr_schedule=((0, 0.1), (5, 0.01), (9, 0.001)))
        assert cfg.lr(0) == 0.1
        assert cfg.lr(4) == 0.1
        assert cfg.lr(5) == 0.01
        assert cfg.lr(8) == 0.01
        assert cfg.lr(9) == 0.001
        assert cfg.lr(100) == 0.001
        with pytest.raises(ValueError):
            cfg.lr(-1)

    # TrainConfig checks the schedule once, so a bad one never reaches lr()
    @pytest.mark.parametrize("sched,epoch", [
        ((), 0),
        (((0, 0.1), (5, 0.01), (3, 0.001)), 5),  # not increasing
        (((0, 0.1), (0, 0.01)), 0),   # duplicate breakpoint
        (((0, 0.0),), 0),             # nonpositive lr
        (((0, -0.1),), 0),
        (((2, 0.1),), 1),             # epoch before first anchor
    ])
    def test_rejects(self, sched, epoch):
        with pytest.raises(ValueError):
            tiny_cfg("joint", lr_schedule=sched).lr(epoch)


class TestTrainConfig:
    def test_normalizes_schedule(self):
        cfg = tiny_cfg("joint", lr_schedule=[[0, 0.1], (4, 0.01)])
        assert cfg.lr_schedule == ((0, 0.1), (4, 0.01))
        assert isinstance(cfg.lr_schedule[0][0], int)

    def test_to_dict_is_json_ready(self):
        cfg = tiny_cfg("joint")
        d = cfg.to_dict()
        json.dumps(d)
        assert d["lr_schedule"] == [[0, 0.05]]
        assert d["phase"] == "joint"

    @pytest.mark.parametrize("kw", [
        {"phase": "warmup"},
        {"epochs": 0},
        {"batch_size": 0},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"weight_decay": -1e-4},
        {"lambda_": -0.1},
        {"dropout_start": 0.2, "dropout_end": 0.1},
        {"dropout_end": 1.0},
        {"dropout_start": -0.01},
        {"lr_schedule": ((3, 0.1),)},  # no epoch-0 anchor
        {"lr_schedule": ((-3, 0.1), (1, 0.01))},  # starts before epoch 0
    ])
    def test_rejects(self, kw):
        base = dict(phase="joint", epochs=2, batch_size=16,
                    lr_schedule=((0, 0.05),))
        base.update(kw)
        with pytest.raises(ValueError):
            TrainConfig(**base)


class TestGatePenalty:
    def test_mean_reduction_value(self):
        sel = Tensor(np.array([[1, 0, 1], [0, 0, 1]], dtype=np.float32))
        # sum 3 over n=2, c=3: 0.6 * (3 / (2*3)) = 0.3
        assert l1_gate_penalty(sel, 0.6).item() == pytest.approx(0.3)

    def test_rejects(self):
        sel = Tensor(np.ones((2, 3), np.float32))
        with pytest.raises(ValueError):
            l1_gate_penalty(sel, -0.1)
        with pytest.raises(ValueError):
            l1_gate_penalty(Tensor(np.ones((2, 0), np.float32)), 0.1)

    def test_total_loss_adds_penalty(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        labels = np.array([0, 1, 2, 0])
        sel = Tensor(np.ones((4, 5), np.float32))
        ce = softmax_cross_entropy(
            Tensor(logits.data.copy()), labels).item()
        got = total_loss(logits, labels, sel, 0.25).item()
        assert got == pytest.approx(ce + 0.25)

    def test_lambda_zero_detaches_gates(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((4, 3)).astype(np.float32),
                        requires_grad=True)
        labels = np.array([0, 1, 2, 0])
        sel = Tensor(np.ones((4, 5), np.float32), requires_grad=True)
        loss = total_loss(logits, labels, sel, 0.0)
        ce = softmax_cross_entropy(Tensor(logits.data.copy()), labels)
        assert loss.item() == ce.item()
        loss.backward()
        assert sel.grad is None  # the gates are not in the graph at all
        assert logits.grad is not None

    def test_no_gates_and_batch_mismatch(self):
        logits = Tensor(np.zeros((4, 3), np.float32))
        labels = np.zeros(4, dtype=np.int64)
        empty = Tensor(np.zeros((4, 0), np.float32))
        assert np.isfinite(total_loss(logits, labels, None, 0.1).item())
        assert np.isfinite(total_loss(logits, labels, empty, 0.1).item())
        with pytest.raises(ValueError):
            total_loss(logits, labels, Tensor(np.ones((3, 5), np.float32)), 0.1)
        with pytest.raises(ValueError):
            total_loss(logits, labels, None, -0.5)


class TestGradientRouting:
    def test_penalty_cannot_reach_backbone(self):
        model = GaterNet(tiny_spec(), seed=0)
        x = np.random.default_rng(2).standard_normal(
            (6, 3, 8, 8)).astype(np.float32)
        report = gradient_routing_check(model, x, np.arange(6) % 3)
        assert report.backbone_reached == []
        assert report.max_backbone_grad == 0.0
        assert report.head_w2_grad_nonzero
        assert any(n.startswith("gater.") for n in report.gater_reached)

    def test_penalty_leaves_backbone_grads_bitwise_unchanged(self):
        # With gates fixed by a replayed rng, adding the penalty must not
        # move a single backbone gradient bit: each backbone parameter gets
        # exactly one backward contribution, and the penalty routes none.
        model = GaterNet(tiny_spec(), seed=3)
        x = np.random.default_rng(4).standard_normal(
            (6, 3, 8, 8)).astype(np.float32)
        labels = np.arange(6) % 3

        def backbone_grads(lambda_):
            logits, bundle = model.forward(
                Tensor(x), training=True, rng=np.random.default_rng(7))
            loss = total_loss(logits, labels, bundle.selected, lambda_)
            for t in model.params.values():
                t.zero_grad()
            loss.backward()
            return {k: t.grad.copy() for k, t in model.params.items()
                    if k.startswith("backbone.")}

        plain = backbone_grads(0.0)
        penalized = backbone_grads(0.1)
        assert plain.keys() == penalized.keys()
        for k in plain:
            assert np.array_equal(plain[k], penalized[k]), k


class TestSgd:
    def test_two_step_recurrence_exact(self):
        # dyadic values keep every intermediate exactly representable
        p = np.array([1.0])
        v = np.zeros(1)
        sgd_step(p, np.array([0.5]), v, lr=0.25, momentum=0.5, weight_decay=0.0)
        assert v[0] == 0.5 and p[0] == 0.875
        sgd_step(p, np.array([0.25]), v, lr=0.25, momentum=0.5, weight_decay=0.0)
        assert v[0] == 0.5 and p[0] == 0.75

    def test_weight_decay_enters_velocity(self):
        p = np.array([1.0])
        v = np.zeros(1)
        sgd_step(p, np.array([0.5]), v, lr=0.25, momentum=0.5, weight_decay=0.25)
        assert v[0] == 0.75 and p[0] == 0.8125
        sgd_step(p, np.array([0.25]), v, lr=0.25, momentum=0.5, weight_decay=0.25)
        assert v[0] == 0.828125 and p[0] == 0.60546875

    def test_lr_must_be_positive(self):
        with pytest.raises(ValueError):
            sgd_step(np.array([1.0]), np.array([1.0]), np.zeros(1),
                     lr=0.0, momentum=0.9, weight_decay=0.0)

    def test_optimizer_exempts_vectors_from_decay(self):
        w = Tensor(np.ones((2, 2), np.float32))
        b = Tensor(np.ones(2, np.float32))
        opt = SGD({"w": w, "b": b}, momentum=0.0, weight_decay=0.5)
        w.grad = np.zeros((2, 2), np.float32)
        b.grad = np.zeros(2, np.float32)
        opt.step(0.5)
        assert np.all(w.data == 0.75)  # decayed: 1 - 0.5 * (0.5 * 1)
        assert np.all(b.data == 1.0)   # bias untouched by decay

    def test_skips_params_without_grads(self):
        w = Tensor(np.ones((2, 2), np.float32))
        opt = SGD({"w": w}, momentum=0.9)
        opt.step(0.1)
        assert np.all(w.data == 1.0)
        assert np.all(opt.velocity["w"] == 0.0)

    def test_zero_grad(self):
        w = Tensor(np.ones((2, 2), np.float32))
        w.grad = np.ones((2, 2), np.float32)
        SGD({"w": w}).zero_grad()
        assert w.grad is None

    def test_validation(self):
        w = {"w": Tensor(np.ones(2, np.float32))}
        with pytest.raises(ValueError):
            SGD(w, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(w, weight_decay=-0.1)


class TestEpochRng:
    def test_same_key_same_stream(self):
        a = _epoch_rng(3, "joint", 5).standard_normal(4)
        b = _epoch_rng(3, "joint", 5).standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        base = _epoch_rng(3, "joint", 5).standard_normal(4)
        for seed, phase, epoch in [(4, "joint", 5), (3, "pretrain_gater", 5),
                                   (3, "joint", 6)]:
            other = _epoch_rng(seed, phase, epoch).standard_normal(4)
            assert not np.array_equal(base, other)


@pytest.mark.parametrize("phase", PHASES)
def test_evaluate_records_no_graph(phase, monkeypatch):
    model = GaterNet(tiny_spec(), seed=0, include_probe=True)
    outputs = []
    forward = train_mod.phase_forward

    def recording_forward(*args, **kwargs):
        logits, gates = forward(*args, **kwargs)
        outputs.extend(t for t in (logits, gates) if t is not None)
        return logits, gates

    monkeypatch.setattr(train_mod, "phase_forward", recording_forward)
    splits = tiny_splits()
    evaluate(model, phase, splits.eval_x, splits.eval_y, 16)
    assert len(outputs) == (4 if phase == "joint" else 2)
    for out in outputs:
        assert not out.requires_grad and out._parents == ()


class TestRunPhase:
    def test_pretrain_backbone(self, tmp_path):
        res = run_phase(tiny_spec(), tiny_cfg("pretrain_backbone"),
                        tiny_splits(), tmp_path)
        assert res.checkpoint_path.is_file()
        assert res.metrics_path.is_file()
        assert len(res.rows) == 2
        for row in res.rows:
            assert row["phase"] == "pretrain_backbone"
            assert row["mean_gate_activation"] == 1.0
            assert row["dropout_rate"] == 0.0
            assert 0.0 <= row["eval_acc"] <= 1.0
        assert res.final_eval_acc == res.rows[-1]["eval_acc"]
        assert res.final_train_loss == res.rows[-1]["train_loss"]
        assert res.final_gate_activation is None

    def test_pretrain_gater_blank_gate_column(self, tmp_path):
        res = run_phase(tiny_spec(), tiny_cfg("pretrain_gater"),
                        tiny_splits(), tmp_path)
        assert all(row["mean_gate_activation"] == "" for row in res.rows)
        assert res.model.probe is not None

    def test_joint_from_scratch(self, tmp_path):
        cfg = tiny_cfg("joint")
        res = run_phase(tiny_spec(), cfg, tiny_splits(), tmp_path,
                        from_scratch=True)
        # 48 samples / batch 16 = 3 steps per epoch, 2 epochs, ramp span 5:
        # epoch 0 ends after step 2 (rate 0.02), epoch 1 after step 5 (0.05)
        assert res.rows[0]["dropout_rate"] == pytest.approx(0.02)
        assert res.rows[-1]["dropout_rate"] == cfg.dropout_end
        for row in res.rows:
            assert 0.0 <= row["mean_gate_activation"] <= 1.0
        assert res.final_gate_activation == res.rows[-1]["mean_gate_activation"]

    def test_joint_requires_pretrained_weights(self, tmp_path):
        with pytest.raises(CheckpointError, match="from-scratch"):
            run_phase(tiny_spec(), tiny_cfg("joint"), tiny_splits(), tmp_path)

    def test_joint_finds_pretrained_checkpoints_in_out_dir(self, tmp_path):
        spec, splits = tiny_spec(), tiny_splits()
        for phase in ("pretrain_backbone", "pretrain_gater"):
            run_phase(spec, tiny_cfg(phase, epochs=1), splits, tmp_path / "found")
        given = run_phase(
            spec, tiny_cfg("joint", epochs=1), splits, tmp_path / "given",
            backbone_ckpt=tmp_path / "found" / "pretrain_backbone.ckpt",
            gater_ckpt=tmp_path / "found" / "pretrain_gater.ckpt",
        )
        found = run_phase(spec, tiny_cfg("joint", epochs=1), splits,
                          tmp_path / "found")
        assert (found.checkpoint_path.read_bytes()
                == given.checkpoint_path.read_bytes())

    def test_metrics_csv_schema(self, tmp_path):
        import csv
        res = run_phase(tiny_spec(), tiny_cfg("joint", epochs=1),
                        tiny_splits(), tmp_path, from_scratch=True)
        with open(res.metrics_path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == METRIC_COLUMNS
            rows = list(reader)
        assert len(rows) == 1
        assert rows[0]["epoch"] == "0"
        assert rows[0]["phase"] == "joint"
        float(rows[0]["train_loss"])
        float(rows[0]["mean_gate_activation"])
        float(rows[0]["lr"])

    def test_rerun_is_bit_identical(self, tmp_path):
        spec, cfg = tiny_spec(), tiny_cfg("pretrain_backbone")
        a = run_phase(spec, cfg, tiny_splits(), tmp_path / "a")
        b = run_phase(spec, cfg, tiny_splits(), tmp_path / "b")
        assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()

    def test_resume_matches_uninterrupted_run(self, tmp_path, monkeypatch):
        import gaternet.train as train_mod
        spec = tiny_spec()
        cfg = tiny_cfg("joint", epochs=3)
        splits = tiny_splits()

        saved = train_mod.save_checkpoint
        side = tmp_path / "epoch0.ckpt"

        def keep_first(path, tensors, meta):
            saved(path, tensors, meta)
            if meta["epochs_done"] == 1:
                shutil.copy(path, side)

        monkeypatch.setattr(train_mod, "save_checkpoint", keep_first)
        full = run_phase(spec, cfg, splits, tmp_path / "full",
                         from_scratch=True)
        monkeypatch.undo()
        assert side.is_file()

        resumed = run_phase(spec, cfg, splits, tmp_path / "resumed",
                            resume_ckpt=side)
        assert (resumed.checkpoint_path.read_bytes()
                == full.checkpoint_path.read_bytes())
        assert (resumed.metrics_path.read_bytes()
                == full.metrics_path.read_bytes())

    def test_resume_of_finished_phase_is_noop(self, tmp_path):
        spec, splits = tiny_spec(), tiny_splits()
        cfg = tiny_cfg("pretrain_backbone")
        done = run_phase(spec, cfg, splits, tmp_path)
        snapshot = done.checkpoint_path.read_bytes()
        again = run_phase(spec, cfg, splits, tmp_path,
                          resume_ckpt=done.checkpoint_path)
        assert again.rows == done.rows
        assert again.final_eval_acc == done.final_eval_acc
        assert again.final_train_loss == done.final_train_loss
        assert again.final_gate_activation == done.final_gate_activation
        assert done.checkpoint_path.read_bytes() == snapshot

    def test_resume_refuses_rows_that_disagree_with_epochs(self, tmp_path):
        spec, splits = tiny_spec(), tiny_splits()
        cfg = tiny_cfg("pretrain_backbone")
        done = run_phase(spec, cfg, splits, tmp_path)
        tensors, meta = load_checkpoint(done.checkpoint_path)
        meta["metrics_rows"] = meta["metrics_rows"][:1]
        save_checkpoint(done.checkpoint_path, tensors, meta)
        with pytest.raises(CheckpointError, match="metrics rows"):
            run_phase(spec, cfg, splits, tmp_path,
                      resume_ckpt=done.checkpoint_path)

    def test_resume_rejects_mismatches(self, tmp_path):
        spec, splits = tiny_spec(), tiny_splits()
        done = run_phase(spec, tiny_cfg("joint"), splits, tmp_path,
                         from_scratch=True)
        with pytest.raises(CheckpointError, match="mismatch"):
            run_phase(spec, tiny_cfg("joint", lambda_=0.7), splits, tmp_path,
                      resume_ckpt=done.checkpoint_path)
        # the phase is checked before the config hash and before any tensor
        with pytest.raises(CheckpointError, match="phase mismatch"):
            run_phase(spec, tiny_cfg("pretrain_backbone"), splits, tmp_path,
                      resume_ckpt=done.checkpoint_path)

    def test_joint_loads_pretrained_weights(self, tmp_path):
        spec, splits = tiny_spec(), tiny_splits()
        pb = run_phase(spec, tiny_cfg("pretrain_backbone", epochs=1),
                       splits, tmp_path)
        pg = run_phase(spec, tiny_cfg("pretrain_gater", epochs=1),
                       splits, tmp_path)
        fresh = GaterNet(spec, seed=0)
        restore(fresh, pb.checkpoint_path, ("backbone",))
        restore(fresh, pg.checkpoint_path, ("gater",))
        for name, t in fresh.params.items():
            if name.startswith("backbone."):
                assert np.array_equal(t.data, pb.model.params[name].data), name
            if name.startswith("gater."):
                assert np.array_equal(t.data, pg.model.params[name].data), name
        for name, arr in fresh.buffers.items():
            src = pb.model if name.startswith("backbone.") else pg.model
            assert np.array_equal(arr, src.buffers[name]), name

    def test_load_rejects_wrong_spec_hash(self, tmp_path):
        spec, splits = tiny_spec(), tiny_splits()
        pb = run_phase(spec, tiny_cfg("pretrain_backbone", epochs=1),
                       splits, tmp_path)
        other = dataclasses.replace(spec, bottleneck=spec.bottleneck + 1)
        with pytest.raises(CheckpointError, match="hash"):
            restore(GaterNet(other, seed=0), pb.checkpoint_path, ("backbone",))

    @pytest.mark.parametrize("edit", [
        lambda a: a[:1],
        lambda a: a.astype(np.float64),
    ], ids=["shape", "dtype"])
    def test_restore_refuses_wrong_shape_or_dtype(self, tmp_path, edit):
        spec, splits = tiny_spec(), tiny_splits()
        pb = run_phase(spec, tiny_cfg("pretrain_backbone", epochs=1),
                       splits, tmp_path)
        tensors, meta = load_checkpoint(pb.checkpoint_path)
        tensors["head.b2"] = edit(tensors["head.b2"])
        save_checkpoint(pb.checkpoint_path, tensors, meta)
        with pytest.raises(CheckpointError, match="head.b2"):
            restore(GaterNet(spec, seed=0), pb.checkpoint_path)

    def test_checkpoint_restores_eval_behavior_bitwise(self, tmp_path):
        spec, splits = tiny_spec(), tiny_splits()
        res = run_phase(spec, tiny_cfg("joint", epochs=1), splits, tmp_path,
                        from_scratch=True)
        tensors, meta = load_checkpoint(res.checkpoint_path)
        assert meta["phase"] == "joint"
        clone = GaterNet(spec, seed=99)  # deliberately different init
        for name, t in clone.params.items():
            t.data[...] = tensors[name]
        for name, arr in clone.buffers.items():
            arr[...] = tensors[name]
        x = Tensor(splits.eval_x[:16])
        a, ba = res.model.forward(x, training=False)
        b, bb = clone.forward(x, training=False)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(ba.selected.data, bb.selected.data)


def test_phase_names_are_stable():
    assert PHASES == ("pretrain_backbone", "pretrain_gater", "joint")
