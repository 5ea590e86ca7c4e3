"""The benchmark's three workloads.

Each workload makes every input from its seed, then exposes:

* ``prepare()`` - the benchmark's own untimed work (reference outputs,
  calibration);
* ``setup()`` - the set-up a user of gaternet pays before the first
  operation; the runner times it several times and reports the median;
* ``op(i)`` - one timed operation on input ``i % distinct_inputs``;
* ``check(i, out)`` - raises ``CheckFailed`` when an output is wrong;
* ``check_reference()`` (eval-gated only) - compares against the outputs
  stored in reference.json.

Every call into gaternet goes through a module attribute (``train.run_phase``
rather than a local name), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from gaternet import analyze, cli, config, data, model, persist, train
from gaternet.tensor import Tensor

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
BATCH = 64
# Tolerances of the stored eval-gated reference (see check_eval_reference).
GATE_MARGIN = 1e-3
LOGIT_RTOL = 1e-4
LOGIT_ATOL = 1e-4

# The model and training hyperparameters of configs/synthetic_small.json:
# 3x16x16 inputs, 4 classes, six gated convs with 144 gates in all.
MODEL = {
    "input_shape": [3, 16, 16],
    "num_classes": 4,
    "bottleneck": 8,
    "backbone": [
        {"kind": "conv", "filters": 16, "gated": True},
        {"kind": "conv", "filters": 16, "gated": True},
        {"kind": "pool"},
        {"kind": "conv", "filters": 24, "gated": True},
        {"kind": "conv", "filters": 24, "gated": True},
        {"kind": "pool"},
        {"kind": "conv", "filters": 32, "gated": True},
        {"kind": "conv", "filters": 32, "gated": True},
        {"kind": "pool"},
        {"kind": "fc", "width": 4},
    ],
    "gater": [
        {"kind": "conv", "filters": 8},
        {"kind": "pool"},
        {"kind": "conv", "filters": 12},
        {"kind": "pool"},
        {"kind": "conv", "filters": 16},
    ],
}


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def run_config(seed: int, train_size: int, eval_size: int) -> dict:
    """A synthetic_small run config with the given split sizes and a
    one-epoch joint phase."""
    return {
        "seed": seed,
        "out_dir": "out",
        "dataset": {
            "kind": "synthetic", "num_classes": 4, "train_size": train_size,
            "eval_size": eval_size, "image_size": 16, "noise": 1.0,
        },
        "model": MODEL,
        "train": {
            "batch_size": BATCH, "momentum": 0.9, "weight_decay": 0.0001,
            "lambda": 0.1, "dropout_start": 0.0, "dropout_end": 0.05,
            "phases": {
                "pretrain_backbone": {"epochs": 1, "lr_schedule": [[0, 0.05]]},
                "pretrain_gater": {"epochs": 1, "lr_schedule": [[0, 0.05]]},
                "joint": {"epochs": 1, "lr_schedule": [[0, 0.02]]},
            },
        },
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class TrainJoint:
    """One joint-phase run_phase from scratch: 2 SGD steps of 64, the
    per-epoch evaluate and the checkpoint write."""

    name = "train-joint"
    TRAIN_SIZE = 128  # 2 steps of 64; train:eval = 4:1 as in synthetic_small
    EVAL_SIZE = 32
    items_per_op = TRAIN_SIZE
    distinct_inputs = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.first: tuple | None = None

    def prepare(self) -> None:
        self.config_path = self.work / "train_joint.json"
        self.config_path.write_text(json.dumps(
            run_config(self.seed, self.TRAIN_SIZE, self.EVAL_SIZE)))
        self.band = load_reference()["train_joint_band"]

    def setup(self) -> None:
        cfg = config.load_config(self.config_path)
        self.spec = cfg.model
        self.phase_cfg = cfg.make_phase_config("joint")
        self.splits = data.load_dataset(cfg.dataset, cfg.seed)
        self.out = self.work / "out"

    def op(self, i: int):
        return train.run_phase(self.spec, self.phase_cfg, self.splits, self.out,
                               from_scratch=True)

    def check(self, i: int, res) -> None:
        got = (res.final_train_loss, res.final_eval_acc, res.final_gate_activation)
        if not all(math.isfinite(v) for v in got):
            raise CheckFailed(f"non-finite result {got}")
        lo, hi = self.band["train_loss"]
        if not lo <= res.final_train_loss <= hi:
            raise CheckFailed(f"train loss {res.final_train_loss} outside [{lo}, {hi}]")
        lo, hi = self.band["eval_acc"]
        if not lo <= res.final_eval_acc <= hi:
            raise CheckFailed(f"eval accuracy {res.final_eval_acc} outside [{lo}, {hi}]")
        if self.first is None:
            self.first = got
        elif got != self.first:
            raise CheckFailed(f"rerun differs: {got} vs first run {self.first}")
        if not res.checkpoint_path.is_file() or not res.metrics_path.is_file():
            raise CheckFailed("checkpoint or metrics file missing")


def shifted_gater_bias(net, calib_x: np.ndarray, seed: int) -> np.ndarray:
    """New head.b2 for net: about 10% of gates always off, 10% always on,
    and the rest on for a seeded 25-75% share of the calibration images."""
    g = np.concatenate([
        net.forward(Tensor(calib_x[lo : lo + BATCH]), training=False)[1].g_pre.data
        for lo in range(0, len(calib_x), BATCH)
    ])
    rng = np.random.default_rng([seed, 1])
    kind = rng.random(g.shape[1])
    share_off = rng.uniform(0.25, 0.75, g.shape[1])
    lo, hi = g.min(axis=0), g.max(axis=0)
    shift = np.array([np.quantile(g[:, j], q) for j, q in enumerate(share_off)])
    shift = np.where(kind < 0.1, 2 * hi - lo, np.where(kind < 0.2, 2 * lo - hi, shift))
    b2 = net.params["head.b2"].data
    return (b2 - shift).astype(b2.dtype)


def gated_model(seed: int, calib_x: np.ndarray, spec) -> model.GaterNet:
    net = model.GaterNet(spec, seed=seed)
    net.params["head.b2"].data[...] = shifted_gater_bias(net, calib_x, seed)
    return net


class EvalGated:
    """Eval-mode GaterNet.forward on batches of 64, about half the gates off,
    with the model restored from a checkpoint during set-up."""

    name = "eval-gated"
    CALIB_SIZE = 256
    EVAL_SIZE = 512
    items_per_op = BATCH
    distinct_inputs = EVAL_SIZE // BATCH

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        self.config_path = self.work / "eval_gated.json"
        self.config_path.write_text(json.dumps(
            run_config(self.seed, self.CALIB_SIZE, self.EVAL_SIZE)))
        cfg = config.load_config(self.config_path)
        splits = data.load_dataset(cfg.dataset, cfg.seed)
        net = gated_model(self.seed, splits.train_x, cfg.model)
        self.b2 = net.params["head.b2"].data.copy()
        self.expected = []
        for i in range(self.distinct_inputs):
            logits, bundle = net.forward(Tensor(self._batch(splits, i)), training=False)
            self.expected.append((logits.data, bundle.g_beta.data))
        self.spec = cfg.model

    def check_reference(self) -> None:
        check_eval_reference(load_reference()["eval_gated"], self.spec)

    @staticmethod
    def _batch(splits, i: int) -> np.ndarray:
        return splits.eval_x[i * BATCH : (i + 1) * BATCH]

    def setup(self) -> None:
        cfg = config.load_config(self.config_path)
        splits = data.load_dataset(cfg.dataset, cfg.seed)
        net = model.GaterNet(cfg.model, seed=self.seed)
        net.params["head.b2"].data[...] = self.b2
        ckpt = self.work / "eval_gated.ckpt"
        tensors = {k: t.data for k, t in net.params.items()}
        tensors.update(net.buffers)
        persist.save_checkpoint(ckpt, tensors, {
            "phase": "joint",
            "spec_hash": persist.dict_hash(model.spec_to_dict(cfg.model)),
        })
        tensors, _ = persist.load_checkpoint(ckpt)
        # A different init seed, so only the restore can make it match.
        self.model = model.GaterNet(cfg.model, seed=self.seed + 1)
        for name, t in self.model.params.items():
            t.data[...] = tensors[name]
        for name, arr in self.model.buffers.items():
            arr[...] = tensors[name]
        self.batches = [self._batch(splits, i) for i in range(self.distinct_inputs)]

    def op(self, i: int):
        logits, bundle = self.model.forward(
            Tensor(self.batches[i % self.distinct_inputs]), training=False)
        return logits.data, bundle.g_beta.data

    def check(self, i: int, out) -> None:
        logits, gates = out
        want_logits, want_gates = self.expected[i % self.distinct_inputs]
        if not np.array_equal(gates, want_gates):
            raise CheckFailed(f"batch {i}: gate bits differ from the pre-save model")
        if not np.array_equal(logits, want_logits):
            raise CheckFailed(f"batch {i}: logits differ from the pre-save model")


def eval_reference(seed: int, spec) -> dict:
    """Gate bits and logits of the first eval batch for one seed."""
    cfg = run_config(seed, EvalGated.CALIB_SIZE, EvalGated.EVAL_SIZE)
    desc = data.DatasetDescriptor(**cfg["dataset"])
    splits = data.load_dataset(desc, seed)
    net = gated_model(seed, splits.train_x, spec)
    logits, bundle = net.forward(Tensor(splits.eval_x[:BATCH]), training=False)
    gates = bundle.g_beta.data.astype(np.uint8)
    return {
        "seed": seed,
        "gate_margin": GATE_MARGIN,
        "logit_rtol": LOGIT_RTOL,
        "logit_atol": LOGIT_ATOL,
        "gates": [row.tobytes().hex() for row in np.packbits(gates, axis=1)],
        "unsure": np.argwhere(np.abs(bundle.g_pre.data) <= GATE_MARGIN).tolist(),
        "logits": logits.data.astype(np.float64).round(6).tolist(),
    }


def _unpack(rows: list[str], width: int) -> np.ndarray:
    packed = np.array([np.frombuffer(bytes.fromhex(r), np.uint8) for r in rows])
    return np.unpackbits(packed, axis=1)[:, :width]


def check_eval_reference(ref: dict, spec) -> None:
    """Compare a fresh eval_reference with the stored one.

    Gates whose score lies within ``gate_margin`` of zero may flip under a
    change of summation order, so they and the logits of their samples are
    skipped. The other gates must match exactly and the other logits
    (stored to 6 decimals) to within ``logit_atol + logit_rtol * |logit|``.
    """
    got = eval_reference(ref["seed"], spec)
    width = spec.gated_filter_total
    firm = np.ones((len(ref["gates"]), width), dtype=bool)
    for r, c in ref["unsure"] + got["unsure"]:
        firm[r, c] = False
    if not np.array_equal(_unpack(ref["gates"], width)[firm],
                          _unpack(got["gates"], width)[firm]):
        raise CheckFailed("eval-gated: gate bits differ from the stored reference")
    rows = firm.all(axis=1)
    want = np.asarray(ref["logits"])[rows]
    have = np.asarray(got["logits"])[rows]
    if not np.allclose(have, want, rtol=ref["logit_rtol"], atol=ref["logit_atol"]):
        raise CheckFailed("eval-gated: logits differ from the stored reference")


class AnalyzeGatelog:
    """save_gate_log then ``gaternet analyze`` on a seeded 8192 x 144 log."""

    name = "analyze-gatelog"
    N_SAMPLES = 8192
    distinct_inputs = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        spec = model.spec_from_dict(MODEL)
        gate_map = model.build_gate_map(spec)
        self.layer_ids = gate_map.layer_ids
        self.filter_ids = gate_map.filter_ids
        c = gate_map.total
        rng = np.random.default_rng([self.seed, 2])
        u = rng.random(c)
        # Column classes: 0 always on, 1 always off, 2 input dependent.
        self.classes = np.where(u < 0.15, 0, np.where(u < 0.3, 1, 2))
        self.p_on = np.where(self.classes == 0, 1.0,
                             np.where(self.classes == 1, 0.0, rng.uniform(0.05, 0.95, c)))
        self.items_per_op = self.N_SAMPLES * c
        self.path = self.work / "gates.glog"
        self.out = self.work / "analysis"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        gates = rng.random((self.N_SAMPLES, len(self.p_on))) < self.p_on
        dep = self.classes == 2
        gates[0, dep] = True   # every input-dependent column holds a 1
        gates[1, dep] = False  # and a 0
        self.log = analyze.GateLog(
            gates=gates, labels=np.arange(self.N_SAMPLES) % 4,
            layer_ids=self.layer_ids, filter_ids=self.filter_ids)

    def op(self, i: int):
        analyze.save_gate_log(self.path, self.log)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["analyze", "--gatelog", str(self.path),
                           "--out", str(self.out)])
        return rc, buf.getvalue()

    def check(self, i: int, out) -> None:
        rc, text = out
        if rc != 0:
            raise CheckFailed(f"analyze exited {rc}")
        printed = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        n, c = self.N_SAMPLES, len(self.classes)
        want = {"samples": n, "gates": c}
        for k, name in enumerate(analyze.CATEGORIES):
            want[name] = int((self.classes == k).sum())
        for key, value in want.items():
            if printed.get(key) != str(value):
                raise CheckFailed(f"analyze printed {key}: {printed.get(key)}, want {value}")
        taxonomy = self._rows("taxonomy.csv")
        got = [analyze.CATEGORIES.index(r["category"]) for r in taxonomy]
        if got != self.classes.tolist():
            raise CheckFailed("taxonomy.csv categories differ from the generator's")
        for r in self._rows("layer_distribution.csv"):
            mask = self.layer_ids == int(r["layer_id"])
            for k, name in enumerate(analyze.CATEGORIES):
                if int(r[name]) != int((self.classes[mask] == k).sum()):
                    raise CheckFailed(f"layer {r['layer_id']}: {name} count wrong")
        for name, total in (("on_count_histogram.csv", want["input_dependent"]),
                            ("fired_count_histogram.csv", n)):
            if sum(int(r["count"]) for r in self._rows(name)) != total:
                raise CheckFailed(f"{name} total differs from {total}")

    def _rows(self, name: str) -> list[dict]:
        with open(self.out / name, newline="") as f:
            return list(csv.DictReader(f))


WORKLOADS = {w.name: w for w in (TrainJoint, EvalGated, AnalyzeGatelog)}
