"""Config parsing (strict keys, path checks, fail-fast hyperparameters)
and the command-line interface end to end."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gaternet.analyze import GateLog, load_gate_log, save_gate_log
from gaternet.cli import main
from gaternet.config import ConfigError, load_config
from gaternet.data import load_dataset
from gaternet.model import GaterNet, conv_macs, spec_to_dict
from gaternet.persist import dict_hash, load_checkpoint, save_checkpoint
from gaternet.tensor import Tensor, no_grad
from gaternet.train import PHASES, TrainConfig, evaluate, restore, run_phase
from oracles import phase_model

SRC = Path(__file__).resolve().parent.parent / "src"
SYNTHETIC_SMALL = (Path(__file__).resolve().parent.parent / "configs"
                   / "synthetic_small.json")
# train_config_hash of each synthetic_small phase; checkpoints carry it, so
# a change here stops every saved run of this config from resuming
SYNTHETIC_SMALL_HASHES = {
    "pretrain_backbone":
        "ff49476193676e1df573eccea7d9b5c32f7ea0b5485343b2c835e48d4ccd627f",
    "pretrain_gater":
        "22ebf29bdf89bf2084296943ae8a39ce3858e5496da655eb265936115c4a1217",
    "joint":
        "b607097c0e389a423fd8764bfcb30bce7591e47b0acf1520a790d49dd26d0d4f",
}
# spec_hash of the synthetic_small model; checkpoints carry it, so a change
# here stops every saved run of this config from loading
SYNTHETIC_SMALL_SPEC_HASH = (
    "5f15f6f1ca901e17b1aa3409c2b6ad24a13e71fba664c9c4260b83eb9b45d18b")


def base_config(tmp_path) -> dict:
    return {
        "seed": 0,
        "out_dir": str(tmp_path / "run"),
        "dataset": {
            "kind": "synthetic", "num_classes": 3, "train_size": 48,
            "eval_size": 24, "image_size": 8, "noise": 0.5,
        },
        "model": {
            "input_shape": [3, 8, 8],
            "num_classes": 3,
            "backbone": [
                {"kind": "conv", "filters": 4, "gated": True},
                {"kind": "pool"},
                {"kind": "fc", "width": 3},
            ],
            "gater": [{"kind": "conv", "filters": 2}, {"kind": "pool"}],
            "bottleneck": 2,
        },
        "train": {
            "batch_size": 16,
            "weight_decay": 0.0001,
            "phases": {
                "pretrain_backbone": {"epochs": 1, "lr_schedule": [[0, 0.05]]},
                "pretrain_gater": {"epochs": 1, "lr_schedule": [[0, 0.05]]},
                "joint": {"epochs": 2, "lr_schedule": [[0, 0.02]]},
            },
        },
    }


# one key of each converted type in each section, with the type it needs
TYPED_KEYS = [
    (("seed",), int),
    (("out_dir",), str),
    (("dataset", "train_size"), int),
    (("dataset", "noise"), float),
    (("dataset", "mirror"), bool),
    (("dataset", "mean"), list),
    (("model", "bottleneck"), int),
    (("model", "input_shape"), list),
    (("model", "backbone", 0, "filters"), int),
    (("model", "backbone", 0, "gated"), bool),
    (("model", "backbone", 1, "window"), int),
    (("train", "batch_size"), int),
    (("train", "momentum"), float),
    (("train", "phases", "joint", "epochs"), int),
]
_NOT_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                        st.lists(st.integers(0, 9), max_size=2))
WRONG_TYPED = {
    int: st.one_of(_NOT_NUMBER,
                   st.floats().filter(lambda v: not v.is_integer())),
    float: st.one_of(_NOT_NUMBER, st.sampled_from([math.nan, math.inf])),
    bool: st.one_of(st.none(), st.integers(), st.floats(allow_nan=False),
                    st.sampled_from(["true", "false", "no"])),
    str: st.one_of(st.none(), st.booleans(), st.integers(),
                   st.lists(st.text(max_size=2), max_size=2)),
    # a list value needs a list of numbers: a bare value, or a list
    # holding at least one entry of the wrong type, is refused
    list: st.one_of(st.none(), st.integers(), st.text(max_size=3),
                    st.lists(st.sampled_from([None, True, "x", 1.5]),
                             min_size=3, max_size=3)
                    .filter(lambda v: v != [1.5] * 3)),
}


def run_capped(*argv: str) -> subprocess.CompletedProcess:
    """`python -m gaternet *argv` in a child process with a 4 GiB address space."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    cap = 4 * 2**30
    return subprocess.run(
        [sys.executable, "-m", "gaternet", *argv], env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        capture_output=True, text=True, timeout=120)


def write_config(tmp_path, doc, name="run.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def joint_run(tmp_path_factory) -> tuple[str, Path]:
    """(config path, checkpoint) of a one-epoch joint run from scratch on
    the base config."""
    tmp_path = tmp_path_factory.mktemp("joint_run")
    doc = base_config(tmp_path)
    doc["train"]["phases"]["joint"]["epochs"] = 1
    cfg_path = write_config(tmp_path, doc)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", cfg_path, "--phase", "joint",
                     "--from-scratch"]) == 0
    return cfg_path, tmp_path / "run" / "joint.ckpt"


# the metadata keys a restore or resume reads
CHECKPOINT_META_KEYS = ("format", "phase", "kind", "spec_hash", "train_config_hash",
                        "epochs_done", "step", "metrics_rows")
JSON_VALUE = st.one_of(
    # integers past float range, and text a terminal would act on
    st.sampled_from([10**400, -10**400, math.nan, "a\nb", "\r", "\x1b[2J", "joint"]),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda kids: st.lists(kids, max_size=3)
        | st.dictionaries(st.text(max_size=3), kids, max_size=3),
        max_leaves=6,
    ),
)


_GEOMETRY_LAYER = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("conv"), "filters": st.integers(1, 3),
        "kernel": st.integers(1, 5), "stride": st.integers(1, 3),
        "padding": st.integers(0, 2)}),
    st.fixed_dictionaries({"kind": st.just("pool"), "window": st.integers(1, 3)}),
)


# keys whose large values would allocate or run long; a mutation pushes
# these only down, out of range, since a size that could allocate is a
# child-process test under an address-space cap (run_capped)
_SIZE_KEYS = {"train_size", "eval_size", "image_size", "input_shape", "filters",
              "width", "bottleneck", "batch_size", "epochs"}
_EXTREME_NUMBER = st.sampled_from([-2**63, -1, 0, -1e-300, 1e-300, 0.5, 1.0,
                                   -1e300, 1e300, 2**64])
_LOW_SIZE = st.sampled_from([-2**63, -1, 0])
_ANY_JSON_TYPE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1))


def _key_paths(node, path=()):
    """Every key or list-entry path under a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


@st.composite
def _mutated_config(draw, doc):
    """doc with one key dropped, one value replaced by another JSON type,
    or one number pushed out of range or to an extreme."""
    def holder(path):
        node = doc
        for part in path[:-1]:
            node = node[part]
        return node

    def is_number(path):
        value = holder(path)[path[-1]]
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    op = draw(st.sampled_from(["drop", "retype", "number"]), label="op")
    path = draw(st.sampled_from([p for p in _key_paths(doc)
                                 if op != "number" or is_number(p)]), label="path")
    node = holder(path)
    if op == "drop":
        del node[path[-1]]
    elif op == "retype":
        node[path[-1]] = draw(_ANY_JSON_TYPE, label="value")
    else:
        size = any(part in _SIZE_KEYS for part in path)
        node[path[-1]] = draw(_LOW_SIZE if size else _EXTREME_NUMBER, label="value")
    return doc


def _stack_side(side: int, layers) -> int | None:
    """The side a conv/pool stack leaves of a side x side input, counted
    window position by window position; None where a conv has no position
    or a pool window does not tile its input."""
    for layer in layers:
        if layer["kind"] == "conv":
            padded = side + 2 * layer["padding"]
            side = len(range(0, padded - layer["kernel"] + 1, layer["stride"]))
            if side == 0:
                return None
        elif side % layer["window"]:
            return None
        else:
            side //= layer["window"]
    return side


class TestLoadConfig:
    def test_valid_document(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(tmp_path)))
        assert cfg.seed == 0
        tc = cfg.make_phase_config("joint")
        assert tc.batch_size == 16
        assert tc.lambda_ == 0.1      # default
        assert tc.momentum == 0.9     # default
        assert tc.weight_decay == 0.0001
        assert cfg.dataset.kind == "synthetic"
        assert cfg.model.bottleneck == 2
        assert cfg.model.backbone[0].gated
        assert cfg.phases["joint"].epochs == 2
        assert cfg.phases["joint"].lr_schedule == ((0, 0.02),)
        assert tc.phase == "joint"

    @pytest.mark.parametrize("mutate,where", [
        (lambda d: d.__setitem__("colour", 1), "config"),
        (lambda d: d["dataset"].__setitem__("nois", 0.1), "dataset"),
        (lambda d: d["model"].__setitem__("depth", 3), "model"),
        (lambda d: d["model"]["backbone"][0].__setitem__("filers", 4),
         "model.backbone[0]"),
        (lambda d: d["model"]["backbone"][1].__setitem__("filters", 4),
         "model.backbone[1]"),  # pool takes no filters
        (lambda d: d["train"].__setitem__("wieght_decay", 0.1), "train"),
        (lambda d: d["train"]["phases"].__setitem__("warmup", {}),
         "train.phases"),
        (lambda d: d["train"]["phases"]["joint"].__setitem__("lr", 0.1),
         "train.phases.joint"),
    ])
    def test_unknown_key_is_rejected_with_location(self, tmp_path, mutate, where):
        doc = base_config(tmp_path)
        mutate(doc)
        with pytest.raises(ConfigError, match=f"unknown key .* in {where}"
                           .replace("[", r"\[").replace("]", r"\]")):
            load_config(write_config(tmp_path, doc))

    def test_unknown_model_key_is_reported_before_spec_errors(self, tmp_path):
        # the typo may be what broke the spec, so it is named first
        doc = base_config(tmp_path)
        doc["model"]["bottlenek"] = 3
        doc["model"]["gater"].append({"kind": "pool", "window": 3})
        with pytest.raises(ConfigError,
                           match="^unknown key 'bottlenek' in model$"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("drop", [
        lambda d: d.pop("out_dir"),
        lambda d: d.pop("dataset"),
        lambda d: d["dataset"].pop("num_classes"),
        lambda d: d["train"].pop("batch_size"),
        lambda d: d["train"]["phases"].pop("joint"),
        lambda d: d["train"]["phases"]["joint"].pop("lr_schedule"),
    ])
    def test_missing_required_key(self, tmp_path, drop):
        doc = base_config(tmp_path)
        drop(doc)
        with pytest.raises(ConfigError, match="missing"):
            load_config(write_config(tmp_path, doc))

    def test_num_classes_mismatch(self, tmp_path):
        doc = base_config(tmp_path)
        doc["model"]["num_classes"] = 4
        doc["model"]["backbone"][-1]["width"] = 4
        with pytest.raises(ConfigError, match="does not match"):
            load_config(write_config(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "absent.json")

    def test_cifar_paths_resolve_relative_to_config(self, tmp_path):
        (tmp_path / "train.bin").write_bytes(b"\x00" * 3073)
        (tmp_path / "test.bin").write_bytes(b"\x00" * 3073)
        doc = base_config(tmp_path)
        doc["dataset"] = {
            "kind": "cifar10", "train_paths": ["train.bin"],
            "eval_path": "test.bin",
        }
        doc["model"]["num_classes"] = 10
        doc["model"]["input_shape"] = [3, 32, 32]
        doc["model"]["backbone"][-1]["width"] = 10
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.dataset.train_paths == (str(tmp_path / "train.bin"),)
        assert cfg.dataset.eval_path == str(tmp_path / "test.bin")

    def test_cifar_missing_file_is_config_error(self, tmp_path):
        doc = base_config(tmp_path)
        doc["dataset"] = {
            "kind": "cifar10", "train_paths": ["absent.bin"],
            "eval_path": "also_absent.bin",
        }
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("mutate", [
        lambda d: d["train"].__setitem__("momentum", 1.5),
        lambda d: d["train"].__setitem__("lambda", -0.1),
        lambda d: d["train"].__setitem__("dropout_end", 1.0),
        lambda d: d["train"]["phases"]["joint"].__setitem__(
            "lr_schedule", [[0, 0.1], [0, 0.2]]),
        lambda d: d["train"]["phases"]["joint"].__setitem__("epochs", 0),
        lambda d: d["train"].__setitem__("batch_size", "abc"),
        lambda d: d["train"].__setitem__("lambda", "x"),
        lambda d: d["train"]["phases"]["joint"].__setitem__(
            "lr_schedule", [[0, "x"]]),
        lambda d: d["dataset"].__setitem__("train_size", "many"),
        lambda d: d.__setitem__("seed", [1]),
        lambda d: d["model"]["backbone"][0].__setitem__("gated", "no"),
        lambda d: d["model"]["backbone"][0].__setitem__("batchnorm", "false"),
        lambda d: d["dataset"].__setitem__("random_crop", "false"),
        lambda d: d["train"].__setitem__("batch_size", 1.5),
        lambda d: d["model"].__setitem__("bottleneck", 2.7),
        lambda d: d.__setitem__("seed", 0.5),
        lambda d: d.__setitem__("seed", -1),
        lambda d: d["model"]["backbone"][0].__setitem__("filters", 4.5),
        lambda d: d["model"]["backbone"][0].__setitem__("kernel", 2.5),
        lambda d: d["model"]["backbone"][0].__setitem__("gated", 1),
        lambda d: d["train"]["phases"]["joint"].__setitem__("epochs", 1.5),
        lambda d: d["train"]["phases"]["joint"].__setitem__(
            "lr_schedule", [[0.5, 0.1]]),
        lambda d: d["dataset"].__setitem__("mean", ["a", "b", "c"]),
        lambda d: d["dataset"].__setitem__("std", [1.0]),
        lambda d: d["dataset"].__setitem__("mean", [0.5]),
        lambda d: d["dataset"].__setitem__("image_size", 16),
        lambda d: d["model"].__setitem__("input_shape", [1, 8, 8]),
        lambda d: d["model"].__setitem__("input_shape", [3, 8, 8.5]),
    ])
    def test_bad_hyperparameters_fail_at_load(self, tmp_path, mutate):
        doc = base_config(tmp_path)
        mutate(doc)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_std_underflowing_float32_is_a_config_error(self, tmp_path, capsys):
        doc = base_config(tmp_path)
        doc["dataset"]["std"] = [1e-300, 1, 1]
        assert main(["train", "--config", write_config(tmp_path, doc),
                     "--phase", "pretrain-backbone"]) == 2
        assert capsys.readouterr().err == (
            "config error: dataset: std entries must be positive in float32, "
            "got (1e-300, 1.0, 1.0)\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad", [5, "run.json", ["run.json", 1]])
    def test_cifar_train_paths_must_be_a_list_of_strings(self, tmp_path, bad):
        doc = base_config(tmp_path)
        # the config file itself exists, so only the type is wrong
        doc["dataset"] = {"kind": "cifar10", "train_paths": bad,
                          "eval_path": "run.json"}
        with pytest.raises(ConfigError, match=r"dataset\.train_paths must be"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("key", ["backbone", "gater"])
    def test_layer_stack_must_be_a_list(self, tmp_path, key):
        doc = base_config(tmp_path)
        doc["model"][key] = 3
        with pytest.raises(ConfigError) as e:
            load_config(write_config(tmp_path, doc))
        assert str(e.value) == f"model.{key} must be a list of layer objects, got 3"

    @given(st.data())
    def test_wrong_typed_value_fails_at_load(self, tmp_path_factory, data):
        path, want = data.draw(st.sampled_from(TYPED_KEYS), label="key")
        value = data.draw(WRONG_TYPED[want], label="value")
        tmp_path = tmp_path_factory.mktemp("typed")
        doc = base_config(tmp_path)
        node = doc
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=str(path[-1])):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("bad", ["fast", [[0, 0.1], [5]], [0, 0.1]])
    def test_schedule_must_be_pairs(self, tmp_path, bad):
        doc = base_config(tmp_path)
        doc["train"]["phases"]["joint"]["lr_schedule"] = bad
        with pytest.raises(ConfigError, match="pairs"):
            load_config(write_config(tmp_path, doc))

    def test_synthetic_small_phase_configs_are_pinned(self):
        doc = json.loads(SYNTHETIC_SMALL.read_text())
        train = doc["train"]
        cfg = load_config(SYNTHETIC_SMALL)
        for phase in PHASES:
            block = train["phases"][phase]
            want = TrainConfig(
                phase=phase,
                epochs=block["epochs"],
                batch_size=train["batch_size"],
                lr_schedule=tuple(map(tuple, block["lr_schedule"])),
                momentum=train["momentum"],
                weight_decay=train["weight_decay"],
                lambda_=train["lambda"],
                seed=doc["seed"],
                dropout_start=train["dropout_start"],
                dropout_end=train["dropout_end"],
            )
            got = cfg.make_phase_config(phase)
            assert got == want, phase
            assert dict_hash(dataclasses.asdict(got)) == SYNTHETIC_SMALL_HASHES[phase]
        reseeded = dataclasses.replace(cfg, seed=5)
        assert [reseeded.make_phase_config(p).seed for p in PHASES] == [5] * 3

    def test_synthetic_small_spec_hash_is_pinned(self):
        spec = load_config(SYNTHETIC_SMALL).model
        assert dict_hash(spec_to_dict(spec)) == SYNTHETIC_SMALL_SPEC_HASH

    def test_cifar10_config_loads(self, tmp_path):
        # load_config checks only that the batch files exist, so empty
        # placeholders at the config's relative paths stand in for them
        src = SYNTHETIC_SMALL.parent / "cifar10.json"
        (tmp_path / "configs").mkdir()
        path = tmp_path / "configs" / "cifar10.json"
        path.write_bytes(src.read_bytes())
        batches = tmp_path / "data" / "cifar-10-batches-bin"
        batches.mkdir(parents=True)
        names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
        for name in names:
            (batches / name).touch()
        cfg = load_config(path)
        assert cfg.dataset.kind == "cifar10"
        assert [Path(p).name for p in cfg.dataset.train_paths] == names[:5]
        assert Path(cfg.dataset.eval_path).name == names[5]
        assert cfg.model.input_shape == (3, 32, 32)
        assert cfg.model.gated_filter_total == 2 * (32 + 64 + 128)
        assert cfg.model.feature_size == 32
        assert [cfg.phases[p].epochs for p in PHASES] == [30, 20, 40]

    def test_unknown_dataset_kind(self, tmp_path):
        doc = base_config(tmp_path)
        doc["dataset"] = {"kind": "imagenet"}
        with pytest.raises(ConfigError, match="kind"):
            load_config(write_config(tmp_path, doc))

    def test_unknown_layer_kind(self, tmp_path):
        doc = base_config(tmp_path)
        doc["model"]["backbone"][0] = {"kind": "dense", "filters": 4}
        with pytest.raises(ConfigError, match="kind"):
            load_config(write_config(tmp_path, doc))

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(4, 12), stack=st.sampled_from(["backbone", "gater"]),
           layers=st.lists(_GEOMETRY_LAYER, min_size=1, max_size=4).filter(
               lambda ls: any(l["kind"] == "conv" for l in ls)))
    def test_spec_geometry_is_checked_at_load(self, tmp_path_factory, side,
                                              stack, layers):
        # the drawn conv/pool stack is the backbone (its convs gated, then
        # the classifier) or the gater; the other stack fits any input
        tmp_path = tmp_path_factory.mktemp("geometry")
        doc = base_config(tmp_path)
        doc["dataset"]["image_size"] = side
        model = doc["model"]
        model["input_shape"] = [3, side, side]
        model["backbone"] = [{"kind": "conv", "filters": 2, "gated": True},
                             {"kind": "fc", "width": 3}]
        model["gater"] = [{"kind": "conv", "filters": 2}]
        if stack == "backbone":
            model["backbone"] = ([dict(l, gated=True) if l["kind"] == "conv"
                                  else l for l in layers]
                                 + [{"kind": "fc", "width": 3}])
        else:
            model["gater"] = layers
        cfg_path = write_config(tmp_path, doc)
        if _stack_side(side, layers) is not None:
            net = GaterNet(load_config(cfg_path).model)
            x = np.random.default_rng(side).standard_normal(
                (2, 3, side, side)).astype(np.float32)
            logits, _ = net.forward(Tensor(x), training=False)
            assert logits.shape == (2, 3)
            return
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["train", "--config", cfg_path, "--phase", "joint",
                         "--from-scratch"]) == 2
        assert err.getvalue().startswith(f"config error: model: {stack} layer ")
        assert not (tmp_path / "run").exists()


    @settings(max_examples=20, deadline=None)
    @given(side=st.integers(4, 8),
           backbone=st.lists(_GEOMETRY_LAYER, min_size=1, max_size=3),
           gater=st.lists(_GEOMETRY_LAYER, min_size=1, max_size=3),
           seed=st.integers(0, 2**16))
    def test_small_valid_specs_keep_the_contracts(self, tmp_path_factory, side,
                                                  backbone, gater, seed):
        """Three of the bit-exact contracts on small drawn specs: a one-epoch
        joint rerun writes the same checkpoint bytes; that checkpoint
        restored into a differently seeded GaterNet gives the same eval
        logits and gates; and all-ones gates reproduce the ungated backbone
        forward."""
        assume(all(any(l["kind"] == "conv" for l in ls)
                   and _stack_side(side, ls) is not None for ls in (backbone, gater)))
        tmp_path = tmp_path_factory.mktemp("contracts")
        doc = base_config(tmp_path)
        doc["seed"] = seed
        doc["dataset"].update(train_size=8, eval_size=4, image_size=side)
        doc["model"].update(
            input_shape=[3, side, side], gater=gater,
            backbone=[dict(l, gated=True) if l["kind"] == "conv" else l
                      for l in backbone] + [{"kind": "fc", "width": 3}])
        doc["train"]["batch_size"] = 4
        cfg = load_config(write_config(tmp_path, doc))
        joint = dataclasses.replace(cfg.make_phase_config("joint"), epochs=1)
        splits = load_dataset(cfg.dataset, cfg.seed)
        runs = [run_phase(cfg.model, joint, splits, tmp_path / name,
                          from_scratch=True) for name in ("a", "b")]
        ckpt = runs[0].checkpoint_path
        assert ckpt.read_bytes() == runs[1].checkpoint_path.read_bytes()

        x = Tensor(splits.eval_x)
        trained = phase_model(cfg.model, runs[0])
        acc, gate, _ = evaluate(trained, "joint", splits.eval_x, splits.eval_y,
                                joint.batch_size)
        assert (acc, gate) == (runs[0].final_eval_acc, runs[0].final_gate_activation)
        restored = GaterNet(cfg.model, seed=seed + 1)
        restore(restored, ckpt)
        (logits, bundle), (logits2, bundle2) = (
            net.forward(x, training=False) for net in (trained, restored))
        assert logits.data.tobytes() == logits2.data.tobytes()
        assert bundle.selected.data.tobytes() == bundle2.selected.data.tobytes()

        # a zero output layer and a positive bias put every gate on
        trained.params["head.W2"].data[...] = 0.0
        trained.params["head.b2"].data[...] = 1.0
        logits, bundle = trained.forward(x, training=False)
        assert np.all(bundle.selected.data == 1.0)
        with no_grad():
            plain = trained.forward_backbone(x, training=False)
        assert logits.data.tobytes() == plain.data.tobytes()


class TestCli:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_config_exits_with_a_typed_error(self, tmp_path_factory,
                                                     data):
        """A valid tiny config with one key dropped, retyped or pushed out of
        range trains (exit 0) or fails with one line and exit 2, 3 or 4;
        exit 1 is an unexpected exception."""
        tmp_path = tmp_path_factory.mktemp("mutated")
        doc = base_config(tmp_path)
        doc["train"].update(momentum=0.9, **{"lambda": 0.1}, dropout_start=0.0,
                            dropout_end=0.05)
        doc = data.draw(_mutated_config(doc), label="config")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--config", write_config(tmp_path, doc),
                         "--phase", "joint", "--from-scratch",
                         "--out-dir", str(tmp_path / "out")])
        assert code in (0, 2, 3, 4), err.getvalue()
        if code:
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert err.getvalue().startswith(
                ("config error: ", "checkpoint error: ", "data error: "))

    def test_full_pipeline(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        out = tmp_path / "run"

        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone"]) == 0
        assert (out / "pretrain_backbone.ckpt").is_file()
        assert (out / "metrics_pretrain_backbone.csv").is_file()

        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-gater"]) == 0

        # joint discovers both pretrain checkpoints in the output directory
        assert main(["train", "--config", cfg_path, "--phase", "joint"]) == 0
        stdout = capsys.readouterr().out
        assert "final_eval_acc:" in stdout
        assert "final_mean_gate_activation:" in stdout

        gatelog = str(tmp_path / "gates.glog")
        assert main(["eval", "--config", cfg_path,
                     "--ckpt", str(out / "joint.ckpt"),
                     "--dump-gates", gatelog]) == 0
        stdout = capsys.readouterr().out
        assert "accuracy:" in stdout and "samples: 24" in stdout

        log = load_gate_log(gatelog)
        # eval split size x total gated filters
        assert log.gates.shape == (24, 4)
        cfg = load_config(cfg_path)
        lines = stdout.splitlines()
        at = next(i for i, line in enumerate(lines)
                  if line.startswith("mean_gate_activation:"))
        total, off = conv_macs(cfg.model, log.gates)
        assert lines[at + 1 : at + 3] == [f"conv_macs_total: {total}",
                                          f"conv_macs_gated_off: {off}"]
        # gater conv 3->2 and backbone conv 3->4, both 3x3 at 8x8, per image;
        # each off gate switches off its filter's 3 input channels
        assert total == 24 * 9 * 64 * (3 * 2 + 3 * 4)
        assert off == 9 * 64 * 3 * int((log.gates == 0).sum())
        assert np.array_equal(
            log.labels, load_dataset(cfg.dataset, cfg.seed).eval_y)
        gate_map = GaterNet(cfg.model).gate_map
        assert np.array_equal(log.layer_ids, gate_map.layer_ids)
        assert np.array_equal(log.filter_ids, gate_map.filter_ids)

        an_dir = tmp_path / "analysis"
        assert main(["analyze", "--gatelog", gatelog,
                     "--out", str(an_dir), "--bins", "8"]) == 0
        for name in ("taxonomy.csv", "layer_distribution.csv",
                     "on_count_histogram.csv", "fired_count_histogram.csv",
                     "usage_vectors.csv"):
            assert (an_dir / name).is_file(), name
        with open(an_dir / "taxonomy.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4
        stdout = capsys.readouterr().out
        assert "always_on:" in stdout and "pca_components:" in stdout
        # every eval image fires the same gates, so the usage vectors carry
        # no variance: the rank is printed, not warned about
        assert "pca_rank: 0" in stdout.splitlines()

    @pytest.mark.parametrize("empty_split", ["train", "eval"])
    def test_empty_cifar_split_exits_4(self, tmp_path, capsys, caplog, empty_split):
        (tmp_path / "full.bin").write_bytes(b"\x00" * 3073 * 2)
        (tmp_path / "empty.bin").write_bytes(b"")

        def cifar_config(name, train, eval_path):
            doc = base_config(tmp_path)
            doc["dataset"] = {"kind": "cifar10", "train_paths": [train],
                              "eval_path": eval_path}
            doc["model"]["num_classes"] = 10
            doc["model"]["input_shape"] = [3, 32, 32]
            doc["model"]["backbone"][-1]["width"] = 10
            return write_config(tmp_path, doc, name)

        good = cifar_config("good.json", "full.bin", "full.bin")
        assert main(["train", "--config", good, "--phase", "pretrain-backbone"]) == 0
        ckpt = str(tmp_path / "run" / "pretrain_backbone.ckpt")
        bad = cifar_config("bad.json", *(("empty.bin", "full.bin")
                                         if empty_split == "train"
                                         else ("full.bin", "empty.bin")))
        capsys.readouterr()
        caplog.clear()
        for argv in (["train", "--config", bad, "--phase", "joint",
                      "--from-scratch"],
                     ["train", "--config", bad, "--phase", "pretrain-backbone"],
                     ["eval", "--config", bad, "--ckpt", ckpt]):
            if argv[0] == "eval" and empty_split == "train":
                # eval decodes only the eval split
                assert main(argv) == 0, argv
                assert "accuracy:" in capsys.readouterr().out
                continue
            assert main(argv) == 4, argv
            out, err = capsys.readouterr()
            assert f"{empty_split} split has no records" in err
            assert out == ""
        # each run that decodes the empty file logs it once
        empty = str(tmp_path / "empty.bin")
        assert ([r.getMessage() for r in caplog.records
                 if r.name == "gaternet.data"]
                == [f"empty dataset file: {empty}"] * (2 if empty_split == "train" else 3))

    def test_joint_without_pretrains_exits_3(self, tmp_path, capsys):
        doc = base_config(tmp_path)
        doc["out_dir"] = str(tmp_path / "fresh")
        cfg_path = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg_path, "--phase", "joint"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:")
        assert "pretrain" in err and "--from-scratch" in err
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("given", ["backbone", "gater"])
    def test_joint_names_only_the_missing_pretrain(self, tmp_path, capsys, given):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        phase = f"pretrain-{given}"
        assert main(["train", "--config", cfg_path, "--phase", phase]) == 0
        ckpt = str(tmp_path / "run" / f"pretrain_{given}.ckpt")
        doc = base_config(tmp_path)
        doc["out_dir"] = str(tmp_path / "fresh")
        fresh = write_config(tmp_path, doc, "fresh.json")
        capsys.readouterr()
        assert main(["train", "--config", fresh, "--phase", "joint",
                     f"--{given}-ckpt", ckpt]) == 3
        err = capsys.readouterr().err
        other = "gater" if given == "backbone" else "backbone"
        assert err.startswith("checkpoint error:")
        assert (f"missing (neither given nor found in {tmp_path / 'fresh'}): "
                f"--{other}-ckpt / pretrain_{other}.ckpt.") in err
        assert f"pretrain_{given}.ckpt" not in err
        assert not (tmp_path / "fresh").exists()

    def test_config_error_exits_2(self, tmp_path, capsys):
        doc = base_config(tmp_path)
        doc["typo"] = 1
        cfg_path = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

        # the knob that chose a summed gate penalty is gone
        doc = base_config(tmp_path)
        doc["train"]["reg_reduction"] = "mean"
        cfg_path = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone"]) == 2
        assert (capsys.readouterr().err
                == "config error: unknown key 'reg_reduction' in train\n")

        # an output path that cannot be written is refused before any work
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        a_dir = tmp_path / "a_dir"
        a_dir.mkdir()
        for argv, path in [
            (["train", "--config", cfg_path, "--phase", "pretrain-backbone",
              "--out-dir", str(a_file)], a_file),
            (["analyze", "--gatelog", str(tmp_path / "absent.glog"),
              "--out", str(a_file)], a_file),
            (["analyze", "--gatelog", str(tmp_path / "absent.glog"),
              "--out", str(a_file / "sub")], a_file / "sub"),
            (["eval", "--config", cfg_path, "--ckpt", str(tmp_path / "absent.ckpt"),
              "--dump-gates", str(a_dir)], a_dir),
        ]:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert err.startswith("config error:") and str(path) in err, argv
            assert out == ""
        assert a_file.read_text() == "" and list(a_dir.iterdir()) == []

        # a flag that cannot take effect is refused before any work, even
        # where the checkpoints it names do not exist
        absent = str(tmp_path / "absent.ckpt")
        for flags, named in [
            (["--phase", "pretrain-backbone", "--backbone-ckpt", absent],
             "--backbone-ckpt"),
            (["--phase", "pretrain-gater", "--from-scratch"], "--from-scratch"),
            (["--phase", "joint", "--from-scratch", "--gater-ckpt", absent],
             "--gater-ckpt"),
            (["--phase", "joint", "--resume", str(tmp_path / "joint.ckpt"),
              "--backbone-ckpt", absent], "--backbone-ckpt"),
        ]:
            assert main(["train", "--config", cfg_path, *flags]) == 2, flags
            out, err = capsys.readouterr()
            assert err.startswith(f"config error: {named} cannot take effect"), flags
            assert out == ""
            assert not (tmp_path / "run").exists()

    def test_unusable_flag_is_refused_before_the_dataset_loads(
            self, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr("gaternet.cli.load_dataset",
                            lambda *args: loads.append(args))
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg_path, "--phase", "pretrain-gater",
                     "--from-scratch"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: --from-scratch cannot take effect")
        # a missing pretrain checkpoint is refused before the load too
        assert main(["train", "--config", cfg_path, "--phase", "joint"]) == 3
        assert capsys.readouterr().err.startswith("checkpoint error:")
        assert loads == []

    def test_checkpoint_without_probe(self, tmp_path, capsys):
        # a checkpoint written before every model held the probe: eval and
        # --resume need every tensor, --backbone-ckpt only backbone.*
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        run = tmp_path / "run"
        for phase in ("pretrain-backbone", "pretrain-gater"):
            assert main(["train", "--config", cfg_path, "--phase", phase]) == 0
        tensors, meta = load_checkpoint(run / "pretrain_backbone.ckpt")
        old = tmp_path / "old.ckpt"
        save_checkpoint(old, {k: v for k, v in tensors.items()
                              if not k.startswith("probe.")}, meta)
        capsys.readouterr()
        for argv in (["eval", "--config", cfg_path, "--ckpt", str(old)],
                     ["train", "--config", cfg_path, "--phase",
                      "pretrain-backbone", "--resume", str(old)]):
            assert main(argv) == 3, argv
            assert capsys.readouterr() == (
                "", f"checkpoint error: {old}: missing tensor probe.W\n")
        for name, backbone in (("new", run / "pretrain_backbone.ckpt"),
                               ("old", old)):
            assert main(["train", "--config", cfg_path, "--phase", "joint",
                         "--backbone-ckpt", str(backbone), "--gater-ckpt",
                         str(run / "pretrain_gater.ckpt"),
                         "--out-dir", str(tmp_path / name)]) == 0
        assert ((tmp_path / "old" / "joint.ckpt").read_bytes()
                == (tmp_path / "new" / "joint.ckpt").read_bytes())

    @pytest.mark.parametrize("exc, err", [
        (MemoryError(), "error: MemoryError\n"),
        (RuntimeError("boom"), "error: RuntimeError: boom\n"),
    ])
    def test_unexpected_error_exits_1_naming_its_type(self, tmp_path, capsys,
                                                      monkeypatch, exc, err):
        def fail(args):
            raise exc

        monkeypatch.setattr("gaternet.cli.cmd_analyze", fail)
        assert main(["analyze", "--gatelog", str(tmp_path / "g.glog"),
                     "--out", str(tmp_path / "an")]) == 1
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_model_too_large_to_allocate_exits_2(self, tmp_path, command):
        """A layer too wide to allocate is a configuration error that names
        the spec's parameter count. The command runs in a child process
        whose address space is capped at 4 GiB, so the allocation is
        refused at once."""
        doc = base_config(tmp_path)
        doc["model"]["backbone"][0]["filters"] = 10**12
        cfg_path = write_config(tmp_path, doc)
        count = load_config(cfg_path).model.param_count
        argv = {"train": ["--phase", "pretrain-backbone"],
                "eval": ["--ckpt", str(tmp_path / "none.ckpt")]}[command]
        proc = run_capped(command, "--config", cfg_path, *argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            f"config error: model: too large to allocate ({count:,} parameters)\n")
        assert not (tmp_path / "run").exists()

    def test_activations_too_large_to_allocate_exit_2(self, tmp_path):
        """A layer whose parameters fit but whose activations at the batch
        size do not is a configuration error that names the batch size.
        The command runs in a child process whose address space is capped
        at 4 GiB, so the first conv's [20000, 8, 8, 1024] float32 output
        (5.2 GB; the parameters take about 6 MB) is refused at once."""
        doc = base_config(tmp_path)
        doc["dataset"]["train_size"] = 1024
        doc["train"]["batch_size"] = 1024
        doc["model"]["backbone"][0]["filters"] = 20000
        proc = run_capped("train", "--config", write_config(tmp_path, doc),
                          "--phase", "pretrain-backbone")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(
            "config error: model: activations at batch size 1024 do not fit "
            "in memory (Unable to allocate "), proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_dataset_too_large_to_allocate_exits_2(self, tmp_path):
        """A synthetic set too large to allocate is a configuration error
        that names both split sizes. The command runs in a child process
        whose address space is capped at 4 GiB, so the 10**12-image array
        is refused at once."""
        doc = base_config(tmp_path)
        doc["dataset"]["train_size"] = 10**12
        proc = run_capped("train", "--config", write_config(tmp_path, doc),
                          "--phase", "pretrain-backbone")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            "config error: dataset: train_size 1000000000000 + eval_size 24 "
            "synthetic images do not fit in memory\n")
        assert not (tmp_path / "run").exists()

    def test_missing_checkpoint_exits_3(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["eval", "--config", cfg_path,
                     "--ckpt", str(tmp_path / "none.ckpt")]) == 3
        assert capsys.readouterr().err.startswith("checkpoint error:")

    def test_missing_gatelog_exits_3(self, tmp_path, capsys):
        assert main(["analyze", "--gatelog", str(tmp_path / "none.glog"),
                     "--out", str(tmp_path / "an")]) == 3
        capsys.readouterr()

    def test_training_checkpoint_as_gatelog_exits_3(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--gatelog",
                     str(tmp_path / "run" / "pretrain_backbone.ckpt"),
                     "--out", str(tmp_path / "an")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and "not a gate log" in err
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("flag", [
        "--ckpt", "--resume", "--backbone-ckpt", "--gater-ckpt",
    ])
    def test_gatelog_as_checkpoint_exits_3(self, tmp_path, capsys, flag):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        log = GateLog(gates=np.ones((2, 4), dtype=np.uint8), labels=np.zeros(2),
                      layer_ids=np.zeros(4), filter_ids=np.arange(4))
        glog = str(tmp_path / "g.glog")
        save_gate_log(glog, log)
        other = str(tmp_path / "absent.ckpt")
        if flag == "--gater-ckpt":  # the backbone is restored first
            assert main(["train", "--config", cfg_path,
                         "--phase", "pretrain-backbone"]) == 0
            other = str(tmp_path / "run" / "pretrain_backbone.ckpt")
        joint = ["train", "--config", cfg_path, "--phase", "joint"]
        argv = {
            "--ckpt": ["eval", "--config", cfg_path, "--ckpt", glog],
            "--resume": [*joint, "--resume", glog],
            "--backbone-ckpt": [*joint, "--backbone-ckpt", glog,
                                "--gater-ckpt", other],
            "--gater-ckpt": [*joint, "--backbone-ckpt", other,
                             "--gater-ckpt", glog],
        }[flag]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:")
        assert "not a training checkpoint" in err and "gate_log" in err
        if flag != "--gater-ckpt":  # a refused run creates no out dir
            assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("meta,why", [
        ({"kind": "a\nb"}, " is not a training checkpoint ('a\\nb')"),
        ({"format": 1, "phase": "joint", "spec_hash": "x\ny"},
         ": model spec hash mismatch (checkpoint 'x\\ny', current '"),
    ], ids=["kind", "spec_hash"])
    def test_restore_refusal_quotes_metadata(self, tmp_path, capsys, meta, why):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        ckpt = tmp_path / "crafted.ckpt"
        save_checkpoint(ckpt, {}, meta)
        assert main(["eval", "--config", cfg_path, "--ckpt", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"checkpoint error: {ckpt}{why}"), err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("fmt", [True, 1.0], ids=["true", "float"])
    def test_restore_refuses_a_format_that_only_equals_1(self, joint_run,
                                                         tmp_path, capsys, fmt):
        """JSON true and 1.0 compare equal to 1 but are no format 1."""
        cfg_path, src = joint_run
        tensors, meta = load_checkpoint(src)
        meta["format"] = fmt
        ckpt = tmp_path / "crafted.ckpt"
        save_checkpoint(ckpt, tensors, meta)
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path, "--ckpt", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert err == f"checkpoint error: {ckpt} is not a training checkpoint\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_restore_refuses_a_non_finite_tensor(self, joint_run, tmp_path,
                                                 capsys, value):
        cfg_path, src = joint_run
        tensors, meta = load_checkpoint(src)
        filters = tensors["backbone.0.filters"].copy()
        filters.flat[5] = value
        tensors["backbone.0.filters"] = filters
        ckpt = tmp_path / "crafted.ckpt"
        save_checkpoint(ckpt, tensors, meta)
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path, "--ckpt", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert err == (f"checkpoint error: {ckpt}: tensor backbone.0.filters "
                       "holds a non-finite value\n")

    @pytest.mark.parametrize("name, value, what", [
        ("backbone.0.filters", 1e38, "logits"),   # overflows float32
        ("gater.0.bn.running_var", -1.0, "gate scores"),  # sqrt of a negative
    ], ids=["overflow", "negative-variance"])
    def test_eval_of_finite_parameters_out_of_range_exits_3(
            self, joint_run, tmp_path, capsys, name, value, what):
        """A checkpoint tensor that restore admits, since it is finite, but
        whose eval output is not: its largest magnitude scaled to value.
        eval refuses on one line, with no numpy warning on the way (the
        suite turns warnings into errors)."""
        cfg_path, src = joint_run
        tensors, meta = load_checkpoint(src)
        t = tensors[name]
        tensors[name] = (t * np.float32(value / np.abs(t).max())).astype(t.dtype)
        ckpt = tmp_path / "crafted.ckpt"
        save_checkpoint(ckpt, tensors, meta)
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path, "--ckpt", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert err == (f"checkpoint error: model: eval {what} are not all "
                       "finite: its parameters are out of range\n")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_tensor_values_exit_on_one_line(self, tmp_path_factory,
                                                  joint_run, data):
        """A joint checkpoint re-saved with one tensor scaled by a drawn
        finite factor, or with one drawn entry NaN: eval exits 0 or 3 and a
        resume 0, 2 or 3, a refusal with one line on stderr and no numpy
        warning; exit 1 is an unexpected exception."""
        cfg_path, src = joint_run
        tmp_path = tmp_path_factory.mktemp("scaled")
        tensors, meta = load_checkpoint(src)
        name = data.draw(st.sampled_from(sorted(tensors)), label="tensor")
        t = tensors[name].copy()
        if data.draw(st.booleans(), label="nan"):
            t.flat[data.draw(st.integers(0, t.size - 1), label="index")] = np.nan
        else:
            factor = data.draw(st.one_of(
                st.builds(lambda sign, k: sign * 10.0**k, st.sampled_from([1, -1]),
                          st.integers(-45, 38)),
                st.floats(allow_nan=False, allow_infinity=False)), label="factor")
            with np.errstate(all="ignore"):  # a factor past float32 is inf
                t *= np.float32(factor)
        tensors[name] = t
        ckpt = str(tmp_path / "scaled.ckpt")
        save_checkpoint(ckpt, tensors, meta)
        for argv, codes in (
            (["eval", "--config", cfg_path, "--ckpt", ckpt], (0, 3)),
            (["train", "--config", cfg_path, "--phase", "joint", "--resume", ckpt,
              "--out-dir", str(tmp_path / "out")], (0, 2, 3)),
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in codes, (argv[0], err.getvalue())
            if code:
                assert err.getvalue().count("\n") == 1, err.getvalue()
                assert err.getvalue().endswith("\n"), err.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_crafted_checkpoint_metadata_exits_on_one_line(
            self, tmp_path_factory, joint_run, data):
        """A joint checkpoint re-saved with one metadata key (or one field of
        its metrics row) set to a drawn JSON value: eval exits 0 or 3 and a
        resume 0, 2 or 3, a refusal with one line on stderr; exit 1 is an
        unexpected exception."""
        cfg_path, src = joint_run
        tmp_path = tmp_path_factory.mktemp("crafted")
        tensors, meta = load_checkpoint(src)
        key = data.draw(st.sampled_from(CHECKPOINT_META_KEYS), label="key")
        value = data.draw(JSON_VALUE, label="value")
        if key == "metrics_rows" and data.draw(st.booleans(), label="one field"):
            field = data.draw(st.sampled_from(sorted(meta[key][0])), label="field")
            value = [{**meta[key][0], field: value}]
        meta[key] = value
        ckpt = str(tmp_path / "crafted.ckpt")
        save_checkpoint(ckpt, tensors, meta)
        for argv, codes in (
            (["eval", "--config", cfg_path, "--ckpt", ckpt], (0, 3)),
            (["train", "--config", cfg_path, "--phase", "joint", "--resume", ckpt,
              "--out-dir", str(tmp_path / "out")], (0, 2, 3)),
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in codes, (argv[0], err.getvalue())
            if code:
                assert err.getvalue().count("\n") == 1, err.getvalue()
                assert err.getvalue().endswith("\n"), err.getvalue()

    def test_glog_from_earlier_version_exits_3(self, tmp_path, capsys):
        # the former format: b"GLOG", four little-endian u32 header fields
        # (version 1, samples, gates, 0), the int64 arrays, packed gate bits
        path = tmp_path / "old.glog"
        path.write_bytes(b"GLOG" + np.array([1, 1, 2, 0], "<u4").tobytes()
                         + np.array([0, 0, 0, 1, 0], "<i8").tobytes() + b"\xc0")
        assert main(["analyze", "--gatelog", str(path),
                     "--out", str(tmp_path / "an")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and "bad magic" in err
        assert not (tmp_path / "an").exists()

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["eval", "--config", str(path), "--ckpt", "x.ckpt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "utf-8" in err

    @pytest.mark.parametrize("flag", [
        "--ckpt", "--gatelog", "--resume", "--backbone-ckpt", "--gater-ckpt",
    ])
    def test_directory_as_input_file_exits_3(self, tmp_path, capsys, flag):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        folder = tmp_path / "folder"
        folder.mkdir()
        other = str(tmp_path / "absent.ckpt")
        if flag == "--gater-ckpt":  # the backbone is restored first
            assert main(["train", "--config", cfg_path,
                         "--phase", "pretrain-backbone"]) == 0
            other = str(tmp_path / "run" / "pretrain_backbone.ckpt")
        argv = {
            "--ckpt": ["eval", "--config", cfg_path, "--ckpt", str(folder)],
            "--gatelog": ["analyze", "--gatelog", str(folder),
                          "--out", str(tmp_path / "an")],
            "--resume": ["train", "--config", cfg_path, "--phase", "joint",
                         "--resume", str(folder)],
            "--backbone-ckpt": ["train", "--config", cfg_path, "--phase", "joint",
                                "--backbone-ckpt", str(folder),
                                "--gater-ckpt", other],
            "--gater-ckpt": ["train", "--config", cfg_path, "--phase", "joint",
                             "--backbone-ckpt", other, "--gater-ckpt", str(folder)],
        }[flag]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and "folder" in err

    def test_dump_gates_rejects_pretrain_checkpoint(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone"]) == 0
        capsys.readouterr()
        rc = main(["eval", "--config", cfg_path,
                   "--ckpt", str(tmp_path / "run" / "pretrain_backbone.ckpt"),
                   "--dump-gates", str(tmp_path / "g.glog")])
        assert rc == 3
        captured = capsys.readouterr()
        assert "joint" in captured.err
        assert captured.out == ""  # refused before the eval pass

    @pytest.mark.parametrize("mutate,message", [
        (lambda m: m["backbone"][0].__setitem__("gated", False),
         "model: backbone needs at least one gated conv"),
        (lambda m: m.pop("gater"), "model: gater needs at least one conv"),
        (lambda m: m.__setitem__("gater", [{"kind": "pool"}]),
         "model: gater needs at least one conv"),
        (lambda m: m["backbone"][0].__setitem__("batchnorm", False),
         "unknown key 'batchnorm' in model.backbone[0]"),
    ], ids=["no-gated-conv", "no-gater", "no-gater-conv", "batchnorm-key"])
    def test_train_refuses_a_model_that_is_not_a_gaternet(self, tmp_path,
                                                          capsys, mutate,
                                                          message):
        doc = base_config(tmp_path)
        mutate(doc["model"])
        cfg_path = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg_path, "--phase", "joint",
                     "--from-scratch"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    def test_dump_gates_runs_eval_set_once(self, tmp_path, capsys,
                                          monkeypatch):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg_path, "--phase", "joint",
                     "--from-scratch"]) == 0
        calls = []
        real_forward = GaterNet.forward

        def counting_forward(self, x, *args, **kwargs):
            calls.append(x.shape[0])
            return real_forward(self, x, *args, **kwargs)

        monkeypatch.setattr(GaterNet, "forward", counting_forward)
        assert main(["eval", "--config", cfg_path,
                     "--ckpt", str(tmp_path / "run" / "joint.ckpt"),
                     "--dump-gates", str(tmp_path / "g.glog")]) == 0
        capsys.readouterr()
        # 24 eval images in batches of 16: one forward per batch
        assert calls == [16, 8]
        assert load_gate_log(tmp_path / "g.glog").gates.shape == (24, 4)

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_out_dir_precedence(self, tmp_path, capsys, monkeypatch):
        """--out-dir, then GATERNET_OUT_DIR, then the config's out_dir; an
        empty variable counts as unset."""
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        train = ["train", "--config", cfg_path, "--phase", "pretrain-backbone"]
        flag_dir, env_dir, cfg_dir = (tmp_path / "from_flag", tmp_path / "from_env",
                                      tmp_path / "run")

        monkeypatch.setenv("GATERNET_OUT_DIR", str(env_dir))
        assert main([*train, "--out-dir", str(flag_dir)]) == 0
        assert main(train) == 0
        monkeypatch.setenv("GATERNET_OUT_DIR", "")
        assert main(train) == 0
        for d in (flag_dir, env_dir, cfg_dir):  # one run each
            assert [p.name for p in sorted(d.iterdir())] == [
                "metrics_pretrain_backbone.csv", "pretrain_backbone.ckpt"], d
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "from_env", "from_flag", "run", "run.json"]
        capsys.readouterr()

    def test_seed_override_reaches_checkpoint(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        out = tmp_path / "seeded"
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone", "--seed", "7",
                     "--out-dir", str(out)]) == 0
        _, meta = load_checkpoint(out / "pretrain_backbone.ckpt")
        assert meta["seed"] == 7
        capsys.readouterr()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--config", cfg_path,
                         "--phase", "pretrain-backbone",
                         "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert ((a / "pretrain_backbone.ckpt").read_bytes()
                == (b / "pretrain_backbone.ckpt").read_bytes())
        assert ((a / "metrics_pretrain_backbone.csv").read_bytes()
                == (b / "metrics_pretrain_backbone.csv").read_bytes())

    def test_resume_from_other_phase_exits_3(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone"]) == 0
        ckpt = tmp_path / "run" / "pretrain_backbone.ckpt"
        before = ckpt.read_bytes()
        capsys.readouterr()
        assert main(["train", "--config", cfg_path, "--phase", "joint",
                     "--resume", str(ckpt)]) == 3
        out, err = capsys.readouterr()
        assert err == (f"checkpoint error: {ckpt}: phase mismatch (checkpoint "
                       f"'pretrain_backbone', requested 'joint')\n")
        assert out == ""
        assert ckpt.read_bytes() == before

    def test_resume_flag_continues_same_run(self, tmp_path, capsys):
        doc = base_config(tmp_path)
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "resume"
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone",
                     "--out-dir", str(out)]) == 0
        ckpt = out / "pretrain_backbone.ckpt"
        before = ckpt.read_bytes()
        # the single configured epoch is already done: a no-op resume
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone",
                     "--out-dir", str(out), "--resume", str(ckpt)]) == 0
        assert ckpt.read_bytes() == before
        capsys.readouterr()

    @pytest.mark.parametrize("damage", [
        "backbone.0.filters", "opt.backbone.0.filters", "step", "metrics_rows",
        pytest.param({"epochs_done": "abc"}, id="epochs_done-str"),
        pytest.param({"epochs_done": 1.0}, id="epochs_done-float"),
        pytest.param({"step": None}, id="step-null"),
        pytest.param({"metrics_rows": [5]}, id="metrics_rows-int-row"),
        pytest.param({"metrics_rows": "x"}, id="metrics_rows-str"),
        pytest.param({"metrics_rows": [{"epoch": 0}]}, id="metrics_rows-short-row"),
        pytest.param({"metrics_rows": [{
            "epoch": 0, "phase": "pretrain_backbone", "train_loss": 1.0,
            "eval_acc": "x", "mean_gate_activation": 1.0, "lr": 0.1,
            "dropout_rate": 0.0}]}, id="metrics_rows-str-value"),
        pytest.param({"metrics_rows": [{
            "epoch": 0, "phase": "pretrain_backbone", "train_loss": 1.0,
            "eval_acc": 0.5, "mean_gate_activation": "", "lr": 0.1,
            "dropout_rate": 0.0}]}, id="metrics_rows-blank-gate"),
        pytest.param({"metrics_rows": [{
            "epoch": 0, "phase": "pretrain_backbone", "train_loss": 1.0,
            "eval_acc": 10**400, "mean_gate_activation": 1.0, "lr": 0.1,
            "dropout_rate": 0.0}]}, id="metrics_rows-int-past-float"),
        pytest.param({"metrics_rows": [{
            "epoch": 0, "phase": "pretrain_backbone", "train_loss": math.nan,
            "eval_acc": 0.5, "mean_gate_activation": 1.0, "lr": 0.1,
            "dropout_rate": 0.0}]}, id="metrics_rows-nan"),
        pytest.param({"step": -3}, id="step-negative"),
        pytest.param({"step": 1000000}, id="step-past-epochs"),
    ])
    def test_resume_refuses_incomplete_checkpoint_exits_3(self, tmp_path,
                                                          capsys, damage):
        # a name is dropped from the tensors and the metadata; a dict
        # overwrites metadata keys with values of the wrong type or shape
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        out = tmp_path / "resume"
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone",
                     "--out-dir", str(out)]) == 0
        ckpt = out / "pretrain_backbone.ckpt"
        tensors, meta = load_checkpoint(ckpt)
        if isinstance(damage, dict):
            meta.update(damage)
            (key,) = damage
        else:
            tensors.pop(damage, None)
            meta.pop(damage, None)
            key = damage
        save_checkpoint(ckpt, tensors, meta)
        capsys.readouterr()
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone",
                     "--out-dir", str(out), "--resume", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and key in err

    @pytest.mark.parametrize("edit", [
        lambda a: a[:1],
        lambda a: a.astype(np.float64),
    ], ids=["shape", "dtype"])
    def test_eval_refuses_mismatched_tensor_exits_3(self, tmp_path, capsys,
                                                     edit):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone"]) == 0
        ckpt = tmp_path / "run" / "pretrain_backbone.ckpt"
        tensors, meta = load_checkpoint(ckpt)
        tensors["head.b2"] = edit(tensors["head.b2"])
        save_checkpoint(ckpt, tensors, meta)
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path, "--ckpt", str(ckpt)]) == 3
        assert "head.b2" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corrupt_gatelog_exits_0_or_3(self, tmp_path_factory, data):
        """A small valid gate log cut at a drawn offset, with one drawn byte
        changed, or with drawn bytes appended: analyze exits 0, or 3 with
        one line and no --out directory; exit 1 is an unexpected
        exception."""
        tmp_path = tmp_path_factory.mktemp("glog")
        path, out = tmp_path / "g.glog", tmp_path / "an"
        rng = np.random.default_rng(0)
        save_gate_log(path, GateLog(gates=(rng.random((6, 10)) < 0.5).astype(np.uint8),
                                    labels=np.arange(6) % 3,
                                    layer_ids=np.repeat([0, 1], 5),
                                    filter_ids=np.tile(np.arange(5), 2)))
        blob = bytearray(path.read_bytes())
        how = data.draw(st.sampled_from(["truncate", "overwrite", "append"]),
                        label="mutation")
        if how == "truncate":
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
        elif how == "overwrite":
            pos = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
        else:
            blob += data.draw(st.binary(min_size=1, max_size=16), label="tail")
        path.write_bytes(bytes(blob))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["analyze", "--gatelog", str(path), "--out", str(out)])
        assert code in (0, 3), err.getvalue()
        if code:
            assert err.getvalue().startswith("checkpoint error: "), err.getvalue()
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert not out.exists()

    @pytest.mark.parametrize("edit", [
        # a dtype alias numpy deprecates
        lambda blob: blob.replace(b"<i8", b"<a8", 1),
        # a name length that swallows the next bytes, a newline among them
        lambda blob: blob.replace(struct.pack("<H", 9) + b"layer_ids",
                                  struct.pack("<H", 15) + b"layer_ids"),
    ], ids=["dtype-alias", "name-with-newline"])
    def test_gatelog_refusal_is_one_line(self, tmp_path, capsys, edit):
        path = tmp_path / "g.glog"
        save_gate_log(path, GateLog(gates=np.ones((6, 10), dtype=np.uint8),
                                    labels=np.zeros(6), layer_ids=np.zeros(10),
                                    filter_ids=np.arange(10)))
        blob = path.read_bytes()
        path.write_bytes(edit(blob))
        assert path.read_bytes() != blob
        assert main(["analyze", "--gatelog", str(path),
                     "--out", str(tmp_path / "an")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "an").exists()

    def test_empty_gatelog_exits_3(self, tmp_path, capsys):
        empty = GateLog(gates=np.zeros((0, 4), dtype=np.uint8),
                        labels=np.zeros(0), layer_ids=np.zeros(4),
                        filter_ids=np.arange(4))
        save_gate_log(tmp_path / "empty.glog", empty)
        assert main(["analyze", "--gatelog", str(tmp_path / "empty.glog"),
                     "--out", str(tmp_path / "an")]) == 3
        assert "nothing to analyze" in capsys.readouterr().err

    def test_analyze_constant_log_prints_rank_without_warning(self, tmp_path,
                                                              capsys):
        gates = np.ones((64, 10), dtype=np.uint8)
        gates[:, 3] = 0
        save_gate_log(tmp_path / "const.glog",
                      GateLog(gates=gates, labels=np.zeros(64),
                              layer_ids=np.zeros(10), filter_ids=np.arange(10)))
        assert main(["analyze", "--gatelog", str(tmp_path / "const.glog"),
                     "--out", str(tmp_path / "an")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert "pca_components: 10" in lines and "pca_rank: 0" in lines

    @pytest.mark.parametrize("flags", [
        ["--bins", "0"], ["--pca-k", "100"], ["--pca-k", "0"],
    ], ids=["bins-0", "pca-k-100", "pca-k-0"])
    def test_analyze_bad_flag_exits_2_before_writing(self, tmp_path, capsys,
                                                     flags):
        rng = np.random.default_rng(0)
        log = GateLog(gates=(rng.random((10, 6)) < 0.5).astype(np.uint8),
                      labels=np.zeros(10), layer_ids=np.zeros(6),
                      filter_ids=np.arange(6))
        save_gate_log(tmp_path / "g.glog", log)
        out = tmp_path / "an"
        out.mkdir()
        (out / "taxonomy.csv").write_text("stale")
        assert main(["analyze", "--gatelog", str(tmp_path / "g.glog"),
                     "--out", str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {flags[0]} must be")
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == ["taxonomy.csv"]
        assert (out / "taxonomy.csv").read_text() == "stale"

    def test_eval_spec_mismatch_exits_3(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg_path,
                     "--phase", "pretrain-backbone"]) == 0
        other = base_config(tmp_path)
        other["model"]["bottleneck"] = 3
        other_path = write_config(tmp_path, other, name="other.json")
        rc = main(["eval", "--config", other_path,
                   "--ckpt", str(tmp_path / "run" / "pretrain_backbone.ckpt")])
        assert rc == 3
        assert "hash mismatch" in capsys.readouterr().err
