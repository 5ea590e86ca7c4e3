"""The scripts under scripts/ run end to end on a tiny synthetic config.

run_synthetic_pipeline.py is the one user of the whole train -> eval
--dump-gates -> gate log file -> analyze chain, so a change to any link
that breaks it fails here. Each script runs in its own process, as a user
would run it."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gaternet.analyze import load_gate_log

REPO = Path(__file__).resolve().parent.parent
ANALYSIS_CSVS = ("taxonomy.csv", "layer_distribution.csv",
                 "on_count_histogram.csv", "fired_count_histogram.csv",
                 "usage_vectors.csv")


@pytest.fixture
def tiny_config(tmp_path) -> Path:
    # synthetic_small's model on 64 train / 32 eval images, one epoch a phase
    doc = json.loads((REPO / "configs" / "synthetic_small.json").read_text())
    doc["out_dir"] = str(tmp_path / "unused")
    doc["dataset"].update(train_size=64, eval_size=32)
    for phase in doc["train"]["phases"].values():
        phase.update(epochs=1, lr_schedule=phase["lr_schedule"][:1])
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=600)


def test_synthetic_pipeline(tmp_path, tiny_config):
    out = tmp_path / "pipeline"
    proc = run_script("run_synthetic_pipeline.py", "--config", str(tiny_config),
                      "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    log = load_gate_log(out / "gates.glog")
    assert log.gates.shape == (32, 144)
    for name in ANALYSIS_CSVS:
        assert (out / "analysis" / name).is_file(), name
    # the script's own getrusage report: one line per command, then a total
    usage = r" wall \d+\.\d\d s, user \d+\.\d\d s, sys \d+\.\d\d s, minor faults \d+$"
    labels = re.findall(r"^(\w+):" + usage, proc.stdout, re.M)
    assert labels == ["train", "train", "train", "eval", "analyze", "total"], proc.stdout


def test_sparsity_sweep(tmp_path, tiny_config):
    out = tmp_path / "sweep"
    proc = run_script("sparsity_sweep.py", "--config", str(tiny_config),
                      "--out-dir", str(out), "--lambdas", "0.0", "1.0",
                      "--seeds", "0")
    assert proc.returncode == 0, proc.stderr
    with open(out / "sweep.csv", newline="") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == ["seed", "lambda", "eval_acc",
                                     "mean_gate_activation",
                                     "ungated_baseline_acc"]
        rows = list(reader)
    assert [(r["seed"], r["lambda"]) for r in rows] == [("0", "0.0"), ("0", "1.0")]
    assert b"\r" not in (out / "sweep.csv").read_bytes()  # "\n" like every CSV
    # one pair of pretraining runs serves both lambdas, and is their baseline
    pre = out / "seed0" / "pretrain"
    assert sorted(p.name for p in pre.glob("*.ckpt")) == [
        "pretrain_backbone.ckpt", "pretrain_gater.ckpt"]
    with open(pre / "metrics_pretrain_backbone.csv", newline="") as f:
        backbone_acc = list(csv.DictReader(f))[-1]["eval_acc"]
    assert [r["ungated_baseline_acc"] for r in rows] == [backbone_acc] * 2
    # a negative, non-finite or repeated lambda or seed is refused before
    # anything is written (argparse's float takes "nan" and "inf")
    for flags, err in ((("0.0", "-1", "--seeds", "0"), "lambda must be >= 0, got -1.0"),
                       (("nan", "--seeds", "0"), "lambda must be finite, got nan"),
                       (("0.0", "inf", "--seeds", "0"), "lambda must be finite, got inf"),
                       (("0.0", "--seeds", "0", "-1"), "seed must be >= 0, got -1"),
                       (("1.0", "1.0", "--seeds", "0"), "lambda 1.0 is given more than once"),
                       (("0.0", "--seeds", "0", "0"), "seed 0 is given more than once")):
        proc = run_script("sparsity_sweep.py", "--config", str(tiny_config),
                          "--out-dir", str(tmp_path / "refused"), "--lambdas", *flags)
        assert (proc.returncode, proc.stderr) == (2, f"config error: {err}\n")
        assert not (tmp_path / "refused").exists()
