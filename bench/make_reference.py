"""Regenerate bench/reference.json from the current source tree.

    python3 bench/make_reference.py

train_joint_band: the range of the train-joint operation's final training
loss and eval accuracy over BAND_SEEDS, widened by BAND_MARGIN on each side.
eval_gated: gate bits and logits of eval-gated's first batch for seed 0.
Rerun only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

BAND_SEEDS = range(100)
BAND_MARGIN = {"train_loss": 0.15, "eval_acc": 0.125}


def main() -> int:
    run.import_package()
    import workloads

    work = run.ROOT / ".bench_work" / "make-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seen = {"train_loss": [], "eval_acc": []}
    try:
        for seed in BAND_SEEDS:
            wl = workloads.TrainJoint(seed, work)
            wl.config_path = work / "train_joint.json"
            wl.config_path.write_text(json.dumps(workloads.run_config(
                seed, wl.TRAIN_SIZE, wl.EVAL_SIZE)))
            wl.setup()
            res = wl.op(0)
            seen["train_loss"].append(res.final_train_loss)
            seen["eval_acc"].append(res.final_eval_acc)
            print(seed, res.final_train_loss, res.final_eval_acc, file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    band = {"seeds": [BAND_SEEDS.start, BAND_SEEDS.stop], "margin": BAND_MARGIN}
    for key, values in seen.items():
        lo, hi = min(values) - BAND_MARGIN[key], max(values) + BAND_MARGIN[key]
        if key == "eval_acc":
            lo, hi = max(lo, 0.0), min(hi, 1.0)
        band[key] = [round(lo, 4), round(hi, 4)]
        band[f"{key}_observed"] = [min(values), max(values)]
    spec = workloads.model.spec_from_dict(workloads.MODEL)
    ref = {"train_joint_band": band,
           "eval_gated": workloads.eval_reference(0, spec)}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
