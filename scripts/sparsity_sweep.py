#!/usr/bin/env python3
"""Sweep the sparsity weight lambda and report mean eval gate activation.

For each seed the two pretraining phases run once and are shared across
the lambda values; each lambda then gets its own joint run. The summary
CSV has one row per (seed, lambda) plus per-lambda means, making the
activation-vs-lambda trend easy to eyeball: heavier L1 pressure should
never increase how many gates stay on.
"""

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from gaternet.config import load_config
from gaternet.data import load_dataset
from gaternet.persist import write_csv
from gaternet.train import run_phase

REPO = Path(__file__).resolve().parent.parent
SWEEP_COLUMNS = ("seed", "lambda", "eval_acc", "mean_gate_activation",
                 "ungated_baseline_acc")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(REPO / "configs/synthetic_small.json"))
    parser.add_argument("--out-dir", default="runs/sparsity_sweep")
    parser.add_argument("--lambdas", type=float, nargs="+",
                        default=[0.0, 0.1, 1.0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()

    cfg = load_config(args.config)
    out_root = Path(args.out_dir)
    rows = []
    for seed in args.seeds:
        run_cfg = dataclasses.replace(cfg, seed=seed)
        splits = load_dataset(run_cfg.dataset, seed)
        pre_dir = out_root / f"seed{seed}" / "pretrain"
        rb = run_phase(run_cfg.model,
                       run_cfg.make_phase_config("pretrain_backbone"),
                       splits, pre_dir)
        run_phase(run_cfg.model, run_cfg.make_phase_config("pretrain_gater"),
                  splits, pre_dir)
        for lam in args.lambdas:
            joint_cfg = dataclasses.replace(
                run_cfg.make_phase_config("joint"), lambda_=lam)
            rj = run_phase(run_cfg.model, joint_cfg, splits,
                           out_root / f"seed{seed}" / f"lambda{lam}",
                           backbone_ckpt=pre_dir / "pretrain_backbone.ckpt",
                           gater_ckpt=pre_dir / "pretrain_gater.ckpt")
            rows.append((seed, lam, rj.final_eval_acc,
                         rj.final_gate_activation, rb.final_eval_acc))
            print(f"seed {seed} lambda {lam}: acc {rj.final_eval_acc:.4f} "
                  f"activation {rj.final_gate_activation:.4f}")

    write_csv(out_root / "sweep.csv", SWEEP_COLUMNS, "%s,%s,%s,%s,%s", rows)

    print("\nper-lambda means:")
    for lam in args.lambdas:
        picked = [r for r in rows if r[1] == lam]
        print(f"  lambda {lam}: activation {np.mean([r[3] for r in picked]):.4f} "
              f"acc {np.mean([r[2] for r in picked]):.4f}")
    print(f"summary: {out_root / 'sweep.csv'}")


if __name__ == "__main__":
    main()
