#!/usr/bin/env python3
"""Sweep the sparsity weight lambda and report mean eval gate activation.

train.sweep runs the sweep: for each seed the two pretraining phases run
once and are shared across the lambda values; each lambda then gets its
own joint run. A negative seed, or a negative or non-finite lambda, is
refused before any run (exit 2). The summary CSV has one row per (seed, lambda) plus per-lambda
means, making the activation-vs-lambda trend easy to eyeball: heavier L1
pressure should never increase how many gates stay on.
"""

import argparse
from pathlib import Path

import numpy as np

from gaternet.config import ConfigError, load_config
from gaternet.persist import write_csv
from gaternet.train import sweep

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

    out_root = Path(args.out_dir)
    rows = []
    try:
        cfg = load_config(args.config)
        for row in sweep(cfg.model, cfg.phases, cfg.dataset, args.seeds,
                         args.lambdas, out_root):
            rows.append(row)
            print(f"seed {row.seed} lambda {row.lambda_}: acc {row.eval_acc:.4f} "
                  f"activation {row.mean_gate_activation:.4f}")
    except ConfigError as e:
        parser.exit(2, f"config error: {e}\n")

    write_csv(out_root / "sweep.csv", SWEEP_COLUMNS, "%s,%s,%s,%s,%s",
              [[r[i] for r in rows] for i in range(len(SWEEP_COLUMNS))])

    print("\nper-lambda means:")
    for lam in args.lambdas:
        picked = [r for r in rows if r.lambda_ == lam]
        print(f"  lambda {lam}: activation "
              f"{np.mean([r.mean_gate_activation for r in picked]):.4f} "
              f"acc {np.mean([r.eval_acc for r in picked]):.4f}")
    print(f"summary: {out_root / 'sweep.csv'}")


if __name__ == "__main__":
    main()
