"""Command-line entry point: train / eval / analyze.

Exit codes: 0 success, 2 configuration problems, 3 checkpoint problems,
4 dataset problems, 1 anything else. The output directory is resolved as
--out-dir flag, then the GATERNET_OUT_DIR environment variable, then the
config's out_dir.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from gaternet.analyze import (
    CATEGORIES,
    GateLog,
    classify_gates,
    export_usage_vectors,
    fired_count_per_sample,
    load_gate_log,
    on_count_histogram,
    save_gate_log,
    write_histogram_csv,
    write_layer_distribution_csv,
    write_taxonomy_csv,
)
from gaternet.config import ConfigError, RunConfig, load_config
from gaternet.data import DataError, load_dataset, load_eval_split
from gaternet.model import GaterNet, conv_macs
from gaternet.persist import CheckpointError
from gaternet.train import PHASES, evaluate, restore, run_phase, start_checkpoints

log = logging.getLogger(__name__)

_PHASE_FLAG = {p.replace("_", "-"): p for p in PHASES}


def _resolve_out_dir(flag: str | None, cfg: RunConfig) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get("GATERNET_OUT_DIR")
    if env:
        return Path(env)
    return Path(cfg.out_dir)


def _out_path(path: str | Path, what: str, want_dir: bool) -> Path:
    """path, once nothing on it blocks a write: where it exists it is a
    directory exactly when want_dir, and its nearest existing ancestor is a
    directory. Checked before any work, so a bad path costs no run."""
    path = Path(path)
    if path.exists():
        if path.is_dir() != want_dir:
            raise ConfigError(f"{what} {path} "
                              f"{'is not' if want_dir else 'is'} a directory")
        return path
    parent = next(p for p in path.parents if p.exists())
    if not parent.is_dir():
        raise ConfigError(f"{what} {path}: {parent} is not a directory")
    return path


def _effective_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    out_dir = _out_path(_resolve_out_dir(args.out_dir, cfg), "output directory",
                        want_dir=True)
    phase = _PHASE_FLAG[args.phase]
    # refuse the flags before the dataset is built; run_phase checks again
    start_checkpoints(phase, out_dir, args.backbone_ckpt, args.gater_ckpt,
                      args.resume, args.from_scratch)
    splits = load_dataset(cfg.dataset, cfg.seed)

    result = run_phase(
        cfg.model, cfg.make_phase_config(phase), splits, out_dir,
        backbone_ckpt=args.backbone_ckpt, gater_ckpt=args.gater_ckpt,
        resume_ckpt=args.resume, from_scratch=args.from_scratch,
    )
    print(f"phase: {phase}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    print(f"final_train_loss: {result.final_train_loss:.6f}")
    print(f"final_eval_acc: {result.final_eval_acc:.6f}")
    if result.final_gate_activation is not None:
        print(f"final_mean_gate_activation: {result.final_gate_activation:.6f}")
    return 0


def cmd_eval(args) -> int:
    cfg = _effective_config(args)
    if args.dump_gates:
        _out_path(args.dump_gates, "--dump-gates", want_dir=False)
    model = GaterNet(cfg.model)
    phase = restore(model, args.ckpt)["phase"]
    if args.dump_gates and phase != "joint":
        raise CheckpointError(
            f"--dump-gates needs a joint-phase checkpoint; this one is from {phase}"
        )
    eval_x, eval_y = load_eval_split(cfg.dataset, cfg.seed)
    acc, mean_gate, gates = evaluate(
        model, phase, eval_x, eval_y, cfg.make_phase_config(phase).batch_size,
    )
    print(f"phase: {phase}")
    print(f"samples: {len(eval_x)}")
    print(f"accuracy: {acc:.6f}")
    if mean_gate is not None:
        print(f"mean_gate_activation: {mean_gate:.6f}")
        macs_total, macs_off = conv_macs(cfg.model, gates)
        print(f"conv_macs_total: {macs_total}")
        print(f"conv_macs_gated_off: {macs_off}")
    if args.dump_gates:
        gate_log = GateLog(gates=gates, labels=eval_y,
                           layer_ids=model.gate_map.layer_ids,
                           filter_ids=model.gate_map.filter_ids)
        save_gate_log(args.dump_gates, gate_log)
        print(f"gate_log: {args.dump_gates} "
              f"[{gate_log.num_samples} x {gate_log.num_gates}]")
    return 0


def cmd_analyze(args) -> int:
    # every flag is checked before the first write, so a refused run leaves
    # --out as it was
    if args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")
    out = _out_path(args.out, "--out", want_dir=True)
    gate_log = load_gate_log(args.gatelog)
    n, c = gate_log.num_samples, gate_log.num_gates
    if n == 0 or c == 0:
        raise CheckpointError(
            f"{args.gatelog}: nothing to analyze ({n} samples x {c} gates)"
        )
    pca_k = args.pca_k if args.pca_k is not None else min(16, n, c)
    if not 1 <= pca_k <= min(n, c):
        raise ConfigError(f"--pca-k must be in [1, {min(n, c)}] for {n} samples "
                          f"x {c} gates, got {pca_k}")

    tax = classify_gates(gate_log)
    write_taxonomy_csv(out / "taxonomy.csv", gate_log, tax)
    write_layer_distribution_csv(out / "layer_distribution.csv", tax)
    write_histogram_csv(out / "on_count_histogram.csv",
                        on_count_histogram(gate_log, tax, bins=args.bins))
    fired = fired_count_per_sample(gate_log, bins=args.bins)
    write_histogram_csv(out / "fired_count_histogram.csv", fired.histogram)
    result = export_usage_vectors(gate_log, pca_k, out / "usage_vectors.csv")

    print(f"samples: {n}")
    print(f"gates: {c}")
    for k, name in enumerate(CATEGORIES):
        print(f"{name}: {tax.total(k)}")
    print(f"fired_min: {fired.min}")
    print(f"fired_max: {fired.max}")
    print(f"fired_mean: {fired.mean:.6f}")
    print(f"pca_components: {pca_k}")
    print(f"pca_rank: {result.rank}")
    print(f"pca_explained_variance: "
          f"{float(result.explained_variance_ratio.sum()):.6f}")
    print(f"outputs: {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaternet",
        description="Train, evaluate, and analyze filter-gated CNNs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training phase")
    p_train.add_argument("--config", required=True, help="run config JSON")
    p_train.add_argument("--phase", required=True, choices=sorted(_PHASE_FLAG))
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.add_argument("--from-scratch", action="store_true",
                         help="joint phase: skip loading pretrain checkpoints")
    p_train.add_argument("--backbone-ckpt",
                         help="joint phase: backbone pretrain checkpoint")
    p_train.add_argument("--gater-ckpt",
                         help="joint phase: gater pretrain checkpoint")
    p_train.add_argument("--seed", type=int, help="override the config seed")
    p_train.add_argument("--out-dir", help="override the output directory")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--config", required=True, help="run config JSON")
    p_eval.add_argument("--ckpt", required=True, help="checkpoint to evaluate")
    p_eval.add_argument("--dump-gates", metavar="PATH",
                        help="also write the eval set's binary gates here")
    p_eval.add_argument("--seed", type=int, help="override the config seed")
    p_eval.set_defaults(fn=cmd_eval)

    p_an = sub.add_parser("analyze", help="gate-distribution analytics")
    p_an.add_argument("--gatelog", required=True, help="gate log file")
    p_an.add_argument("--out", required=True, help="output directory for CSVs")
    p_an.add_argument("--pca-k", type=int,
                      help="usage-vector PCA components (default min(16, n, c))")
    p_an.add_argument("--bins", type=int, default=100,
                      help="histogram bins (default 100)")
    p_an.set_defaults(fn=cmd_analyze)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 3
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # noqa: BLE001 - CLI boundary
        # the type too: some exceptions (MemoryError) have no message
        what = f"{type(e).__name__}: {e}" if str(e) else type(e).__name__
        print(f"error: {what}", file=sys.stderr)
        return 1
