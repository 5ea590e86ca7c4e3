#!/usr/bin/env python3
"""Run the full desk-scale recipe end to end on the synthetic dataset:
three training phases, evaluation with a gate dump, and analytics.

Everything goes through the command-line interface, so this doubles as a
worked example of the command surface. After each command, and once more
for the whole run, it prints the wall time, the user and system CPU time
and the minor page faults of its own process (getrusage), so a run
measures itself without outside tools.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

from gaternet.cli import main as gaternet

REPO = Path(__file__).resolve().parent.parent


def usage() -> tuple[float, float, float, int]:
    """(wall s, user s, system s, minor faults) of this process so far."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), r.ru_utime, r.ru_stime, r.ru_minflt


def report(label: str, since: tuple) -> None:
    wall, user, sys_, faults = (b - a for a, b in zip(since, usage()))
    print(f"{label}: wall {wall:.2f} s, user {user:.2f} s, sys {sys_:.2f} s, "
          f"minor faults {faults}", flush=True)


def run(args: list[str]) -> None:
    print(f"\n$ gaternet {' '.join(args)}", flush=True)
    start = usage()
    code = gaternet(args)
    if code != 0:
        sys.exit(code)
    report(args[0], start)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(REPO / "configs/synthetic_small.json"))
    parser.add_argument("--out-dir", default="runs/synthetic_small")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    start = usage()
    out = Path(args.out_dir)
    base = ["--config", args.config, "--seed", str(args.seed),
            "--out-dir", str(out)]
    run(["train", *base, "--phase", "pretrain-backbone"])
    run(["train", *base, "--phase", "pretrain-gater"])
    run(["train", *base, "--phase", "joint"])
    run(["eval", "--config", args.config, "--seed", str(args.seed),
         "--ckpt", str(out / "joint.ckpt"),
         "--dump-gates", str(out / "gates.glog")])
    run(["analyze", "--gatelog", str(out / "gates.glog"),
         "--out", str(out / "analysis")])
    print()
    report("total", start)
    print(f"done; outputs under {out}")


if __name__ == "__main__":
    main()
