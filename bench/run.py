"""gaternet benchmark: one command, three workloads, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The workload's inputs come from --seed.
After one set-up and one warm-up operation, operations run in a closed
loop, one caller, for --seconds (and at least MIN_OPS operations), every
output checked; SETUP_REPS set-ups are timed in between (the median is
setup_s). All times are scaled by the control kernel (control.py). With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced operations and prints the per-layer metrics
(see README.md). The last line of standard output is the result object;
the line before it carries the run's stamp and details.

Thread variables are set here, before numpy loads, and only in this
process's environment: one BLAS thread, within the machine's nproc.
"""

from __future__ import annotations

import os

THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import sys  # noqa: E402

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPS = 15       # set-ups timed per run, spread over the run
MIN_OPS = 21          # op_ms.tail needs 10 operations beyond it
GRACE_S = 60.0        # stop even below MIN_OPS this long after --seconds
TAIL_BEYOND = 10

WORKLOAD_NAMES = ("train-joint", "eval-gated", "analyze-gatelog")

# End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MB",
}
# What the generic metrics are called for each workload.
ALIASES = {
    "train-joint": {"items_per_s": "train_samples_per_s"},
    "eval-gated": {"items_per_s": "eval_images_per_s",
                   "op_ms.p50": "eval_batch_ms.p50",
                   "op_ms.tail": "eval_batch_ms.tail"},
    "analyze-gatelog": {"items_per_s": "analyze_gates_per_s"},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import gaternet from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import gaternet

    if Path(gaternet.__file__).resolve().parent != src / "gaternet":
        raise ImportError(f"gaternet imported from {gaternet.__file__}, not {src}")


def stamp(args) -> dict:
    import numpy as np

    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if res.returncode == 0:
            commit = res.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gaternet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python_threads": threading.active_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


class Runner:
    """Runs one workload's operations, counting attempts and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def fail(self, err: BaseException) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = f"{type(err).__name__}: {err}"

    def check_reference(self) -> None:
        if hasattr(self.wl, "check_reference"):
            self.attempted += 1
            try:
                self.wl.check_reference()
            except Exception as err:  # noqa: BLE001 - counted as a failed op
                self.fail(err)

    def run(self, i: int) -> float | None:
        """One timed, checked operation; its seconds, or None if it failed."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = self.wl.op(i)
            dt = time.perf_counter() - t0
            self.wl.check(i, out)
        except Exception as err:  # noqa: BLE001 - counted as a failed op
            self.fail(err)
            return None
        return dt


def timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """The highest sample with TAIL_BEYOND samples above it, and its
    percentile."""
    s = sorted(times)
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s)


def measure(wl, runner: Runner, seconds: float, control):
    """Closed loop for ``seconds``. Set-up is repeated between operations,
    spread evenly over the run, until SETUP_REPS set-ups are timed. Every
    op and set-up time is scaled by the control kernel (see control.py)."""
    setup_times = [control.scale(timed_setup(wl))]
    start = time.perf_counter()
    deadline = start + seconds
    times: list[float] = []
    raw: list[float] = []
    i = 0
    while ((time.perf_counter() < deadline or len(times) < MIN_OPS)
           and time.perf_counter() < deadline + GRACE_S):
        dt = runner.run(i)
        scaled = control.scale(dt or 0.0)
        if dt is not None:
            raw.append(dt)
            times.append(scaled)
        i += 1
        due = SETUP_REPS * (time.perf_counter() - start) / seconds
        if len(setup_times) < min(SETUP_REPS, due):
            setup_times.append(control.scale(timed_setup(wl)))
    if len(times) < MIN_OPS:
        raise RuntimeError(f"only {len(times)} operations succeeded")
    p50 = statistics.median(times)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": wl.items_per_op * len(times) / sum(times),
        "op_ms.p50": p50 * 1000.0,
        "op_ms.tail": tail_s * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "ops": len(times),
        "setup_reps": len(setup_times),
        "tail_percentile": tail_pct,
        "tail_beyond": TAIL_BEYOND,
        "control_ms.p50": statistics.median(control.times) * 1000.0,
        "control_ref_ms": control.REF_S * 1000.0,
        "raw_op_ms.min": min(raw) * 1000.0,
        "raw_op_ms.p50": statistics.median(raw) * 1000.0,
        "raw_items_per_s.mean": wl.items_per_op * len(raw) / sum(raw),
    }
    return metrics, details


def measure_traced(wl, runner: Runner, seconds: float, control):
    """Alternate untraced and traced operations for ``seconds``."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer.record(-1):
        wl.setup()
    deadline = time.perf_counter() + seconds
    plain: list[float] = []
    traced: dict[int, float] = {}
    n_plain = n_traced = 0
    need = max(wl.distinct_inputs, MIN_OPS // 2)
    control.scale(0.0)  # a fresh "before" control for the first operation
    while ((time.perf_counter() < deadline or len(traced) < need)
           and time.perf_counter() < deadline + GRACE_S):
        dt = runner.run(n_plain)
        scaled = control.scale(dt or 0.0)
        if dt is not None:
            plain.append(scaled)
        n_plain += 1
        with tracer.record(n_traced):
            dt = runner.run(n_traced)
        scaled = control.scale(dt or 0.0)
        if dt is not None:
            traced[n_traced] = scaled
        n_traced += 1
    count_ops = list(range(wl.distinct_inputs))
    if not plain or any(op not in traced for op in count_ops):
        raise RuntimeError("traced operations failed")
    for op in sorted(traced):
        if op >= wl.distinct_inputs and op - wl.distinct_inputs in traced:
            differ = tracer.counts_differ(op, op - wl.distinct_inputs)
            if differ:
                runner.fail(RuntimeError(f"op {op}: computed counts {differ} "
                                         "differ from the same input's last run"))
    metrics = tracer.metrics(sorted(traced), count_ops)
    plain_p50 = statistics.median(plain)
    traced_p50 = statistics.median(traced.values())
    metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
    details = {"ops_untraced": len(plain), "ops_traced": len(traced),
               "op_ms.p50_untraced": plain_p50 * 1000.0,
               "op_ms.p50_traced": traced_p50 * 1000.0,
               "spans": len(tracer.spans)}
    return metrics, details, tracer


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        import_package()
        from control import Control
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"cannot import gaternet from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        runner = Runner(wl)
        wl.prepare()
        runner.check_reference()
        control = Control()
        wl.setup()
        dt = runner.run(0)  # warm-up, checked but not timed
        if dt is None:
            raise RuntimeError(f"warm-up operation failed: {runner.first_error}")
        if args.trace:
            metrics, details, tracer = measure_traced(wl, runner, args.seconds, control)
            units = {k: per_layer_unit(k) for k in metrics}
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.dump()))
            details["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            metrics, details = measure(wl, runner, args.seconds, control)
            units = END_TO_END
            details["aliases"] = {alias: {**metrics, **details}[name] for name, alias
                                  in ALIASES[args.workload].items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    details["ops_failed_frac"] = runner.failed / runner.attempted
    details["first_error"] = runner.first_error
    print(json.dumps({"stamp": stamp(args), "details": details}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
