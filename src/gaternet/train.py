"""Loss, SGD, and the three-phase pipeline.

The full objective is cross entropy plus lambda * mean_batch(||g||_1) / c
over the selected gates. The penalty's graph only touches gater-side
parameters (the gater stack and its head), so the backbone receives no
gradient from it.

Phases: pretrain_backbone trains the backbone alone with every gate
effectively 1; pretrain_gater trains the gater stack under a temporary
linear probe on its pooled features; joint loads both, re-initializes the
bottleneck head fresh (output bias +1, so gates start mostly on), and
trains everything end to end with the scheduled gate dropout.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from gaternet.data import DatasetDescriptor, DatasetSplits, augment, load_dataset
from gaternet.layers import softmax_cross_entropy
from gaternet.model import ConfigError, GaterNet, ModelSpec, spec_to_dict
from gaternet.persist import (
    CheckpointError,
    dict_hash,
    load_checkpoint,
    save_checkpoint,
    write_csv,
)
from gaternet.tensor import Array, Tensor, no_grad

log = logging.getLogger(__name__)


PHASES = ("pretrain_backbone", "pretrain_gater", "joint")
_PHASE_TAG = {name: i + 1 for i, name in enumerate(PHASES)}
_TRAINED_PREFIXES = {
    "pretrain_backbone": ("backbone",),
    "pretrain_gater": ("gater", "probe"),
    "joint": ("backbone", "gater", "head"),
}
METRIC_COLUMNS = (
    "epoch", "phase", "train_loss", "eval_acc",
    "mean_gate_activation", "lr", "dropout_rate",
)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one phase of training: the one copy of each
    default, and the lr and gate-dropout schedules a run follows."""

    phase: str
    epochs: int
    batch_size: int
    lr_schedule: tuple[tuple[int, float], ...]
    momentum: float = 0.9
    weight_decay: float = 0.0
    lambda_: float = 0.1
    seed: int = 0
    dropout_start: float = 0.0
    dropout_end: float = 0.05

    def __post_init__(self):
        object.__setattr__(
            self, "lr_schedule",
            tuple((int(e), float(lr)) for e, lr in self.lr_schedule),
        )
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {self.phase!r}")
        # NaN passes every range check below, so finiteness comes first
        for name, value in (("lambda", self.lambda_), ("weight_decay", self.weight_decay),
                            ("momentum", self.momentum), ("dropout_start", self.dropout_start),
                            ("dropout_end", self.dropout_end),
                            *(("learning rates", lr) for _, lr in self.lr_schedule)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lambda_ < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lambda_}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.dropout_start <= self.dropout_end < 1.0:
            raise ValueError(
                f"need 0 <= dropout_start <= dropout_end < 1, got "
                f"start={self.dropout_start}, end={self.dropout_end}"
            )
        epochs = [e for e, _ in self.lr_schedule]
        if not epochs or epochs[0] != 0:
            raise ValueError(
                f"lr_schedule must start at epoch 0: {self.lr_schedule}"
            )
        if any(a >= b for a, b in zip(epochs, epochs[1:])):
            raise ValueError(
                f"lr_schedule breakpoints must strictly increase: {self.lr_schedule}"
            )
        if any(lr <= 0 for _, lr in self.lr_schedule):
            raise ValueError(f"learning rates must be positive: {self.lr_schedule}")

    def lr(self, epoch: int) -> float:
        """Piecewise-constant: the rate of the last breakpoint <= epoch,
        for epoch >= 0 (run_phase counts epochs from 0)."""
        return next(lr for e, lr in reversed(self.lr_schedule) if e <= epoch)

    def dropout_rate(self, step: int, steps_per_epoch: int) -> float:
        """Gate-dropout rate at an optimizer step: 0.0 outside joint; in
        joint a linear ramp from dropout_start at step 0 to exactly
        dropout_end at the run's final step, then clamped there. step >= 0:
        run_phase counts steps from 0."""
        if self.phase != "joint":
            return 0.0
        # Steps are numbered 0..E*S-1, so a span of E*S-1 puts the ramp's
        # exact dropout_end on the run's final optimizer step.
        span = max(1, self.epochs * steps_per_epoch - 1)
        if step >= span:
            return self.dropout_end
        frac = step / span
        return self.dropout_start + (self.dropout_end - self.dropout_start) * frac


def l1_gate_penalty(selected: Tensor, lambda_: float) -> Tensor:
    """lambda * mean_batch(||g||_1 / c); gates are nonnegative, so the L1
    norm is a plain sum. TrainConfig holds lambda >= 0."""
    n, c = selected.shape
    return selected.sum() * (lambda_ / (n * c))


def total_loss(
    logits: Tensor,
    labels,
    selected_gates: Tensor | None,
    lambda_: float,
) -> Tensor:
    """Cross entropy plus the sparse-gate penalty.

    With lambda 0 or no gates this IS the cross-entropy node, not a copy.
    TrainConfig holds lambda >= 0.
    """
    ce = softmax_cross_entropy(logits, labels)
    if selected_gates is None or lambda_ == 0:
        return ce
    if selected_gates.shape[0] != logits.shape[0]:
        raise ValueError(
            f"gate batch {selected_gates.shape[0]} does not match logits batch "
            f"{logits.shape[0]}"
        )
    return ce + l1_gate_penalty(selected_gates, lambda_)


class SGD:
    """Momentum SGD over named tensors.

    Weight decay applies only to weight matrices and filters; 1-D
    parameters (biases, batchnorm gamma/beta) are exempt. Parameters with
    no gradient this step are skipped entirely. The momentum, weight decay
    and learning rates come from a TrainConfig, which checks their ranges.
    """

    def __init__(self, params: dict[str, Tensor], momentum: float,
                 weight_decay: float):
        self.params = dict(params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {k: np.zeros_like(t.data) for k, t in self.params.items()}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def step(self, lr: float) -> None:
        """In place, per parameter: v <- momentum * v + grad + wd * param;
        param <- param - lr * v."""
        for name, t in self.params.items():
            if t.grad is None:
                continue
            v = self.velocity[name]
            v *= self.momentum
            v += t.grad
            if self.weight_decay and t.data.ndim > 1:
                v += self.weight_decay * t.data
            t.data -= lr * v


@dataclass
class PhaseResult:
    checkpoint_path: Path
    metrics_path: Path
    final_eval_acc: float
    final_train_loss: float
    final_gate_activation: float | None


# glibc's mallopt parameter numbers (malloc.h) and the values pin_heap
# gives them. 32 MiB is glibc's cap on the mmap threshold on 64-bit hosts,
# so every block a synthetic_small step allocates comes from the heap (the
# largest, the 16->16 conv's kept patches at batch 64, is 9.4 MB). free()
# returns the top of the heap to the kernel once it exceeds the trim
# threshold. A joint step at batch 64 grows the heap by ~41 MB and leaves
# ~26 MB free at its top; at batch 256, ~167 MB and ~45 MB (mallinfo2).
# 256 MiB keeps all of that, and the heap still never grows past what a
# step reaches. One arena: whatever layers' worker thread allocates comes
# from the main heap too, not from a second arena that keeps its own free
# pages. layers allocates every large buffer of a training step before a
# split, so in a step the worker allocates only small temporaries, and 15
# benchmark train-joint ops in one process (whose 32-sample evaluate runs
# whole) peaked at 77.0-77.2 MB RSS with two arenas and at 77.1 MB with
# one. An eval half on the worker (an evaluate of more than 32 samples)
# builds its own im2col patches and activations, which the one arena keeps
# in the main heap as well.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 256 << 20),
                  (_M_ARENA_MAX, 1))


@functools.cache
def pin_heap() -> None:
    """Keep the blocks a training step frees in this process's heap.

    Every step frees its graph. By default glibc's dynamic thresholds hand
    those pages back to the kernel and the next step faults them in again
    (~4k minor faults per synthetic_small joint step at batch 64). This
    sets both of glibc's thresholds once per process: setting only one
    turns the dynamic mmap threshold off and made the step slower. It also
    keeps every thread's blocks in one arena (see _HEAP_SETTINGS), so it
    must run before layers' worker thread first allocates. The cost is
    that RSS stays at its high-water mark after training. Changes nothing
    where the C library has no mallopt (not glibc)."""
    import ctypes  # here: processes that never train do not load it

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_SETTINGS:
        if mallopt(param, value) != 1:
            log.warning("mallopt(%d, %d) failed; the heap is not pinned", param, value)


def _epoch_rng(seed: int, phase: str, epoch: int) -> np.random.Generator:
    """One stream per (seed, phase, epoch): resuming at an epoch boundary
    replays the identical shuffle, augmentation, noise and dropout draws."""
    ss = np.random.SeedSequence(seed, spawn_key=(_PHASE_TAG[phase], epoch))
    return np.random.Generator(np.random.PCG64(ss))


@contextmanager
def _fits_at(batch_size: int):
    """A MemoryError raised inside is a ConfigError naming the batch size:
    a spec whose parameters fit (GaterNet checks those) may still have
    activations that do not."""
    try:
        yield
    except MemoryError as e:
        why = f" ({e})" if str(e) else ""
        raise ConfigError(f"model: activations at batch size {batch_size} "
                          f"do not fit in memory{why}") from None


def _diverged(cfg: TrainConfig, lr: float, what: str) -> ConfigError:
    return ConfigError(f"{cfg.phase}: {what} (lr {lr}, weight_decay "
                       f"{cfg.weight_decay}, lambda {cfg.lambda_}): the run diverged")


def phase_forward(model: GaterNet, phase: str, x: Tensor, training: bool,
                  rng: np.random.Generator | None = None,
                  dropout_rate: float = 0.0) -> tuple[Tensor, Tensor | None]:
    """The forward pass a phase trains and evaluates: logits, plus in joint
    the selected gates [N, c] (before dropout), else None. An eval pass
    whose logits or gate scores are not all finite raises CheckpointError:
    restore admits only finite parameters, but finite ones can still
    overflow float32 or hold a negative running variance."""
    scores = gates = None
    if phase == "pretrain_backbone":
        logits = model.forward_backbone(x, training)
    elif phase == "pretrain_gater":
        logits = model.forward_probe(x, training)
    else:
        logits, bundle = model.forward(x, training, rng, dropout_rate=dropout_rate)
        scores, gates = bundle.g_pre, bundle.selected
    if not training:
        for what, t in (("logits", logits), ("gate scores", scores)):
            if t is not None and not np.isfinite(t.data).all():
                raise CheckpointError(f"model: eval {what} are not all finite: "
                                      "its parameters are out of range")
    return logits, gates


def evaluate(model: GaterNet, phase: str, x: Array, y: Array,
             batch_size: int) -> tuple[float, float | None, Array | None]:
    """Eval-mode accuracy; in joint also the uint8 [N, c] eval gates and
    their mean as an exact count ratio (both None in the other phases).
    Runs under no_grad, so no phase records a graph. A batch too large for
    memory is a ConfigError; non-finite logits or gate scores are a
    CheckpointError (phase_forward), with numpy's floating-point warnings
    off."""
    correct = 0
    rows = []
    with no_grad(), _fits_at(batch_size), np.errstate(all="ignore"):
        for lo in range(0, len(x), batch_size):
            xb, yb = Tensor(x[lo : lo + batch_size]), y[lo : lo + batch_size]
            logits, gates = phase_forward(model, phase, xb, training=False)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
            if gates is not None:
                rows.append(gates.data.astype(np.uint8))
    acc = correct / len(x)
    if phase != "joint":
        return acc, None, None
    gates = np.concatenate(rows, axis=0)
    mean_gate = int(gates.sum()) / gates.size
    return acc, mean_gate, gates


def _state(model: GaterNet, opt: SGD | None = None) -> dict[str, Array]:
    """A checkpoint's name -> array map: every parameter and buffer, plus
    opt's velocities under opt.* when opt is given."""
    state = {k: t.data for k, t in model.params.items()} | model.buffers
    if opt is not None:
        state |= {f"opt.{k}": v for k, v in opt.velocity.items()}
    return state


def restore(model: GaterNet, ckpt_path: str | Path,
            prefixes: tuple[str, ...] | None = None,
            opt: SGD | None = None, require: dict | None = None) -> dict:
    """Copy checkpoint tensors into the model, in place; returns the metadata.

    Refuses a container that is not a training checkpoint (meta format
    the integer 1 and a known phase), was saved for another model spec, or
    whose metadata differs from any key: value of require, all before any
    tensor is copied. Targets the names of _state(model, opt) whose first
    dotted part is in prefixes (all of them when prefixes is None; opt.*
    names are under "opt"). Each target must be present in the checkpoint
    with its exact shape and dtype and hold only finite values; tensors
    the checkpoint holds beyond the targets are ignored. Every target is
    checked before any is copied, so a refused restore leaves the model
    and optimizer unchanged.
    """
    tensors, meta = load_checkpoint(ckpt_path)
    fmt = meta.get("format")
    # not == 1 alone: JSON true and 1.0 equal 1
    if type(fmt) is not int or fmt != 1 or meta.get("phase") not in PHASES:
        kind = f" ({meta['kind']!r})" if "kind" in meta else ""
        raise CheckpointError(f"{ckpt_path} is not a training checkpoint{kind}")
    spec_hash = dict_hash(spec_to_dict(model.spec))
    if meta.get("spec_hash") != spec_hash:
        raise CheckpointError(
            f"{ckpt_path}: model spec hash mismatch "
            f"(checkpoint {meta.get('spec_hash')!r}, current {spec_hash!r})"
        )
    for key, want in (require or {}).items():
        if meta.get(key) != want:
            raise CheckpointError(
                f"{ckpt_path}: {key} mismatch "
                f"(checkpoint {meta.get(key)!r}, requested {want!r})"
            )
    targets = _state(model, opt)
    if prefixes is not None:
        targets = {k: v for k, v in targets.items()
                   if k.split(".", 1)[0] in prefixes}
    for name, dst in targets.items():
        src = tensors.get(name)
        if src is None:
            raise CheckpointError(f"{ckpt_path}: missing tensor {name}")
        if src.shape != dst.shape or src.dtype != dst.dtype:
            raise CheckpointError(
                f"{ckpt_path}: tensor {name} is {src.dtype} {src.shape}, "
                f"model needs {dst.dtype} {dst.shape}"
            )
        if not np.isfinite(src).all():
            raise CheckpointError(f"{ckpt_path}: tensor {name} holds a non-finite value")
    for name, dst in targets.items():
        dst[...] = tensors[name]
    return meta


def start_checkpoints(
    phase: str,
    out_dir: str | Path,
    backbone_ckpt: str | Path | None = None,
    gater_ckpt: str | Path | None = None,
    resume_ckpt: str | Path | None = None,
    from_scratch: bool = False,
) -> tuple[Path, Path] | None:
    """The (backbone, gater) pretraining checkpoints that a phase starts
    from, or None where it starts otherwise. Only the joint phase without
    resume_ckpt and without from_scratch starts from them: the given paths
    first, else out_dir/pretrain_backbone.ckpt and pretrain_gater.ckpt
    when present. Raises ConfigError for a flag that cannot take effect
    and CheckpointError for a checkpoint that is missing; it reads no
    checkpoint and writes nothing, so callers can check before any work.
    """
    out_dir = Path(out_dir)
    ckpts = [flag for flag, path in (("--backbone-ckpt", backbone_ckpt),
                                     ("--gater-ckpt", gater_ckpt)) if path is not None]
    if phase != "joint" or resume_ckpt is not None:
        unused = ckpts + (["--from-scratch"] if from_scratch else [])
        why = "--resume" if phase == "joint" else f"the {phase} phase"
    else:
        unused = ckpts if from_scratch else []
        why = "--from-scratch"
    if unused:
        raise ConfigError(f"{', '.join(unused)} cannot take effect with {why}")
    if phase != "joint" or from_scratch or resume_ckpt is not None:
        return None
    if backbone_ckpt is None and (out_dir / "pretrain_backbone.ckpt").is_file():
        backbone_ckpt = out_dir / "pretrain_backbone.ckpt"
    if gater_ckpt is None and (out_dir / "pretrain_gater.ckpt").is_file():
        gater_ckpt = out_dir / "pretrain_gater.ckpt"
    missing = [
        f"--{flag}-ckpt / pretrain_{flag}.ckpt"
        for flag, ckpt in (("backbone", backbone_ckpt), ("gater", gater_ckpt))
        if ckpt is None
    ]
    if missing:
        raise CheckpointError(
            "joint training initializes from the two pretraining "
            f"checkpoints; missing (neither given nor found in {out_dir}): "
            f"{', '.join(missing)}. Run the pretraining phases first, pass "
            "--backbone-ckpt/--gater-ckpt, or use --from-scratch."
        )
    return Path(backbone_ckpt), Path(gater_ckpt)


def run_phase(
    spec: ModelSpec,
    cfg: TrainConfig,
    splits: DatasetSplits,
    out_dir: str | Path,
    backbone_ckpt: str | Path | None = None,
    gater_ckpt: str | Path | None = None,
    resume_ckpt: str | Path | None = None,
    from_scratch: bool = False,
) -> PhaseResult:
    """Train one phase to completion, checkpointing every epoch.

    The metrics CSV and checkpoint are rewritten atomically per epoch, so
    an interrupted run leaves the previous epoch's files intact and can be
    resumed with resume_ckpt. backbone_ckpt, gater_ckpt and from_scratch
    act as start_checkpoints says, which checks them before any work. A
    training step or evaluation too large for memory is a ConfigError
    naming the batch size, and so is a run whose loss, parameters or eval
    output go non-finite.
    """
    out_dir = Path(out_dir)
    phase = cfg.phase
    start = start_checkpoints(phase, out_dir, backbone_ckpt, gater_ckpt,
                              resume_ckpt, from_scratch)
    pin_heap()
    spec_hash = dict_hash(spec_to_dict(spec))
    cfg_hash = dict_hash(asdict(cfg))

    model = GaterNet(spec, seed=cfg.seed)
    if start is not None:
        restore(model, start[0], ("backbone",))
        restore(model, start[1], ("gater",))

    trained = {k: t for k, t in model.params.items()
               if k.split(".", 1)[0] in _TRAINED_PREFIXES[phase]}
    opt = SGD(trained, momentum=cfg.momentum, weight_decay=cfg.weight_decay)

    steps_per_epoch = max(1, -(-len(splits.train_x) // cfg.batch_size))
    start_epoch = 0
    step = 0
    rows: list[dict] = []
    if resume_ckpt is not None:
        meta = restore(model, resume_ckpt, opt=opt, require={
            "phase": phase, "train_config_hash": cfg_hash})
        for key, kind in (("epochs_done", int), ("step", int), ("metrics_rows", list)):
            if key not in meta:
                raise CheckpointError(f"{resume_ckpt}: metadata lacks {key!r}")
            if type(meta[key]) is not kind:  # not isinstance: bool is an int
                raise CheckpointError(f"{resume_ckpt}: metadata {key!r} is "
                                      f"{meta[key]!r}; want {kind.__name__}")
        start_epoch = meta["epochs_done"]
        step = meta["step"]
        rows = meta["metrics_rows"]
        for i, row in enumerate(rows):
            # as written below: finite JSON numbers (never bools, nor
            # integers past float range) after epoch and phase, but for
            # pretrain_gater's blank mean_gate_activation
            if not (isinstance(row, dict) and set(row) == set(METRIC_COLUMNS)
                    and row["epoch"] == i and type(row["epoch"]) is int
                    and row["phase"] == phase
                    and all(type(row[k]) in (int, float)
                            and abs(row[k]) <= sys.float_info.max
                            for k in METRIC_COLUMNS[2:]
                            if (phase, k, row[k])
                            != ("pretrain_gater", "mean_gate_activation", ""))):
                raise CheckpointError(
                    f"{resume_ckpt}: metadata 'metrics_rows' holds {row!r}, not "
                    f"the {phase} row of epoch {i} with keys "
                    f"{', '.join(METRIC_COLUMNS)}"
                )
        if len(rows) != start_epoch:
            raise CheckpointError(
                f"{resume_ckpt}: {len(rows)} metrics rows for {start_epoch} epochs"
            )
        if step != start_epoch * steps_per_epoch:
            raise CheckpointError(
                f"{resume_ckpt}: step {step} after {start_epoch} epochs; want "
                f"{start_epoch * steps_per_epoch} ({steps_per_epoch} per epoch)"
            )

    ckpt_path = out_dir / f"{phase}.ckpt"
    metrics_path = out_dir / f"metrics_{phase}.csv"
    desc = splits.descriptor
    n_train = len(splits.train_x)
    for epoch in range(start_epoch, cfg.epochs):
        rng = _epoch_rng(cfg.seed, phase, epoch)
        lr = cfg.lr(epoch)
        order = rng.permutation(n_train)
        losses = []
        for lo in range(0, n_train, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb = splits.train_x[idx]  # fancy indexing copies
            if desc.random_crop or desc.mirror:
                for i in range(len(xb)):
                    xb[i] = augment(xb[i], rng, desc.random_crop, desc.mirror)
            yb = splits.train_y[idx]
            rate = cfg.dropout_rate(step, steps_per_epoch)
            # numpy's floating-point warnings are off: an overflow shows as
            # a non-finite loss or parameter, reported once (_diverged)
            with _fits_at(cfg.batch_size), np.errstate(all="ignore"):
                logits, gates = phase_forward(model, phase, Tensor(xb), True,
                                              rng, rate)
                loss = total_loss(logits, yb, gates, cfg.lambda_)
                if not np.isfinite(loss.item()):
                    raise _diverged(cfg, lr, f"non-finite loss at step {step}")
                opt.zero_grad()
                loss.backward()
                opt.step(lr)
            losses.append(loss.item())
            del logits, gates, loss  # free this step's graph before the next
            step += 1
        # the epoch's last update has no loss after it
        if not all(np.isfinite(a).all() for a in (*(t.data for t in trained.values()),
                                                  *model.buffers.values())):
            raise _diverged(cfg, lr, f"non-finite parameters after step {step - 1}")
        train_loss = float(np.mean(losses))
        try:
            eval_acc, mean_gate, _ = evaluate(model, phase, splits.eval_x,
                                              splits.eval_y, cfg.batch_size)
        except CheckpointError:  # these parameters came from training
            raise _diverged(cfg, lr, f"non-finite eval output after step {step - 1}"
                            ) from None
        # gates are forced on while the backbone pretrains
        gate_field = 1.0 if phase == "pretrain_backbone" else mean_gate
        last_rate = cfg.dropout_rate(step - 1, steps_per_epoch)
        rows.append({
            "epoch": epoch, "phase": phase, "train_loss": train_loss,
            "eval_acc": eval_acc,
            "mean_gate_activation": "" if gate_field is None else gate_field,
            "lr": lr, "dropout_rate": last_rate,
        })
        write_csv(metrics_path, METRIC_COLUMNS, "%s,%s,%s,%s,%s,%s,%s",
                  [[r[k] for r in rows] for k in METRIC_COLUMNS])
        save_checkpoint(ckpt_path, _state(model, opt), {
            "format": 1, "phase": phase, "epochs_done": epoch + 1, "step": step,
            "seed": cfg.seed, "spec_hash": spec_hash,
            "train_config_hash": cfg_hash, "metrics_rows": rows,
        })
        log.info("%s epoch %d: loss %.4f acc %.4f", phase, epoch, train_loss, eval_acc)

    last = rows[-1]  # so a resumed finished phase reports its stored finals
    gate = last["mean_gate_activation"]
    return PhaseResult(
        checkpoint_path=ckpt_path,
        metrics_path=metrics_path,
        final_eval_acc=float(last["eval_acc"]),
        final_train_loss=float(last["train_loss"]),
        final_gate_activation=float(gate) if phase == "joint" else None,
    )


class SweepRow(NamedTuple):
    """One joint run of a sweep, in sweep.csv's column order."""
    seed: int
    lambda_: float
    eval_acc: float
    mean_gate_activation: float
    ungated_baseline_acc: float


def sweep(spec: ModelSpec, phases: dict[str, TrainConfig], dataset: DatasetDescriptor,
          seeds: Sequence[int], lambdas: Sequence[float],
          out_root: str | Path) -> Iterator[SweepRow]:
    """The shared-pretrain lambda sweep, yielding a row as each joint run
    finishes. Per seed, the backbone (the ungated baseline) and the gater
    pretrain once in out_root/seed<s>/pretrain; one joint phase per lambda
    then starts from them in out_root/seed<s>/lambda<l>. Every config is
    built first: a negative or repeated seed or lambda, or a non-finite
    lambda, is a ConfigError, and no run."""
    for name, values in (("seed", seeds), ("lambda", lambdas)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"{name} {repeated[0]} is given more than once")
    try:
        runs = [(seed, [replace(phases[p], seed=seed) for p in PHASES[:2]],
                 [replace(phases["joint"], seed=seed, lambda_=lam) for lam in lambdas])
                for seed in seeds]
    except ValueError as e:
        raise ConfigError(str(e)) from e
    for seed, (backbone_cfg, gater_cfg), joint_cfgs in runs:
        splits = load_dataset(dataset, seed)
        pre = Path(out_root, f"seed{seed}", "pretrain")
        backbone = run_phase(spec, backbone_cfg, splits, pre)
        gater = run_phase(spec, gater_cfg, splits, pre)
        for cfg in joint_cfgs:
            joint = run_phase(spec, cfg, splits, pre.parent / f"lambda{cfg.lambda_}",
                              backbone.checkpoint_path, gater.checkpoint_path)
            yield SweepRow(seed, cfg.lambda_, joint.final_eval_acc,
                           joint.final_gate_activation, backbone.final_eval_acc)
