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

import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from gaternet.data import DatasetSplits, augment
from gaternet.layers import softmax_cross_entropy
from gaternet.model import GaterNet, ModelSpec, spec_to_dict
from gaternet.persist import (
    CheckpointError,
    dict_hash,
    load_checkpoint,
    save_checkpoint,
    write_csv,
)
from gaternet.tensor import Array, Tensor, assert_all_finite, no_grad

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


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
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lambda_ < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lambda_}")
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
        """Piecewise-constant: the rate of the last breakpoint <= epoch."""
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        return next(lr for e, lr in reversed(self.lr_schedule) if e <= epoch)

    def dropout_rate(self, step: int, steps_per_epoch: int) -> float:
        """Gate-dropout rate at an optimizer step: 0.0 outside joint; in
        joint a linear ramp from dropout_start at step 0 to exactly
        dropout_end at the run's final step, then clamped there."""
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        if self.phase != "joint":
            return 0.0
        # Steps are numbered 0..E*S-1, so a span of E*S-1 puts the ramp's
        # exact dropout_end on the run's final optimizer step.
        span = max(1, self.epochs * steps_per_epoch - 1)
        if step >= span:
            return self.dropout_end
        frac = step / span
        return self.dropout_start + (self.dropout_end - self.dropout_start) * frac

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lr_schedule"] = [list(pair) for pair in self.lr_schedule]
        return d


def l1_gate_penalty(selected: Tensor, lambda_: float) -> Tensor:
    """lambda * mean_batch(||g||_1 / c); gates are nonnegative, so the L1
    norm is a plain sum."""
    if lambda_ < 0:
        raise ValueError(f"lambda must be >= 0, got {lambda_}")
    n, c = selected.shape
    if c < 1:
        raise ValueError("penalty needs at least one gate")
    return selected.sum() * (lambda_ / (n * c))


def total_loss(
    logits: Tensor,
    labels,
    selected_gates: Tensor | None,
    lambda_: float,
) -> Tensor:
    """Cross entropy plus the sparse-gate penalty.

    With lambda 0 or no gates this IS the cross-entropy node, not a copy.
    """
    if lambda_ < 0:
        raise ValueError(f"lambda must be >= 0, got {lambda_}")
    ce = softmax_cross_entropy(logits, labels)
    if selected_gates is None or selected_gates.shape[1] == 0 or lambda_ == 0:
        return ce
    if selected_gates.shape[0] != logits.shape[0]:
        raise ValueError(
            f"gate batch {selected_gates.shape[0]} does not match logits batch "
            f"{logits.shape[0]}"
        )
    return ce + l1_gate_penalty(selected_gates, lambda_)


def sgd_step(
    param: Array, grad: Array, velocity: Array,
    lr: float, momentum: float, weight_decay: float,
) -> None:
    """v <- momentum * v + grad + wd * param; param <- param - lr * v."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    velocity *= momentum
    velocity += grad
    if weight_decay:
        velocity += weight_decay * param
    param -= lr * velocity


class SGD:
    """Momentum SGD over named tensors.

    Weight decay applies only to weight matrices and filters; 1-D
    parameters (biases, batchnorm gamma/beta) are exempt. Parameters with
    no gradient this step are skipped entirely.
    """

    def __init__(self, params: dict[str, Tensor], momentum: float = 0.9,
                 weight_decay: float = 0.0):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.params = dict(params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {k: np.zeros_like(t.data) for k, t in self.params.items()}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def step(self, lr: float) -> None:
        for name, t in self.params.items():
            if t.grad is None:
                continue
            wd = self.weight_decay if t.data.ndim > 1 else 0.0
            sgd_step(t.data, t.grad, self.velocity[name], lr, self.momentum, wd)


@dataclass
class PhaseResult:
    phase: str
    checkpoint_path: Path
    metrics_path: Path
    rows: list[dict]
    final_eval_acc: float
    final_train_loss: float
    final_gate_activation: float | None
    model: GaterNet


def _epoch_rng(seed: int, phase: str, epoch: int) -> np.random.Generator:
    """One stream per (seed, phase, epoch): resuming at an epoch boundary
    replays the identical shuffle, augmentation, noise and dropout draws."""
    ss = np.random.SeedSequence(seed, spawn_key=(_PHASE_TAG[phase], epoch))
    return np.random.Generator(np.random.PCG64(ss))


def phase_forward(model: GaterNet, phase: str, x: Tensor, training: bool,
                  rng: np.random.Generator | None = None,
                  dropout_rate: float = 0.0) -> tuple[Tensor, Tensor | None]:
    """The forward pass a phase trains and evaluates: logits, plus in joint
    the selected gates [N, c] (before dropout), else None."""
    if phase == "pretrain_backbone":
        return model.forward_backbone(x, training), None
    if phase == "pretrain_gater":
        return model.forward_probe(x, training), None
    logits, bundle = model.forward(x, training, rng, dropout_rate=dropout_rate)
    return logits, bundle.selected


def evaluate(model: GaterNet, phase: str, x: Array, y: Array,
             batch_size: int) -> tuple[float, float | None, Array | None]:
    """Eval-mode accuracy; in joint also the uint8 [N, c] eval gates and
    their mean as an exact count ratio (None without gated filters). Runs
    under no_grad, so no phase records a graph."""
    correct = 0
    rows = []
    with no_grad():
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
    mean_gate = int(gates.sum()) / gates.size if gates.size else None
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

    Refuses a container that is not a training checkpoint (meta format 1
    and a known phase), was saved for another model spec, or whose
    metadata differs from any key: value of require, all before any tensor
    is copied. Targets the names of _state(model, opt) under prefixes (all
    of them when prefixes is None; opt.* names are under "opt"). Each
    target must be present in the checkpoint with its exact shape and
    dtype; tensors the checkpoint holds beyond the targets are ignored.
    """
    tensors, meta = load_checkpoint(ckpt_path)
    if meta.get("format") != 1 or meta.get("phase") not in PHASES:
        kind = f" ({meta['kind']})" if "kind" in meta else ""
        raise CheckpointError(f"{ckpt_path} is not a training checkpoint{kind}")
    spec_hash = dict_hash(spec_to_dict(model.spec))
    if meta.get("spec_hash") != spec_hash:
        raise CheckpointError(
            f"{ckpt_path}: model spec hash mismatch "
            f"(checkpoint {meta.get('spec_hash')}, current {spec_hash})"
        )
    for key, want in (require or {}).items():
        if meta.get(key) != want:
            raise CheckpointError(
                f"{ckpt_path}: {key} mismatch "
                f"(checkpoint {meta.get(key)}, requested {want})"
            )
    targets = _state(model, opt)
    if prefixes is not None:
        targets = {k: v for k, v in targets.items()
                   if any(k.startswith(p + ".") for p in prefixes)}
    for name, dst in targets.items():
        src = tensors.get(name)
        if src is None:
            raise CheckpointError(f"{ckpt_path}: missing tensor {name}")
        if src.shape != dst.shape or src.dtype != dst.dtype:
            raise CheckpointError(
                f"{ckpt_path}: tensor {name} is {src.dtype} {src.shape}, "
                f"model needs {dst.dtype} {dst.shape}"
            )
        dst[...] = src
    return meta


def load_model(spec: ModelSpec, ckpt_path: str | Path) -> tuple[GaterNet, str]:
    """The model a training checkpoint holds, and the phase that wrote it.
    Every tensor is restored, so the init seed does not show."""
    # Only a pretrain_gater checkpoint holds the probe head, and only its
    # metadata names the phase, so that phase is restored a second time
    # into a model built with a probe.
    model = GaterNet(spec)
    phase = restore(model, ckpt_path)["phase"]
    if phase == "pretrain_gater":
        model = GaterNet(spec, include_probe=True)
        restore(model, ckpt_path)
    return model, phase


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
    act as start_checkpoints says, which checks them before any work.
    """
    out_dir = Path(out_dir)
    phase = cfg.phase
    start = start_checkpoints(phase, out_dir, backbone_ckpt, gater_ckpt,
                              resume_ckpt, from_scratch)
    spec_hash = dict_hash(spec_to_dict(spec))
    cfg_hash = dict_hash(cfg.to_dict())

    model = GaterNet(spec, seed=cfg.seed, include_probe=(phase == "pretrain_gater"))
    if start is not None:
        restore(model, start[0], ("backbone",))
        restore(model, start[1], ("gater",))

    trained = model.trainable(_TRAINED_PREFIXES[phase])
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
            # as written below: JSON numbers (never bools) after epoch and
            # phase, but for a blank mean_gate_activation
            if not (isinstance(row, dict) and set(row) == set(METRIC_COLUMNS)
                    and row["epoch"] == i and type(row["epoch"]) is int
                    and row["phase"] == phase
                    and all(type(row[k]) in (int, float) for k in METRIC_COLUMNS[2:]
                            if (k, row[k]) != ("mean_gate_activation", ""))):
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

    out_dir.mkdir(parents=True, exist_ok=True)
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
            xb = splits.train_x[idx].copy()
            if desc.random_crop or desc.mirror:
                for i in range(len(xb)):
                    xb[i] = augment(xb[i], rng, desc.random_crop, desc.mirror)
            yb = splits.train_y[idx]
            rate = cfg.dropout_rate(step, steps_per_epoch)
            logits, gates = phase_forward(model, phase, Tensor(xb), True, rng, rate)
            loss = total_loss(logits, yb, gates, cfg.lambda_)
            assert_all_finite(loss, f"{phase} loss at step {step}")
            opt.zero_grad()
            loss.backward()
            opt.step(lr)
            losses.append(loss.item())
            del logits, gates, loss  # free this step's graph before the next
            step += 1
        train_loss = float(np.mean(losses))
        eval_acc, mean_gate, _ = evaluate(model, phase, splits.eval_x,
                                          splits.eval_y, cfg.batch_size)
        # gates are forced on while the backbone pretrains
        gate_field = 1.0 if phase == "pretrain_backbone" else mean_gate
        last_rate = cfg.dropout_rate(step - 1, steps_per_epoch)
        rows.append({
            "epoch": epoch, "phase": phase, "train_loss": train_loss,
            "eval_acc": eval_acc,
            "mean_gate_activation": "" if gate_field is None else gate_field,
            "lr": lr, "dropout_rate": last_rate,
        })
        write_csv(metrics_path, METRIC_COLUMNS, rows)
        save_checkpoint(ckpt_path, _state(model, opt), {
            "format": 1, "phase": phase, "epochs_done": epoch + 1, "step": step,
            "seed": cfg.seed, "spec_hash": spec_hash,
            "train_config_hash": cfg_hash, "metrics_rows": rows,
        })
        log.info("%s epoch %d: loss %.4f acc %.4f", phase, epoch, train_loss, eval_acc)

    last = rows[-1]  # so a resumed finished phase reports its stored finals
    gate = last["mean_gate_activation"]
    return PhaseResult(
        phase=phase,
        checkpoint_path=ckpt_path,
        metrics_path=metrics_path,
        rows=rows,
        final_eval_acc=float(last["eval_acc"]),
        final_train_loss=float(last["train_loss"]),
        final_gate_activation=float(gate) if phase == "joint" and gate != "" else None,
        model=model,
    )
