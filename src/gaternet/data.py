"""Datasets and augmentation.

Two dataset kinds: the CIFAR-10 binary batches (3073-byte records, one
label byte then 3072 channel-major pixel bytes) and a deterministic
synthetic set of oriented-stripe images, class-separable by a small CNN,
for desk-scale runs and tests.

Images are float32 [N, C, H, W]; pixel data is scaled to [0, 1] and then
normalized with the descriptor's per-channel mean/std. Augmentation is
train-split only: 4-pixel zero padding with a random crop back to the
original size, and a 0.5-probability horizontal mirror.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from gaternet.model import ConfigError
from gaternet.tensor import Array

CIFAR_RECORD = 3073
CIFAR_CLASSES = 10
PAD = 4

log = logging.getLogger(__name__)


class DataError(ValueError):
    """Malformed dataset input."""


@dataclass(frozen=True)
class DatasetDescriptor:
    """Where the data comes from and how to prepare it."""

    kind: str  # "synthetic" | "cifar10"
    train_paths: tuple[str, ...] = ()
    eval_path: str = ""
    mean: tuple[float, ...] = (0.0, 0.0, 0.0)
    std: tuple[float, ...] = (1.0, 1.0, 1.0)
    random_crop: bool = False
    mirror: bool = False
    num_classes: int = 10
    train_size: int = 0  # synthetic only
    eval_size: int = 0   # synthetic only
    image_size: int = 16  # synthetic only
    noise: float = 0.25   # synthetic only

    def __post_init__(self):
        object.__setattr__(self, "train_paths", tuple(self.train_paths))
        object.__setattr__(self, "mean", tuple(float(v) for v in self.mean))
        object.__setattr__(self, "std", tuple(float(v) for v in self.std))
        if self.kind not in ("synthetic", "cifar10"):
            raise DataError(f"unknown dataset kind {self.kind!r}")
        if len(self.mean) != 3 or len(self.std) != 3:
            raise DataError(f"mean and std need one entry per channel (3), got "
                            f"{self.mean} and {self.std}")
        # normalize divides in float32, where a tiny std rounds to zero
        with np.errstate(over="ignore"):
            std32 = np.asarray(self.std, dtype=np.float32)
        if not np.all(std32 > 0):
            raise DataError(f"std entries must be positive in float32, got {self.std}")
        if self.kind == "synthetic":
            if self.num_classes < 2:
                raise DataError(f"num_classes must be >= 2, got {self.num_classes}")
            if self.train_size < 1 or self.eval_size < 1:
                raise DataError("synthetic dataset needs positive train/eval sizes")
            if self.image_size < 4:
                raise DataError(f"image_size must be >= 4, got {self.image_size}")
            if self.noise < 0:
                raise DataError(f"noise must be >= 0, got {self.noise}")

    @property
    def image_shape(self) -> tuple[int, int, int]:
        """[C, H, W] of every image this descriptor yields."""
        side = 32 if self.kind == "cifar10" else self.image_size
        return (3, side, side)


@dataclass
class DatasetSplits:
    train_x: Array
    train_y: Array
    eval_x: Array
    eval_y: Array
    descriptor: DatasetDescriptor


def normalize(images: Array, mean, std) -> Array:
    """(x - mean) / std per channel, on [N, C, H, W] float input; a
    DataError unless std is positive and std and every result are finite
    in the images' dtype (an infinite std would zero every image)."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.asarray(mean, dtype=images.dtype).reshape(1, -1, 1, 1)
        s = np.asarray(std, dtype=images.dtype).reshape(1, -1, 1, 1)
        if np.any(s <= 0):
            raise DataError("std entries must be positive")
        out = (images - m) / s
    if not (np.isfinite(s).all() and np.isfinite(out).all()):
        raise DataError(f"mean {tuple(mean)} and std {tuple(std)} give images "
                        f"that are not finite in {images.dtype}")
    return out


def load_cifar10_binary(paths, mean, std) -> tuple[Array, Array]:
    """Decode one or more CIFAR-10 .bin batch files.

    Each record is a label byte then 3072 bytes: three 1024-byte channel
    planes (R, G, B), row-major within a plane. Truncated files and label
    bytes outside [0, 10) are rejected with the offending byte offset.
    An empty file contributes zero records and a logged warning.
    """
    images = []
    labels = []
    for path in paths:
        raw = np.fromfile(str(path), dtype=np.uint8)
        if raw.size == 0:
            log.warning("empty dataset file: %s", path)
            continue
        if raw.size % CIFAR_RECORD:
            good = (raw.size // CIFAR_RECORD) * CIFAR_RECORD
            raise DataError(
                f"{path}: truncated record at byte offset {good} "
                f"(file size {raw.size} is not a multiple of {CIFAR_RECORD})"
            )
        recs = raw.reshape(-1, CIFAR_RECORD)
        lab = recs[:, 0]
        bad = np.nonzero(lab >= CIFAR_CLASSES)[0]
        if bad.size:
            raise DataError(
                f"{path}: label byte {int(lab[bad[0]])} out of range at byte "
                f"offset {int(bad[0]) * CIFAR_RECORD}"
            )
        images.append(recs[:, 1:].reshape(-1, 3, 32, 32))
        labels.append(lab)
    if not images:
        return (np.zeros((0, 3, 32, 32), dtype=np.float32),
                np.zeros(0, dtype=np.int64))
    x = np.concatenate(images).astype(np.float32) / 255.0
    y = np.concatenate(labels).astype(np.int64)
    return normalize(x, mean, std), y


def synthetic_dataset(seed: int, n: int, num_classes: int,
                      image_size: int = 16, noise: float = 0.25) -> tuple[Array, Array]:
    """Oriented-stripe images: class k fixes the stripe angle and frequency.

    Each sample draws a random phase (so the pattern shifts) and additive
    Gaussian noise; labels cycle round-robin, so class counts are balanced
    within one. Deterministic: one seed gives bit-identical arrays.
    """
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    if num_classes < 2:
        raise DataError(f"num_classes must be >= 2, got {num_classes}")
    rng = np.random.default_rng(seed)
    s = image_size
    ii, jj = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    x = np.empty((n, 3, s, s), dtype=np.float32)
    y = (np.arange(n) % num_classes).astype(np.int64)
    channel_gain = np.array([1.0, 0.75, 0.55], dtype=np.float64)
    for i in range(n):
        k = int(y[i])
        angle = np.pi * (k + 0.5) / num_classes
        freq = 2.0 + (k % 2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        ramp = (ii * np.cos(angle) + jj * np.sin(angle)) / s
        stripe = np.sin(2.0 * np.pi * freq * ramp + phase)
        gain = np.roll(channel_gain, k % 3)
        img = stripe[None, :, :] * gain[:, None, None]
        img = img + noise * rng.standard_normal((3, s, s))
        x[i] = img.astype(np.float32)
    return x, y


def hflip(image: Array) -> Array:
    """Mirror [C, H, W] left-right; applying it twice is the identity."""
    return image[:, :, ::-1].copy()


def pad_crop(image: Array, pad: int, oy: int, ox: int) -> Array:
    """Zero-pad by `pad` on each spatial side, crop back at offset (oy, ox)."""
    c, h, w = image.shape
    if not (0 <= oy <= 2 * pad and 0 <= ox <= 2 * pad):
        raise DataError(f"crop offset ({oy}, {ox}) outside [0, {2 * pad}]")
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=image.dtype)
    padded[:, pad : pad + h, pad : pad + w] = image
    return padded[:, oy : oy + h, ox : ox + w].copy()


def augment(image: Array, rng: np.random.Generator,
            random_crop: bool, mirror: bool) -> Array:
    """Train-time augmentation for one [C, H, W] image.

    Draw order is fixed (crop offsets, then the mirror coin) so a seeded
    rng reproduces the exact same augmented stream.
    """
    if random_crop:
        oy = int(rng.integers(0, 2 * PAD + 1))
        ox = int(rng.integers(0, 2 * PAD + 1))
        image = pad_crop(image, PAD, oy, ox)
    if mirror and rng.random() < 0.5:
        image = hflip(image)
    return image


def load_dataset(desc: DatasetDescriptor, seed: int) -> DatasetSplits:
    """Materialize the descriptor into in-memory train/eval splits. A
    synthetic set too large to allocate, or whose noise overflows float32,
    is a ConfigError naming the values."""
    if desc.kind == "synthetic":
        total = desc.train_size + desc.eval_size
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x, y = synthetic_dataset(seed, total, desc.num_classes,
                                         desc.image_size, desc.noise)
            if not np.isfinite(x).all():
                raise ConfigError(f"dataset: noise {desc.noise} gives images "
                                  f"that are not finite in float32")
            x = normalize(x, desc.mean, desc.std)
        except MemoryError:
            raise ConfigError(
                f"dataset: train_size {desc.train_size} + eval_size "
                f"{desc.eval_size} synthetic images do not fit in memory"
            ) from None
        return DatasetSplits(
            train_x=x[: desc.train_size], train_y=y[: desc.train_size],
            eval_x=x[desc.train_size :], eval_y=y[desc.train_size :],
            descriptor=desc,
        )
    train_x, train_y = _cifar_split("train", desc.train_paths, desc)
    return DatasetSplits(train_x, train_y, *load_eval_split(desc, seed), desc)


def load_eval_split(desc: DatasetDescriptor, seed: int) -> tuple[Array, Array]:
    """load_dataset's eval images and labels; cifar10 decodes no train file.
    Synthetic eval images follow the train images in one seeded stream."""
    if desc.kind == "synthetic":
        splits = load_dataset(desc, seed)
        return splits.eval_x, splits.eval_y
    return _cifar_split("eval", [desc.eval_path], desc)


def _cifar_split(split: str, paths, desc: DatasetDescriptor) -> tuple[Array, Array]:
    x, y = load_cifar10_binary(paths, desc.mean, desc.std)
    if len(y) == 0:
        raise DataError(f"{split} split has no records: {', '.join(map(str, paths))}")
    return x, y
