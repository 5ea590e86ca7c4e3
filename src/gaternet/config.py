"""Run configuration: one JSON document describing a whole experiment.

The document has five top-level keys: seed, out_dir, dataset, model,
train. Parsing is strict: an unknown key anywhere is an error naming the
key and where it appeared, because a silently ignored typo (say
"wieght_decay") would invalidate an experiment without any visible
symptom. Values are not coerced either ("no" is not a switch, 1.5 is not
a batch size). Input paths named by the dataset section must exist at
load time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from gaternet.data import DataError, DatasetDescriptor
from gaternet.model import LayerSpec, ModelSpec
from gaternet.train import PHASES, ConfigError, TrainConfig


_MISSING = object()


def _strict(value, want):
    """value as type want, never coerced: int takes integral numbers, float
    finite numbers, bool only true/false, str only strings, and [t] a list
    of t (returned as a tuple). A bool is not a number here."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(want, list) and isinstance(value, list):
        return tuple(_strict(v, want[0]) for v in value)
    if (want is bool and isinstance(value, bool)
            or want is str and isinstance(value, str)
            or want is float and number and math.isfinite(value)
            or want is int and number and float(value).is_integer()):
        return want(value)
    raise TypeError(value)


class _Section:
    """Dict wrapper that tracks consumed keys and rejects leftovers."""

    def __init__(self, raw: dict, where: str):
        if not isinstance(raw, dict):
            raise ConfigError(f"{where} must be an object, got {type(raw).__name__}")
        self.raw = raw
        self.where = where
        self.taken: set[str] = set()

    def take(self, key: str, default=_MISSING, want=None):
        """The value under key (or default), checked as type want if given."""
        self.taken.add(key)
        if key not in self.raw and default is _MISSING:
            raise ConfigError(f"{self.where} is missing required key {key!r}")
        value = self.raw.get(key, default)
        try:
            return value if want is None else _strict(value, want)
        except (TypeError, OverflowError) as e:
            name = (f"a list of {want[0].__name__}" if isinstance(want, list)
                    else want.__name__)
            raise ConfigError(
                f"{self.where}.{key} must be {name}, got {value!r}"
            ) from e

    def given(self, fields: dict) -> dict:
        """{key: value} for each key of fields the section holds, checked as
        type fields[key]; an absent key is left to the dataclass default."""
        return {key: self.take(key, want=want)
                for key, want in fields.items() if key in self.raw}

    def finish(self) -> None:
        unknown = sorted(set(self.raw) - self.taken)
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in {self.where}")


def _parse_layer(raw: dict, where: str) -> LayerSpec:
    sec = _Section(raw, where)
    kind = sec.take("kind", want=str)
    kwargs = {"kind": kind}
    fields = {
        "conv": {"filters": int, "kernel": int, "stride": int, "padding": int,
                 "gated": bool},
        "pool": {"window": int},
        "fc": {"width": int},
    }.get(kind)
    if fields is None:
        raise ConfigError(f"{where}: unknown layer kind {kind!r}")
    kwargs.update(sec.given(fields))
    sec.finish()
    try:
        return LayerSpec(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_model(raw: dict) -> ModelSpec:
    sec = _Section(raw, "model")

    def stack(key: str, default=_MISSING) -> tuple[LayerSpec, ...]:
        layers = sec.take(key, default)
        if not isinstance(layers, (list, tuple)):
            raise ConfigError(
                f"model.{key} must be a list of layer objects, got {layers!r}")
        return tuple(_parse_layer(l, f"model.{key}[{i}]")
                     for i, l in enumerate(layers))

    try:
        fields = dict(
            input_shape=sec.take("input_shape", want=[int]),
            num_classes=sec.take("num_classes", want=int),
            backbone=stack("backbone"),
            gater=stack("gater", ()),
            bottleneck=sec.take("bottleneck", 1, int),
        )
        sec.finish()  # an unknown key may be the typo behind a spec error
        return ModelSpec(**fields)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"model: {e}") from e


def _parse_dataset(raw: dict, base_dir: Path) -> DatasetDescriptor:
    sec = _Section(raw, "dataset")
    kind = sec.take("kind", want=str)
    common = sec.given({"mean": [float], "std": [float], "random_crop": bool,
                        "mirror": bool})
    if kind == "synthetic":
        desc = dict(
            kind=kind,
            num_classes=sec.take("num_classes", want=int),
            train_size=sec.take("train_size", want=int),
            eval_size=sec.take("eval_size", want=int),
            **sec.given({"image_size": int, "noise": float}),
            **common,
        )
    elif kind == "cifar10":
        train_paths = tuple(
            str(base_dir / p) for p in sec.take("train_paths", want=[str])
        )
        eval_path = str(base_dir / sec.take("eval_path", want=str))
        for p in (*train_paths, eval_path):
            if not Path(p).is_file():
                raise ConfigError(f"dataset file does not exist: {p}")
        desc = dict(kind=kind, train_paths=train_paths, eval_path=eval_path,
                    **common)
    else:
        raise ConfigError(f"dataset: unknown kind {kind!r}")
    sec.finish()
    try:
        return DatasetDescriptor(**desc)
    except DataError as e:
        raise ConfigError(f"dataset: {e}") from e


@dataclass(frozen=True)
class RunConfig:
    """Everything a training or evaluation run needs."""

    seed: int
    out_dir: str
    dataset: DatasetDescriptor
    model: ModelSpec
    phases: dict[str, TrainConfig]

    def __post_init__(self):
        # checked here so a --seed override is held to it too
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def make_phase_config(self, phase: str) -> TrainConfig:
        """The phase's TrainConfig under this config's seed, which a --seed
        override may have replaced since load. phase is one of PHASES, as
        the CLI's --phase choices and restore's check hold it."""
        return replace(self.phases[phase], seed=self.seed)


def _parse_schedule(raw, where: str) -> tuple[tuple[int, float], ...]:
    if not isinstance(raw, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in raw
    ):
        raise ConfigError(f"{where} must be a list of [epoch, lr] pairs")
    try:
        return tuple((_strict(e, int), _strict(lr, float)) for e, lr in raw)
    except (TypeError, OverflowError) as e:
        raise ConfigError(f"{where}: epochs and rates must be numbers: {raw}") from e


def _parse_train(raw: dict, seed: int) -> dict[str, TrainConfig]:
    """One TrainConfig per phase: the shared train keys, the phase's epochs
    and lr_schedule, and the config seed."""
    sec = _Section(raw, "train")
    phases_sec = _Section(sec.take("phases"), "train.phases")
    phases_raw = {name: phases_sec.take(name) for name in PHASES}
    phases_sec.finish()
    shared = {
        "batch_size": sec.take("batch_size", want=int),
        **sec.given({"momentum": float, "weight_decay": float, "lambda": float,
                     "dropout_start": float, "dropout_end": float}),
    }
    if "lambda" in shared:  # a Python keyword, so the field is lambda_
        shared["lambda_"] = shared.pop("lambda")
    sec.finish()
    phases = {}
    for name in PHASES:
        psec = _Section(phases_raw[name], f"train.phases.{name}")
        epochs = psec.take("epochs", want=int)
        schedule = _parse_schedule(
            psec.take("lr_schedule"), f"train.phases.{name}.lr_schedule"
        )
        psec.finish()
        try:
            phases[name] = TrainConfig(phase=name, epochs=epochs,
                                       lr_schedule=schedule, seed=seed, **shared)
        except ValueError as e:
            raise ConfigError(f"train.phases.{name}: {e}") from e
    return phases


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        raw = json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    sec = _Section(raw, "config")
    seed = sec.take("seed", 0, int)
    out_dir = sec.take("out_dir", want=str)
    dataset = _parse_dataset(sec.take("dataset"), path.parent)
    model = _parse_model(sec.take("model"))
    phases = _parse_train(sec.take("train"), seed)
    sec.finish()
    if model.num_classes != dataset.num_classes:
        raise ConfigError(
            f"model.num_classes = {model.num_classes} does not match the "
            f"dataset's {dataset.num_classes} classes"
        )
    if model.input_shape != dataset.image_shape:
        raise ConfigError(f"model.input_shape = {list(model.input_shape)} does not "
                          f"match the dataset's {list(dataset.image_shape)} images")
    return RunConfig(seed=seed, out_dir=out_dir, dataset=dataset, model=model,
                     phases=phases)
