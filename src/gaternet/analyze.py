"""Gate-distribution analytics over logs collected at evaluation.

A GateLog is the binary gate matrix for a whole eval set (one row per
sample, one column per gated filter) plus each gate's (layer, filter)
address and the sample labels. Everything here is a pure function of that
log: the three-way gate taxonomy (always on / always off / input
dependent), per-layer distributions, on-count and fired-count histograms,
and a PCA reduction of the per-sample usage vectors for external
embedding tools.

Logs hold the eval-mode gates that train.evaluate returns, which are
exactly binary and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gaternet.persist import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    write_csv,
)
from gaternet.tensor import Array

CATEGORIES = ("always_on", "always_off", "input_dependent")
ALWAYS_ON, ALWAYS_OFF, INPUT_DEPENDENT = range(3)
# (name, dtype, rank) of each tensor in a gate log file
_GATE_LOG_TENSORS = (("gates", np.uint8, 2), ("labels", np.int64, 1),
                     ("layer_ids", np.int64, 1), ("filter_ids", np.int64, 1))


@dataclass(frozen=True)
class GateLog:
    """Binary gates for an eval set: rows are samples, columns are gates."""

    gates: Array       # uint8 [n, c], entries 0/1
    labels: Array      # int64 [n]
    layer_ids: Array   # int64 [c], backbone layer index of each gate
    filter_ids: Array  # int64 [c], filter index within that layer

    def __post_init__(self):
        g = np.asarray(self.gates)
        if g.ndim != 2:
            raise ValueError(f"gates must be 2-D [samples, gates], got {g.shape}")
        # checked before the cast, which would wrap 256 or truncate 0.5 to 0
        if not np.all((g == 0) | (g == 1)):
            raise ValueError("gate entries must all be 0 or 1")
        g = np.ascontiguousarray(g, dtype=np.uint8)
        object.__setattr__(self, "gates", g)
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "layer_ids", np.asarray(self.layer_ids, dtype=np.int64))
        object.__setattr__(self, "filter_ids", np.asarray(self.filter_ids, dtype=np.int64))
        n, c = g.shape
        if self.labels.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {self.labels.shape}")
        if self.layer_ids.shape != (c,) or self.filter_ids.shape != (c,):
            raise ValueError(
                f"layer_ids and filter_ids must have shape ({c},), got "
                f"{self.layer_ids.shape} and {self.filter_ids.shape}"
            )
        pairs = set(zip(self.layer_ids.tolist(), self.filter_ids.tolist()))
        if len(pairs) != c:
            raise ValueError("(layer, filter) addresses must be unique per gate")

    @property
    def num_samples(self) -> int:
        return self.gates.shape[0]

    @property
    def num_gates(self) -> int:
        return self.gates.shape[1]


def save_gate_log(path: str | Path, log: GateLog) -> None:
    """A checkpoint container of kind gate_log: one bit per gate, packed
    MSB-first along each row, plus labels and the gate addresses."""
    save_checkpoint(path, {
        "gates": np.packbits(log.gates, axis=1),
        "labels": log.labels,
        "layer_ids": log.layer_ids,
        "filter_ids": log.filter_ids,
    }, {"kind": "gate_log"})


def load_gate_log(path: str | Path) -> GateLog:
    tensors, meta = load_checkpoint(path)
    if meta.get("kind") != "gate_log":
        raise CheckpointError(f"{path}: not a gate log (kind {meta.get('kind')!r})")
    for name, dtype, ndim in _GATE_LOG_TENSORS:
        arr = tensors.get(name)
        if arr is None or arr.dtype != dtype or arr.ndim != ndim:
            raise CheckpointError(
                f"{path}: gate log needs tensor {name} as {ndim}-D {dtype}, got "
                + ("none" if arr is None else f"{arr.ndim}-D {arr.dtype}")
            )
    packed, c = tensors["gates"], len(tensors["layer_ids"])
    if packed.shape[1] != -(-c // 8):
        raise CheckpointError(
            f"{path}: packed gate rows are {packed.shape[1]} bytes wide; "
            f"{c} gates need {-(-c // 8)}"
        )
    try:
        return GateLog(gates=np.unpackbits(packed, axis=1, count=c),
                       labels=tensors["labels"], layer_ids=tensors["layer_ids"],
                       filter_ids=tensors["filter_ids"])
    except ValueError as e:  # mismatched lengths or duplicate addresses
        raise CheckpointError(f"{path}: {e}") from e


@dataclass(frozen=True)
class GateTaxonomy:
    """Per-gate on-counts and category plus per-layer counts and fractions.

    on_counts holds how many samples turn each gate on, and categories one
    code per gate (ALWAYS_ON / ALWAYS_OFF / INPUT_DEPENDENT); layers lists
    the distinct layer ids in ascending order, and counts[i, k] is how many
    of layer i's gates fall in category k. Rows of fractions sum to 1.
    """

    on_counts: Array   # int64 [c]
    categories: Array  # int8 [c]
    layers: Array      # int64 [L]
    counts: Array      # int64 [L, 3]
    fractions: Array   # float64 [L, 3]

    def total(self, category: int) -> int:
        return int((self.categories == category).sum())


def classify_gates(log: GateLog) -> GateTaxonomy:
    """always_on iff a column is all ones, always_off iff all zeros,
    input_dependent otherwise. The log has samples and gates: gaternet
    analyze refuses an empty one before any analysis."""
    n, c = log.gates.shape
    on_counts = log.gates.sum(axis=0, dtype=np.int64)
    categories = np.full(c, INPUT_DEPENDENT, dtype=np.int8)
    categories[on_counts == n] = ALWAYS_ON
    categories[on_counts == 0] = ALWAYS_OFF
    layers, layer_index = np.unique(log.layer_ids, return_inverse=True)
    counts = np.zeros((len(layers), 3), dtype=np.int64)
    np.add.at(counts, (layer_index, categories), 1)
    totals = counts.sum(axis=1, keepdims=True)
    fractions = counts / totals
    return GateTaxonomy(on_counts=on_counts, categories=categories, layers=layers,
                        counts=counts, fractions=fractions)


@dataclass(frozen=True)
class Histogram:
    counts: Array  # int64 [bins]
    edges: Array   # float64 [bins + 1]


def on_count_histogram(log: GateLog, tax: GateTaxonomy, bins: int) -> Histogram:
    """Histogram of per-gate on-counts, input-dependent gates only (tax
    is classify_gates(log)), over equal-width bins spanning
    [0, num_samples]. gaternet analyze checks bins >= 1."""
    counts, edges = np.histogram(tax.on_counts[tax.categories == INPUT_DEPENDENT],
                                 bins=bins, range=(0, log.num_samples))
    return Histogram(counts=counts.astype(np.int64), edges=edges)


@dataclass(frozen=True)
class FiredCountReport:
    """How many gates each sample turns on."""

    min: int
    max: int
    mean: float        # the exact integer total over the log / n
    histogram: Histogram


def fired_count_per_sample(log: GateLog, bins: int) -> FiredCountReport:
    """Row sums with summary stats; histogram spans [0, num_gates].
    gaternet analyze checks bins >= 1 and that the log has samples and
    gates."""
    per_sample = log.gates.sum(axis=1, dtype=np.int64)
    counts, edges = np.histogram(per_sample, bins=bins, range=(0, log.num_gates))
    return FiredCountReport(
        min=int(per_sample.min()),
        max=int(per_sample.max()),
        mean=int(per_sample.sum()) / log.num_samples,
        histogram=Histogram(counts=counts.astype(np.int64), edges=edges),
    )


@dataclass(frozen=True)
class PCAResult:
    reduced: Array                   # float64 [n, k]
    components: Array                # float64 [k, d], rows orthonormal
    explained_variance_ratio: Array  # float64 [k], non-increasing
    rank: int                        # of the centered data


def pca_reduce(vectors: Array, k: int) -> PCAResult:
    """Project centered rows onto the top-k principal directions.

    Eigendecomposes the d x d scatter matrix of the centered data in
    float64. Components are ordered by descending variance; each component's
    largest-magnitude coordinate is made positive so signs are
    reproducible. Ratios are against the total variance of the data, so
    they sum to at most 1. Asking for more components than the data's
    rank is allowed: the trailing components carry zero variance and the
    result's rank is below its number of components. k is in
    [1, min(n, d)], as gaternet analyze checks --pca-k.
    """
    x = np.asarray(vectors)
    if x.ndim != 2:
        raise ValueError(f"vectors must be 2-D [samples, features], got {x.shape}")
    n, d = x.shape
    # float64 whatever the input dtype: the one [n, d] copy
    xc = x - x.mean(axis=0, dtype=np.float64)
    evals, evecs = np.linalg.eigh(xc.T @ xc)
    evals = np.clip(evals[::-1], 0.0, None)
    # eigh puts a zero eigenvalue at up to ~eps * evals[0], not eps**2 * evals[0]
    tol = evals[0] * max(n, d) * np.finfo(np.float64).eps
    rank = int((evals > tol).sum())
    components = evecs[:, ::-1].T[:k].copy()
    lead = components[np.arange(k), np.abs(components).argmax(axis=1)]
    components[lead < 0] *= -1
    reduced = xc @ components.T
    # every eigenvalue is 0 when their sum is, and then so is every ratio
    ratios = evals[:k] / (float(evals.sum()) or 1.0)
    return PCAResult(reduced=reduced, components=components,
                     explained_variance_ratio=ratios, rank=rank)


def write_taxonomy_csv(path: str | Path, log: GateLog, tax: GateTaxonomy) -> None:
    write_csv(path, ["gate_index", "layer_id", "filter_id", "category"],
              "%d,%d,%d,%s", [np.arange(log.num_gates), log.layer_ids,
                              log.filter_ids, np.take(CATEGORIES, tax.categories)])


def write_layer_distribution_csv(path: str | Path, tax: GateTaxonomy) -> None:
    header = ["layer_id", "total", *CATEGORIES, *(f"frac_{c}" for c in CATEGORIES)]
    write_csv(path, header, "%d,%d,%d,%d,%d,%.8e,%.8e,%.8e",
              [tax.layers, tax.counts.sum(axis=1), *tax.counts.T, *tax.fractions.T])


def write_histogram_csv(path: str | Path, hist: Histogram) -> None:
    write_csv(path, ["bin_lo", "bin_hi", "count"], "%.8e,%.8e,%d",
              [hist.edges[:-1], hist.edges[1:], hist.counts])


def export_usage_vectors(log: GateLog, pca_k: int, path: str | Path) -> PCAResult:
    """Per-sample PCA-reduced usage vectors with labels, as CSV."""
    result = pca_reduce(log.gates, pca_k)
    write_csv(path, ["label", *(f"pc{i}" for i in range(pca_k))],
              "%d" + ",%.8e" * pca_k, [log.labels, *result.reduced.T])
    return result
