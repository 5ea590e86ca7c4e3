"""The benchmark's interface with the package: each workload of
bench/workloads.py runs one checked operation plainly and one under the
tracer, the tracer sees every convolution the operation runs, and every
function the tracer wraps still exists. A change in src/ that would break
bench/run.py (a renamed traced function, a changed make_phase_config, a
conv kernel that bypasses layers.conv2d) fails here. The bench files are
imported as they are, never edited."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from gaternet.model import conv_macs, spec_from_dict

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_one_checked_op(name, tmp_path):
    wl = workloads.WORKLOADS[name](0, tmp_path)
    wl.prepare()
    wl.setup()
    wl.check(0, wl.op(0))
    if name == "eval-gated":
        wl.check_reference()
    traced = tracer.Tracer()
    with traced.record(0):
        wl.check(1, wl.op(1))
    metrics = traced.metrics([0], [0])
    assert set(tracer.TIME_METRICS) | set(tracer.COUNT_METRICS) <= set(metrics)
    assert all(math.isfinite(v) for v in metrics.values())
    assert traced.spans, "the tracer recorded no span"
    if name == "eval-gated":
        assert metrics["tensor.graph_nodes"] == 0, "eval recorded a graph"
    # images through the gater and backbone convs per operation: train-joint
    # trains on its train split and evaluates its eval split
    images = {"train-joint": workloads.TrainJoint.TRAIN_SIZE
              + workloads.TrainJoint.EVAL_SIZE,
              "eval-gated": workloads.BATCH}
    if name in images:
        spec = spec_from_dict(workloads.MODEL)
        ones = np.ones((images[name], spec.gated_filter_total), np.uint8)
        assert metrics["layers.conv2d.macs"] == conv_macs(spec, ones)[0]


@pytest.mark.parametrize("module,attr", [
    (module, attr) for module, attrs in tracer.SPANS.items() for attr in attrs
])
def test_traced_name_resolves(module, attr):
    target = importlib.import_module(f"gaternet.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
