"""The benchmark's interface with the package: each workload of
bench/workloads.py runs one checked operation plainly and one under the
tracer, and every function the tracer wraps still exists. A change in
src/ that would break bench/run.py (a renamed traced function, a changed
make_phase_config) fails here. The bench files are imported as they are,
never edited."""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("module,attr", [
    (module, attr) for module, attrs in tracer.SPANS.items() for attr in attrs
])
def test_traced_name_resolves(module, attr):
    target = importlib.import_module(f"gaternet.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
