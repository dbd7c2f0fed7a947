"""The benchmark's tracer rebinds library names and its library workload calls
the public API; both must keep working."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_edges_exist():
    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _ in load_perfbench("tracing").EDGES
        if not hasattr(mod, attr)
    ]
    assert not missing, missing


def test_library_ops_pass_their_checks():
    workloads = load_perfbench("workloads")
    inputs = workloads.library_inputs(0, workloads.SMOKE)
    for op in workloads.LIBRARY_OPS:
        _, output = op.run(inputs)
        assert op.check(output) == [], op.name
