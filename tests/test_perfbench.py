"""The benchmark's tracer rebinds library names; each one must still exist."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_edges_exist():
    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _ in load_tracing().EDGES
        if not hasattr(mod, attr)
    ]
    assert not missing, missing
