"""The benchmark's tracer rebinds library names, its library workload calls
the public API and its CLI workloads check the command output; all must
keep working.  A library module imports only names it uses or the tracer
rebinds."""

import ast
import importlib.util
from pathlib import Path

import pytest

from concrete_geom.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LIBRARY = Path(__file__).resolve().parent.parent / "src" / "concrete_geom"


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


def test_no_unused_imports():
    # A module-level import the module never reads is dead, unless its
    # statement is marked noqa: F401 and the tracer rebinds each of its names
    # on that module.
    rebound = {(mod.__name__.rpartition(".")[2], attr)
               for mod, attr, _ in load_perfbench("tracing").EDGES}
    dead = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        lines = source.splitlines()
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            marked = any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                kept = (path.stem, name) in rebound if marked else name in read
                if not kept:
                    dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, dead


def test_library_ops_pass_their_checks():
    workloads = load_perfbench("workloads")
    inputs = workloads.library_inputs(0, workloads.SMOKE)
    for op in workloads.LIBRARY_OPS:
        _, output = op.run(inputs)
        assert op.check(output) == [], op.name


@pytest.mark.parametrize("workload", ["verify", "sample"])
def test_cli_ops_pass_their_checks(workload, capsys):
    # The harness counts a verify report whose checks do not have exactly
    # the keys of VERIFY_KEYS as incorrect; a new per-check field fails here.
    workloads = load_perfbench("workloads")
    for op in workloads.cli_ops(workload, 0, workloads.SMOKE):
        code = main(op.argv)
        out, _ = capsys.readouterr()
        assert op.check(code, out)["problems"] == [], op.name
