"""forks.ordered: thunk i runs once, in process i % procs, and its value
comes back in order; a failed child's thunks are rerun by the parent; the
exception that escapes is the one a serial run raises first; no child
outlives the ``with`` block.  Only forks.py forks."""

import ast
import os
from functools import partial
from pathlib import Path

import pytest

from concrete_geom.forks import ordered

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "concrete_geom"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def logged(log, i, fail=None):
    """Thunk i: appends "i pid" to ``log`` and gives (i, pid); ``fail`` is
    called first where it is given."""
    if fail is not None:
        fail(i)
    pid = os.getpid()
    with open(log, "a") as f:
        f.write(f"{i} {pid}\n")
    return i, pid


def runs(log):
    """(i, pid) of each thunk run, in the order the log got them."""
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def collect(thunks, procs):
    with ordered(thunks, procs) as values:
        out = list(values)
    assert_no_child_left()
    return out


@pytest.mark.parametrize("procs", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 6, 12])
def test_each_thunk_once_in_order(tmp_path, procs, n):
    log = tmp_path / "log"
    log.touch()
    parent = os.getpid()
    values = collect([partial(logged, log, i) for i in range(n)], procs)
    assert [i for i, _ in values] == list(range(n))
    assert [(pid == parent) for _, pid in values] == [i % procs == 0 for i in range(n)]
    assert sorted(runs(log)) == sorted(values)
    for j in range(1, procs):  # one child per place j
        assert len({pid for i, pid in values if i % procs == j}) <= 1


@pytest.mark.parametrize("how", ["raise", "exit"])
def test_failed_child_rerun_by_the_parent(tmp_path, how):
    # With three processes child 1 has places 1 and 4; place 4 fails there,
    # so the parent runs both, in order, after its own 0, 3 and 6.
    log = tmp_path / "log"
    parent = os.getpid()

    def fail(i):
        if i == 4 and os.getpid() != parent:
            if how == "exit":
                os._exit(1)
            raise RuntimeError("failed in a child")

    values = collect([partial(logged, log, i, fail) for i in range(7)], 3)
    assert [i for i, _ in values] == list(range(7))
    in_parent = [i for i, pid in runs(log) if pid == parent]
    assert in_parent == [0, 3, 6, 1, 4]
    assert [pid == parent for _, pid in values] == [True, True, False, True, True, False, True]


def test_fork_failure_runs_all_in_the_parent(tmp_path, monkeypatch):
    def no_fork():
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", no_fork)
    log = tmp_path / "log"
    values = collect([partial(logged, log, i) for i in range(5)], 3)
    assert values == [(i, os.getpid()) for i in range(5)]
    assert [i for i, _ in runs(log)] == [0, 3, 1, 2, 4]


@pytest.mark.parametrize("in_child, in_parent, first", [
    # the parent holds place 3's error; place 2 fails in its child and again
    # on the parent's rerun, so place 2's error escapes
    ({2}, {2, 3}, 2),
    # place 2 passes on the parent's rerun, so the held error escapes at 3
    ({2}, {3}, 3),
    # the parent's own place 0 fails before any child is read
    ({1}, {0}, 0),
])
def test_first_exception_in_thunk_order(tmp_path, in_child, in_parent, first):
    parent = os.getpid()

    def fail(i):
        if i in (in_parent if os.getpid() == parent else in_child):
            raise ValueError(i)

    thunks = [partial(logged, tmp_path / "log", i, fail) for i in range(7)]
    got = []
    with pytest.raises(ValueError) as exc:
        with ordered(thunks, 3) as values:
            got.extend(i for i, _ in values)
    assert exc.value.args == (first,)
    assert got == list(range(first))
    assert_no_child_left()


@pytest.mark.parametrize("consumed", [0, 1, 2])
def test_leaving_early_reaps_every_child(consumed):
    # Each value overfills its pipe, so a child blocks in its write until
    # the parent closes the read end.
    thunks = [partial(bytes, 1 << 20) for _ in range(6)]
    with pytest.raises(BrokenPipeError):
        with ordered(thunks, 3) as values:
            for count, value in enumerate(values):
                assert value == bytes(1 << 20)
                if count == consumed:
                    raise BrokenPipeError
    assert_no_child_left()


FORKING = {"fork", "pipe", "waitpid"}


def forking_uses(tree):
    """Lines of ``tree`` that read os.fork / os.pipe / os.waitpid, import
    them from os, or import pickle."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in FORKING
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name == "pickle" for alias in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "pickle" or (
                    node.module == "os" and FORKING & {alias.name for alias in node.names}):
                found.append(node.lineno)
    return found


def test_only_forks_forks():
    # The fork, pipe and fallback policy is forks.ordered's alone.
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(LIBRARY.glob("*.py")) if path.name != "forks.py"
        for line in forking_uses(ast.parse(path.read_text()))
    ]
    assert not offenders, offenders
    assert forking_uses(ast.parse((LIBRARY / "forks.py").read_text()))


def test_forking_uses_sees_each_form():
    for source in ("import pickle", "from pickle import dumps", "os.fork()",
                   "os.pipe()", "os.waitpid(1, 0)", "from os import waitpid"):
        assert forking_uses(ast.parse(source)) == [1], source
    assert forking_uses(ast.parse("os.close(1)\nimport json")) == []

