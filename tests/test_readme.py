"""The README's examples run as written.

Every ```python block runs in one namespace, in order, and every
``concrete-geom`` line of the command-line examples exits 0 with output.
"""

import re
import shlex
from pathlib import Path

import pytest

from concrete_geom.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)
COMMANDS = [
    line
    for lang, body in BLOCKS
    if lang == "sh" and body.startswith("concrete-geom ")
    for line in body.splitlines()
]


def test_python_blocks_run():
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert len(blocks) >= 2
    namespace = {}
    for body in blocks:
        exec(compile(body, "README.md", "exec"), namespace)


def test_command_examples_found():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_command_example_exits_0(line, capsys):
    prog, *argv = shlex.split(line)
    assert prog == "concrete-geom"
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out and not err
