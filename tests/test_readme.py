"""The README's examples, run as written: console sessions and the library tour."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from qcatalan import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def _console_examples() -> list:
    """(command, expected stdout) for every ``$ qcatalan ...`` line."""
    examples = []
    for block in _blocks("console"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append(pytest.param(command, output.rstrip("\n") + "\n", id=command))
    return examples


@pytest.mark.parametrize("command,expected", _console_examples())
def test_console_example(command, expected, capsys):
    argv = shlex.split(command)
    assert argv[0] == "qcatalan"
    assert cli.main(argv[1:]) == 0
    assert capsys.readouterr().out == expected


def test_console_examples_are_found():
    assert len(_console_examples()) == 5


def test_library_tour_prints_what_its_comments_say():
    (tour,) = _blocks("python")
    expected = [
        line.split("#", 1)[1].strip()
        for line in tour.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert len(expected) == 6
