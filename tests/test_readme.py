"""The README's examples run against the current API: the library
example prints what its comments promise, and every ``bergkit`` line of
the command-line block exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from bergkit.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after ``heading``."""
    section = README[README.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in _block("## Command line", "sh").splitlines()
            if line.startswith("bergkit ")]


def test_library_example(capsys):
    code = _block("## Library example", "python")
    exec(code, {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.partition("#")[2].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments)
    promised = [(out, comment) for out, comment in zip(printed, comments)
                if comment in ("BOUNDED", "True")]
    assert [comment for _, comment in promised] == ["BOUNDED", "True"]
    for out, comment in promised:
        assert out == comment


def test_command_block_is_not_empty():
    assert len(COMMANDS) >= 1


@pytest.mark.parametrize("command", COMMANDS)
def test_command_line_example(command, capsys):
    assert main(shlex.split(command)[1:]) == 0
