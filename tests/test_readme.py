"""The examples in README.md run as documented.

Each ``ainfty ...`` line of the "Command line" block exits 0 and prints
what a trailing ``# -> ...`` comment says; the "Library" block runs, and
the "Structure files" block parses.
"""

import re
import shlex
from pathlib import Path

from ainfty import parse_structure
from ainfty.cli import run_cli

README = Path(__file__).parents[1] / "README.md"


def fenced_block(heading: str) -> str:
    """The body of the first fenced code block after the line ``heading``."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n{heading}\n") :]
    return re.search(r"```[a-z]*\n(.*?)```", after, re.S).group(1)


def test_command_line_examples_run(capsys):
    commands = 0
    for line in fenced_block("## Command line").splitlines():
        command, _, comment = line.partition("#")
        if not command.strip():
            continue
        argv = shlex.split(command)
        assert argv[0] == "ainfty", line
        assert run_cli(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if comment.strip().startswith("->"):
            assert out == comment.strip()[2:].strip() + "\n", line
        commands += 1
    assert commands == 7


def test_library_example_runs():
    exec(compile(fenced_block("## Library"), str(README), "exec"), {})


def test_structure_file_example_parses():
    s = parse_structure(fenced_block("### Structure files"), name="readme")
    assert [el.name for el in s.space.elements] == ["v1", "v2", "w"]
    assert s.arities == [1, 2]
