"""``tools/mutants.py``: its mutant list and what it prints of a failed run.

Each mutant names a source substring that must occur exactly once in its
file.  The script refuses to run when one does not, but it takes minutes
and runs outside the suite; the anchor test only reads the files, so a
refactor that moves an anchor fails here at once.  The other tests stub
``subprocess.run``, so no pytest child runs.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).parent.parent / "tools"


@pytest.fixture
def mutants():
    spec = importlib.util.spec_from_file_location("ainfty_mutants", TOOLS / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_anchor_occurs_once(mutants):
    assert mutants.stale_anchors(mutants.MUTANTS) == []


def test_each_run_starts_with_its_killer_and_keeps_every_file(mutants, monkeypatch, tmp_path):
    assert {m.killer for m in mutants.MUTANTS} <= set(mutants.SUBSET)
    commands = []

    def run(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")

    monkeypatch.setattr(mutants.subprocess, "run", run)
    mutants.run_subset(tmp_path, "tests/test_cli.py")
    mutants.run_subset(tmp_path)
    files = [[arg for arg in cmd if arg.startswith("tests/")] for cmd in commands]
    assert files[0][0] == "tests/test_cli.py"
    assert sorted(files[0]) == sorted(mutants.SUBSET)
    assert files[1] == list(mutants.SUBSET)


FAILED_RUN = """\
..........F
=================================== FAILURES ===================================
____________________________ test_one ____________________________
    assert 1 == 2
=========================== short test summary info ============================
FAILED tests/test_cli.py::test_one - assert 1 == 2
ERROR tests/test_formats.py - ImportError: no module
1 failed, 10 passed, 1 error in 0.5s
"""


def _stub_run(monkeypatch, mutants, returncode, stdout):
    def run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, returncode, stdout=stdout, stderr="")

    monkeypatch.setattr(mutants.subprocess, "run", run)


def test_a_failed_run_keeps_the_lines_that_name_its_failures(mutants, monkeypatch, tmp_path):
    _stub_run(monkeypatch, mutants, 1, FAILED_RUN)
    assert mutants.run_subset(tmp_path) == (
        "failed",
        [
            "FAILED tests/test_cli.py::test_one - assert 1 == 2",
            "ERROR tests/test_formats.py - ImportError: no module",
        ],
    )
    _stub_run(monkeypatch, mutants, 0, "...\n3 passed in 0.1s\n")
    assert mutants.run_subset(tmp_path) == ("passed", [])


def test_a_failed_run_naming_no_test_keeps_its_tail(mutants, monkeypatch, tmp_path):
    output = "".join(f"line {i}\n" for i in range(50))
    _stub_run(monkeypatch, mutants, 4, output)
    outcome, lines = mutants.run_subset(tmp_path)
    assert outcome == "failed"
    assert lines == [f"line {i}" for i in range(50 - mutants.TAIL, 50)]


def test_a_failed_baseline_prints_its_failures(mutants, monkeypatch, capsys):
    _stub_run(monkeypatch, mutants, 1, FAILED_RUN)
    assert mutants.main() == 2
    out = capsys.readouterr().out
    assert out.startswith("baseline: failed (")
    assert "\n  FAILED tests/test_cli.py::test_one - assert 1 == 2\n" in out
    assert "\n  ERROR tests/test_formats.py - ImportError: no module\n" in out
