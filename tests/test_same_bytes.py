"""``tools/same_bytes.py``: its matrix and what it prints of two trees' runs.

The tests stub ``subprocess.run``, so no child runs: the stub writes each
command line to the child's stdout, and a test changes one tree's bytes or
exit code to see what the script reports.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).parent.parent / "tools"
CORPUS = Path(__file__).parent / "corpus"


@pytest.fixture
def same_bytes():
    spec = importlib.util.spec_from_file_location("ainfty_same_bytes", TOOLS / "same_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def other(tmp_path):
    (tmp_path / "src" / "ainfty").mkdir(parents=True)
    return tmp_path.resolve()


def stub_children(monkeypatch, same_bytes, changed=None):
    """Record each child as (argv, tree, seed); ``changed(argv, tree, seed)`` -> (suffix, code)."""
    children = []

    def run(cmd, stdout, env, **kwargs):
        argv, tree, seed = cmd[3:], Path(env["PYTHONPATH"]).parent, env["PYTHONHASHSEED"]
        assert cmd[1:3] == ["-m", "ainfty.cli"]
        children.append((argv, tree, seed))
        suffix, code = changed(argv, tree, seed) if changed else (b"", 0)
        stdout.write(" ".join(argv).encode() + suffix)
        return subprocess.CompletedProcess(cmd, code)

    monkeypatch.setattr(same_bytes.subprocess, "run", run)
    return children


def test_the_matrix_covers_every_command_source_and_format(same_bytes):
    runs = same_bytes.matrix()
    assert {argv[0] for argv in runs} == {"verify", "linfty", "lemma1", "apply", "d2"}
    sources = {tuple(argv[1:3]) for argv in runs if argv[0] != "lemma1"}
    assert sources == {("--builtin", "paper-example")} | {
        ("--input", str(path)) for path in CORPUS.glob("*.astr")
    }
    for command in ("verify", "linfty"):
        for source in sources:
            formats = {argv[-1] for argv in runs if argv[:3] == [command, *source]}
            assert formats == {"text", "machine"}, (command, source)
    assert len(runs) == len({tuple(argv) for argv in runs})


def test_equal_trees_differ_nowhere(same_bytes, other, monkeypatch, capsys):
    children = stub_children(monkeypatch, same_bytes)
    assert same_bytes.main([str(other)]) == 0
    n = len(same_bytes.matrix()) * len(same_bytes.SEEDS)
    assert capsys.readouterr().out == f"{n} runs, 0 differ\n"
    runs = {(tuple(argv), tree, seed) for argv, tree, seed in children}
    assert len(children) == len(runs) == 2 * n
    assert {tree for _, tree, _ in runs} == {same_bytes.ROOT, other}
    assert {seed for _, _, seed in runs} == {"0", "1"}


def test_one_changed_byte_or_exit_code_is_listed(same_bytes, other, monkeypatch, capsys):
    byte_run, code_run = same_bytes.matrix()[3], same_bytes.matrix()[-1]

    def changed(argv, tree, seed):
        if tree == other and argv == byte_run:
            return b"!", 0
        if tree == other and argv == code_run and seed == "1":
            return b"", 3
        return b"", 0

    stub_children(monkeypatch, same_bytes, changed)
    assert same_bytes.main([str(other)]) == 1
    lines = capsys.readouterr().out.splitlines()
    differs = [line for line in lines if line.startswith("differs")]
    assert differs == [
        f"differs (PYTHONHASHSEED=0): ainfty {' '.join(byte_run)}",
        f"differs (PYTHONHASHSEED=1): ainfty {' '.join(byte_run)}",
        f"differs (PYTHONHASHSEED=1): ainfty {' '.join(code_run)}",
    ]
    assert f"  {other}: exit 3, sha256 " in lines[-2]
    assert lines[-1] == f"{len(same_bytes.matrix()) * 2} runs, 3 differ"


def test_a_path_that_is_no_tree_is_a_usage_error(same_bytes, tmp_path, capsys):
    assert same_bytes.main([str(tmp_path)]) == 2
    assert same_bytes.main([]) == 2
    assert capsys.readouterr().err.startswith("usage: python3 tools/same_bytes.py OTHER_TREE")
