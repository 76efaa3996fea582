"""Golden corpus: reports must keep their pinned sha256 and exit code.

Each case in ``corpus/expected.json`` is one CLI invocation; ``--input``
names a file in ``corpus/``, passed here by its absolute path.  Cases that
give no ``--format`` pin the default text report, the others the machine
report.  The hashes were recorded before the sweep was last refactored; a
change that alters any report byte fails here.  The benchmark's workloads
are pinned the same way, by ``perfbench/expected.json``.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ainfty.cli import run_cli

CORPUS = Path(__file__).parent / "corpus"
EXPECTED = json.loads((CORPUS / "expected.json").read_text(encoding="utf-8"))
PERFBENCH = Path(__file__).parent.parent / "perfbench"
SRC = Path(__file__).parent.parent / "src"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
BENCH_EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


# cases over sets and orbits of letters, in both report formats
HASH_SEED_CASES = (
    "mutated-coderivation-8", "mutated-linfty-text", "sparse-orbits-linfty", "rational-text"
)


def corpus_argv(case: dict) -> list[str]:
    """The case's CLI arguments, with ``--input`` as an absolute path."""
    argv = list(case["argv"])
    if "--input" in argv:
        i = argv.index("--input") + 1
        argv[i] = str(CORPUS / argv[i])
    return argv


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_corpus_report_is_byte_identical(name, capsysbinary):
    case = EXPECTED[name]
    code = run_cli(corpus_argv(case))
    report = capsysbinary.readouterr().out
    assert code == case["exit"]
    assert hashlib.sha256(report).hexdigest() == case["sha256"]


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("name", HASH_SEED_CASES)
def test_corpus_report_is_byte_identical_under_fixed_hash_seeds(name, seed):
    """A CLI child under a fixed ``PYTHONHASHSEED`` still gives the pinned bytes.

    The tests above see only the one hash seed of the test process, so a
    report that followed the iteration order of a set of strings would pass
    them by chance.
    """
    case = EXPECTED[name]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
    child = subprocess.run(
        [sys.executable, "-m", "ainfty.cli", *corpus_argv(case)],
        env=env, capture_output=True, timeout=120,
    )
    assert child.returncode == case["exit"], child.stderr.decode()
    assert hashlib.sha256(child.stdout).hexdigest() == case["sha256"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_report_is_byte_identical(name, tmp_path, monkeypatch, capsysbinary):
    """Each benchmark workload's report keeps the hash its output check pins."""
    w = workloads.WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    if w.generated:
        text, _ = workloads.dense_broken(workloads.DEFAULT_SEED)
        (tmp_path / workloads.DENSE_INPUT).write_bytes(text.encode("utf-8"))
    code = run_cli(w.cli_args())
    report = capsysbinary.readouterr().out
    assert code == w.expected_exit
    assert hashlib.sha256(report).hexdigest() == BENCH_EXPECTED[name]
