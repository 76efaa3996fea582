"""The benchmark tracer still wraps the names it expects.

``perfbench/trace_cli.py`` replaces module-level functions of the package
by timing wrappers, by name, and ``perfbench/run.py::layer_split`` turns
the recorded spans into per-layer metrics.  A rename or a changed call
signature of a wrapped function breaks ``run.py --trace 1`` without
failing any other test, so both are run here on small cases.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ainfty.cli import run_cli

ROOT = Path(__file__).parent.parent
PERFBENCH = ROOT / "perfbench"
VERIFY = ["verify", "--builtin", "paper-example", "--check", "both", "--max-arity", "3",
          "--format", "machine"]
LINFTY = ["linfty", "--builtin", "paper-example", "--max-arity", "3", "--format", "machine"]
CELLS = [(check, n) for check in ("direct", "coderivation") for n in (1, 2, 3)]


@pytest.fixture(scope="module")
def layer_split():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling ``workloads``
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(PERFBENCH))
    return run.layer_split


def traced(argv: list[str], tmp_path: Path) -> tuple[bytes, dict]:
    """The traced CLI's stdout and its span file; the run must exit 0."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "trace_cli.py"), str(spans), *argv],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout, json.loads(spans.read_text(encoding="utf-8"))


def test_tracer_times_each_ainfty_cell(tmp_path, layer_split, capsysbinary):
    out, trace = traced(VERIFY, tmp_path)
    assert run_cli(VERIFY) == 0
    assert out == capsysbinary.readouterr().out
    cells = [s for s in trace["spans"] if s["layer"] == "backend.cell"]
    assert sorted((s["check"], s["arity"]) for s in cells) == sorted(CELLS)
    assert all(s["words"] == 3 ** s["arity"] and s["failures"] == 0 for s in cells)
    metrics = layer_split(trace, CELLS)
    assert metrics["backend.words.direct"] == metrics["backend.words.coderivation"] == 3 + 9 + 27


def test_tracer_runs_linfty_without_ainfty_cells(tmp_path, layer_split):
    _, trace = traced(LINFTY, tmp_path)
    assert not [s for s in trace["spans"] if s["layer"] == "backend.cell"]
    metrics = layer_split(trace, CELLS)
    assert metrics["backend.words.direct"] == metrics["backend.words.coderivation"] == 0
    assert metrics["linfty.jacobi_s"] > 0
