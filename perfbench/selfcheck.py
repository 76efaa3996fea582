"""Show that the output checker accepts a correct report and rejects corrupted ones.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

Runs the CLI once on the dense-broken input at the default seed and once on
paper-direct, then feeds the checker the true output and a set of
deliberately corrupted copies.  Each corruption must be counted as an
error; the pinned hash is left out for the corruptions, so each one has to
be caught by the other checks.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, SCRUBBED_ENV, SRC
from workloads import DEFAULT_SEED, DENSE_INPUT, WORKLOADS, Oracle, OutputChecker, dense_broken


def cli_output(workload, workdir: Path) -> tuple[int, bytes]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-m", "ainfty.cli", *workload.cli_args()],
                          cwd=workdir, env=env, capture_output=True, check=False)
    return proc.returncode, proc.stdout


def edited(report: bytes, edit) -> bytes:
    doc = json.loads(report)
    edit(doc)
    return (json.dumps(doc, indent=2) + "\n").encode()


def first_failure(doc: dict) -> dict:
    return next(f for rec in doc["checks"] for f in rec["failures"])


def dense_cases(report: bytes) -> dict[str, tuple[int, bytes]]:
    def flip_coeff(doc):
        first_failure(doc)["defect"][0]["coeff"] += "1"

    def drop_failure(doc):
        doc["checks"][-1]["failures"].pop()

    def extra_failure(doc):
        rec = doc["checks"][0]
        rec["failures"].insert(0, {"word": ["e00"], "defect": [{"coeff": "1", "word": ["e00"]}]})

    def wrong_words(doc):
        doc["checks"][1]["words"] += 1

    def drop_cell(doc):
        doc["checks"].pop()

    return {
        "exit code 0 for a failing structure": (0, report),
        "one defect coefficient changed": (1, edited(report, flip_coeff)),
        "one failing word dropped": (1, edited(report, drop_failure)),
        "a passing word reported as failing": (1, edited(report, extra_failure)),
        "word count of a cell changed": (1, edited(report, wrong_words)),
        "one cell missing": (1, edited(report, drop_cell)),
        "report truncated": (1, report[: len(report) // 2]),
    }


def paper_cases(report: bytes) -> dict[str, tuple[int, bytes]]:
    def fake_failure(doc):
        rec = doc["checks"][-1]
        rec["failures"].append({"word": ["v1"] * rec["arity"], "defect": []})
        doc["pass"] = False

    return {
        "exit code 1 for a passing structure": (1, report),
        "a failure reported on the passing example": (0, edited(report, fake_failure)),
    }


def main() -> int:
    sys.path.insert(0, str(SRC))
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=HERE / ".work"))
    misses = 0
    try:
        text, dense = dense_broken(DEFAULT_SEED)
        (workdir / DENSE_INPUT).write_text(text, encoding="utf-8")
        pinned = json.loads((HERE / "expected.json").read_text())
        for name, make_cases in (("dense-broken", dense_cases), ("paper-direct", paper_cases)):
            w = WORKLOADS[name]
            oracle = Oracle(w, dense if w.generated else None)
            code, report = cli_output(w, workdir)
            cases = {"true output, hash pinned": (code, report, pinned[name])}
            for label, (c, r) in make_cases(report).items():
                cases[label] = (c, r, None)
            for label, (c, r, sha) in cases.items():
                errors = OutputChecker(w, DEFAULT_SEED, oracle, sha).check(c, r)
                ok = not errors if sha else bool(errors)
                misses += not ok
                verdict = "accepted" if not errors else f"rejected ({errors[0][:70]})"
                print(f"{'ok  ' if ok else 'MISS'} {name}: {label}: {verdict}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
