"""Check that another tree's command line prints the same bytes as this one's.

Usage: python3 tools/same_bytes.py OTHER_TREE

OTHER_TREE is another checkout of this project, such as a clone or a
``git worktree`` of the parent commit; the script makes none.  It runs each
command line of ``matrix()`` as a child ``python3 -m ainfty.cli``, once
with ``PYTHONPATH`` at this tree's ``src`` and once at ``OTHER_TREE/src``,
each under every ``PYTHONHASHSEED`` of ``SEEDS``.  The matrix covers every
command, the built-in example and each structure file of this tree's
``tests/corpus`` (read by both trees, so only the code differs), and both
report formats.  The script prints one line for each run whose stdout bytes
or exit code differ between the trees, then a count, and exits 1 if any
run differs, else 0.  stdout goes to a temporary file, so no report is held.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus"
SEEDS = ("0", "1")
# arities of the runs: the example's sweeps are cheap to high arities, a file's are not
EXAMPLE_ARITIES = {"verify": 40, "linfty": 24}
FILE_ARITIES = {"verify": 5, "linfty": 4}
# the longest report: 71 MB, 74,109 failures
LONG_RUN = ["verify", "--input", str(CORPUS / "mutated.astr"), "--check", "coderivation",
            "--max-arity", "10", "--format", "machine"]


def _letters(path: Path) -> list[str]:
    """The first three basis names of a structure file, in file order."""
    names = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0] == "basis":
            names.append(fields[1])
    return names[:3]


def matrix() -> list[list[str]]:
    """The command lines to compare, each without the ``python3 -m ainfty.cli``."""
    sources = [(["--builtin", "paper-example"], ["v1", "w", "v2"], EXAMPLE_ARITIES)]
    for path in sorted(CORPUS.glob("*.astr")):
        sources.append((["--input", str(path)], _letters(path), FILE_ARITIES))
    runs = [["lemma1", "--max-arity", "10"]]
    for source, letters, arities in sources:
        for command, arity in arities.items():
            for fmt in ("text", "machine"):
                runs.append([command, *source, "--max-arity", str(arity), "--format", fmt])
        word = ["--word", ",".join(letters)]
        runs.append(["apply", *source, "--arity", str(len(letters)), *word])
        runs.append(["apply", *source, "--arity", str(len(letters)), *word, "--primed"])
        runs.append(["d2", *source, *word])
    return runs + [list(LONG_RUN)]


def run(tree: Path, argv: list[str], seed: str) -> tuple[int, str]:
    """The exit code and the sha256 of stdout of one child on ``tree``'s code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=seed)
    with tempfile.TemporaryFile() as out:
        # -m puts the working directory first on sys.path; a tree's root holds no ainfty
        child = subprocess.run(
            [sys.executable, "-m", "ainfty.cli", *argv],
            stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=tree,
        )
        out.seek(0)
        sha256 = hashlib.sha256()
        for chunk in iter(lambda: out.read(1 << 20), b""):
            sha256.update(chunk)
    return child.returncode, sha256.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "ainfty").is_dir():
        print("usage: python3 tools/same_bytes.py OTHER_TREE  (a tree holding src/ainfty)",
              file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    runs = differ = 0
    for cmd in matrix():
        for seed in SEEDS:
            here, there = run(ROOT, cmd, seed), run(other, cmd, seed)
            runs += 1
            if here != there:
                differ += 1
                print(
                    f"differs (PYTHONHASHSEED={seed}): ainfty {' '.join(cmd)}\n"
                    f"  this tree: exit {here[0]}, sha256 {here[1]}\n"
                    f"  {other}: exit {there[0]}, sha256 {there[1]}",
                    flush=True,
                )
    print(f"{runs} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
