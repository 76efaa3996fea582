"""Run a fixed list of one-line mutants against a fast subset of the tests.

Usage: python3 tools/mutants.py

The script copies ``src/``, ``tests/``, ``perfbench/`` (the corpus tests
read its workloads) and ``pyproject.toml`` into a temporary directory.
For each mutant it rewrites one line of one module there, runs ``SUBSET``
under ``pytest -x`` with a limit of ``TIMEOUT`` seconds, and restores the
module.  It prints one line per mutant: killed, survived or timed out.

Each mutant names a source substring that must occur exactly once in its
file.  A substring that occurs zero times or more than once is a stale
anchor: the script reports it and exits 2 before running anything, so a
refactor cannot silently turn a mutant into a no-op.  It also exits 2 if
the unmutated subset fails.  Otherwise the exit code is 1 if any mutant
survived, else 0.

``test_acceptance`` is not in the subset: a sign mutant that breaks the
built-in example makes its arity-20 coderivation sweep place bad windows
without bound.  Needs pytest and hypothesis, nothing else.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT = 300.0  # seconds per run of SUBSET
SUBSET = (
    "tests/test_signs.py",
    "tests/test_corpus.py",
    "tests/test_backend.py",
    "tests/test_engine.py",
    "tests/test_linfty.py",
    "tests/test_example.py",
    "tests/test_cli.py",
    "tests/test_formats.py",
    "tests/test_values.py",
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    anchor: str  # must occur exactly once in the file
    replacement: str


MUTANTS = (
    # one per function of signs.py
    Mutant("sign_of: parity flipped", "src/ainfty/signs.py",
           "return -1 if exponent % 2 else 1", "return 1 if exponent % 2 else -1"),
    Mutant("koszul_permutation_sign: non-inversions counted", "src/ainfty/signs.py",
           "if sigma[i] > sigma[j]:", "if sigma[i] < sigma[j]:"),
    Mutant("pass_operator_sign: degrees added", "src/ainfty/signs.py",
           "return sign_of(op_degree * passed_degree)",
           "return sign_of(op_degree + passed_degree)"),
    Mutant("susp_iso_sign: n(n+1)/2", "src/ainfty/signs.py",
           "return sign_of(n * (n - 1) // 2)", "return sign_of(n * (n + 1) // 2)"),
    Mutant("desusp_word_sign: negated", "src/ainfty/signs.py",
           "return sign_of(_desusp_parity(degrees))",
           "return sign_of(_desusp_parity(degrees) + 1)"),
    Mutant("_desusp_parity: weight n - i", "src/ainfty/signs.py",
           "(n - 1 - i) * d", "(n - i) * d"),
    Mutant("_alpha_parity: k*lam dropped", "src/ainfty/signs.py",
           "(k + lam + k * lam + k * n + k * prefix_degree_sum) & 1",
           "(k + lam + k * n + k * prefix_degree_sum) & 1"),
    Mutant("alpha_sign: prefix degree ignored", "src/ainfty/signs.py",
           "return sign_of(_alpha_parity(k, lam, n, prefix_degree_sum))",
           "return sign_of(_alpha_parity(k, lam, n, 0))"),
    Mutant("s_sign: shifted by one", "src/ainfty/signs.py",
           "return sign_of((n + 1) * (n + 2) // 2)", "return sign_of(n * (n + 1) // 2)"),
    # the sweeps' index arithmetic, the oracle's prefix sign and the report
    Mutant("_symmetrize: stabilizer = 1", "src/ainfty/_backend.py",
           "stabilizer = prod(factorial(w.count(b)) for b in set(w))", "stabilizer = 1"),
    Mutant("_top_sums: lam = 0 sign dropped", "src/ainfty/_backend.py",
           "negate = _alpha_parity(k, 0, n, 0)", "negate = 0"),
    Mutant("_top_sums: every S(x) keyed by letter 0's word", "src/ainfty/_backend.py",
           "letter = [(b,) for b in range(len(degrees))]", "letter = [(0,)] * len(degrees)"),
    Mutant("_sweep_one: last placement offset dropped", "src/ainfty/_backend.py",
           "for i in range(pad + 1):", "for i in range(pad):"),
    Mutant("_sweep_one: lower-arity windows dropped", "src/ainfty/_backend.py",
           "(item for level in windows for item in level.items())", "windows[-1].items()"),
    Mutant("_sweep phase 1: arities walked off by one", "src/ainfty/_backend.py",
           "_top_sums(tables, scale, degrees, n)) for n in arities]",
           "_top_sums(tables, scale, degrees, n)) for n in range(max_arity)]"),
    Mutant("_sweep phase 2: whole-word windows dropped", "src/ainfty/_backend.py",
           "sums[n - 1], windows[:n])", "sums[n - 1], windows[:n - 1])"),
    Mutant("_sweep_one: in-place prune keeps zero terms", "src/ainfty/_backend.py",
           "for w in [w for w, c in acc.items() if not c]:", "for w in []:"),
    Mutant("_to_record: defect terms sorted by word only", "src/ainfty/_backend.py",
           "order = partial(sorted, key=lambda dw: (len(dw), dw))", "order = sorted"),
    Mutant("_to_record: defect terms left unsorted", "src/ainfty/_backend.py",
           "order = partial(sorted, key=lambda dw: (len(dw), dw))", "order = list"),
    Mutant("_to_record: shared Fraction keyed by abs(c)", "src/ainfty/_backend.py",
           "fraction = cache(lambda c: Fraction(c, denominator))",
           "fraction = lambda c, kept={}: kept.setdefault(abs(c), Fraction(c, denominator))"),
    Mutant("_symmetrize: odd-repeat cancellation dropped", "src/ainfty/_backend.py",
           "if len(odd) != len(set(odd)):", "if False:"),
    Mutant("_signed_rearrangements: passed letters ignored", "src/ainfty/_backend.py",
           "step = pass_operator_sign(ddegs[b], passed)", "step = 1"),
    Mutant("_desuspended: sigma(x) ignored", "src/ainfty/_backend.py",
           "if _desusp_parity([degrees[a] for a in x]):", "if False:"),
    Mutant("_coderivation_terms: prefix read undesuspended", "src/ainfty/engine.py",
           "sum(degrees[b] - 1 for b in word[:i])", "sum(degrees[b] for b in word[:i])"),
    # the transfer, whose sign bugs move all three sweep verdicts together so
    # that only the literal oracles and the corpus see them, and the linfty oracle
    Mutant("_transfer: desuspension sign dropped", "src/ainfty/engine.py",
           "s = susp_iso_sign(k) * desusp_word_sign(degs) * susp_iso_sign(k)",
           "s = susp_iso_sign(k) * susp_iso_sign(k)"),
    Mutant("linfty_defect: unshuffle sign dropped", "src/ainfty/linfty.py",
           "sign = koszul_permutation_sign([degs[p] for p in order], order)", "sign = 1"),
    Mutant("_check_graded_symmetric: swap sign ignored", "src/ainfty/linfty.py",
           "sign = pass_operator_sign(degs[w[pos]] - 1, degs[w[pos + 1]] - 1)", "sign = 1"),
    Mutant("symmetrize_prime: check skipped", "src/ainfty/linfty.py",
           "_check_graded_symmetric(mp.space, table)", "pass"),
    Mutant("_pieces: digit pre-pass skipped", "src/ainfty/report.py",
           "_check_printable(report, format)\n", "\n"),
    Mutant("_check_printable: > for >=", "src/ainfty/report.py",
           "abs(i) >= big", "abs(i) > big"),
    Mutant("_printed_ints: text totals unchecked", "src/ainfty/report.py",
           'if format == "text":', "if False:"),
    Mutant("_json_stream: no ',' between streamed failures", "src/ainfty/report.py",
           'sep = ","', 'sep = ""'),
    Mutant("_machine: verdict always pass", "src/ainfty/report.py",
           "json.dumps(report.passed)", "json.dumps(True)"),
    Mutant("_json_list: no ',' between records", "src/ainfty/report.py",
           '("," + _I[depth + 1]).join(items)', "_I[depth + 1].join(items)"),
    Mutant("_machine: names quoted with repr", "src/ainfty/report.py",
           "q = cache(json.dumps)", "q = cache(repr)"),
    Mutant("_pieces: strict encoding", "src/ainfty/report.py",
           '"utf-8", "surrogateescape"', '"utf-8", "strict"'),
    # the immutable-value base of the seven records, and the polynomial's checks
    Mutant("Value.__eq__: first field only", "src/ainfty/errors.py",
           "return self._values(self) == self._values(other)",
           "return self._values(self)[0] == self._values(other)[0]"),
    Mutant("Value.__setattr__: assignment allowed", "src/ainfty/errors.py",
           'raise AttributeError(f"cannot assign to field {name!r}")',
           "_setattr(self, name, value)"),
    Mutant("TensorPoly.__init__: words unchecked", "src/ainfty/graded.py",
           "for w in terms:\n            space.check_word(w)", "for w in terms:\n            pass"),
    # one per rule of the structure-file parser
    Mutant("_content_lines: str.splitlines() line ends", "src/ainfty/formats.py",
           "enumerate(_LINE_END.split(text), start=1)", "enumerate(text.splitlines(), start=1)"),
    Mutant("_int: any Unicode decimal digit", "src/ainfty/formats.py",
           '_INT = re.compile(r"[+-]?[0-9]+")', '_INT = re.compile(r"[+-]?\\d+")'),
    Mutant("_basis_element: chain degrees not negated", "src/ainfty/formats.py",
           '-degree if convention == "chain" else degree', "degree"),
    Mutant("_map_entry: homogeneity unchecked", "src/ainfty/formats.py",
           "if space.degree(b) != out_degree:", "if False:"),
    Mutant("parse_structure: duplicate map entries accepted", "src/ainfty/formats.py",
           "if word in first_line:", "if False:"),
    Mutant("parse_structure: duplicate basis names accepted", "src/ainfty/formats.py",
           "if element.name in basis:", "if False:"),
)


def stale_anchors(mutants: tuple[Mutant, ...]) -> list[str]:
    out = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.anchor)
        if count != 1:
            out.append(f"{m.name}: anchor occurs {count} times in {m.path}: {m.anchor!r}")
    return out


def run_subset(work: Path) -> str:
    """``passed``, ``failed`` or ``timed out`` for one run of SUBSET in ``work``."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)  # no replay across mutants
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *SUBSET]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if proc.returncode == 0 else "failed"


def main() -> int:
    stale = stale_anchors(MUTANTS)
    if stale:
        print("stale anchors:", *stale, sep="\n  ")
        return 2
    with tempfile.TemporaryDirectory(prefix="ainfty-mutants-") as tmp:
        work = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, work / item, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, work / item)
        t0 = time.perf_counter()
        baseline = run_subset(work)
        print(f"baseline: {baseline} ({time.perf_counter() - t0:.1f} s)")
        if baseline != "passed":
            return 2
        survivors = 0
        for m in MUTANTS:
            path = work / m.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.anchor, m.replacement), encoding="utf-8")
            t0 = time.perf_counter()
            try:
                outcome = run_subset(work)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
            survivors += verdict == "survived"
            print(f"{verdict:9} {time.perf_counter() - t0:6.1f} s  {m.name}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
