"""Run a fixed list of one-line mutants against a fast subset of the tests.

Usage: python3 tools/mutants.py

The script copies ``src/``, ``tests/``, ``perfbench/`` (the corpus tests
read its workloads) and ``pyproject.toml`` into a temporary directory.
For each mutant it rewrites one line of one module there, runs ``SUBSET``
under ``pytest -x`` with a limit of ``TIMEOUT`` seconds, and restores the
module.  Each mutant names the test file that kills it, and its run starts
with that file and then runs the rest of ``SUBSET``, so a mutant dies as
soon as it can and no mutant loses a test.  The script prints one line per
mutant: killed, survived or timed out, and for a mutant killed elsewhere
than in its named file, the file whose test failed first.

Each mutant names a source substring that must occur exactly once in its
file.  A substring that occurs zero times or more than once is a stale
anchor: the script reports it and exits 2 before running anything, so a
refactor cannot silently turn a mutant into a no-op.  It also exits 2 if
the unmutated subset fails, after printing pytest's ``FAILED`` and
``ERROR`` lines (or, without any, the last ``TAIL`` lines of its output).
Otherwise the exit code is 1 if any mutant survived, else 0.

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
TAIL = 20  # lines of a failed baseline's output shown when pytest names no test
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
    killer: str  # the file of SUBSET that kills it, run first


MUTANTS = (
    # one per function of signs.py
    Mutant("sign_of: parity flipped", "src/ainfty/signs.py",
           "return -1 if exponent % 2 else 1", "return 1 if exponent % 2 else -1",
           "tests/test_signs.py"),
    Mutant("koszul_permutation_sign: non-inversions counted", "src/ainfty/signs.py",
           "if sigma[i] > sigma[j]:", "if sigma[i] < sigma[j]:",
           "tests/test_signs.py"),
    Mutant("pass_operator_sign: degrees added", "src/ainfty/signs.py",
           "return sign_of(op_degree * passed_degree)",
           "return sign_of(op_degree + passed_degree)",
           "tests/test_signs.py"),
    Mutant("susp_iso_sign: n(n+1)/2", "src/ainfty/signs.py",
           "return sign_of(n * (n - 1) // 2)", "return sign_of(n * (n + 1) // 2)",
           "tests/test_signs.py"),
    Mutant("desusp_word_sign: negated", "src/ainfty/signs.py",
           "return sign_of(_desusp_parity(degrees))",
           "return sign_of(_desusp_parity(degrees) + 1)",
           "tests/test_signs.py"),
    Mutant("_desusp_parity: weight n - i", "src/ainfty/signs.py",
           "(n - 1 - i) * d", "(n - i) * d",
           "tests/test_signs.py"),
    Mutant("_alpha_parity: k*lam dropped", "src/ainfty/signs.py",
           "(k + lam + k * lam + k * n + k * prefix_degree_sum) & 1",
           "(k + lam + k * n + k * prefix_degree_sum) & 1",
           "tests/test_corpus.py"),
    Mutant("alpha_sign: prefix degree ignored", "src/ainfty/signs.py",
           "return sign_of(_alpha_parity(k, lam, n, prefix_degree_sum))",
           "return sign_of(_alpha_parity(k, lam, n, 0))",
           "tests/test_backend.py"),
    Mutant("s_sign: shifted by one", "src/ainfty/signs.py",
           "return sign_of((n + 1) * (n + 2) // 2)", "return sign_of(n * (n + 1) // 2)",
           "tests/test_signs.py"),
    # the sweeps' index arithmetic, the oracle's prefix sign and the report
    Mutant("_symmetrize: stabilizer = 1", "src/ainfty/linfty.py",
           "stabilizer = prod(factorial(w.count(b)) for b in set(w))", "stabilizer = 1",
           "tests/test_corpus.py"),
    Mutant("_top_sums: lam = 0 sign dropped", "src/ainfty/_backend.py",
           "negate = _alpha_parity(k, 0, n, 0)", "negate = 0",
           "tests/test_backend.py"),
    Mutant("_top_sums: every S(x) keyed by letter 0's word", "src/ainfty/_backend.py",
           "letter = [(b,) for b in range(len(degrees))]", "letter = [(0,)] * len(degrees)",
           "tests/test_backend.py"),
    Mutant("_top_sums: lam = 0 inner place one power of dim too low", "src/ainfty/_backend.py",
           "base = iv * power[n - k + 1]", "base = iv * power[n - k]",
           "tests/test_backend.py"),
    Mutant("_top_sums: lam >= 1 inner place one power of dim too high", "src/ainfty/_backend.py",
           "place = power[m - lam]", "place = power[m - lam + 1]",
           "tests/test_backend.py"),
    Mutant("_top_sums: suffix index dropped", "src/ainfty/_backend.py",
           "offset = pre * power[n - lam + 1] + iu % power[m - lam - 1] * dim",
           "offset = pre * power[n - lam + 1]",
           "tests/test_backend.py"),
    Mutant("_indexed: coefficients times scale, not scale / denominator",
           "src/ainfty/_backend.py",
           "scale // c.denominator", "scale",
           "tests/test_backend.py"),
    Mutant("_indexed: lam = 0 tail offset one power of dim too low", "src/ainfty/_backend.py",
           "_index(w[1:], dim) * dim", "_index(w[1:], dim)",
           "tests/test_backend.py"),
    Mutant("_word: letters decoded in reverse", "src/ainfty/_backend.py",
           "return tuple(reversed(letters))", "return tuple(letters)",
           "tests/test_backend.py"),
    Mutant("_sweep_one: last placement offset dropped", "src/ainfty/_backend.py",
           "for i in range(pad + 1):", "for i in range(pad):",
           "tests/test_backend.py"),
    Mutant("_sweep_one: lower-arity windows dropped", "src/ainfty/_backend.py",
           "(item for level in windows for item in level.items())", "windows[-1].items()",
           "tests/test_backend.py"),
    Mutant("_sweep phase 1: arities walked off by one", "src/ainfty/_backend.py",
           "_top_sums(index, degrees, n)) for n in arities]",
           "_top_sums(index, degrees, n)) for n in range(max_arity)]",
           "tests/test_backend.py"),
    Mutant("_sweep phase 2: whole-word windows dropped", "src/ainfty/_backend.py",
           "sums[n - 1], windows[:n])", "sums[n - 1], windows[:n - 1])",
           "tests/test_backend.py"),
    Mutant("_sweep_one: in-place prune keeps zero terms", "src/ainfty/_backend.py",
           "for w in [w for w, c in acc.items() if not c]:", "for w in []:",
           "tests/test_backend.py"),
    Mutant("_sweep_one: windows returned though the arity below has one",
           "src/ainfty/_backend.py",
           "if not any(windows[:-1]):", "if not any(windows[:-2]):",
           "tests/test_backend.py"),
    Mutant("_sweep: pass read from arities 1..N-1", "src/ainfty/_backend.py",
           "max_arity, not any(sums))", "max_arity, not any(sums[:-1]))",
           "tests/test_corpus.py"),
    Mutant("_sweep: digit bound without the arity factor", "src/ainfty/_backend.py",
           "max(max_arity * largest, scale * scale)", "max(largest, scale * scale)",
           "tests/test_cli.py"),
    Mutant("_term_order: defect terms sorted by word only", "src/ainfty/report.py",
           "return sorted(words, key=lambda w: (len(w), w))", "return sorted(words)",
           "tests/test_corpus.py"),
    Mutant("_term_order: defect terms left unsorted", "src/ainfty/report.py",
           "return sorted(words, key=lambda w: (len(w), w))", "return list(words)",
           "tests/test_corpus.py"),
    Mutant("_to_record: shared Fraction keyed by abs(c)", "src/ainfty/_backend.py",
           "fraction = cache(lambda c: Fraction(c, denominator))",
           "fraction = lambda c, kept={}: kept.setdefault(abs(c), Fraction(c, denominator))",
           "tests/test_backend.py"),
    Mutant("lemma2_top_sum_check: never false", "src/ainfty/example.py",
           "if d_squared(structure, word) != TensorPoly(EXAMPLE_SPACE, restricted):",
           "if False:",
           "tests/test_example.py"),
    Mutant("_symmetrize: odd-repeat cancellation dropped", "src/ainfty/linfty.py",
           "if len(odd) != len(set(odd)):", "if False:",
           "tests/test_corpus.py"),
    Mutant("_signed_rearrangements: passed letters ignored", "src/ainfty/linfty.py",
           "step = pass_operator_sign(ddegs[b], passed)", "step = 1",
           "tests/test_corpus.py"),
    Mutant("_desuspended: sigma(x) ignored", "src/ainfty/_backend.py",
           "if _desusp_parity([degrees[a] for a in x]):", "if False:",
           "tests/test_backend.py"),
    Mutant("_coderivation_terms: prefix read undesuspended", "src/ainfty/engine.py",
           "sum(degrees[b] - 1 for b in word[:i])", "sum(degrees[b] for b in word[:i])",
           "tests/test_engine.py"),
    # the transfer, whose sign bugs move all three sweep verdicts together so
    # that only the literal oracles and the corpus see them, and the linfty oracle
    Mutant("_transfer: desuspension sign dropped", "src/ainfty/engine.py",
           "s = susp_iso_sign(k) * desusp_word_sign(degs) * susp_iso_sign(k)",
           "s = susp_iso_sign(k) * susp_iso_sign(k)",
           "tests/test_engine.py"),
    Mutant("linfty_defect: unshuffle sign dropped", "src/ainfty/linfty.py",
           "sign = koszul_permutation_sign([degs[p] for p in order], order)", "sign = 1",
           "tests/test_linfty.py"),
    Mutant("_check_graded_symmetric: swap sign ignored", "src/ainfty/linfty.py",
           "sign = pass_operator_sign(degs[w[pos]] - 1, degs[w[pos + 1]] - 1)", "sign = 1",
           "tests/test_linfty.py"),
    Mutant("symmetrize_prime: check skipped", "src/ainfty/linfty.py",
           "_check_graded_symmetric(mp.space, table)", "pass",
           "tests/test_linfty.py"),
    Mutant("_pieces: digit pre-pass skipped", "src/ainfty/report.py",
           "if any(abs(i) >= big for i in _printed_ints(head, cells, format)):", "if False:",
           "tests/test_cli.py"),
    Mutant("_pieces: > for >=", "src/ainfty/report.py",
           "abs(i) >= big", "abs(i) > big",
           "tests/test_cli.py"),
    Mutant("_pieces: phase-1 digit bound off by one", "src/ainfty/report.py",
           "bound >= big", "bound > big",
           "tests/test_cli.py"),
    Mutant("_stream: bound 0 for None", "src/ainfty/report.py",
           "return head, None, cells", "return head, 0, cells",
           "tests/test_cli.py"),
    Mutant("_refuse_unprintable: < for <=", "src/ainfty/report.py",
           "if largest < 10**limit:", "if largest <= 10**limit:",
           "tests/test_cli.py"),
    Mutant("_refuse_unprintable: max_arity < 1 return deleted", "src/ainfty/report.py",
           "if not limit or max_arity < 1:", "if not limit:",
           "tests/test_cli.py"),
    Mutant("_refuse_unprintable: power guard at limit, not 4 * limit", "src/ainfty/report.py",
           "<= 4 * limit:", "<= limit:",
           "tests/test_cli.py"),
    Mutant("_printed_ints: text totals unchecked", "src/ainfty/report.py",
           'if format == "text":', "if False:",
           "tests/test_cli.py"),
    Mutant("_json_stream: no ',' between streamed failures", "src/ainfty/report.py",
           'sep = ","', 'sep = ""',
           "tests/test_formats.py"),
    Mutant("_machine: verdict always pass", "src/ainfty/report.py",
           "json.dumps(passed)", "json.dumps(True)",
           "tests/test_formats.py"),
    Mutant("_json_list: no ',' between records", "src/ainfty/report.py",
           '("," + _I[depth + 1]).join(items)', "_I[depth + 1].join(items)",
           "tests/test_formats.py"),
    Mutant("_machine: names quoted with repr", "src/ainfty/report.py",
           "q = cache(json.dumps)", "q = cache(repr)",
           "tests/test_formats.py"),
    Mutant("_utf8: strict encoding", "src/ainfty/report.py",
           '"utf-8", "surrogateescape"', '"utf-8", "strict"',
           "tests/test_cli.py"),
    Mutant("_utf8: stdout's own encoding", "src/ainfty/report.py",
           '"utf-8", "surrogateescape"', 'sys.stdout.encoding, "surrogateescape"',
           "tests/test_cli.py"),
    # the immutable-value base of the seven records, and the polynomial's checks
    Mutant("Value.__eq__: first field only", "src/ainfty/errors.py",
           "return self._values(self) == self._values(other)",
           "return self._values(self)[0] == self._values(other)[0]",
           "tests/test_values.py"),
    Mutant("Value.__setattr__: assignment allowed", "src/ainfty/errors.py",
           'raise AttributeError(f"cannot assign to field {name!r}")',
           "_setattr(self, name, value)",
           "tests/test_values.py"),
    Mutant("TensorPoly.__init__: words unchecked", "src/ainfty/graded.py",
           "for w in terms:\n            space.check_word(w)", "for w in terms:\n            pass",
           "tests/test_values.py"),
    # one per rule of the structure-file parser
    Mutant("_content_lines: str.splitlines() line ends", "src/ainfty/formats.py",
           "enumerate(_LINE_END.split(text), start=1)", "enumerate(text.splitlines(), start=1)",
           "tests/test_formats.py"),
    Mutant("_int: any Unicode decimal digit", "src/ainfty/formats.py",
           '_INT = re.compile(r"[+-]?[0-9]+")', '_INT = re.compile(r"[+-]?\\d+")',
           "tests/test_formats.py"),
    Mutant("_basis_element: chain degrees not negated", "src/ainfty/formats.py",
           '-degree if convention == "chain" else degree', "degree",
           "tests/test_formats.py"),
    Mutant("_map_entry: extra head tokens accepted", "src/ainfty/formats.py",
           "if not colon or len(parts) != 2:", "if not colon:",
           "tests/test_formats.py"),
    Mutant("_map_entry: homogeneity unchecked", "src/ainfty/formats.py",
           "if space.degree(b) != out_degree:", "if False:",
           "tests/test_formats.py"),
    Mutant("parse_structure: duplicate map entries accepted", "src/ainfty/formats.py",
           "if word in first_line:", "if False:",
           "tests/test_formats.py"),
    Mutant("parse_structure: duplicate basis names accepted", "src/ainfty/formats.py",
           "if element.name in basis:", "if False:",
           "tests/test_formats.py"),
    # the exit-code contract of cli.py: 1 only for a defect, 2, 3 and 130
    Mutant("run_cli: a broken pipe exits 1", "src/ainfty/cli.py",
           'os.close(devnull)\n        print(f"error: {exc}", file=sys.stderr)\n'
           "        return EXIT_USAGE",
           'os.close(devnull)\n        print(f"error: {exc}", file=sys.stderr)\n'
           "        return EXIT_FAIL",
           "tests/test_cli.py"),
    Mutant("run_cli: the frame SystemError not mapped", "src/ainfty/cli.py",
           "lost_frame = repr(exc) == ", "lost_frame = False and repr(exc) == ",
           "tests/test_cli.py"),
    Mutant("run_cli: an internal error exits 1", "src/ainfty/cli.py",
           "        return EXIT_INTERNAL", "        return EXIT_FAIL",
           "tests/test_cli.py"),
    Mutant("run_cli: SIGINT exits 1", "src/ainfty/cli.py",
           "return 130", "return EXIT_FAIL",
           "tests/test_cli.py"),
    Mutant("_write: flush deleted", "src/ainfty/cli.py",
           "    sys.stdout.flush()  # a closed stdout", "    pass  # a closed stdout",
           "tests/test_cli.py"),
)


def stale_anchors(mutants: tuple[Mutant, ...]) -> list[str]:
    out = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.anchor)
        if count != 1:
            out.append(f"{m.name}: anchor occurs {count} times in {m.path}: {m.anchor!r}")
    return out


def failure_lines(output: str) -> list[str]:
    """pytest's ``FAILED`` and ``ERROR`` lines in ``output``, else its last ``TAIL`` lines."""
    lines = output.splitlines()
    return [line for line in lines if line.startswith(("FAILED ", "ERROR "))] or lines[-TAIL:]


def run_subset(work: Path, first: str | None = None) -> tuple[str, list[str]]:
    """``passed``, ``failed`` or ``timed out`` for one run of SUBSET in ``work``.

    The run starts with the file ``first``, if given, then the rest of SUBSET
    in order.  A failed run also gives its ``failure_lines``, a passed or
    timed-out run none.
    """
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)  # no replay across mutants
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    files = [first] if first else []
    files += [f for f in SUBSET if f != first]
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    try:
        proc = subprocess.run(
            cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT,
            encoding="utf-8", errors="replace",
        )
    except subprocess.TimeoutExpired:
        return "timed out", []
    if proc.returncode == 0:
        return "passed", []
    return "failed", failure_lines(proc.stdout + proc.stderr)


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
        baseline, lines = run_subset(work)
        print(f"baseline: {baseline} ({time.perf_counter() - t0:.1f} s)", *lines, sep="\n  ")
        if baseline != "passed":
            return 2
        survivors = 0
        for m in MUTANTS:
            path = work / m.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.anchor, m.replacement), encoding="utf-8")
            t0 = time.perf_counter()
            try:
                outcome, lines = run_subset(work, m.killer)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
            survivors += verdict == "survived"
            first = lines[0] if lines else ""
            named = first.startswith(("FAILED ", "ERROR "))
            where = first.split()[1].split("::")[0] if named else m.killer
            note = "" if where == m.killer else f"  (killed in {where})"
            print(f"{verdict:9} {time.perf_counter() - t0:6.1f} s  {m.name}{note}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
