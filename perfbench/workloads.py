"""The benchmark's fixed workloads, their seeded inputs and their output checks.

Every workload is one `ainfty` CLI command.  Three run the built-in example
and take no input; `dense-broken` verifies a structure file generated from
the seed.  The checks here run outside the timed region and need `ainfty`
importable (run.py puts the checkout's `src` on `sys.path` first).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1
DENSE_INPUT = "dense-broken.txt"
DENSE_DIM = 32
DENSE_BROKEN_ENTRIES = 8
UNREPORTED_SAMPLE = 200


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "linfty"
    checks: tuple[str, ...]  # check names in report order
    max_arity: int
    expected_exit: int

    @property
    def generated(self) -> bool:
        return self.name == "dense-broken"

    def cli_args(self) -> list[str]:
        args = [self.command]
        args += ["--input", DENSE_INPUT] if self.generated else ["--builtin", "paper-example"]
        if self.command == "verify":
            args += ["--check", "both" if len(self.checks) == 2 else self.checks[0]]
        return args + ["--max-arity", str(self.max_arity), "--format", "machine"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-coderivation", "verify", ("coderivation",), 7, 0),
        Workload("paper-direct", "verify", ("direct",), 9, 0),
        Workload("paper-linfty", "linfty", ("linfty",), 6, 0),
        Workload("dense-broken", "verify", ("direct", "coderivation"), 3, 1),
    )
}


def dense_broken(seed: int) -> tuple[str, dict[tuple[int, int], Fraction]]:
    """Z/DENSE_DIM addition as a full m_2 table, with a few seeded defects.

    All basis elements have degree 0 and every one of the DENSE_DIM**2
    words carries an entry, so the table is as dense as it can be.  The
    seed picks DENSE_BROKEN_ENTRIES entries whose coefficient becomes a
    rational that is not an integer; those break associativity.  Returns
    the file text and the coefficient of each entry (output index is
    (a + b) mod DENSE_DIM).
    """
    rng = random.Random(seed)
    n = DENSE_DIM
    coeffs = {(a, b): Fraction(1) for a in range(n) for b in range(n)}
    for entry in rng.sample(sorted(coeffs), DENSE_BROKEN_ENTRIES):
        q = rng.randint(2, 7)
        p = rng.choice([x for x in range(-9, 10) if x % q])
        coeffs[entry] = Fraction(p, q)
    lines = [f"# dense-broken, seed {seed}", "ainfty v1", "convention cochain"]
    lines += [f"basis {_name(i)} 0" for i in range(n)]
    for (a, b), c in coeffs.items():
        lines.append(f"map 2: {_name(a)} {_name(b)} -> {c} {_name((a + b) % n)}")
    return "\n".join(lines) + "\n", coeffs


def _name(i: int) -> str:
    return f"e{i:02d}"


class Oracle:
    """The literal per-word functions of `ainfty`, on an independently built structure.

    The dense structure is built from the generator's coefficients, not by
    parsing the file the CLI reads, so a parser fault shows as a mismatch.
    `failing[check]` maps every word with a nonzero defect to that defect.
    """

    def __init__(self, workload: Workload, dense: dict[tuple[int, int], Fraction] | None):
        import ainfty

        self._ainfty = ainfty
        if workload.generated:
            space = ainfty.GradedSpace(
                tuple(ainfty.BasisElement(_name(i), 0) for i in range(DENSE_DIM))
            )
            table = {(a, b): {(a + b) % DENSE_DIM: c} for (a, b), c in dense.items()}
            structure = ainfty.AStructure(
                space, maps={2: ainfty.MultiMap(space, 2, table)}, name=DENSE_INPUT
            )
        else:
            structure = ainfty.example_structure()
        self.space = structure.space
        self._unprimed = structure
        self._primed = structure.primed_version()
        self._family = None
        if workload.command == "linfty":
            self._family = [
                ainfty.symmetrize_prime(m)
                for k in range(1, workload.max_arity + 1)
                if (m := self._primed.map_at(k)) is not None
            ]
        # The built-in example satisfies every identity at every arity, so
        # it has no failing words.  In the dense table every entry has
        # coefficient 1 except the broken ones, and Z/n addition is
        # associative, so only an arity-3 word that reaches a broken entry,
        # as the inner or as the outer product, can have a defect.
        self.failing: dict[str, dict[tuple[int, ...], dict]] = {c: {} for c in workload.checks}
        if workload.generated:
            n = DENSE_DIM
            words = set()
            for (a, b), c in dense.items():
                if c != 1:
                    for x in range(n):
                        words |= {(a, b, x), (x, a, b), (x, (a - x) % n, b), (a, x, (b - x) % n)}
            for check in workload.checks:
                for word in words:
                    if defect := self.defect(check, word):
                        self.failing[check][word] = defect

    def defect(self, check: str, word: tuple[int, ...]) -> dict[tuple[str, ...], Fraction]:
        names = self.space.word_names
        if check == "direct":
            vec = self._ainfty.stasheff_defect(self._unprimed, word)
            return {names((b,)): c for b, c in vec.items()}
        if check == "coderivation":
            poly = self._ainfty.d_squared(self._primed, word)
        else:
            poly = self._ainfty.linfty_defect(self._family, word)
        return {names(w): c for w, c in poly.terms.items()}


class OutputChecker:
    """Checks one CLI run's exit code and report; identical outputs are checked once."""

    def __init__(self, workload: Workload, seed: int, oracle: Oracle, pinned_sha256: str | None):
        self.workload = workload
        self.seed = seed
        self.oracle = oracle
        self.pinned_sha256 = pinned_sha256
        self._passed: set[tuple[int, str]] = set()

    def check(self, exit_code: int, report: bytes) -> list[str]:
        """Return the list of problems; empty means the output is correct."""
        key = (exit_code, hashlib.sha256(report).hexdigest())
        if key in self._passed:
            return []
        errors = self._check(exit_code, report, key[1])
        if not errors:
            self._passed.add(key)
        return errors

    def _check(self, exit_code: int, report: bytes, sha: str) -> list[str]:
        w = self.workload
        errors = []
        if exit_code != w.expected_exit:
            errors.append(f"exit code {exit_code}, expected {w.expected_exit}")
        if self.pinned_sha256 is not None and sha != self.pinned_sha256:
            errors.append(f"report sha256 {sha} differs from the pinned {self.pinned_sha256}")
        try:
            doc = json.loads(report)
            records = doc["checks"]
            cells = [(r["check"], r["arity"]) for r in records]
        except (ValueError, KeyError, TypeError) as exc:
            return errors + [f"machine report does not parse: {exc!r}"]
        expected_cells = [(c, n) for c in w.checks for n in range(1, w.max_arity + 1)]
        if cells != expected_cells:
            return errors + [f"report cells {cells} differ from {expected_cells}"]
        space = self.oracle.space
        reported: dict[str, set[tuple[int, ...]]] = {c: set() for c in w.checks}
        try:
            for rec in records:
                errors += self._check_record(rec, reported[rec["check"]])
            if doc["pass"] != (not any(reported.values())):
                errors.append("the report's pass flag disagrees with its failures")
        except (ValueError, KeyError, TypeError) as exc:
            return errors + [f"malformed record: {exc!r}"]
        for check in w.checks:
            missing = self.oracle.failing[check].keys() - reported[check]
            if missing:
                errors.append(f"{check}: {len(missing)} failing words not reported")
        # a seeded sample of the words the report leaves out must have zero defect
        rng = random.Random(self.seed)
        total = sum(space.dim**n for n in range(1, w.max_arity + 1))
        for check in w.checks:
            for _ in range(UNREPORTED_SAMPLE):
                word = _word_at(rng.randrange(total), space.dim)
                if word not in reported[check] and self.oracle.defect(check, word):
                    errors.append(f"{check}: unreported word {space.word_names(word)} has a defect")
        return errors

    def _check_record(self, rec: dict, reported: set[tuple[int, ...]]) -> list[str]:
        space = self.oracle.space
        check, arity = rec["check"], rec["arity"]
        errors = []
        if rec["words"] != space.dim**arity:
            errors.append(f"{check} arity {arity}: {rec['words']} words, expected {space.dim**arity}")
        previous = None
        for failure in rec["failures"]:
            word = tuple(space.index(nm) for nm in failure["word"])
            if len(word) != arity or (previous is not None and word <= previous):
                errors.append(f"{check} arity {arity}: failure {failure['word']} out of order")
            previous = word
            reported.add(word)
            got = {tuple(t["word"]): Fraction(t["coeff"]) for t in failure["defect"]}
            if got != self.oracle.failing[check].get(word):
                errors.append(f"{check}: defect of {failure['word']} differs from the oracle")
        return errors


def _word_at(index: int, dim: int) -> tuple[int, ...]:
    """The index-th word when all words of arity 1, 2, ... are listed in order."""
    arity = 1
    while index >= dim**arity:
        index -= dim**arity
        arity += 1
    word = []
    for _ in range(arity):
        index, b = divmod(index, dim)
        word.append(b)
    return tuple(reversed(word))
