"""The exhaustive sweep: every basis word of each (check, arity) cell.

The per-word defect functions in ``engine`` are the reference
implementation.  This module runs their raw cores over every basis word of
each arity, collects the nonzero defects, and turns them into report
records in a deterministic order.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import AStructure, _d_squared_raw, _stasheff_vec
from .errors import InputError
from .graded import GradedSpace, Word
from .report import CheckRecord, Failure

# a failure as raw data: (input word, [(defect word, coefficient), ...])
RawFailure = tuple[Word, list[tuple[Word, Fraction]]]


def active_backend() -> str:
    """The sweep implementation in use; there is only the pure one."""
    return "pure"


def _sweep_one(structure: AStructure, check: str, arity: int) -> list[RawFailure]:
    """Sweep one (check, arity) cell and return its nonzero defects."""
    space = structure.space
    degrees = space.degrees
    tables = structure.tables_up_to(arity)
    failures: list[RawFailure] = []
    if check == "coderivation":
        for word in space.basis_words(arity):
            acc = _d_squared_raw(tables, degrees, word)
            if acc:
                failures.append((word, list(acc.items())))
    elif check == "direct":
        for word in space.basis_words(arity):
            vec = _stasheff_vec(tables, degrees, word)
            if vec:
                failures.append((word, [((b,), c) for b, c in vec.items()]))
    else:
        raise InputError(f"unknown check {check!r}")
    return failures


def _to_record(
    space: GradedSpace, check: str, arity: int, failures: list[RawFailure]
) -> CheckRecord:
    recs = []
    for word, defect in sorted(failures):
        terms = tuple(
            (c, space.word_names(dw))
            for dw, c in sorted(defect, key=lambda t: (len(t[0]), t[0]))
        )
        recs.append(Failure(word=space.word_names(word), defect=terms))
    return CheckRecord(
        check=check, arity=arity, words=space.dim**arity, failures=tuple(recs)
    )


def run_checks(
    unprimed: AStructure | None,
    primed: AStructure | None,
    checks: list[str],
    max_arity: int,
) -> list[CheckRecord]:
    """Run the selected checks over arities 1..max_arity; deterministic order."""
    by_check = {"direct": unprimed, "coderivation": primed}
    records = []
    for check in checks:
        structure = by_check[check]
        for arity in range(1, max_arity + 1):
            failures = _sweep_one(structure, check, arity)
            records.append(_to_record(structure.space, check, arity, failures))
    return records
