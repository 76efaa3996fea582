"""Machine-readable verification outcomes and their two output formats."""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

# A defect term: exact coefficient on a tensor word of basis names.
DefectTerm = tuple[Fraction, tuple[str, ...]]


@dataclass(frozen=True)
class Failure:
    """One input word whose checked identity came out nonzero."""

    word: tuple[str, ...]
    defect: tuple[DefectTerm, ...]


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one check at one arity over the full word enumeration."""

    check: str
    arity: int
    words: int
    failures: tuple[Failure, ...]


@dataclass(frozen=True)
class Report:
    """Verification outcome for one structure.

    Records are ordered check-by-check with arity ascending, and failure
    lists are sorted lexicographically by word, so identical inputs always
    produce identical reports.
    """

    structure: str
    convention: str
    max_arity: int
    checks: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(not rec.failures for rec in self.checks)

    @property
    def failure_count(self) -> int:
        return sum(len(rec.failures) for rec in self.checks)


def _format_terms(terms: Iterable[DefectTerm]) -> str:
    return " + ".join(f"{c} {','.join(w)}" for c, w in terms) or "0"


def emit_report(report: Report, format: str = "text") -> bytes:
    """Render a report as bytes: ``text`` for humans, ``machine`` for tools.

    Both renderings are deterministic (no timestamps, fixed ordering), so
    re-emission of the same report is byte-identical.  A defect coefficient
    with more digits than ``sys.get_int_max_str_digits()`` allows (0: no
    limit) raises ``InputError`` before anything is rendered.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        bound = 10**limit
        for rec in report.checks:
            for f in rec.failures:
                for c, _ in f.defect:
                    if abs(c.numerator) >= bound or c.denominator >= bound:
                        raise InputError(
                            f"the report would print a coefficient of more than "
                            f"{limit} digits (sys.get_int_max_str_digits())"
                        )
    if format == "text":
        lines = [
            f"structure: {report.structure}",
            f"convention: {report.convention}",
            f"max arity: {report.max_arity}",
        ]
        for rec in report.checks:
            lines.append(
                f"check {rec.check}, arity {rec.arity}: "
                f"{rec.words} words, {len(rec.failures)} failures"
            )
            for f in rec.failures:
                lines.append(
                    f"  word {','.join(f.word)}: defect {_format_terms(f.defect)}"
                )
        verdict = "PASS" if report.passed else "FAIL"
        total_words = sum(rec.words for rec in report.checks)
        lines.append(
            f"result: {verdict} ({report.failure_count} failures in {total_words} words)"
        )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "machine":
        doc = {
            "structure": report.structure,
            "convention": report.convention,
            "max_arity": report.max_arity,
            "pass": report.passed,
            "checks": [
                {
                    "check": rec.check,
                    "arity": rec.arity,
                    "words": rec.words,
                    "failures": [
                        {
                            "word": list(f.word),
                            "defect": [
                                {"coeff": str(c), "word": list(w)} for c, w in f.defect
                            ],
                        }
                        for f in rec.failures
                    ],
                }
                for rec in report.checks
            ],
        }
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
