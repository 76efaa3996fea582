"""Machine-readable verification outcomes and their two output formats."""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable
from fractions import Fraction
from functools import cache

from .errors import InputError, Value

# A defect term: exact coefficient on a tensor word of basis names.
DefectTerm = tuple[Fraction, tuple[str, ...]]


class Failure(Value):
    """One input word whose checked identity came out nonzero."""

    __slots__ = _fields = ("word", "defect")
    word: tuple[str, ...]
    defect: tuple[DefectTerm, ...]

    def __init__(self, word: tuple[str, ...], defect: tuple[DefectTerm, ...]) -> None:
        self._set(word, defect)


class CheckRecord(Value):
    """Outcome of one check at one arity over the full word enumeration."""

    __slots__ = _fields = ("check", "arity", "words", "failures")
    check: str
    arity: int
    words: int
    failures: tuple[Failure, ...]

    def __init__(self, check: str, arity: int, words: int, failures: tuple[Failure, ...]) -> None:
        self._set(check, arity, words, failures)


class Report(Value):
    """Verification outcome for one structure.

    Records are ordered check-by-check with arity ascending, and failure
    lists are sorted lexicographically by word, so identical inputs always
    produce identical reports.
    """

    __slots__ = _fields = ("structure", "convention", "max_arity", "checks")
    structure: str
    convention: str
    max_arity: int
    checks: tuple[CheckRecord, ...]

    def __init__(
        self, structure: str, convention: str, max_arity: int, checks: tuple[CheckRecord, ...]
    ) -> None:
        self._set(structure, convention, max_arity, checks)

    @property
    def passed(self) -> bool:
        return all(not rec.failures for rec in self.checks)

    @property
    def failure_count(self) -> int:
        return sum(len(rec.failures) for rec in self.checks)


def _format_terms(terms: Iterable[DefectTerm]) -> str:
    return " + ".join(f"{c} {','.join(w)}" for c, w in terms) or "0"


def _text(report: Report) -> str:
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
            lines.append(f"  word {','.join(f.word)}: defect {_format_terms(f.defect)}")
    verdict = "PASS" if report.passed else "FAIL"
    total_words = sum(rec.words for rec in report.checks)
    lines.append(f"result: {verdict} ({report.failure_count} failures in {total_words} words)")
    return "\n".join(lines) + "\n"


_I = tuple("\n" + "  " * depth for depth in range(9))  # line start at each depth


def _json_list(items: Iterable[str], depth: int) -> str:
    body = ("," + _I[depth + 1]).join(items)
    return f"[{_I[depth + 1]}{body}{_I[depth]}]" if body else "[]"


def _machine(report: Report) -> str:
    """``json.dumps(indent=2)`` of the report as nested dicts, written record by record."""
    q = cache(json.dumps)  # each basis name quoted once per report
    checks = []
    for rec in report.checks:
        failures = []
        for f in rec.failures:
            terms = [
                f'{{{_I[7]}"coeff": "{c}",{_I[7]}"word": {_json_list(map(q, w), 7)}{_I[6]}}}'
                for c, w in f.defect
            ]
            failures.append(
                f'{{{_I[5]}"word": {_json_list(map(q, f.word), 5)},'
                f'{_I[5]}"defect": {_json_list(terms, 5)}{_I[4]}}}'
            )
        checks.append(
            f'{{{_I[3]}"check": {json.dumps(rec.check)},{_I[3]}"arity": {rec.arity},'
            f'{_I[3]}"words": {rec.words},{_I[3]}"failures": {_json_list(failures, 3)}{_I[2]}}}'
        )
    return (
        f'{{{_I[1]}"structure": {json.dumps(report.structure)},'
        f'{_I[1]}"convention": {json.dumps(report.convention)},'
        f'{_I[1]}"max_arity": {report.max_arity},{_I[1]}"pass": {json.dumps(report.passed)},'
        f'{_I[1]}"checks": {_json_list(checks, 1)}\n}}\n'
    )


def emit_report(report: Report, format: str = "text") -> bytes:
    """Render a report as bytes: ``text`` for humans, ``machine`` for tools.

    Both renderings are deterministic (no timestamps, fixed ordering), so
    re-emission of the same report is byte-identical.  An integer with more
    digits than ``sys.get_int_max_str_digits()`` allows raises ``InputError``.
    """
    if format not in ("text", "machine"):
        raise ValueError(f"unknown report format {format!r}")
    try:  # nothing is returned until the whole report is rendered
        rendered = _machine(report) if format == "machine" else _text(report)
    except ValueError:  # str() of an int past the limit
        raise InputError(
            f"the report would print an integer of more than "
            f"{sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits())"
        ) from None
    return rendered.encode("utf-8")
