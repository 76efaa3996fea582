"""Machine-readable verification outcomes and their two output formats.

The writers take a report as a stream: its head (structure, convention,
maximum arity and verdict), a bound on every integer its failures print or
``None``, and its (check, arity) cells, each a header (check, arity, words,
failure count) and then its failures one at a time, in word order.
``_pieces`` gives a stream in either format, one line or one failure at a
time, unless its bound is ``None`` or passes Python's int-to-str digit
limit: then it renders the report whole first, as one piece, so a refused
report writes nothing.  Only this module knows that limit;
``_refuse_unprintable`` refuses word counts too long before any sweep.
``_stream`` gives a held ``Report`` the stream's shape.  ``_utf8`` encodes
every piece of stdout; ``emit_report`` joins a whole report's.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cache

from .errors import InputError, Value

# A defect term: exact coefficient on a tensor word of basis names.
DefectTerm = tuple[Fraction, tuple[str, ...]]
# the ten line ends of str.splitlines(): names in text print each as its Python escape
_ONE_LINE = {ord(c): repr(c)[1:-1] for c in "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"}


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


# the head of a report as the writers take it: structure, convention, max arity, verdict
Head = tuple[str, str, int, bool]
# a (check, arity) cell as they take it: check, arity, words, failure count, failures
Cell = tuple[str, int, int, int, Iterable[Failure]]
# a report as the writers take it: head, a bound on its failures' integers or None, cells
Stream = tuple[Head, int | None, Iterable[Cell]]


def _collect(head: Head, cells: Iterable[Cell]) -> Report:
    """The report of a head and its cells, each record's failures collected."""
    records = (CheckRecord(c, n, words, tuple(found)) for c, n, words, _, found in cells)
    return Report(*head[:3], tuple(records))


def _term_order(words: Iterable[tuple]) -> list[tuple]:
    """The words of a defect's terms in print order: by length, then word."""
    return sorted(words, key=lambda w: (len(w), w))


def _format_terms(terms: Iterable[DefectTerm]) -> str:
    return " + ".join(f"{c} {','.join(w)}" for c, w in terms).translate(_ONE_LINE) or "0"


def _text(head: Head, cells: Iterable[Cell]) -> Iterator[str]:
    """The human-readable layout, one line at a time."""
    structure, convention, max_arity, _ = head
    yield f"structure: {structure.translate(_ONE_LINE)}\n"
    yield f"convention: {convention}\n"
    yield f"max arity: {max_arity}\n"
    total_failures = total_words = 0
    for check, arity, words, count, failures in cells:
        total_failures += count
        total_words += words
        yield f"check {check}, arity {arity}: {words} words, {count} failures\n"
        for f in failures:
            word = ",".join(f.word).translate(_ONE_LINE)
            yield f"  word {word}: defect {_format_terms(f.defect)}\n"
    verdict = "FAIL" if total_failures else "PASS"
    yield f"result: {verdict} ({total_failures} failures in {total_words} words)\n"


_I = tuple("\n" + "  " * depth for depth in range(9))  # line start at each depth


def _json_list(items: Iterable[str], depth: int) -> str:
    body = ("," + _I[depth + 1]).join(items)
    return f"[{_I[depth + 1]}{body}{_I[depth]}]" if body else "[]"


def _json_stream(items: Iterable[Iterable[str]], depth: int) -> Iterator[str]:
    """``_json_list`` of items that each come as pieces, yielded as they come."""
    sep = "["
    for pieces in items:
        yield sep + _I[depth + 1]
        yield from pieces
        sep = ","
    yield "[]" if sep == "[" else _I[depth] + "]"


def _machine(head: Head, cells: Iterable[Cell]) -> Iterator[str]:
    """``json.dumps(indent=2)`` of the report as nested dicts, written failure by failure."""
    structure, convention, max_arity, passed = head
    q = cache(json.dumps)  # each basis name quoted once per report

    def failure(f: Failure) -> tuple[str]:  # one piece
        terms = [
            f'{{{_I[7]}"coeff": "{c}",{_I[7]}"word": {_json_list(map(q, w), 7)}{_I[6]}}}'
            for c, w in f.defect
        ]
        return (
            f'{{{_I[5]}"word": {_json_list(map(q, f.word), 5)},'
            f'{_I[5]}"defect": {_json_list(terms, 5)}{_I[4]}}}',
        )

    def record(cell: Cell) -> Iterator[str]:
        check, arity, words, _, failures = cell
        yield (
            f'{{{_I[3]}"check": {json.dumps(check)},{_I[3]}"arity": {arity},'
            f'{_I[3]}"words": {words},{_I[3]}"failures": '
        )
        yield from _json_stream(map(failure, failures), 3)
        yield _I[2] + "}"

    yield (
        f'{{{_I[1]}"structure": {json.dumps(structure)},'
        f'{_I[1]}"convention": {json.dumps(convention)},'
        f'{_I[1]}"max_arity": {max_arity},{_I[1]}"pass": {json.dumps(passed)},'
        f'{_I[1]}"checks": '
    )
    yield from _json_stream(map(record, cells), 1)
    yield "\n}\n"


def _digit_limit() -> int:
    """``sys.get_int_max_str_digits()``: 0 for no limit, as on Pythons before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _unprintable(what: str, limit: int) -> InputError:
    return InputError(
        f"{what} would print an integer of more than {limit} digits "
        "(sys.get_int_max_str_digits())"
    )


def _refuse_unprintable(dim: int, max_arity: int, n_checks: int, fmt: str) -> None:
    """Refuse, before any sweep, a report with an integer too long to print.

    Python refuses ``str()`` of an int with more digits than
    ``_digit_limit()``.  Every record prints dim**arity, and the text result
    line the total over all ``n_checks * arities`` records.  The limit also
    guards the parser's ``int()`` calls on file input, so it stays.
    """
    limit = _digit_limit()
    if not limit or max_arity < 1:  # the sweep refuses max_arity < 1
        return
    # far past the limit, skip the exact powers: dim**max_arity >= 2**(4 * limit) > 10**limit
    if dim < 2 or max_arity * (dim.bit_length() - 1) <= 4 * limit:
        if fmt == "machine":
            largest = dim**max_arity
        elif dim == 1:
            largest = n_checks * max_arity
        else:
            # dim + dim**2 + ... + dim**max_arity, in closed form
            largest = n_checks * (dim ** (max_arity + 1) - dim) // (dim - 1)
        if largest < 10**limit:
            return
    raise _unprintable(f"--max-arity {max_arity}: the {fmt} report", limit)


def _stream(report: Report) -> Stream:
    """A held report as a stream, its bound unknown."""
    head = (report.structure, report.convention, report.max_arity, report.passed)
    cells = ((r.check, r.arity, r.words, len(r.failures), r.failures) for r in report.checks)
    return head, None, cells


def _pieces(stream: Stream, format: str) -> Iterable[str]:
    """The stream in ``format`` in pieces, refused before the first if unprintable.

    ``str()`` refuses an int of at least ``10**_digit_limit()`` in absolute
    value.  Below that bound the cells stream as they come; otherwise the
    report is rendered whole first, so that ``str()`` itself checks every
    integer it prints before the one piece is returned.
    """
    if format not in ("text", "machine"):
        raise InputError(f"unknown report format {format!r}")
    head, bound, cells = stream
    pieces = _machine(head, cells) if format == "machine" else _text(head, cells)
    limit = _digit_limit()
    if limit and (bound is None or bound >= 10**limit):
        try:
            return ["".join(pieces)]
        except ValueError as exc:
            if "integer string conversion" not in str(exc):
                raise  # not the digit refusal: a bug, which must not exit 2
            raise _unprintable("the report", limit) from None
    return pieces


def _utf8(pieces: Iterable[str]) -> Iterator[bytes]:
    """UTF-8 whatever the locale; a file name that is not UTF-8 as its own bytes."""
    return (piece.encode("utf-8", "surrogateescape") for piece in pieces)


def emit_report(report: Report, format: str = "text") -> bytes:
    """Render a whole report as bytes: ``text`` for humans, ``machine`` for tools.

    Both renderings are deterministic (no timestamps, fixed ordering), so
    re-emission of the same report is byte-identical.  An integer with more
    digits than ``sys.get_int_max_str_digits()`` allows raises ``InputError``.
    """
    return b"".join(_utf8(_pieces(_stream(report), format)))
