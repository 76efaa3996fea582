"""The line-oriented structure-file format.

The format is deliberately plain text so that signs and words can be read
off against a table by eye:

    # comment lines and blank lines are ignored
    ainfty v1
    convention cochain
    basis v1 0
    basis v2 0
    basis w 1
    map 1: v1 -> 1 w
    map 2: v1 w -> 1 w
    map 2: v1 v2 -> 1 v1 + -2/3 w

Sections must appear in this order: the header line, the convention line,
one or more basis lines, then any number of map lines.  Coefficients are
integers or ``p/q`` rationals; every integer (coefficient part, degree or
arity) is ASCII ``[+-]?[0-9]+``.  A basis name holds no whitespace, ``#``,
``+`` or ``->``, which the map lines use as separators, and no ``,``,
which separates the letters of a word on the command line and in text
reports.  A file declaring
``convention chain`` has its degrees negated on the way in (and back on
the way out), so the engine always runs one internal convention.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .engine import AStructure, MultiMap
from .errors import InputError, ParseError
from .graded import BasisElement, GradedSpace, Vector, Word

HEADER = "ainfty v1"


_INT = re.compile(r"[+-]?[0-9]+")


def _int(token: str) -> int:
    """``int(token)`` for ASCII ``[+-]?[0-9]+`` only.

    ``int()`` alone also reads ``1_0`` as 10 and accepts any Unicode
    decimal digit; this raises ``ValueError`` on those instead.
    """
    if not _INT.fullmatch(token):
        raise ValueError(token)
    return int(token)


def _name_error(name: str) -> str | None:
    """Why a basis name cannot be written on a map line, or None if it can."""
    if any(ch.isspace() or ch in "#+," for ch in name) or "->" in name:
        return f"basis name {name!r} contains whitespace, '#', '+', ',' or '->'"
    return None


def _parse_coeff(token: str, lineno: int) -> Fraction:
    num, slash, den = token.partition("/")
    try:
        return Fraction(_int(num), _int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed rational {token!r}", lineno) from None


def parse_structure(text: str, name: str = "structure") -> AStructure:
    """Parse structure-file text; raises ParseError with the offending line."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise ParseError("empty file", 1)

    pos = 0
    lineno, line = lines[pos]
    if line != HEADER:
        raise ParseError(f"expected header {HEADER!r}", lineno)
    pos += 1

    if pos >= len(lines):
        raise ParseError("missing convention line", lineno)
    lineno, line = lines[pos]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "convention" or parts[1] not in ("cochain", "chain"):
        raise ParseError("expected 'convention cochain' or 'convention chain'", lineno)
    convention = parts[1]
    pos += 1

    elements = []
    while pos < len(lines) and lines[pos][1].split()[0] == "basis":
        lineno, line = lines[pos]
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected 'basis <name> <integer-degree>'", lineno)
        try:
            degree = _int(parts[2])
        except ValueError:
            raise ParseError(f"malformed degree {parts[2]!r}", lineno) from None
        if convention == "chain":
            degree = -degree
        if why := _name_error(parts[1]):
            raise ParseError(why, lineno)
        try:
            elements.append(BasisElement(parts[1], degree))
        except InputError as exc:
            raise ParseError(str(exc), lineno) from None
        pos += 1
    if not elements:
        raise ParseError("expected at least one basis line", lines[pos - 1][0] if pos else 1)
    try:
        space = GradedSpace(tuple(elements), convention=convention)
    except InputError as exc:
        raise ParseError(str(exc), lines[pos - 1][0]) from None

    tables: dict[int, dict[Word, Vector]] = {}
    seen: dict[tuple[int, Word], int] = {}
    while pos < len(lines):
        lineno, line = lines[pos]
        if line.split()[0] != "map":
            raise ParseError(f"unexpected line {line!r}", lineno)
        head, colon, rest = line.partition(":")
        if not colon:
            raise ParseError("expected 'map <k>: ...'", lineno)
        parts = head.split()
        if len(parts) != 2:
            raise ParseError("expected 'map <k>: ...'", lineno)
        try:
            arity = _int(parts[1])
        except ValueError:
            raise ParseError(f"malformed arity {parts[1]!r}", lineno) from None
        if arity < 1:
            raise ParseError("map arity must be >= 1", lineno)
        lhs, arrow, rhs = rest.partition("->")
        if not arrow:
            raise ParseError("missing '->'", lineno)
        in_names = lhs.split()
        if len(in_names) != arity:
            raise ParseError(
                f"expected {arity} input names, found {len(in_names)}", lineno
            )
        try:
            word = tuple(space.index(nm) for nm in in_names)
        except InputError as exc:
            raise ParseError(str(exc), lineno) from None
        in_degree = sum(space.degree(i) for i in word)
        vec: dict[int, Fraction] = {}
        for term in rhs.split("+"):
            bits = term.split()
            if len(bits) != 2:
                raise ParseError(
                    f"expected '<coeff> <name>' term, found {term.strip()!r}", lineno
                )
            coeff = _parse_coeff(bits[0], lineno)
            try:
                b = space.index(bits[1])
            except InputError as exc:
                raise ParseError(str(exc), lineno) from None
            if space.degree(b) != in_degree + 2 - arity:
                raise ParseError(
                    f"inhomogeneous entry: output {bits[1]} breaks "
                    f"deg(out) = deg(in) + 2 - k",
                    lineno,
                )
            vec[b] = vec.get(b, Fraction(0)) + coeff
        key = (arity, word)
        if key in seen:
            raise ParseError(
                f"duplicate map entry for {' '.join(in_names)} "
                f"(first on line {seen[key]})",
                lineno,
            )
        seen[key] = lineno
        vec = {b: c for b, c in vec.items() if c}
        if vec:
            tables.setdefault(arity, {})[word] = vec
        pos += 1

    maps = {k: MultiMap(space, k, table) for k, table in tables.items()}
    return AStructure(space, maps=maps, primed=False, name=name)


def serialize_structure(s: AStructure) -> str:
    """Render a finite structure back to file text, exactly and canonically.

    Basis lines follow the space order and map lines are sorted by arity
    then word, so serialization is deterministic; a chain-convention space
    gets its declared (negated-back) degrees.  Generator-backed structures
    exist at every arity and have no finite file form, nor does a space
    with a basis name that the map lines cannot carry.
    """
    if not s.is_finite:
        raise InputError("generator-backed structures cannot be serialized")
    if s.primed:
        raise InputError("only unprimed structures have a file form")
    space = s.space
    sign = -1 if space.convention == "chain" else 1
    lines = [HEADER, f"convention {space.convention}"]
    for el in space.elements:
        if why := _name_error(el.name):
            raise InputError(why)
        lines.append(f"basis {el.name} {sign * el.degree}")
    for arity in s.arities:
        table = s.map_at(arity).table
        for word in sorted(table):
            terms = " + ".join(
                f"{c} {space.name(b)}" for b, c in sorted(table[word].items())
            )
            names = " ".join(space.word_names(word))
            lines.append(f"map {arity}: {names} -> {terms}")
    return "\n".join(lines) + "\n"
