r"""The line-oriented structure-file format.

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
one or more basis lines, then any number of map lines.  Lines end only at
``\n``, ``\r\n`` or ``\r``, as in a file read in text mode.  Degrees and
arities are ASCII ``[+-]?[0-9]+``.  Coefficients are integers or ``p/q``
rationals whose parts are ASCII ``-?[0-9]+``: ``+`` separates terms, so no
part can carry it.  A basis name holds no whitespace, ``#``, ``+`` or
``->``, which the map lines use as separators, and no ``,``, which
separates the letters of a word on the command line and in text reports.
A file declaring ``convention chain`` has its degrees negated on the way
in (and back on the way out), so the engine always runs one internal
convention.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator

from .engine import AStructure, MultiMap
from .errors import InputError, ParseError
from .graded import CONVENTIONS, BasisElement, GradedSpace, Vector, Word

HEADER = "ainfty v1"
_INT = re.compile(r"[+-]?[0-9]+")
# the line ends that open() reads in text mode; str.splitlines() would also
# end a line at U+2028, a form feed and six other characters
_LINE_END = re.compile(r"\r\n?|\n")
_CONVENTION_LINES = {f"convention {c}": c for c in CONVENTIONS}


def _int(token: str) -> int | None:
    """``int(token)`` for ASCII ``[+-]?[0-9]+`` only, else None.

    ``int()`` alone also reads ``1_0`` as 10 and accepts any Unicode
    decimal digit; past ``sys.get_int_max_str_digits()`` it raises.
    """
    try:
        return int(token) if _INT.fullmatch(token) else None
    except ValueError:
        return None


def _name_error(name: str) -> str | None:
    """Why a basis name cannot be written on a map line, or None if it can."""
    if any(ch.isspace() or ch in "#+," for ch in name) or "->" in name:
        return f"basis name {name!r} contains whitespace, '#', '+', ',' or '->'"
    return None


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Number and content of each line that is not blank once its comment is cut."""
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _basis_element(line: str, convention: str) -> BasisElement:
    parts = line.split()
    if len(parts) != 3:
        raise InputError("expected 'basis <name> <integer-degree>'")
    _, name, token = parts
    degree = _int(token)
    if degree is None:
        raise InputError(f"malformed degree {token!r}")
    if why := _name_error(name):
        raise InputError(why)
    return BasisElement(name, -degree if convention == "chain" else degree)


def _space(basis: dict[str, BasisElement], convention: str) -> GradedSpace:
    if not basis:
        raise InputError("expected at least one basis line")
    return GradedSpace(tuple(basis.values()), convention=convention)


def _coeff(token: str) -> Fraction:
    num, slash, den = token.partition("/")
    p, q = _int(num), _int(den) if slash else 1
    if p is None or not q:
        raise InputError(f"malformed rational {token!r}")
    return Fraction(p, q)


def _map_entry(
    line: str, space: GradedSpace, coeff: Callable[[str], Fraction]
) -> tuple[Word, Vector]:
    """The input word of a map line and its output, zero terms dropped.

    ``coeff`` reads a coefficient token (``_coeff``, memoized per file); a
    term is added to the one before it only when its output letter repeats.
    """
    if line.split()[0] != "map":
        raise InputError(f"unexpected line {line!r}")
    head, colon, rest = line.partition(":")
    parts = head.split()
    if not colon or len(parts) != 2:
        raise InputError("expected 'map <k>: ...'")
    arity = _int(parts[1])
    if arity is None:
        raise InputError(f"malformed arity {parts[1]!r}")
    if arity < 1:
        raise InputError("map arity must be >= 1")
    lhs, arrow, rhs = rest.partition("->")
    if not arrow:
        raise InputError("missing '->'")
    in_names = lhs.split()
    if len(in_names) != arity:
        raise InputError(f"expected {arity} input names, found {len(in_names)}")
    word = tuple(space.index(nm) for nm in in_names)
    out_degree = sum(space.degree(i) for i in word) + 2 - arity
    vec: dict[int, Fraction] = {}
    for term in rhs.split("+"):
        bits = term.split()
        if len(bits) != 2:
            raise InputError(f"expected '<coeff> <name>' term, found {term.strip()!r}")
        c = coeff(bits[0])
        b = space.index(bits[1])
        if space.degree(b) != out_degree:
            raise InputError(
                f"inhomogeneous entry: output {bits[1]} breaks deg(out) = deg(in) + 2 - k"
            )
        vec[b] = vec[b] + c if b in vec else c
    return word, {b: c for b, c in vec.items() if c}


def parse_structure(text: str, name: str = "structure") -> AStructure:
    """Parse structure-file text; raises ParseError with the offending line."""
    header = False
    convention = space = None
    basis: dict[str, BasisElement] = {}
    tables: dict[int, dict[Word, Vector]] = {}
    first_line: dict[Word, int] = {}
    coeff = cache(_coeff)  # one Fraction per distinct token of this file
    lineno = 1
    try:
        for lineno, line in _content_lines(text):
            if not header:
                if line != HEADER:
                    bom = text.startswith("\ufeff")
                    why = "; the file starts with a byte-order mark (U+FEFF)" if bom else ""
                    raise InputError(f"expected header {HEADER!r}{why}")
                header = True
            elif convention is None:
                convention = _CONVENTION_LINES.get(" ".join(line.split()))
                if convention is None:
                    raise InputError("expected " + " or ".join(map(repr, _CONVENTION_LINES)))
            elif space is None and line.split()[0] == "basis":
                element = _basis_element(line, convention)
                if element.name in basis:
                    raise InputError(f"duplicate basis name {element.name!r}")
                basis[element.name] = element
            else:
                if space is None:
                    space = _space(basis, convention)
                word, vec = _map_entry(line, space, coeff)
                if word in first_line:
                    raise InputError(
                        f"duplicate map entry for {' '.join(space.word_names(word))} "
                        f"(first on line {first_line[word]})"
                    )
                first_line[word] = lineno
                if vec:
                    tables.setdefault(len(word), {})[word] = vec
        if convention is None:
            raise InputError("missing convention line" if header else "empty file")
        if space is None:
            space = _space(basis, convention)
    except InputError as exc:
        raise ParseError(str(exc), lineno) from None

    # the parser's checks, stricter than MultiMap's, have passed every entry
    maps = {k: MultiMap._raw(space, k, table, False) for k, table in tables.items()}
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
