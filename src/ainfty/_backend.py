"""The sweeps: every basis word of each (check, arity) cell is certified.

The per-word defect functions in ``engine`` and ``linfty`` are the
reference implementation.  ``_sweep`` is the one driver of all three
checks, behind ``verify_structure`` and ``verify_linfty``: it validates
the request, walks every arity once on the scaled maps (phase 1), and
only then builds one report record per (check, arity) cell (phase 2),
from phase 1's read-only lists alone.  No cell visits every word.
The walk, ``_top_sums``, goes over the (outer entry, position, inner
entry) triples of the unprimed tables and adds each signed term straight
into the direct sum S(x) of the word it belongs to, one first letter at a
time.  The direct cell reports the nonzero S(x); the coderivation cell
places, and the linfty cell symmetrizes, the one-letter parts
R(x) = sigma(x) * S(x) of D(D(x)) (``_desuspended``).  Every other word
is zero by construction, so each record still certifies all ``dim**n``
words.  Every verdict is fixed by phase 1: direct and coderivation fail
exactly when some S(x) is nonzero, since only the window x itself puts a
one-letter defect on x, and linfty exactly when some Sym(R) is nonzero.

All three sweeps run on Python ints.  ``_sweep`` takes ``scale``, the
lcm of the denominators of every table coefficient, once per run, and
each walk indexes the entries of its arity with their coefficients times
``scale``; no scaled copy of the tables outlives the walk.  Every term of
the direct identity and of D(D(word)) is a product of exactly two
coefficients, and symmetrization only adds such terms with integer
weights, so a scaled defect is exactly ``scale**2`` times the true one and
is zero exactly when it is.  Each cell returns only its failing words,
without copying their defects, and ``_to_record`` divides the defects
back into ``Fraction``s, which reduce to lowest terms, so the records are
the ones the ``Fraction`` oracle builds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import factorial, lcm, prod
from typing import Iterator, Mapping, Sequence

from .engine import AStructure, Tables
from .errors import InputError
from .graded import GradedSpace, Vector, Word
from .report import CheckRecord, Failure, Report
from .signs import _alpha_parity, _desusp_parity, pass_operator_sign

# a cell's failing words: input word -> {defect word: scaled coefficient}; the
# direct and linfty defects are one-letter words (b,)
Defects = dict[Word, dict[Word, int]]


def active_backend() -> str:
    """The sweep implementation in use; there is only the pure one."""
    return "pure"


def _top_sums(
    tables: Tables, scale: int, degrees: tuple[int, ...], n: int
) -> Iterator[tuple[Word, dict[Word, int]]]:
    """The nonzero direct sums S(x) at the arity-n words, by first letter.

    S(x) = sum alpha * m_{n-k+1}(x[:lam] + m_k(x[lam:lam+k]) + x[lam+k:]).
    Each of its terms is one (u, lam, v) triple: u an entry of m_{n-k+1},
    v one of m_k whose output holds b = u[lam], and x = u[:lam] + v + u[lam+1:].
    The walk adds +-c_v[b] * m(u) straight into x's sums, one per output
    letter, so only the triples are visited; every other word's sum is empty.

    x starts with v[0] when lam = 0 and with u[0] otherwise, so the walk
    takes the triples one first letter at a time: the block accumulator holds
    the sums of at most dim**(n-1) words and is dropped before the next block.
    Each block's nonzero sums are yielded, keyed by the one-letter defect
    words (b,), one tuple per letter for the whole walk, and the driver keeps
    those of every arity for the cells.  The ``Fraction`` coefficients of the
    entries are indexed as ints times ``scale``, a multiple of every
    denominator, so the sums are ``scale**2`` times the true ones.
    """
    levels = []
    for k in range(1, n + 1):
        inner, outer = tables.get(k), tables.get(n - k + 1)
        if not inner or not outer:
            continue
        # (v, c_v[b]) by output letter b, and (v, b, c_v[b]) by v[0]
        by_output: dict[int, list[tuple[Word, int]]] = {}
        inner_by_first: dict[int, list[tuple[Word, int, int]]] = {}
        for v, vec in inner.items():
            for b, c in vec.items():
                c = c.numerator * (scale // c.denominator)
                by_output.setdefault(b, []).append((v, c))
                inner_by_first.setdefault(v[0], []).append((v, b, c))
        # (u, [(b2, c_u[b2]), ...]) by u[0]
        outer_by_first: dict[int, list[tuple[Word, list[tuple[int, int]]]]] = {}
        for u, vec in outer.items():
            scaled = [(b, c.numerator * (scale // c.denominator)) for b, c in vec.items()]
            outer_by_first.setdefault(u[0], []).append((u, scaled))
        levels.append((k, by_output, inner_by_first, outer_by_first))
    letter = [(b,) for b in range(len(degrees))]
    firsts = sorted({a for level in levels for a in (*level[2], *level[3])})
    for a in firsts:
        block: dict[tuple[Word, int], int] = {}
        get = block.get
        for k, by_output, inner_by_first, outer_by_first in levels:
            # lam = 0: x = v + u[1:]
            negate = _alpha_parity(k, 0, n, 0)
            for v, b, c in inner_by_first.get(a, ()):
                if negate:
                    c = -c
                for u, uvec in outer_by_first.get(b, ()):
                    x = v + u[1:]
                    for b2, c2 in uvec:
                        key = (x, b2)
                        block[key] = get(key, 0) + c * c2
            # lam >= 1: x = u[:lam] + v + u[lam+1:], prefix degree sum s
            for u, uvec in outer_by_first.get(a, ()):
                s = degrees[a]
                for lam in range(1, len(u)):
                    negate = _alpha_parity(k, lam, n, s)
                    pre, suf = u[:lam], u[lam + 1 :]
                    inners = by_output.get(u[lam], ())
                    for b2, c2 in uvec:
                        if negate:
                            c2 = -c2
                        for v, c in inners:
                            key = (pre + v + suf, b2)
                            block[key] = get(key, 0) + c * c2
                    s += degrees[u[lam]]
        tops: dict[Word, dict[Word, int]] = {}
        for (x, b), c in block.items():
            if c:
                tops.setdefault(x, {})[letter[b]] = c
        yield from tops.items()


def _desuspended(sums: Defects, degrees: tuple[int, ...]) -> Defects:
    """R(x) = sigma(x) * S(x), the one-letter part of D(D(x)) on the primed maps.

    sigma is the desuspension sign by which the transfer signs each entry.
    Where sigma(x) = +1, R(x) is S(x) itself, the same dict.
    """
    out = {}
    for x, top in sums.items():
        if _desusp_parity([degrees[a] for a in x]):
            top = {w: -c for w, c in top.items()}
        out[x] = top
    return out


def _signed_rearrangements(w: Word, ddegs: Sequence[int]) -> Iterator[tuple[Word, int]]:
    """The distinct rearrangements y of w in lexicographic order, with their signs.

    y is built one letter b at a time, always from the first copy of b
    left in w, so equal letters keep their order.  That copy passes the
    letters still left in front of it, and the sign gains
    ``pass_operator_sign`` of b's degree against their degree sum: the
    Koszul sign of the one sigma with y[i] = w[sigma[i]] that keeps equal
    letters in order.  An explicit stack, not recursion, so any length works.
    """
    stack = [((), tuple(w), 1)]
    while stack:
        y, rest, sign = stack.pop()
        if not rest:
            yield y, sign
            continue
        for b in sorted(set(rest), reverse=True):  # the smallest pops first
            i = rest.index(b)
            passed = sum(ddegs[a] for a in rest[:i])
            step = pass_operator_sign(ddegs[b], passed)
            stack.append((y + (b,), rest[:i] + rest[i + 1 :], sign * step))


def _symmetrize(table: Mapping[Word, Vector], ddegs: Sequence[int]) -> dict[Word, Vector]:
    """Sum a map over all Koszul-signed permutations of its inputs.

    l(y) is the sum over permutations sigma of sign(sigma, y) * m(sigma . y),
    where letter i of y moves to position sigma[i] and ``ddegs`` are the
    desuspended letter degrees.  A term is nonzero only when sigma . y is a
    table entry w, so the sum runs over table entries and their distinct
    rearrangements y, each listed once with the sign of one sigma by
    ``_signed_rearrangements``.  The permutations taking y to w differ by
    swaps of equal letters; such a swap costs the square of the letter's
    degree.  So an entry that repeats a letter of odd degree cancels, and
    otherwise each y gets the stabilizer size (the product of the letter
    multiplicities' factorials) times that sign.  Coefficients may be ints
    or ``Fraction``s; the nonzero values are returned.
    """
    out: dict[Word, Vector] = {}
    for w, vec in table.items():
        odd = [b for b in w if ddegs[b] % 2]
        if len(odd) != len(set(odd)):
            continue
        stabilizer = prod(factorial(w.count(b)) for b in set(w))
        for y, sign in _signed_rearrangements(w, ddegs):
            acc = out.setdefault(y, {})
            for b, c in vec.items():
                acc[b] = acc.get(b, 0) + stabilizer * sign * c
    pruned = {y: {b: c for b, c in acc.items() if c} for y, acc in out.items()}
    return {y: acc for y, acc in pruned.items() if acc}


def _sweep_one(
    structure: AStructure,
    check: str,
    arity: int,
    sums: Defects,
    windows: Sequence[Defects],
) -> Defects:
    """Sweep one A-infinity (check, arity) cell and return its nonzero defects.

    ``check`` is ``direct`` or ``coderivation``, and ``sums`` are the
    nonzero scaled ``_top_sums`` S(x) of the arity on the tables of the
    unprimed ``structure``.  The direct check returns them as they are.  The
    coderivation check places ``windows``, one dict per arity 1..arity of
    the bad windows R(x) = sigma(x) * S(x) (``_desuspended``), the one-letter
    part of D(D(x)).  D(D(.)) is again a coderivation, of even degree, so at a
    word P + x + S it is the sum over the windows x of P + R(x) + S, with
    no sign; every defect is assembled from these placements.  Their dicts
    are this cell's own, so the zero terms of placements that cancel are
    dropped in place; nothing the cell is handed is written into.
    """
    if check == "direct":
        return sums
    defects: Defects = {}
    letters = range(structure.space.dim)
    for x, top in (item for level in windows for item in level.items()):
        pad = arity - len(x)
        for i in range(pad + 1):
            for pre in product(letters, repeat=i):
                for suf in product(letters, repeat=pad - i):
                    acc = defects.setdefault(pre + x + suf, {})
                    for dw, c in top.items():
                        w = pre + dw + suf
                        acc[w] = acc.get(w, 0) + c
    for x in [x for x, acc in defects.items() if 0 in acc.values()]:
        acc = defects[x]
        for w in [w for w, c in acc.items() if not c]:
            del acc[w]
        if not acc:
            del defects[x]
    return defects


def _to_record(
    space: GradedSpace, check: str, arity: int, defects: Defects, scale: int
) -> CheckRecord:
    """The cell's record: failing words in order, defects divided by ``scale**2``.

    Every cell keys each defect by its defect word; the terms of a defect
    are ordered by length, then word.  Within the record, equal
    coefficients share one ``Fraction`` and equal defect words one tuple
    of names.
    """
    denominator = scale * scale
    names = tuple(el.name for el in space.elements)
    fraction = cache(lambda c: Fraction(c, denominator))
    label = cache(lambda dw: tuple(map(names.__getitem__, dw)))
    order = partial(sorted, key=lambda dw: (len(dw), dw))
    recs = []
    for word in sorted(defects):
        defect = defects[word]
        terms = tuple((fraction(defect[dw]), label(dw)) for dw in order(defect))
        recs.append(Failure(word=tuple(map(names.__getitem__, word)), defect=terms))
    return CheckRecord(
        check=check, arity=arity, words=space.dim**arity, failures=tuple(recs)
    )


def _sweep(s: AStructure, max_arity: int, checks: tuple[str, ...]) -> Report:
    """Sweep ``checks`` (direct, coderivation, linfty) over arities 1..max_arity."""
    if max_arity < 1:
        raise InputError("max_arity must be >= 1")
    unprimed = s.unprimed_version()
    tables = unprimed.tables_up_to(max_arity)
    scale = lcm(
        *{c.denominator for t in tables.values() for vec in t.values() for c in vec.values()}
    )
    degrees, arities = s.space.degrees, range(1, max_arity + 1)
    # phase 1, by arity n at index n - 1: the sums S and the bad windows R
    sums = [dict(_top_sums(tables, scale, degrees, n)) for n in arities]
    windows = [_desuspended(top, degrees) for top in sums]

    def cell(check: str, n: int) -> Defects:
        if check == "linfty":
            # Symmetrization carries the Gerstenhaber bracket to the
            # Nijenhuis-Richardson bracket (Lada-Markl), so the Jacobi
            # defect of l = Sym(m') is Sym(R).
            return _symmetrize(windows[n - 1], [d - 1 for d in degrees])
        return _sweep_one(unprimed, check, n, sums[n - 1], windows[:n])

    # phase 2: one record per (check, arity) cell, check by check
    records = (_to_record(s.space, c, n, cell(c, n), scale) for c in checks for n in arities)
    return Report(s.name, s.space.convention, max_arity, tuple(records))


def verify_structure(s: AStructure, max_arity: int, mode: str = "both") -> Report:
    """Check all basis words of arity 1..max_arity.

    ``mode`` selects the direct identity (``direct``), the coderivation
    square (``coderivation``) or both (``both``), swept by ``_sweep``.
    """
    checks = {"direct": ("direct",), "coderivation": ("coderivation",),
              "both": ("direct", "coderivation")}.get(mode)
    if checks is None:
        raise InputError(f"unknown mode {mode!r}")
    return _sweep(s, max_arity, checks)


def verify_linfty(s: AStructure, max_arity: int) -> Report:
    """Sweep the Jacobi relations of the symmetrized maps over arities 1..max_arity."""
    return _sweep(s, max_arity, ("linfty",))
