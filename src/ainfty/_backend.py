"""The sweeps: every basis word of each (check, arity) cell is certified.

The per-word defect functions in ``engine`` and ``linfty`` are the
reference implementation.  ``_sweep`` is the one driver of all three
checks, behind ``verify_structure``, ``verify_linfty`` and the CLI's
``verify``: it validates the request and walks every arity once on the
scaled maps (phase 1).  Phase 2 is a generator over the (check, arity)
cells, computed from phase 1's read-only lists alone: it yields each
cell as its header and a generator of its failures, which builds them one
at a time, in word order, as they are read.  The library collects that
stream into a ``Report``; the CLI writes each failure as it comes and
holds no report.  No cell visits every word.
The walk, ``_top_sums``, goes over the (outer entry, position, inner
entry) triples of the unprimed tables and adds each signed term straight
into the direct sum S(x) of the word it belongs to, one first letter at a
time.  The sums are keyed by one int per word and output letter, which
each triple finds with one product and one sum from its entries'
base-dim indices, computed once.  The direct cell reports the nonzero
S(x); the coderivation cell places, and linfty's phase 1 symmetrizes, the
one-letter parts R(x) = sigma(x) * S(x) of D(D(x)) (``_desuspended``).
Every other word is zero by construction, so each record still certifies
all ``dim**n`` words.  Every verdict is fixed by phase 1: direct and
coderivation fail exactly when some S(x) is nonzero, since only the
window x itself puts a one-letter defect on x, and linfty exactly when
some Sym(R) is nonzero.  So phase 1 also gives the machine report's
``"pass"``, which comes before the first record, and a bound on every
integer a failure's coefficients print: only when that bound passes
Python's digit limit is a report rendered whole first, before the CLI writes
any of it.

All three sweeps run on Python ints.  ``_indexed`` takes ``scale``, the
lcm of the denominators of every table coefficient, once per run, and
indexes each table entry once, with its coefficients times ``scale``;
every arity's walk reads that one index, which does not outlive phase 1.
Every term of the direct identity and of D(D(word)) is a product of
exactly two coefficients, and symmetrization only adds such terms with
integer weights, so a scaled defect is exactly ``scale**2`` times the
true one and is zero exactly when it is.  Each cell returns only its
failing words, without copying their defects, and ``_to_record`` divides
each failure's defect back into ``Fraction``s, which reduce to lowest
terms, so the records are the ones the ``Fraction`` oracle builds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm
from typing import Iterator, Sequence

from .engine import AStructure, Tables
from .errors import InputError
from .graded import GradedSpace, Word
from .linfty import _symmetrize
from .report import Cell, Failure, Head, Report, _collect, _term_order
from .signs import _alpha_parity, _desusp_parity

# a cell's failing words: input word -> {defect word: scaled coefficient}; the
# direct and linfty defects are one-letter words (b,)
Defects = dict[Word, dict[Word, int]]
# arity k -> (by_first, by_output), m_k's scaled entries (``_indexed``)
Entry = tuple[Word, int, int, list[tuple[int, int]]]
Index = dict[int, tuple[dict[int, list[Entry]], dict[int, list[tuple[int, int]]]]]


def active_backend() -> str:
    """The sweep implementation in use; there is only the pure one."""
    return "pure"


def _top_sums(
    index: Index, degrees: tuple[int, ...], n: int
) -> Iterator[tuple[Word, dict[Word, int]]]:
    """The nonzero direct sums S(x) at the arity-n words, by first letter.

    S(x) = sum alpha * m_{n-k+1}(x[:lam] + m_k(x[lam:lam+k]) + x[lam+k:]).
    Each of its terms is one (u, lam, v) triple: u an entry of m_{n-k+1},
    v one of m_k whose output holds b = u[lam], and x = u[:lam] + v + u[lam+1:].
    The walk adds +-c_v[b] * m(u) straight into x's sums, one per output
    letter, so only the triples are visited; every other word's sum is empty.

    The sum of x at output letter b2 is kept under one int, idx(x) * dim + b2,
    read off the run's ``index`` (``_indexed``).  For lam >= 1 the prefix index
    grows by one letter of u per step and the suffix index is idx(u) mod
    dim**(len(u) - lam - 1), so each triple's key is one product and one sum,
    whatever n is; only the nonzero sums are turned back into words (``_word``).

    x starts with v[0] when lam = 0 and with u[0] otherwise, so the walk
    takes the triples one first letter at a time: the block accumulator holds
    the sums of at most dim**(n-1) words and is dropped before the next block.
    Each block's nonzero sums are yielded, keyed by the one-letter defect
    words (b,), one tuple per letter for the whole walk, and the driver keeps
    those of every arity for the cells.
    """
    dim = len(degrees)
    power = [dim**i for i in range(n + 2)]
    levels = [(k, index[k], index[n - k + 1]) for k in sorted(index) if n - k + 1 in index]
    letter = [(b,) for b in range(len(degrees))]
    firsts = sorted({a for _, (inner, _), (outer, _) in levels for a in (*inner, *outer)})
    for a in firsts:
        block: dict[int, int] = {}
        get = block.get
        for k, (inner, by_output), (outer, _) in levels:
            # lam = 0: x = v + u[1:]
            negate = _alpha_parity(k, 0, n, 0)
            for _, iv, _, vvec in inner.get(a, ()):
                base = iv * power[n - k + 1]
                for b, c in vvec:
                    if negate:
                        c = -c
                    for _, _, tail, uvec in outer.get(b, ()):
                        offset = base + tail
                        for b2, c2 in uvec:
                            key = offset + b2
                            block[key] = get(key, 0) + c * c2
            # lam >= 1: x = u[:lam] + v + u[lam+1:], prefix index pre, degree sum s
            for u, iu, _, uvec in outer.get(a, ()):
                s, pre, m = degrees[a], a, len(u)
                for lam in range(1, m):
                    negate = _alpha_parity(k, lam, n, s)
                    offset = pre * power[n - lam + 1] + iu % power[m - lam - 1] * dim
                    place = power[m - lam]
                    inners = by_output.get(u[lam], ())
                    for b2, c2 in uvec:
                        if negate:
                            c2 = -c2
                        base = offset + b2
                        for iv, c in inners:
                            key = base + iv * place
                            block[key] = get(key, 0) + c * c2
                    s += degrees[u[lam]]
                    pre = pre * dim + u[lam]
        tops: dict[int, dict[Word, int]] = {}
        for key, c in block.items():
            if c:
                tops.setdefault(key // dim, {})[letter[key % dim]] = c
        yield from ((_word(i, dim, n), top) for i, top in tops.items())


def _indexed(tables: Tables, dim: int) -> tuple[int, Index]:
    """The run's scale, and for each arity k the one index of m_k's entries.

    ``scale`` is the lcm of every table coefficient's denominator, and each
    coefficient is indexed times it, so the walk's sums are ``scale**2``
    times the true ones.  ``by_first`` holds each entry w under w[0] as
    (w, idx(w), idx(w[1:]) * dim, [(b, c_w[b]), ...]), for u and for v at
    lam = 0; ``by_output`` holds (idx(w), c_w[b]) under each b, for v at
    lam >= 1.  So each entry gets its base-dim index (``_index``) once.
    """
    scale = lcm(*{c.denominator for t in tables.values() for v in t.values() for c in v.values()})
    index: Index = {}
    for k, table in tables.items():
        by_first, by_output = index[k] = {}, {}
        for w, vec in table.items():
            iw = _index(w, dim)
            scaled = [(b, c.numerator * (scale // c.denominator)) for b, c in vec.items()]
            by_first.setdefault(w[0], []).append((w, iw, _index(w[1:], dim) * dim, scaled))
            for b, c in scaled:
                by_output.setdefault(b, []).append((iw, c))
    return scale, index


def _index(w: Word, dim: int) -> int:
    """The base-``dim`` index of the word w, its first letter the most significant."""
    i = 0
    for b in w:
        i = i * dim + b
    return i


def _word(i: int, dim: int, n: int) -> Word:
    """The arity-n word whose ``_index`` is i."""
    letters = []
    for _ in range(n):
        i, b = divmod(i, dim)
        letters.append(b)
    return tuple(reversed(letters))


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
    no sign; every defect is assembled from these placements.  With no
    window below the arity, each window is the whole word it sits on, no two
    placements meet and nothing cancels, so the arity's windows are returned
    as they are.  Otherwise the dicts are this cell's own, so the zero terms
    of placements that cancel are dropped in place; nothing the cell is
    handed is written into.
    """
    if check == "direct":
        return sums
    if not any(windows[:-1]):
        return windows[-1]
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
) -> Cell:
    """The cell's record as it streams: its header, then its failures one at a time.

    The failures come in word order, each built only when it is asked for,
    with its defect divided by ``scale**2``.  Every cell keys each defect by
    its defect word; the terms of a defect are in ``_term_order``, as ``d2``
    prints them.  Within the record, equal coefficients share one
    ``Fraction`` and equal defect words one tuple of names.
    """
    denominator = scale * scale
    names = tuple(el.name for el in space.elements)
    fraction = cache(lambda c: Fraction(c, denominator))
    label = cache(lambda dw: tuple(map(names.__getitem__, dw)))

    def failures() -> Iterator[Failure]:
        for word in sorted(defects):
            defect = defects[word]
            terms = tuple((fraction(defect[dw]), label(dw)) for dw in _term_order(defect))
            yield Failure(word=tuple(map(names.__getitem__, word)), defect=terms)

    return check, arity, space.dim**arity, len(defects), failures()


def _sweep(s: AStructure, max_arity: int, mode: str) -> tuple[Head, int, Iterator[Cell]]:
    """Sweep the checks of ``mode`` (``verify_structure``'s, or linfty) over arities 1..max_arity.

    Runs phase 1 and returns the report's head with its verdict, a bound on
    every integer a failure's coefficients print, and phase 2, the generator
    of the cells.  A coderivation coefficient sums at most ``max_arity``
    windows' coefficients, and every denominator divides ``scale**2``.
    """
    if max_arity < 1:
        raise InputError("max_arity must be >= 1")
    unprimed = s.unprimed_version()
    scale, index = _indexed(unprimed.tables_up_to(max_arity), s.space.dim)
    degrees, arities = s.space.degrees, range(1, max_arity + 1)
    # phase 1, by arity n at index n - 1: the sums S and the bad windows R
    sums = [dict(_top_sums(index, degrees, n)) for n in arities]
    windows = [_desuspended(top, degrees) for top in sums]
    if mode == "linfty":
        # Symmetrization carries the Gerstenhaber bracket to the
        # Nijenhuis-Richardson bracket (Lada-Markl), so the Jacobi defect
        # of l = Sym(m') is Sym(R); its cells report these sums
        sums = [_symmetrize(r, [d - 1 for d in degrees]) for r in windows]
    largest = max((abs(c) for top in sums for t in top.values() for c in t.values()), default=0)

    def cell(check: str, n: int) -> Defects:
        if check == "linfty":
            return sums[n - 1]
        return _sweep_one(unprimed, check, n, sums[n - 1], windows[:n])

    # phase 2, check by check; no cell's defects outlive its failures
    checks = ("direct", "coderivation") if mode == "both" else (mode,)
    cells = (_to_record(s.space, c, n, cell(c, n), scale) for c in checks for n in arities)

    head = (s.name, s.space.convention, max_arity, not any(sums))
    return head, max(max_arity * largest, scale * scale), cells


def verify_structure(s: AStructure, max_arity: int, mode: str = "both") -> Report:
    """Check all basis words of arity 1..max_arity.

    ``mode`` selects the direct identity (``direct``), the coderivation
    square (``coderivation``) or both (``both``), swept by ``_sweep``.
    """
    if mode not in ("direct", "coderivation", "both"):
        raise InputError(f"unknown mode {mode!r}")
    head, _, cells = _sweep(s, max_arity, mode)
    return _collect(head, cells)


def verify_linfty(s: AStructure, max_arity: int) -> Report:
    """Sweep the Jacobi relations of the symmetrized maps over arities 1..max_arity."""
    head, _, cells = _sweep(s, max_arity, "linfty")
    return _collect(head, cells)
