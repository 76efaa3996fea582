"""The sweeps: every basis word of each (check, arity) cell is certified.

The per-word defect functions in ``engine`` are the reference
implementation.  ``verify_structure`` owns the whole A-infinity run: it
validates the request, snapshots the maps, sums the terms of each arity's
identities, collects the nonzero defects, and turns them into report
records in a deterministic order.  No sweep visits every word.  All three
share one walk per arity, ``_top_sums``: it goes over the (outer entry,
position, inner entry) triples of the unprimed tables and adds each signed
term straight into the direct sum S(x) of the word it belongs to, one first
letter at a time.  The direct check reports the nonzero S(x); the
coderivation check places, and the ``linfty`` sweep symmetrizes, the
one-letter parts R(x) = sigma(x) * S(x) of D(D(x)) (``_desuspended``).
Every other word is zero by construction, so each record still certifies
all ``dim**n`` words; ``_to_record`` builds the records of all three.

All three sweeps run on Python ints.  Each run scales every table
coefficient by ``scale``, the lcm of all their denominators
(``_scaled_tables``).  Every term of the direct identity and of D(D(word))
is a product of exactly two coefficients, and symmetrization only adds
such terms with integer weights, so a scaled defect is exactly
``scale**2`` times the true one and is zero exactly when it is.  Only the
defects of failing words are divided back into ``Fraction``s, which reduce
to lowest terms, so the records are the ones the ``Fraction`` oracle
builds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable, Iterator

from .engine import AStructure, Tables
from .errors import InputError
from .graded import GradedSpace, Vector, Word
from .report import CheckRecord, Failure, Report
from .signs import _alpha_parity, _desusp_parity

# a failure as raw data: (input word, [(defect word, coefficient), ...])
RawFailure = tuple[Word, list[tuple[Word, Fraction]]]


def active_backend() -> str:
    """The sweep implementation in use; there is only the pure one."""
    return "pure"


def _top_sums(
    tables: Tables, degrees: tuple[int, ...], n: int
) -> Iterator[tuple[Word, dict[int, int]]]:
    """The nonzero direct sums S(x) at the arity-n words, by first letter.

    S(x) = sum alpha * m_{n-k+1}(x[:lam] + m_k(x[lam:lam+k]) + x[lam+k:]).
    Each of its terms is one (u, lam, v) triple: u an entry of m_{n-k+1},
    v one of m_k whose output holds b = u[lam], and x = u[:lam] + v + u[lam+1:].
    The walk adds +-c_v[b] * m(u) straight into x's sums, one per output
    letter, so only the triples are visited; every other word's sum is empty.

    x starts with v[0] when lam = 0 and with u[0] otherwise, so the triples
    are walked one first letter at a time: each block's sums are yielded
    and dropped before the next, and at most dim**(n-1) words are held.
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
                by_output.setdefault(b, []).append((v, c))
                inner_by_first.setdefault(v[0], []).append((v, b, c))
        outer_by_first: dict[int, list[tuple[Word, Vector]]] = {}
        for u, vec in outer.items():
            outer_by_first.setdefault(u[0], []).append((u, vec))
        levels.append((k, by_output, inner_by_first, outer_by_first))
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
                    for b2, c2 in uvec.items():
                        key = (x, b2)
                        block[key] = get(key, 0) + c * c2
            # lam >= 1: x = u[:lam] + v + u[lam+1:], prefix degree sum s
            for u, uvec in outer_by_first.get(a, ()):
                s = degrees[a]
                for lam in range(1, len(u)):
                    negate = _alpha_parity(k, lam, n, s)
                    pre, suf = u[:lam], u[lam + 1 :]
                    inners = by_output.get(u[lam], ())
                    for b2, c2 in uvec.items():
                        if negate:
                            c2 = -c2
                        for v, c in inners:
                            key = (pre + v + suf, b2)
                            block[key] = get(key, 0) + c * c2
                    s += degrees[u[lam]]
        tops: dict[Word, dict[int, int]] = {}
        for (x, b), c in block.items():
            if c:
                tops.setdefault(x, {})[b] = c
        yield from tops.items()


def _desuspended(
    sums: Iterable[tuple[Word, dict[int, int]]], degrees: tuple[int, ...]
) -> dict[Word, dict[int, int]]:
    """R(x) = sigma(x) * S(x), the one-letter part of D(D(x)) on the primed maps.

    sigma is the desuspension sign by which the transfer signs each entry.
    """
    out = {}
    for x, top in sums:
        if _desusp_parity([degrees[a] for a in x]):
            top = {b: -c for b, c in top.items()}
        out[x] = top
    return out


def _scaled_tables(structure: AStructure, max_arity: int) -> tuple[Tables, int]:
    """The tables of arity 1..max_arity times their common denominator.

    Returns the integer tables and the scale, the lcm of the denominators
    of every coefficient in them.
    """
    tables = structure.tables_up_to(max_arity)
    scale = lcm(
        *{c.denominator for t in tables.values() for vec in t.values() for c in vec.values()}
    )
    scaled = {
        k: {
            w: {b: c.numerator * (scale // c.denominator) for b, c in vec.items()}
            for w, vec in t.items()
        }
        for k, t in tables.items()
    }
    return scaled, scale


def _sweep_one(
    structure: AStructure,
    check: str,
    arity: int,
    windows: dict[Word, Vector],
    tables: Tables,
    scale: int,
    walked: dict[int, list],
) -> list[RawFailure]:
    """Sweep one (check, arity) cell and return its nonzero defects.

    Both checks read the nonzero ``_top_sums`` S(x) of the arity, walked by
    the first cell that needs them and kept in ``walked``.  The direct check
    reports them.  The coderivation check adds each R(x) = sigma(x) * S(x)
    (``_desuspended``), the one-letter part of D(D(x)), to ``windows``, the
    bad windows of its lower arities.  D(D(.)) is again a coderivation, of
    even degree, so at a word P + x + S it is the sum over the windows x of
    P + R(x) + S, with no sign; every defect is assembled from these
    placements.  Any other ``check`` runs the direct one, which adds no
    window; each check of ``verify_structure`` has its own ``windows``.

    ``tables`` are the integer tables of the unprimed ``structure``
    (``_scaled_tables``); tables above ``arity`` are ignored.  The defects
    of the failing words are divided back by ``scale**2``.
    """
    degrees = structure.space.degrees
    sums = walked.get(arity)
    if sums is None:
        sums = walked[arity] = list(_top_sums(tables, degrees, arity))
    defects: dict[Word, dict[Word, int]] = {}
    if check == "coderivation":
        windows.update(_desuspended(sums, degrees))
    else:
        for x, top in sums:
            defects[x] = {(b,): c for b, c in top.items()}
    letters = range(structure.space.dim)
    for x, top in windows.items():
        pad = arity - len(x)
        for i in range(pad + 1):
            for pre in product(letters, repeat=i):
                for suf in product(letters, repeat=pad - i):
                    acc = defects.setdefault(pre + x + suf, {})
                    for b, c in top.items():
                        w = pre + (b,) + suf
                        acc[w] = acc.get(w, 0) + c
    denominator = scale * scale
    failures = []
    for word, acc in defects.items():
        if terms := [(w, Fraction(c, denominator)) for w, c in acc.items() if c]:
            failures.append((word, terms))
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


def verify_structure(s: AStructure, max_arity: int, mode: str = "both") -> Report:
    """Check all basis words of arity 1..max_arity.

    ``mode`` selects the direct identity, the coderivation square, or both.
    Each arity's terms built from an outer and an inner table entry are
    summed once, into the words those build, for every selected check; the
    coderivation check sums the other words' squares from the one-letter
    sums found there.  At every
    other word each term is zero, so all words are still certified.  The
    report ordering is deterministic.
    """
    if max_arity < 1:
        raise InputError("max_arity must be >= 1")
    checks = {"direct": ["direct"], "coderivation": ["coderivation"],
              "both": ["direct", "coderivation"]}.get(mode)
    if checks is None:
        raise InputError(f"unknown mode {mode!r}")
    snap = s.snapshot(max_arity).unprimed_version()
    tables, scale = _scaled_tables(snap, max_arity)
    windows: dict[str, dict[Word, Vector]] = {check: {} for check in checks}
    records = []
    for arity in range(1, max_arity + 1):
        walked: dict = {}  # this arity's top sums, dropped after its cells
        for check in checks:
            failures = _sweep_one(snap, check, arity, windows[check], tables, scale, walked)
            records.append(_to_record(snap.space, check, arity, failures))
    records.sort(key=lambda rec: checks.index(rec.check))  # stable: arities stay in order
    return Report(
        structure=s.name,
        convention=s.space.convention,
        max_arity=max_arity,
        checks=tuple(records),
    )
