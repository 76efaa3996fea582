"""The sweeps: every basis word of each (check, arity) cell is certified.

The per-word defect functions in ``engine`` are the reference
implementation.  ``verify_structure`` owns the whole A-infinity run: it
validates the request, snapshots the maps, sums the terms of each arity's
identities, collects the nonzero defects, and turns them into report
records in a deterministic order.  No sweep visits every word; each walks
what the supports of the maps can reach.  Both A-infinity sweeps walk the
(outer entry, position, inner entry) triples of the tables once, in
``_top_sums``, adding each term straight into the sum of the word it
belongs to, one first letter at a time (the coderivation sweep assembles
its other defects from the one-letter parts found there, see
``_sweep_one``).  The ``linfty`` sweep symmetrizes the pass-signed top
sums of the primed tables (``linfty.verify_linfty``).  Every other word is
zero by construction, so each record still certifies all ``dim**n`` words;
``_to_record`` builds the records of all three.

All three sweeps run on Python ints.  Each check scales every table
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
from typing import Callable, Iterator

from .engine import AStructure, Tables
from .errors import InputError
from .graded import GradedSpace, Vector, Word
from .report import CheckRecord, Failure, Report
from .signs import _alpha_parity, _pass_parity

# a failure as raw data: (input word, [(defect word, coefficient), ...])
RawFailure = tuple[Word, list[tuple[Word, Fraction]]]


def active_backend() -> str:
    """The sweep implementation in use; there is only the pure one."""
    return "pure"


def _top_sums(
    tables: Tables, degrees: tuple[int, ...], n: int, rule: Callable[..., int]
) -> Iterator[tuple[Word, dict[int, int]]]:
    """The nonzero top sums at the arity-n words, one first letter at a time.

    The top sum at x is sum +- m_{n-k+1}(x[:lam] + m_k(x[lam:lam+k]) + x[lam+k:]).
    Each of its terms is one (u, lam, v) triple: u an entry of m_{n-k+1},
    v one of m_k whose output holds b = u[lam], and x = u[:lam] + v + u[lam+1:].
    The walk adds +-c_v[b] * m(u) straight into x's sum, so only the
    triples are visited; every other word's sum is empty.
    ``rule(k, lam, n, degree sum of x[:lam])`` is the parity of the sign:
    ``_alpha_parity`` gives the direct identity on unprimed tables and
    ``_pass_parity`` the one-letter part of D(D(x)) on primed tables.

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
        block: dict[Word, dict[int, int]] = {}
        for k, by_output, inner_by_first, outer_by_first in levels:
            # lam = 0: x = v + u[1:]
            negate = rule(k, 0, n, 0)
            for v, b, c in inner_by_first.get(a, ()):
                if negate:
                    c = -c
                for u, uvec in outer_by_first.get(b, ()):
                    x = v + u[1:]
                    acc = block.get(x)
                    if acc is None:
                        acc = block[x] = {}
                    for b2, c2 in uvec.items():
                        acc[b2] = acc.get(b2, 0) + c * c2
            # lam >= 1: x = u[:lam] + v + u[lam+1:], prefix degree sum s
            for u, uvec in outer_by_first.get(a, ()):
                s = degrees[a]
                for lam in range(1, len(u)):
                    negate = rule(k, lam, n, s)
                    pre, suf = u[:lam], u[lam + 1 :]
                    for v, c in by_output.get(u[lam], ()):
                        if negate:
                            c = -c
                        x = pre + v + suf
                        acc = block.get(x)
                        if acc is None:
                            acc = block[x] = {}
                        for b2, c2 in uvec.items():
                            acc[b2] = acc.get(b2, 0) + c * c2
                    s += degrees[u[lam]]
        for x, acc in block.items():
            if top := {b: c for b, c in acc.items() if c}:
                yield x, top


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
) -> list[RawFailure]:
    """Sweep one (check, arity) cell and return its nonzero defects.

    Both checks take the ``_top_sums`` of the arity: the direct check with
    alpha signs on the unprimed tables, whose nonzero sums are its defects,
    and the coderivation check with pass signs on the primed tables, whose
    nonzero sums are the one-letter parts R(x) of D(D(x)).  D(D(.)) is again
    a coderivation, of even degree, so at a word P + x + S it is the sum
    over the windows x of P + R(x) + S, with no sign.  So the coderivation
    check adds each nonzero R(x) of this arity to ``windows``, the bad
    windows of one check's lower arities, and assembles every defect from
    the placements of all of them.  Any other ``check`` runs the direct
    one, which adds no window; each check of ``verify_structure`` starts
    from an empty ``windows``.

    ``tables`` are the integer tables of ``_scaled_tables`` with their
    ``scale``; tables above ``arity`` are ignored.  The defects of the
    failing words are divided back by ``scale**2``.
    """
    degrees = structure.space.degrees
    defects: dict[Word, dict[Word, int]] = {}
    if check == "coderivation":
        windows.update(_top_sums(tables, degrees, arity, _pass_parity))
    else:
        for x, top in _top_sums(tables, degrees, arity, _alpha_parity):
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
    Both checks sum only the terms built from an outer and an inner table
    entry, into the words those build; the coderivation check sums the
    other words' squares from the one-letter sums found there.  At every
    other word each term is zero, so all words are still certified.  The
    report ordering is deterministic.
    """
    if max_arity < 1:
        raise InputError("max_arity must be >= 1")
    checks = {"direct": ["direct"], "coderivation": ["coderivation"],
              "both": ["direct", "coderivation"]}.get(mode)
    if checks is None:
        raise InputError(f"unknown mode {mode!r}")
    snap = s.snapshot(max_arity)
    records = []
    for check in checks:
        structure = snap.unprimed_version() if check == "direct" else snap.primed_version()
        tables, scale = _scaled_tables(structure, max_arity)
        windows: dict[Word, Vector] = {}
        for arity in range(1, max_arity + 1):
            failures = _sweep_one(structure, check, arity, windows, tables, scale)
            records.append(_to_record(structure.space, check, arity, failures))
    return Report(
        structure=s.name,
        convention=s.space.convention,
        max_arity=max_arity,
        checks=tuple(records),
    )
