"""The sweeps: every basis word of each (check, arity) cell is certified.

The per-word defect functions in ``engine`` are the reference
implementation.  ``verify_structure`` owns the whole A-infinity run: it
validates the request, snapshots the maps, runs their raw cores over the
words of each arity, collects the nonzero defects, and turns them into
report records in a deterministic order.  Every sweep evaluates only the
words that the supports of the maps can reach, all built by ``_splices``:
both A-infinity sweeps the candidates of ``_direct_candidates`` (the
coderivation sweep assembles its other defects from the one-letter parts
found there, see ``_sweep_one``), and the ``linfty`` sweep their sorted
images on the symmetrized tables (``linfty.verify_linfty``).  Every other
word is zero by construction, so each record still certifies all
``dim**n`` words; ``_to_record`` builds the records of all three.

Both sweeps run on Python ints.  Each check scales every table coefficient
by ``scale``, the lcm of all their denominators (``_scaled_tables``).
Every term of the direct identity and of D(D(word)) is a product of exactly
two coefficients, so a scaled defect is exactly ``scale**2`` times the true
one and is zero exactly when it is.  Only the defects of failing words are
divided back into ``Fraction``s, which reduce to lowest terms, so the
records are the ones the ``Fraction`` oracle builds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable, Iterator

from .engine import AStructure, Tables, _d_squared_raw, _stasheff_vec
from .errors import InputError
from .graded import GradedSpace, Vector, Word
from .report import CheckRecord, Failure, Report

# a failure as raw data: (input word, [(defect word, coefficient), ...])
RawFailure = tuple[Word, list[tuple[Word, Fraction]]]


def active_backend() -> str:
    """The sweep implementation in use; there is only the pure one."""
    return "pure"


def _splices(tables: Tables, n: int) -> tuple[int, Iterator[Word]]:
    """The words u[:lam] + v + u[lam+1:] of arity n, lazily, and their count.

    u is an entry of the table of arity n - k + 1 and v one of arity k whose
    output contains u[lam].  The (u, lam, v) triples are counted up front;
    a word is yielded once per triple that builds it.
    """
    pairs = []
    triples = 0
    for k in range(1, n + 1):
        inner, outer = tables.get(k), tables.get(n - k + 1)
        if not inner or not outer:
            continue
        by_letter: dict[int, list[Word]] = {}
        for v, vec in inner.items():
            for b in vec:
                by_letter.setdefault(b, []).append(v)
        for u in outer:
            for letter in u:
                triples += len(by_letter.get(letter, ()))
        pairs.append((outer, by_letter))
    words = (
        u[:lam] + v + u[lam + 1 :]
        for outer, by_letter in pairs
        for u in outer
        for lam, letter in enumerate(u)
        for v in by_letter.get(letter, ())
    )
    return triples, words


def _direct_candidates(tables: Tables, space: GradedSpace, n: int) -> Iterable[Word]:
    """The arity-n words at which the direct identity can be nonzero.

    A term of the identity at a word x pairs an inner entry v = x[lam:lam+k]
    of m_k with an outer entry u = x[:lam] + (b,) + x[lam+k:] of m_{n-k+1},
    where b is a letter of v's output, so x is a splice of u and v.  At any
    other word every term meets an absent table entry.  On primed tables
    these are the words where the one-letter part of D(D(x)) can be
    nonzero, so both A-infinity sweeps evaluate exactly these words.

    When the triples number at least dim**n (dense tables), building the
    set would take at least as many steps as iterating every word, so all
    words are iterated lazily instead; the extra words are zero.
    """
    triples, splices = _splices(tables, n)
    if triples >= space.dim**n:
        return space.basis_words(n)
    return set(splices)


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

    Both checks evaluate their core only at the ``_direct_candidates``.
    D(D(.)) is again a coderivation, of even degree, so at a word
    P + x + S it is the sum over the windows x of P + R(x) + S, with no
    sign, where R(x) is the one-letter part of D(D(x)), nonzero only at a
    candidate.  So the coderivation check adds each nonzero R(x) of this
    arity to ``windows``, the bad windows of one check's lower arities,
    and assembles every defect from the placements of all of them.  Any
    other ``check`` runs the direct one, which adds no window; each check
    of ``verify_structure`` starts from an empty ``windows``.

    ``tables`` are the integer tables of ``_scaled_tables`` with their
    ``scale``; tables above ``arity`` are ignored.  The defects of the
    failing words are divided back by ``scale**2``.
    """
    degrees = structure.space.degrees
    defects: dict[Word, dict[Word, int]] = {}
    for word in _direct_candidates(tables, structure.space, arity):
        if check == "coderivation":
            d2 = _d_squared_raw(tables, degrees, word)
            if top := {w[0]: c for w, c in d2.items() if len(w) == 1}:
                windows[word] = top
        elif vec := _stasheff_vec(tables, degrees, word):
            defects[word] = {(b,): c for b, c in vec.items()}
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
    Both checks evaluate only the words built from an outer and an inner
    table entry; the coderivation check sums the other words' squares from
    the one-letter terms found there.  At every other word each term is
    zero, so all words are still certified.  The report ordering is
    deterministic.
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
