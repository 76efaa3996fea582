"""The sweeps: every basis word of each (check, arity) cell is certified.

The per-word defect functions in ``engine`` are the reference
implementation.  ``verify_structure`` owns the whole A-infinity run: it
validates the request, snapshots the maps, runs their raw cores over the
words of each arity, collects the nonzero defects, and turns them into
report records in a deterministic order.  Every sweep evaluates only the
words that the supports of the maps can reach, all built by ``_splices``:
the direct sweep the candidates of ``_direct_candidates``, the
coderivation sweep those candidates of the primed tables plus the words
that contain a bad window found at a lower arity (``_sweep_one``), and the
``linfty`` sweep their sorted images on the symmetrized tables
(``linfty.verify_linfty``).
Every other word is zero by construction, so each record still certifies
all ``dim**n`` words; ``_to_record`` builds the records of all three.

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
from .graded import GradedSpace, Word
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


def _direct_candidates(
    tables: Tables, space: GradedSpace, n: int, windows: Iterable[Word] = ()
) -> Iterable[Word]:
    """The arity-n words at which the direct identity can be nonzero.

    A term of the identity at a word x pairs an inner entry v = x[lam:lam+k]
    of m_k with an outer entry u = x[:lam] + (b,) + x[lam+k:] of m_{n-k+1},
    where b is a letter of v's output, so x is a splice of u and v.  At any
    other word every term meets an absent table entry.  On primed tables
    these are the words where the one-letter part of D(D(x)) can be
    nonzero; the coderivation sweep adds every word that contains one of
    its bad ``windows`` (``_sweep_one``).

    When the triples number at least dim**n (dense tables), building the
    set would take at least as many steps as iterating every word, so all
    words are iterated lazily instead; the extra words are zero.
    """
    triples, splices = _splices(tables, n)
    if triples >= space.dim**n:
        return space.basis_words(n)
    words = set(splices)
    words.update(_containing(windows, space.dim, n))
    return words


def _containing(windows: Iterable[Word], dim: int, n: int) -> Iterator[Word]:
    """The arity-n words that contain one of the (shorter) windows, lazily."""
    letters = range(dim)
    return (
        pre + x + suf
        for x in windows
        for i in range(n - len(x) + 1)
        for pre in product(letters, repeat=i)
        for suf in product(letters, repeat=n - len(x) - i)
    )


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
    windows: list[Word],
    tables: Tables,
    scale: int,
) -> list[RawFailure]:
    """Sweep one (check, arity) cell and return its nonzero defects.

    D(D(.)) is again a coderivation, of even degree, so at a word
    P + x + S it is the sum over the windows x of P + R(x) + S, with no
    sign, where R(x) is the one-letter part of D(D(x)).  R(x) can be
    nonzero only at a direct candidate of the primed tables.  So the
    coderivation sweep visits the candidates of this arity and every word
    that contains a bad window: a lower-arity word with R nonzero, as
    listed in ``windows``.  It pads the bad windows themselves, not the
    failing words of the arity below, whose windows may cancel.
    ``verify_structure`` collects bad windows for the coderivation check
    only; any ``check`` other than ``"coderivation"`` runs the direct one.

    ``tables`` are the integer tables of ``_scaled_tables`` with their
    ``scale``; tables above ``arity`` are ignored.  The defects of the
    failing words are divided back by ``scale**2``.
    """
    space = structure.space
    degrees = space.degrees
    denominator = scale * scale
    words = _direct_candidates(tables, space, arity, windows)
    failures: list[RawFailure] = []
    if check == "coderivation":
        for word in words:
            acc = _d_squared_raw(tables, degrees, word)
            if acc:
                failures.append(
                    (word, [(w, Fraction(c, denominator)) for w, c in acc.items()])
                )
    else:
        for word in words:
            vec = _stasheff_vec(tables, degrees, word)
            if vec:
                failures.append(
                    (word, [((b,), Fraction(c, denominator)) for b, c in vec.items()])
                )
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
    table entry, and the coderivation check also the words that contain a
    lower-arity word whose square has a one-letter term; at every other
    word each term is zero, so all words are still certified.  The report
    ordering is deterministic.
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
        windows: list[Word] = []
        for arity in range(1, max_arity + 1):
            failures = _sweep_one(structure, check, arity, windows, tables, scale)
            records.append(_to_record(structure.space, check, arity, failures))
            if check == "coderivation":
                # bad windows: the words whose defect has a one-letter term
                windows += [w for w, d in failures if any(len(dw) == 1 for dw, _ in d)]
    return Report(
        structure=s.name,
        convention=s.space.convention,
        max_arity=max_arity,
        checks=tuple(records),
    )
