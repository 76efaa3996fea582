"""The symmetrization of the transferred maps and the literal Jacobi oracle.

Both act on primed ``MultiMap``s: the transferred maps live on the
desuspended side, where they have degree 1 and symmetrization uses plain
Koszul signs.  ``symmetrize_prime`` sums a primed map over all signed
permutations of its inputs (over ``_symmetrize``) and returns
the result as another primed map, l_k = Sym(m'_k).  ``linfty_defect``
checks the generalized Jacobi identity of such a family on one word in
unshuffle form, summing l_j(l_i(block) tensor rest) over all
(i, n-i)-unshuffles with i + j = n + 1; it is the literal oracle.  The
sweep, ``_backend.verify_linfty``, never builds the symmetrized maps: it
runs ``_symmetrize`` on the bad windows alone.
Un-priming the symmetrized family back to the unshifted space is
deliberately not offered; conventions for that step vary and nothing
here needs it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .engine import MultiMap
from .errors import InputError
from .graded import GradedSpace, TensorPoly, Vector, Word
from .signs import koszul_permutation_sign, pass_operator_sign


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


def _check_graded_symmetric(space: GradedSpace, table: Mapping[Word, Vector]) -> None:
    """Raise unless swapping two adjacent letters multiplies by their Koszul sign.

    Adjacent transpositions generate all permutations, so this pins full
    graded symmetry on the desuspended letter degrees.  The sign is +-1, so
    the swapped entry is compared with the vector or its negation, and no
    coefficient is multiplied.
    """
    degs = space.degrees
    for w, vec in table.items():
        negated = {b: -c for b, c in vec.items()}
        for pos in range(len(w) - 1):
            swapped = w[:pos] + (w[pos + 1], w[pos]) + w[pos + 2 :]
            sign = pass_operator_sign(degs[w[pos]] - 1, degs[w[pos + 1]] - 1)
            if table.get(swapped, {}) != (vec if sign > 0 else negated):
                raise InputError(f"table is not graded-symmetric at {w} <-> {swapped}")


def symmetrize_prime(mp: MultiMap) -> MultiMap:
    """Sum a transferred map over all Koszul-signed permutations of its inputs.

    See ``_symmetrize``.  The result is a primed map, checked
    graded-symmetric before it is returned.  Its entries permute the words
    of ``mp``'s, with the same output letters, so they are not checked again.
    """
    if not mp.primed:
        raise InputError("symmetrization is defined for primed maps")
    ddegs = [d - 1 for d in mp.space.degrees]
    table = _symmetrize(mp.table, ddegs)
    _check_graded_symmetric(mp.space, table)
    return MultiMap._raw(mp.space, mp.arity, table, True)


def unshuffles(i: int, r: int) -> list[tuple[int, ...]]:
    """All permutations of 0..i+r-1 increasing on the first i and last r slots."""
    if i < 1 or r < 0:
        raise InputError("need i >= 1 and r >= 0")
    n = i + r
    out = []
    for first in itertools.combinations(range(n), i):
        rest = tuple(sorted(set(range(n)) - set(first)))
        out.append(first + rest)
    return out


def _family_by_arity(family: Iterable[MultiMap]) -> dict[int, MultiMap]:
    by_arity: dict[int, MultiMap] = {}
    for m in family:
        if m.arity in by_arity:
            raise InputError(f"two maps of arity {m.arity} in one family")
        by_arity[m.arity] = m
    return by_arity


def linfty_defect(family: Iterable[MultiMap], y: Word) -> TensorPoly:
    """The generalized Jacobi defect of a family of symmetrized maps on one word.

    Sums l_j(l_i(selected block) tensor rest) over all unshuffle selections
    with i + j = arity + 1, each weighted by the Koszul sign of pulling the
    selected letters to the front.  Zero exactly when the relation holds.
    """
    by_arity = _family_by_arity(family)
    if not by_arity:
        raise InputError("empty map family")
    space = next(iter(by_arity.values())).space
    if any(m.space != space for m in by_arity.values()):
        raise InputError("family maps live over different spaces")
    y = tuple(y)
    space.check_word(y)
    n = len(y)
    degs = [space.degrees[b] - 1 for b in y]
    acc: dict[int, Fraction] = {}
    for i in range(1, n + 1):
        inner = by_arity.get(i)
        outer = by_arity.get(n + 1 - i)
        if inner is None or outer is None:
            continue
        for order in unshuffles(i, n - i):
            inner_val = inner.table.get(tuple(y[p] for p in order[:i]))
            if not inner_val:
                continue
            # picking the letters out of y crosses the same pairs as moving
            # the picked-order word back to y, which sends slot q to order[q]
            sign = koszul_permutation_sign([degs[p] for p in order], order)
            rest = tuple(y[p] for p in order[i:])
            for b, c in inner_val.items():
                for b2, c2 in outer.table.get((b,) + rest, {}).items():
                    acc[b2] = acc.get(b2, Fraction(0)) + sign * c * c2
    return TensorPoly(space, {(b,): c for b, c in acc.items() if c})

