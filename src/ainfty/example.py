"""The built-in three-element example structure and its companion checks.

The space has basis v1, v2 (degree 0) and w (degree 1).  The structure map
of arity n >= 2 is supported on three disjoint families of words:

* ``v1 w^k v1 w^(n-2-k)`` -> (-1)^k s_n v1  for 0 <= k <= n-2,
* ``v1 w^(n-2) v2``       -> s_{n+1} v1,
* ``v1 w^(n-1)``          -> s_{n+1} w,

with s_n the arity sign from ``signs.s_sign``, plus m_1(v1) = m_1(v2) = w;
everything not listed maps to zero.  ``_entries`` lists these words once,
each with its m_n output and the closed-form m'_n output of Lemma 1, and
both maps are read off that listing.  The family exists at every arity,
which is why it is exposed as a generator-backed structure under the name
``paper-example``.
"""

from __future__ import annotations

from .engine import AStructure, MultiMap, apply_map, coderivation_apply, d_squared, prime
from .errors import InputError
from .graded import BasisElement, GradedSpace, TensorPoly, Vector, Word
from .signs import s_sign

EXAMPLE_SPACE = GradedSpace(
    (BasisElement("v1", 0), BasisElement("v2", 0), BasisElement("w", 1)),
    convention="cochain",
)

_V1 = 0
_V2 = 1
_W = 2


def _entries(n: int) -> list[tuple[Word, Vector, Vector]]:
    """The supported words of arity n, each with its m_n and m'_n output.

    Lemma 1's closed form: every transfer sign cancels on this support, so
    m'_n maps the two v1 families to v1 and the all-w tail to w, each with
    coefficient +1, and m'_1 = m_1.
    """
    if n < 1:
        raise InputError("arity must be >= 1")
    if n == 1:
        return [((_V1,), {_W: 1}, {_W: 1}), ((_V2,), {_W: 1}, {_W: 1})]
    s, s_next = s_sign(n), s_sign(n + 1)
    ws = (_W,) * (n - 2)
    rows = [
        ((_V1,) + ws[:k] + (_V1,) + ws[k:], {_V1: -s if k % 2 else s}, {_V1: 1})
        for k in range(n - 1)
    ]
    rows.append(((_V1,) + ws + (_V2,), {_V1: s_next}, {_V1: 1}))
    rows.append(((_V1,) + ws + (_W,), {_W: s_next}, {_W: 1}))
    # the three families address pairwise distinct words; a collision would
    # mean rows silently summing, so guard it
    assert len({word for word, _, _ in rows}) == n + 1
    return rows


def example_m(n: int) -> MultiMap:
    """The arity-n structure map of the built-in example (unprimed)."""
    return MultiMap(EXAMPLE_SPACE, n, {word: m for word, m, _ in _entries(n)})


def example_mprime(n: int) -> MultiMap:
    """The arity-n transferred map, from its sign-free closed form (``_entries``)."""
    return MultiMap(EXAMPLE_SPACE, n, {word: mp for word, _, mp in _entries(n)}, primed=True)


def example_structure(primed: bool = False) -> AStructure:
    """The generator-backed structure, available at every arity."""
    return AStructure(
        EXAMPLE_SPACE,
        generator=example_mprime if primed else example_m,
        primed=primed,
        name="paper-example",
    )


BUILTIN_STRUCTURES = {"paper-example": example_structure}


def lemma1_check(n: int) -> bool:
    """Does transferring the arity-n map reproduce the closed-form table?

    True means every (-1)^k and s_n sign cancels against the transfer
    signs, entry for entry.
    """
    return prime(example_m(n)) == example_mprime(n)


def lemma2_top_sum_check(n: int) -> bool:
    """Does the full double expansion match the top-arity restricted sum?

    For every arity-n basis word the double coderivation expansion is
    compared against the sum over map-arity pairs (i, j) with i + j = n + 1,
    where the second map consumes the whole intermediate word.  The two
    sides are computed by different routes.
    """
    if n < 2:
        raise InputError("needs arity >= 2")
    structure = example_structure(primed=True)
    maps = {k: structure.map_at(k) for k in range(1, n + 1)}
    for word in EXAMPLE_SPACE.basis_words(n):
        restricted = {}
        for j in range(1, n + 1):
            i = n + 1 - j
            mid = coderivation_apply(maps[j], word)
            for mid_word, coeff in mid.terms.items():
                # mid_word has arity n - j + 1 == i; the closing map takes
                # it whole, with no prefix to pass (sign +1)
                for b, c in apply_map(maps[i], mid_word).items():
                    restricted[(b,)] = restricted.get((b,), 0) + coeff * c
        if d_squared(structure, word) != TensorPoly(EXAMPLE_SPACE, restricted):
            return False
    return True
