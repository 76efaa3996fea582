"""Structure maps, the degree-shift transfer, coderivations, and both checks.

A structure is a family of multilinear maps m_k, one per arity, acting on
tensor words over a graded basis.  Two equivalent formulations of the
defining identities are implemented side by side:

* the *direct* check evaluates the quadratic identity
  sum_{lam,k} alpha * m_{n-k+1}(x_1 .. m_k(window) .. x_n) on each word,
* the *coderivation* check transfers the family to degree-1 maps on the
  shifted space, extends them to a coderivation D of the tensor coalgebra,
  and evaluates D(D(word)), which must vanish.

The per-word functions here are the reference oracle and compute in
``Fraction``.  Each reads as the formula it checks: ``stasheff_defect``
sums the signed compositions through ``apply_map``, and ``d_squared`` is
``d_apply`` applied twice.  This module runs no sweep: the one driver in
``_backend`` walks the (u, lam, v) triples of unprimed table entries,
scaled to integers, that build the direct terms, once per arity for every
check; Lemma 2's top sum of D(D(x)) is that sum times the desuspension
sign of x, and every other coderivation defect is summed from these
one-letter parts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .errors import InputError, Value
from .graded import (
    GradedSpace,
    TensorPoly,
    Vector,
    Word,
    normalize_vector,
    word_degree,
)
from .signs import alpha_sign, desusp_word_sign, pass_operator_sign, susp_iso_sign

# Internal sweep representation: arity -> {word: {basis: coeff}}.
Tables = dict[int, dict[Word, Vector]]


class MultiMap(Value):
    """An arity-k multilinear map given by a sparse word -> vector table.

    Unprimed maps act on the space itself and have degree 2-k; primed maps
    act on desuspended words and have degree 1.  Either way every table
    entry must satisfy degree(output) = degree(input word) + 2 - k, which
    is the same numeric constraint in both readings.  Words absent from
    the table map to zero.
    """

    __slots__ = _fields = ("space", "arity", "table", "primed")
    space: GradedSpace
    arity: int
    table: Mapping[Word, Vector]
    primed: bool

    def __init__(
        self,
        space: GradedSpace,
        arity: int,
        table: Mapping[Word, Vector] = {},
        primed: bool = False,
    ) -> None:
        if arity < 1:
            raise InputError("map arity must be >= 1")
        clean: dict[Word, Vector] = {}
        for w, vec in table.items():
            w = tuple(w)
            if len(w) != arity:
                raise InputError(f"table word {w} has arity {len(w)}, map has arity {arity}")
            out_degree = word_degree(space, w) + 2 - arity  # checks the word
            vec = normalize_vector(vec)
            if not vec:
                continue
            for b in vec:
                if space.degree(b) != out_degree:  # also range-checks b
                    raise InputError(f"inhomogeneous entry: {w} -> basis {space.name(b)}")
            clean[w] = vec
        self._set(space, arity, clean, primed)

    @property
    def degree(self) -> int:
        return 1 if self.primed else 2 - self.arity


def apply_map(m: MultiMap, w: Word) -> Vector:
    """Evaluate the map on one basis word; absent words give the zero vector."""
    w = tuple(w)
    if len(w) != m.arity:
        raise InputError(f"word arity {len(w)} does not match map arity {m.arity}")
    m.space.check_word(w)
    return dict(m.table.get(w, {}))


def _transfer(m: MultiMap, primed: bool) -> MultiMap:
    """``m``'s entries times their transfer signs; the validated words stay."""
    k = m.arity
    table: dict[Word, Vector] = {}
    for w, vec in m.table.items():
        degs = [m.space.degree(i) for i in w]
        s = susp_iso_sign(k) * desusp_word_sign(degs) * susp_iso_sign(k)
        table[w] = {b: s * c for b, c in vec.items()}
    return MultiMap._raw(m.space, k, table, primed)


def prime(m: MultiMap) -> MultiMap:
    """Transfer an unprimed map to the degree-1 map on desuspended words.

    Entry by entry this composes three signs: the defining global factor
    (-1)**(k(k-1)/2), the sign identifying a word of desuspended letters
    with a desuspended word, and the same (-1)**(k(k-1)/2) again from
    cancelling the k suspensions against the k desuspensions.  The two
    arity factors cancel; they are kept visible so each step of the
    pipeline is auditable.
    """
    if m.primed:
        raise InputError("prime() expects an unprimed map")
    return _transfer(m, primed=True)


def unprime(mp: MultiMap) -> MultiMap:
    """Invert the transfer; unprime(prime(m)) == m entry for entry."""
    if not mp.primed:
        raise InputError("unprime() expects a primed map")
    # the transfer sign is +-1, hence self-inverse
    return _transfer(mp, primed=False)


class AStructure:
    """A family {m_k} over one space: at most one map per arity.

    Backed either by a finite arity -> MultiMap dict or by a generator rule
    producing the map for any requested arity (the built-in example exists
    at every arity).  Generated maps are cached; instances are immutable
    after construction apart from that cache.
    """

    def __init__(
        self,
        space: GradedSpace,
        maps: Mapping[int, MultiMap] | None = None,
        generator: Callable[[int], MultiMap | None] | None = None,
        primed: bool = False,
        name: str = "structure",
    ):
        if (maps is None) == (generator is None):
            raise InputError("provide exactly one of maps or generator")
        self.space = space
        self.primed = primed
        self.name = name
        self._generator = generator
        self._maps: dict[int, MultiMap | None] = {}
        if maps is not None:
            for k, m in maps.items():
                self._check_member(k, m)
                self._maps[int(k)] = m

    def _check_member(self, k: int, m: MultiMap) -> None:
        if m.arity != k:
            raise InputError(f"map of arity {m.arity} registered under arity {k}")
        if m.space != self.space:
            raise InputError("structure maps must share the structure's space")
        if m.primed != self.primed:
            raise InputError("structure maps must match the structure's primed flag")

    def __repr__(self) -> str:
        head = f"AStructure({self.name!r}, primed={self.primed}"
        if not self.is_finite:
            return head + ", generator)"
        space = self.space
        basis = ", ".join(f"{space.name(i)}:{d}" for i, d in enumerate(space.degrees))
        entries = [
            f"m{k}({','.join(space.word_names(w))}) = "
            + " + ".join(f"{c} {space.name(b)}" for b, c in sorted(vec.items()))
            for k in self.arities
            for w, vec in sorted(self._maps[k].table.items())
        ]
        return f"{head}, basis=[{basis}], tables=[{'; '.join(entries)}])"

    @property
    def is_finite(self) -> bool:
        return self._generator is None

    def map_at(self, k: int) -> MultiMap | None:
        """The arity-k map, or None where the family has no entry."""
        if k < 1:
            raise InputError("arity must be >= 1")
        if k not in self._maps and self._generator is not None:
            m = self._generator(k)
            if m is not None:
                self._check_member(k, m)
            self._maps[k] = m
        return self._maps.get(k)

    @property
    def arities(self) -> list[int]:
        """All arities carrying a map; finite structures only."""
        if not self.is_finite:
            raise InputError("a generator-backed family has no finite arity list")
        return sorted(k for k, m in self._maps.items() if m is not None)

    def _maps_up_to(self, n: int) -> dict[int, MultiMap]:
        """The maps of arity 1..n, by arity; arities without a map are left out."""
        maps = {k: self.map_at(k) for k in range(1, n + 1)}
        return {k: m for k, m in maps.items() if m is not None}

    def tables_up_to(self, n: int) -> Tables:
        """The tables of the maps of arity 1..n, by arity."""
        return {k: m.table for k, m in self._maps_up_to(n).items()}

    def primed_version(self) -> "AStructure":
        if self.primed:
            return self
        return self._transformed(prime, primed=True)

    def unprimed_version(self) -> "AStructure":
        if not self.primed:
            return self
        return self._transformed(unprime, primed=False)

    def _transformed(self, fn: Callable[[MultiMap], MultiMap], primed: bool) -> "AStructure":
        def rule(k: int) -> MultiMap | None:  # reads, and so fills, this family's cache
            m = self.map_at(k)
            return None if m is None else fn(m)

        if self.is_finite:
            maps = {k: rule(k) for k in self._maps}
            return AStructure(self.space, maps=maps, primed=primed, name=self.name)
        return AStructure(self.space, generator=rule, primed=primed, name=self.name)

    def snapshot(self, max_arity: int) -> "AStructure":
        """A finite copy holding the maps of arity 1..max_arity."""
        maps = self._maps_up_to(max_arity)
        return AStructure(self.space, maps=maps, primed=self.primed, name=self.name)


# ---------------------------------------------------------------------------
# coderivation side
# ---------------------------------------------------------------------------


def _coderivation_terms(
    tables: Tables,
    degrees: tuple[int, ...],
    word: Word,
    coeff: Fraction,
    acc: dict[Word, Fraction],
) -> None:
    """Accumulate the full coderivation applied to coeff * word into acc.

    Applying a degree-1 map after the first i letters costs the Koszul sign
    of passing it across the prefix: (-1)**(desuspended prefix degree).
    """
    n = len(word)
    for k, table in tables.items():
        for i in range(n - k + 1):
            hit = table.get(word[i : i + k])
            if hit is None:
                continue
            sign = pass_operator_sign(1, sum(degrees[b] - 1 for b in word[:i]))
            for b, c in hit.items():
                nw = word[:i] + (b,) + word[i + k :]
                acc[nw] = acc.get(nw, 0) + sign * coeff * c


def _prune(acc: dict[Word, Fraction]) -> dict[Word, Fraction]:
    return {w: c for w, c in acc.items() if c}


def coderivation_apply(mp: MultiMap, w: Word) -> TensorPoly:
    """Extend one primed map over an input word, summing over positions.

    An arity-k map on an arity-n word contributes one term per offset
    0..n-k, each carrying the prefix-passing sign; k > n gives zero.
    """
    if not mp.primed:
        raise InputError("coderivation extension is defined for primed maps")
    w = tuple(w)
    mp.space.check_word(w)
    acc: dict[Word, Fraction] = {}
    _coderivation_terms(
        {mp.arity: mp.table}, mp.space.degrees, w, Fraction(1), acc
    )
    return TensorPoly._raw(mp.space, _prune(acc))


def d_apply(s: AStructure, p: TensorPoly) -> TensorPoly:
    """Apply the full coderivation D = sum of extended maps to a polynomial.

    Only maps of arity <= the word's arity can act on a given word, so the
    sum is arity-local and finite even for generator-backed families.
    """
    if not s.primed:
        raise InputError("d_apply needs a primed structure")
    if p.space != s.space:
        raise InputError("polynomial and structure live over different spaces")
    degrees = s.space.degrees
    acc: dict[Word, Fraction] = {}
    for word, coeff in p.terms.items():
        tables = s.tables_up_to(len(word))
        _coderivation_terms(tables, degrees, word, coeff, acc)
    return TensorPoly._raw(s.space, _prune(acc))


def d_squared(s: AStructure, w: Word) -> TensorPoly:
    """D(D(word)); the zero polynomial exactly when the identities hold there."""
    if not s.primed:
        raise InputError("d_squared needs a primed structure")
    return d_apply(s, d_apply(s, TensorPoly(s.space, {tuple(w): 1})))


# ---------------------------------------------------------------------------
# direct identity side
# ---------------------------------------------------------------------------


def stasheff_defect(s: AStructure, x: Word) -> Vector:
    """The (expected-zero) value of the defining identity on one word.

    Nonzero results are homogeneous of degree deg(x) + 3 - n; absent maps
    are treated as zero.
    """
    if s.primed:
        raise InputError("the direct identity is evaluated on unprimed maps")
    x = tuple(x)
    s.space.check_word(x)
    n = len(x)
    acc: Vector = {}
    for lam in range(n):
        prefix_degree = sum(s.space.degree(b) for b in x[:lam])
        for k in range(1, n - lam + 1):
            inner, outer = s.map_at(k), s.map_at(n - k + 1)
            if inner is None or outer is None:
                continue
            sign = alpha_sign(k, lam, n, prefix_degree)
            for b, c in apply_map(inner, x[lam : lam + k]).items():
                for b2, c2 in apply_map(outer, x[:lam] + (b,) + x[lam + k :]).items():
                    acc[b2] = acc.get(b2, 0) + sign * c * c2
    return {b: c for b, c in acc.items() if c}
