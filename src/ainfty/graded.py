"""Graded basis, sparse vectors, tensor words, and mixed-arity formal sums.

This is the substrate the rest of the package computes on.  Coefficients are
exact rationals (``fractions.Fraction``), so there is no floating point and
no tolerance anywhere: a defect either is zero or it is not.  Every
coefficient that crosses a public interface is a ``Fraction``; only inside
the sweeps of all three checks does ``_backend`` scale a run's tables by
their common denominator and compute on Python ints, which are just as exact.

Representation choices, shared package-wide:

* a basis element is identified by its *index* in the space; names appear
  only at parse and report boundaries,
* a word is a tuple of basis indices (arity = length >= 1),
* a vector is a sparse ``{index: coefficient}`` dict with no stored zeros,
* a tensor polynomial (``TensorPoly``) is a sparse ``{word: coefficient}``
  dict whose words may have different arities, wrapped together with its
  space; it supports ``+``, ``-`` and scalar ``*``.

All values are immutable after construction: words are tuples, and spaces,
maps and polynomials (``TensorPoly``) are slotted classes on ``errors.Value``,
which refuse attribute assignment and compare by their fields.  Only the
dicts inside vectors and polynomials are immutable by convention; every
operation returns a new value.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, TypeVar

from .errors import InputError, Value

# A tensor word: basis indices, most significant (leftmost factor) first.
Word = tuple[int, ...]

# A sparse element of the space: basis index -> nonzero coefficient.
Vector = dict[int, Fraction]

CONVENTIONS = ("cochain", "chain")

K = TypeVar("K")  # the key of a sparse sum: a basis index or a word


class BasisElement(Value):
    """A named basis vector with an integer degree."""

    __slots__ = _fields = ("name", "degree")
    name: str
    degree: int

    def __init__(self, name: str, degree: int) -> None:
        if not name or not isinstance(name, str):
            raise InputError("basis element name must be a non-empty string")
        if not isinstance(degree, int):
            raise InputError("degrees must be integers")
        self._set(name, degree)


class GradedSpace(Value):
    """A finite ordered basis with integer degrees.

    Degrees are always stored in the cochain convention; a space declared in
    the chain convention keeps the label in ``convention`` and stores the
    negated degrees (the file parser performs that negation).  Everything
    downstream therefore runs a single internal convention.
    """

    _fields = ("elements", "convention")
    __slots__ = (*_fields, "_index")  # _index: name -> position, derived
    elements: tuple[BasisElement, ...]
    convention: str

    def __init__(self, elements: Iterable[BasisElement], convention: str = "cochain") -> None:
        elements = tuple(elements)
        if convention not in CONVENTIONS:
            raise InputError(f"unknown convention {convention!r}")
        if not elements:
            raise InputError("a graded space needs at least one basis element")
        index: dict[str, int] = {}
        for i, el in enumerate(elements):
            if el.name in index:
                raise InputError(f"duplicate basis name {el.name!r}")
            index[el.name] = i
        self._set(elements, convention)
        object.__setattr__(self, "_index", index)

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(el.degree for el in self.elements)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown basis name {name!r}") from None

    def name(self, i: int) -> str:
        return self.elements[i].name

    def degree(self, i: int) -> int:
        if not 0 <= i < len(self.elements):
            raise InputError(f"basis index {i} out of range")
        return self.elements[i].degree

    def check_word(self, w: Word) -> None:
        if not w:
            raise InputError("words must have arity >= 1")
        for i in w:
            if not 0 <= i < len(self.elements):
                raise InputError(f"basis index {i} out of range in word {w}")

    def basis_words(self, arity: int) -> Iterator[Word]:
        """All words of the given arity, in lexicographic index order."""
        if arity < 1:
            raise InputError("arity must be >= 1")
        return itertools.product(range(len(self.elements)), repeat=arity)

    def word_names(self, w: Word) -> tuple[str, ...]:
        return tuple(self.elements[i].name for i in w)


def word_degree(space: GradedSpace, w: Word) -> int:
    """Total degree of a word: sum of letter degrees."""
    space.check_word(w)
    return sum(space.elements[i].degree for i in w)


def normalize_vector(v: Mapping[K, Fraction | int]) -> dict[K, Fraction]:
    """Coerce coefficients to Fraction and drop zeros; keys are kept as given."""
    out: dict[K, Fraction] = {}
    for i, c in v.items():
        c = Fraction(c)
        if c:
            out[i] = c
    return out


class TensorPoly(Value):
    """A formal sum of tensor words with rational coefficients.

    Words of different arities may coexist (the coderivation maps an
    arity-n word to arities n-k+1 for every k <= n).  The term dict is
    normalized on construction and must not be mutated afterwards; like
    ``MultiMap``'s table it makes the value unhashable.
    """

    __slots__ = _fields = ("space", "terms")
    space: GradedSpace
    terms: dict[Word, Fraction]

    def __init__(self, space: GradedSpace, terms: Mapping[Word, Fraction | int] = {}) -> None:
        for w in terms:
            space.check_word(w)
        self._set(space, normalize_vector(terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TensorPoly") -> "TensorPoly":
        """Coefficient-wise sum, normalized."""
        if self.space != other.space:
            raise InputError("cannot add polynomials over different spaces")
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, Fraction(0)) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return TensorPoly._raw(self.space, out)

    def __sub__(self, other: "TensorPoly") -> "TensorPoly":
        return self + -1 * other

    def __rmul__(self, c) -> "TensorPoly":
        """Every coefficient multiplied by ``c``, normalized."""
        c = Fraction(c)
        if not c:
            return TensorPoly._raw(self.space, {})
        return TensorPoly._raw(self.space, {w: c * x for w, x in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "TensorPoly(0)"
        bits = []
        for w in sorted(self.terms):
            names = ",".join(self.space.word_names(w))
            bits.append(f"{self.terms[w]} ({names})")
        return "TensorPoly(" + " + ".join(bits) + ")"
