"""Substrate types: spaces, words, vectors, polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ainfty import (
    BasisElement,
    GradedSpace,
    InputError,
    TensorPoly,
    word_degree,
)
from conftest import coefficients, graded_spaces, words_over

SPACE = GradedSpace(
    (BasisElement("v1", 0), BasisElement("v2", 0), BasisElement("w", 1))
)
V1, V2, W = 0, 1, 2


def test_word_degree_examples():
    assert word_degree(SPACE, (V1, W, W)) == 2
    assert word_degree(SPACE, (V1, W)) - 2 == -1  # desuspended: each letter minus one
    assert word_degree(SPACE, (W,)) == 1


def test_word_degree_rejects_bad_indices():
    with pytest.raises(InputError):
        word_degree(SPACE, (0, 7))
    with pytest.raises(InputError):
        word_degree(SPACE, ())


def test_space_validation():
    with pytest.raises(InputError):
        GradedSpace((BasisElement("a", 0), BasisElement("a", 1)))
    with pytest.raises(InputError):
        GradedSpace(())
    with pytest.raises(InputError):
        BasisElement("", 0)
    with pytest.raises(InputError):
        GradedSpace((BasisElement("a", 0),), convention="simplicial")


def test_space_lookups():
    assert SPACE.index("w") == 2
    assert SPACE.name(0) == "v1"
    assert SPACE.degree(2) == 1
    with pytest.raises(InputError):
        SPACE.index("nope")
    assert list(SPACE.basis_words(1)) == [(0,), (1,), (2,)]
    assert len(list(SPACE.basis_words(3))) == 27
    with pytest.raises(InputError, match="arity must be >= 1"):
        SPACE.basis_words(0)


def test_poly_identity_and_cancellation():
    p = TensorPoly(SPACE, {(V1, W): Fraction(2, 3)})
    zero = TensorPoly(SPACE)
    assert p + zero == p
    u = TensorPoly(SPACE, {(V1,): 1})
    minus_u = TensorPoly(SPACE, {(V1,): -1})
    assert (u + minus_u).is_zero()


def test_poly_disjoint_supports():
    a = TensorPoly(SPACE, {(W, V2): 1})
    b = TensorPoly(SPACE, {(V1, W): -1})
    s = a + b
    assert s.terms == {(W, V2): Fraction(1), (V1, W): Fraction(-1)}


def test_poly_scale_edge_cases():
    p = TensorPoly(SPACE, {(V1,): Fraction(3, 2), (W, W): -2})
    assert (0 * p).is_zero()
    assert 1 * p == p
    assert (-1 * TensorPoly(SPACE, {(V1,): 1})).terms == {(V1,): Fraction(-1)}


def test_poly_mixed_arities_allowed():
    p = TensorPoly(SPACE, {(V1,): 1, (V1, W): 1, (V1, W, W): 1})
    assert len(p.terms) == 3


def test_poly_repr():
    assert repr(TensorPoly(SPACE)) == "TensorPoly(0)"
    p = TensorPoly(SPACE, {(W,): Fraction(-1, 2), (V1, W): 3, (V1,): 1})
    assert repr(p) == "TensorPoly(1 (v1) + 3 (v1,w) + -1/2 (w))"


def test_poly_space_mismatch_rejected():
    other = GradedSpace((BasisElement("x", 0),))
    with pytest.raises(InputError):
        TensorPoly(SPACE, {(V1,): 1}) + TensorPoly(other, {(0,): 1})


def test_poly_normalization_idempotent():
    terms = {(V1,): Fraction(1, 2), (W,): Fraction(0)}
    once = TensorPoly(SPACE, terms)
    twice = TensorPoly(SPACE, once.terms)
    assert once == twice
    assert (W,) not in once.terms


@given(st.data())
def test_poly_add_commutative_and_associative(data):
    space = data.draw(graded_spaces())
    polys = []
    for _ in range(3):
        n_terms = data.draw(st.integers(0, 3))
        terms = {}
        for _ in range(n_terms):
            terms[data.draw(words_over(space))] = data.draw(coefficients)
        polys.append(TensorPoly(space, terms))
    a, b, c = polys
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a + b) - b == a


@given(st.data())
def test_poly_scale_distributes_over_add(data):
    space = data.draw(graded_spaces())
    c = data.draw(coefficients)
    terms_a = {data.draw(words_over(space)): data.draw(coefficients)}
    terms_b = {data.draw(words_over(space)): data.draw(coefficients)}
    a = TensorPoly(space, terms_a)
    b = TensorPoly(space, terms_b)
    assert c * (a + b) == c * a + c * b
