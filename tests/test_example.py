"""The built-in structure's tables and its two companion checks."""

import pytest

import ainfty.example
from ainfty import (
    EXAMPLE_SPACE,
    InputError,
    MultiMap,
    apply_map,
    example_m,
    example_mprime,
    example_structure,
    lemma1_check,
    lemma2_top_sum_check,
    prime,
    s_sign,
    verify_structure,
)

V1, V2, W = 0, 1, 2


def test_example_m_spec_values():
    m3 = example_m(3)
    assert apply_map(m3, (V1, W, W)) == {W: -1}   # s_4 = -1
    assert apply_map(m3, (V1, V1, W)) == {V1: 1}  # k = 0, s_3 = +1
    m4 = example_m(4)
    assert apply_map(m4, (V1, W, W, W)) == {W: -1}  # s_5 = -1


def test_example_m_unlisted_words_are_zero():
    m3 = example_m(3)
    assert apply_map(m3, (V2, W, W)) == {}
    assert apply_map(m3, (W, W, W)) == {}
    assert apply_map(m3, (V1, V2, W)) == {}  # v2 must sit in the last slot


def test_example_m_arity_one():
    m1 = example_m(1)
    assert apply_map(m1, (V1,)) == {W: 1}
    assert apply_map(m1, (V2,)) == {W: 1}
    assert apply_map(m1, (W,)) == {}


def test_example_m_rejects_bad_arity():
    with pytest.raises(InputError):
        example_m(0)
    with pytest.raises(InputError):
        example_mprime(-1)


@pytest.mark.parametrize("n", range(2, 11))
def test_example_m_has_n_plus_one_entries(n):
    assert len(example_m(n).table) == n + 1
    assert len(example_mprime(n).table) == n + 1
    assert set(example_m(n).table) == set(example_mprime(n).table)


@pytest.mark.parametrize("n", range(2, 11))
def test_example_m_family_coefficients(n):
    m = example_m(n)
    # double-v1 family: (-1)^k s_n on each interleaving
    for k in range(n - 1):
        word = (V1,) + (W,) * k + (V1,) + (W,) * (n - 2 - k)
        assert m.table[word] == {V1: (-1) ** k * s_sign(n)}
    assert m.table[(V1,) + (W,) * (n - 2) + (V2,)] == {V1: s_sign(n + 1)}
    assert m.table[(V1,) + (W,) * (n - 1)] == {W: s_sign(n + 1)}


def test_example_mprime_spec_values():
    m5 = example_mprime(5)
    assert apply_map(m5, (V1, W, W, V1, W)) == {V1: 1}
    assert apply_map(example_mprime(2), (V1, V2)) == {V1: 1}
    assert apply_map(example_mprime(1), (V2,)) == {W: 1}


@pytest.mark.parametrize("n", range(1, 11))
def test_transfer_matches_closed_form(n):
    assert lemma1_check(n)
    assert prime(example_m(n)) == example_mprime(n)


@pytest.mark.parametrize("n", range(2, 6))
def test_top_sum_reduction(n):
    assert lemma2_top_sum_check(n)


def test_top_sum_reduction_sees_a_negated_entry(monkeypatch):
    """With m'_2(v1, v2) negated, D(D(.)) no longer reduces to its top sum.

    At arity 2 the terms outside the top sum apply m'_1 twice and never
    meet m'_2; from arity 3 on, the negated entry no longer cancels there.
    """
    mprime = example_mprime

    def negated(n):
        m = mprime(n)
        if n != 2:
            return m
        table = dict(m.table)
        table[(V1, V2)] = {b: -c for b, c in table[(V1, V2)].items()}
        return MultiMap(m.space, 2, table, primed=True)

    monkeypatch.setattr(ainfty.example, "example_mprime", negated)
    assert [lemma2_top_sum_check(n) for n in (2, 3, 4)] == [True, False, False]


def test_top_sum_reduction_needs_arity_two():
    with pytest.raises(InputError):
        lemma2_top_sum_check(1)


def test_structure_verifies_at_desk_scale():
    report = verify_structure(example_structure(), 8, mode="both")
    assert report.passed
    assert report.failure_count == 0


def test_builtin_registry():
    from ainfty import BUILTIN_STRUCTURES

    s = BUILTIN_STRUCTURES["paper-example"]()
    assert s.name == "paper-example"
    assert s.space == EXAMPLE_SPACE
    assert not s.primed
