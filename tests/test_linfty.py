"""Symmetrization of the transferred maps and the induced bracket relation."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ainfty._backend as backend
import ainfty.linfty as linfty
from ainfty import (
    EXAMPLE_SPACE,
    AStructure,
    BasisElement,
    CheckRecord,
    Failure,
    GradedSpace,
    InputError,
    MultiMap,
    Report,
    apply_map,
    d_squared,
    example_mprime,
    example_structure,
    koszul_permutation_sign,
    linfty_defect,
    prime,
    symmetrize_prime,
    unshuffles,
    verify_linfty,
)
from conftest import homogeneous_multimaps, random_structures, valid_structures
from test_engine import mutated_structure

V1, V2, W = 0, 1, 2


def example_family(max_arity: int):
    return [symmetrize_prime(example_mprime(n)) for n in range(1, max_arity + 1)]


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------


def test_symmetrize_spec_values():
    l2 = symmetrize_prime(example_mprime(2))
    assert l2.primed
    assert apply_map(l2, (V1, V2)) == {V1: 1}
    assert apply_map(l2, (V2, V1)) == {V1: -1}
    assert apply_map(l2, (W, V1)) == {W: 1}


def test_symmetrize_requires_primed():
    from ainfty import example_m

    with pytest.raises(InputError):
        symmetrize_prime(example_m(2))


# v1 and v2 both have desuspended degree -1, so a symmetric table needs
# l(v2, v1) == -l(v1, v2); this one has l(v2, v1) == +l(v1, v2)
ASYMMETRIC = {(V1, V2): {V1: Fraction(1)}, (V2, V1): {V1: Fraction(1)}}


def test_symmetric_map_certificate_rejects_asymmetry():
    with pytest.raises(InputError, match="not graded-symmetric"):
        linfty._check_graded_symmetric(EXAMPLE_SPACE, ASYMMETRIC)


def test_symmetrize_prime_runs_the_certificate(monkeypatch):
    # a symmetrization bug that breaks symmetry must not yield a map
    monkeypatch.setattr(linfty, "_symmetrize", lambda table, ddegs: dict(ASYMMETRIC))
    with pytest.raises(InputError, match="not graded-symmetric"):
        symmetrize_prime(example_mprime(2))


def bubble_sign(degrees, word_from, word_to):
    """Independent Koszul sign: sort by adjacent swaps, counting each crossing."""
    seq = list(word_from)
    target = list(word_to)
    sign = 1
    for pos in range(len(target)):
        j = seq.index(target[pos], pos)
        while j > pos:
            d1, d2 = degrees[seq[j - 1]], degrees[seq[j]]
            if (d1 * d2) % 2:
                sign = -sign
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            j -= 1
    assert seq == target
    return sign


@pytest.mark.parametrize("n", range(1, 5))
def test_symmetrized_maps_are_graded_symmetric(n):
    ln = symmetrize_prime(example_mprime(n))
    ddeg = [EXAMPLE_SPACE.degree(b) - 1 for b in range(3)]
    for word in ln.table:
        base = apply_map(ln, word)
        for perm in itertools.permutations(word):
            sign = bubble_sign(ddeg, word, perm)
            expected = {b: sign * c for b, c in base.items()}
            assert apply_map(ln, perm) == expected


def oracle_symmetrize(mp):
    """Independent route: every rearrangement y of every table word, n! each.

    l(y) sums sign(sigma, y) * m(sigma . y) over all permutations sigma,
    letter i of y moving to position sigma[i]; lookups that miss add zero.
    """
    n = mp.arity
    ddeg = [d - 1 for d in mp.space.degrees]
    candidates = {y for w in mp.table for y in itertools.permutations(w)}
    table = {}
    for y in sorted(candidates):
        acc = {}
        for sigma in itertools.permutations(range(n)):
            order = [0] * n  # order[p]: the slot of y whose letter lands at p
            for i, p in enumerate(sigma):
                order[p] = i
            hit = mp.table.get(tuple(y[i] for i in order))
            if hit is None:
                continue
            # bubble the slots, not the letters: repeated letters must still
            # be told apart by where they came from
            sign = bubble_sign([ddeg[b] for b in y], tuple(range(n)), order)
            for b, c in hit.items():
                acc[b] = acc.get(b, Fraction(0)) + sign * c
        acc = {b: c for b, c in acc.items() if c}
        if acc:
            table[y] = acc
    return table


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_symmetrization_certificate_holds_on_random_maps(data):
    # dim <= 4 and arity <= 4, so words with repeated letters occur
    mp = data.draw(homogeneous_multimaps(max_arity=4, primed=True))
    # symmetrize_prime runs the symmetry certificate before it returns, so
    # reaching the asserts means the certificate passed
    ln = symmetrize_prime(mp)
    assert ln.primed
    assert ln.arity == mp.arity
    assert ln.table == oracle_symmetrize(mp)


def repeated_letter_map(word, out):
    """A primed arity-3 map with one entry, over an even and an odd letter.

    Letter 0 has degree 1 (desuspended 0, even), letter 1 degree 0
    (desuspended -1, odd).
    """
    space = GradedSpace((BasisElement("a", 1), BasisElement("c", 0)))
    return MultiMap(space, 3, {word: {out: Fraction(1)}}, primed=True)


def test_symmetrize_repeated_even_letter_gets_stabilizer_factor():
    # (a, a, c): the two permutations that swap the a's both reach each
    # rearrangement, and every crossing involves an even letter
    mp = repeated_letter_map((0, 0, 1), 0)
    expected = {y: {0: Fraction(2)} for y in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]}
    assert symmetrize_prime(mp).table == expected
    assert oracle_symmetrize(mp) == expected


def test_symmetrize_long_word_of_one_even_letter_gets_the_stabilizer():
    # one rearrangement, reached by all 1500! permutations with sign +1; the
    # rearrangements are built without recursion, so the length is no limit
    space = GradedSpace((BasisElement("a", 1), BasisElement("b", 2)))
    word = (0,) * 1500
    mp = MultiMap(space, 1500, {word: {1: Fraction(3, 7)}}, primed=True)
    assert symmetrize_prime(mp).table == {word: {1: math.factorial(1500) * Fraction(3, 7)}}


def test_symmetrize_repeated_odd_letter_cancels():
    # (c, c, a): swapping the two odd c's costs -1, so the orbit cancels
    mp = repeated_letter_map((1, 1, 0), 1)
    assert symmetrize_prime(mp).table == {}
    assert oracle_symmetrize(mp) == {}


# ---------------------------------------------------------------------------
# unshuffles
# ---------------------------------------------------------------------------


def test_unshuffle_counts():
    assert len(unshuffles(1, 2)) == 3
    assert len(unshuffles(2, 2)) == 6
    assert unshuffles(3, 0) == [(0, 1, 2)]


def test_unshuffles_are_increasing_on_both_blocks():
    for i, r in [(1, 3), (2, 3), (3, 2)]:
        seen = set()
        for order in unshuffles(i, r):
            assert sorted(order) == list(range(i + r))
            assert list(order[:i]) == sorted(order[:i])
            assert list(order[i:]) == sorted(order[i:])
            seen.add(order)
        assert len(seen) == len(unshuffles(i, r))


def test_unshuffles_validation():
    with pytest.raises(InputError):
        unshuffles(0, 2)
    with pytest.raises(InputError):
        unshuffles(1, -1)


# ---------------------------------------------------------------------------
# the bracket relation
# ---------------------------------------------------------------------------


def oracle_defect(family, y):
    """Independent route: filter raw permutations, sign by bubble sort."""
    by_arity = {m.arity: m for m in family}
    n = len(y)
    space = family[0].space
    ddeg = [space.degree(b) - 1 for b in range(space.dim)]
    degs = [ddeg[b] for b in y]
    total = {}
    for i in range(1, n + 1):
        inner, outer = by_arity.get(i), by_arity.get(n + 1 - i)
        if inner is None or outer is None:
            continue
        for order in itertools.permutations(range(n)):
            if list(order[:i]) != sorted(order[:i]):
                continue
            if list(order[i:]) != sorted(order[i:]):
                continue
            sign = bubble_sign(degs, tuple(range(n)), order)
            picked = tuple(y[p] for p in order)
            for b, c in apply_map(inner, picked[:i]).items():
                for b2, c2 in apply_map(outer, (b,) + picked[i:]).items():
                    total[b2] = total.get(b2, Fraction(0)) + sign * c * c2
    return {b: c for b, c in total.items() if c}


def test_linfty_defect_spec_examples():
    family = example_family(3)
    assert linfty_defect(family, (V1,)).is_zero()
    assert linfty_defect(family, (V1, V2)).is_zero()
    assert linfty_defect(family, (V1, W, V1)).is_zero()


@pytest.mark.parametrize("n", range(1, 5))
def test_linfty_defect_matches_permutation_oracle(n):
    family = example_family(4)
    for y in EXAMPLE_SPACE.basis_words(n):
        got = linfty_defect(family, y)
        expected = oracle_defect(family, y)
        assert {w[0]: c for w, c in got.terms.items()} == expected


def test_linfty_defect_matches_permutation_oracle_on_failures():
    """The example's Jacobi values are all zero; these families are not."""
    for s, max_arity, nonzero in [
        (mutated_structure(4), 4, 20),
        (two_term_failure(), 4, 2),
        (repeated_even_failure(), 4, 3),
    ]:
        primed = s.primed_version()
        family = [
            symmetrize_prime(primed.map_at(k)) for k in primed.tables_up_to(max_arity)
        ]
        seen = 0
        for n in range(1, max_arity + 1):
            for y in s.space.basis_words(n):
                got = {w[0]: c for w, c in linfty_defect(family, y).terms.items()}
                assert got == oracle_defect(family, y), (s.name, y)
                seen += bool(got)
        assert seen == nonzero, s.name


def test_linfty_defect_single_map_family_is_composition_square():
    m1 = symmetrize_prime(example_mprime(1))
    for y in EXAMPLE_SPACE.basis_words(1):
        inner = apply_map(m1, y)
        expected = {}
        for b, c in inner.items():
            for b2, c2 in apply_map(m1, (b,)).items():
                expected[b2] = expected.get(b2, Fraction(0)) + c * c2
        expected = {b: c for b, c in expected.items() if c}
        got = linfty_defect([m1], y)
        assert {w[0]: c for w, c in got.terms.items()} == expected


def test_linfty_defect_empty_family_rejected():
    with pytest.raises(InputError):
        linfty_defect([], (V1,))


def test_linfty_duplicate_arity_rejected():
    m = symmetrize_prime(example_mprime(2))
    with pytest.raises(InputError):
        linfty_defect([m, m], (V1, V2))


def test_linfty_mixed_spaces_rejected():
    def space(dim):
        return GradedSpace(tuple(BasisElement(f"e{i}", 0) for i in range(dim)))

    l_a = MultiMap(space(2), 1, {}, primed=True)
    l_b = MultiMap(space(3), 2, {}, primed=True)
    with pytest.raises(InputError):
        linfty_defect([l_a, l_b], (0, 1))


# ---------------------------------------------------------------------------
# verify_linfty
# ---------------------------------------------------------------------------


def test_verify_linfty_example_passes():
    report = verify_linfty(example_structure(), 4)
    assert report.passed
    assert [rec.check for rec in report.checks] == ["linfty"] * 4


def test_verify_linfty_all_zero_passes():
    s = AStructure(
        EXAMPLE_SPACE, maps={1: MultiMap(EXAMPLE_SPACE, 1, {})}, name="zero"
    )
    assert verify_linfty(s, 3).passed


def test_verify_linfty_mutation_fails():
    report = verify_linfty(mutated_structure(), 3)
    assert not report.passed
    first = next(rec for rec in report.checks if rec.failures)
    assert first.arity == 2
    assert any(f.word == ("v1", "v2") for f in first.failures)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_valid_structures_stay_valid_after_symmetrization(data):
    s = data.draw(valid_structures())
    max_arity = data.draw(st.integers(min_value=1, max_value=4))
    from ainfty import verify_structure

    assert verify_structure(s, max_arity, mode="both").passed
    assert verify_linfty(s, max_arity).passed


def oracle_linfty_report(s, max_arity: int) -> Report:
    """verify_linfty built over all words from oracle_symmetrize and oracle_defect."""
    space = s.space
    primed = s.primed_version()
    family = [
        MultiMap(space, k, oracle_symmetrize(primed.map_at(k)), primed=True)
        for k in range(1, max_arity + 1)
        if primed.map_at(k) is not None
    ]
    records = []
    for n in range(1, max_arity + 1):
        failures = []
        for word in space.basis_words(n):
            defect = oracle_defect(family, word) if family else {}
            if defect:
                terms = tuple((defect[b], (space.name(b),)) for b in sorted(defect))
                failures.append(Failure(word=space.word_names(word), defect=terms))
        records.append(CheckRecord("linfty", n, space.dim**n, tuple(failures)))
    return Report(s.name, space.convention, max_arity, tuple(records))


def two_term_failure():
    """A failing structure whose Jacobi defects have two terms."""
    space = GradedSpace(
        (BasisElement("e0", 0), BasisElement("e1", 0), BasisElement("e2", -1))
    )
    maps = {
        1: MultiMap(space, 1, {(2,): {0: 1}}),
        2: MultiMap(space, 2, {(0, 1): {0: 1, 1: 1}}),
    }
    return AStructure(space, maps=maps, name="two-term")


# degrees -2..3 and up to 9 entries per table: more than a quarter of the
# draws fail, a few with defects of several terms
@settings(max_examples=100, deadline=None)
@given(
    random_structures(
        max_arity=3, max_entries=9, min_dim=3, max_dim=3, min_degree=-2, max_degree=3
    )
)
@example(mutated_structure(3))
@example(two_term_failure())
def test_verify_linfty_matches_oracle_on_random_structures(s):
    assert verify_linfty(s, 3) == oracle_linfty_report(s, 3)


def repeated_even_failure():
    """A dim-2 failure whose orbit (e1, e1) repeats an even letter."""
    space = GradedSpace((BasisElement("e0", 0), BasisElement("e1", -1)))
    maps = {
        1: MultiMap(space, 1, {(1,): {0: 1}}),
        2: MultiMap(space, 2, {(0, 1): {1: 1}}),
    }
    return AStructure(space, maps=maps, name="repeated-even")


# dim 2 through arity 4, degrees -2..3: most words repeat a letter, so
# orbits with stabilizers > 1 are symmetrized and swept, and odd repeats
# cancel.  About 3% of the draws fail, all at arity 2, so the failing
# example below always runs
@settings(max_examples=30, deadline=None)
@given(
    random_structures(
        max_arity=4, max_entries=6, min_dim=2, max_dim=2, min_degree=-2, max_degree=3
    )
)
@example(repeated_even_failure())
def test_verify_linfty_matches_oracle_with_repeated_letters(s):
    assert verify_linfty(s, 4) == oracle_linfty_report(s, 4)


def permute(y, sigma):
    """sigma . y: letter i of y moves to position sigma[i]."""
    out = [None] * len(y)
    for i, p in enumerate(sigma):
        out[p] = y[i]
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(
    random_structures(
        max_arity=4, max_entries=9, min_dim=1, max_dim=3, min_degree=-1, max_degree=1
    ),
    st.integers(min_value=1, max_value=4),
)
@example(mutated_structure(4), 3)
@example(two_term_failure(), 2)
@example(repeated_even_failure(), 2)
def test_jacobi_defect_is_graded_symmetric(s, n):
    """J(sigma . y) = sign(sigma, y) * J(y): the oracle is graded-symmetric.

    Sym(R) is graded-symmetric by construction, so an oracle that is not
    would disagree with the sweep of ``verify_linfty``.
    """
    space = s.space
    primed = s.primed_version()
    family = [symmetrize_prime(primed.map_at(k)) for k in primed.tables_up_to(4)]
    ddeg = [d - 1 for d in space.degrees]
    jac = {y: linfty_defect(family, y).terms for y in space.basis_words(n)}
    for y, value in jac.items():
        for sigma in itertools.permutations(range(n)):
            sign = koszul_permutation_sign([ddeg[b] for b in y], sigma)
            moved = permute(y, sigma)
            assert jac[moved] == {w: sign * c for w, c in value.items()}, (
                f"Jacobi defect is not graded-symmetric: J{moved} != "
                f"{sign:+d} * J{y}; linfty_defect can no longer serve as "
                "the oracle of verify_linfty"
            )


@settings(max_examples=60, deadline=None)
@given(
    random_structures(
        max_arity=4, max_entries=9, min_dim=1, max_dim=3, min_degree=-1, max_degree=1
    ),
    st.integers(min_value=1, max_value=4),
)
@example(mutated_structure(4), 3)
@example(mutated_structure(4), 4)
@example(two_term_failure(), 2)
@example(repeated_even_failure(), 2)
@example(repeated_even_failure(), 3)
def test_jacobi_defect_is_symmetrized_top_sum(s, n):
    """J = Sym(R) word by word (Lada-Markl), with no scalar factor.

    The sweep of ``verify_linfty`` rests on this: it reads each Jacobi
    defect off the symmetrized one-letter parts of D(D(.)).
    """
    primed = s.primed_version()
    family = [symmetrize_prime(primed.map_at(k)) for k in primed.tables_up_to(n)]
    # R(x): the one-letter part of D(D(x)), from the literal oracle
    windows = {}
    for x in s.space.basis_words(n):
        if r := {w[0]: c for w, c in d_squared(primed, x).terms.items() if len(w) == 1}:
            windows[x] = r
    expected = backend._symmetrize(windows, [d - 1 for d in s.space.degrees])
    for y in s.space.basis_words(n):
        got = linfty_defect(family, y).terms if family else {}
        assert {w[0]: c for w, c in got.items()} == expected.get(y, {}), y


def test_sweep_never_calls_the_oracle_on_the_example(monkeypatch):
    """Through arity 12 the sweep symmetrizes top sums, none of them nonzero.

    The example satisfies the identities, so D(D(.)) has no bad window to
    symmetrize, and neither the per-word Jacobi oracle nor the symmetrized
    tables are ever built.
    """
    def refuse(*args):
        raise AssertionError("the sweep called the literal oracle")

    monkeypatch.setattr(linfty, "linfty_defect", refuse)
    monkeypatch.setattr(linfty, "symmetrize_prime", refuse)
    windows = []
    symmetrize = backend._symmetrize

    def counting(table, ddegs):
        windows.append(len(table))
        return symmetrize(table, ddegs)

    monkeypatch.setattr(backend, "_symmetrize", counting)
    assert verify_linfty(example_structure(), 12).passed
    assert windows == [0] * 12


def test_verify_linfty_matches_oracle_on_dense_tables():
    # a non-commutative product on four odd letters: every pair of distinct
    # letters has a two-letter bracket, so every arity-3 multiset is a
    # candidate orbit, and the Jacobi relation fails
    space = GradedSpace(tuple(BasisElement(f"g{i}", 0) for i in range(4)))
    table = {
        (i, j): {(i + 2 * j) % 4: 1, (3 * i + j + 1) % 4: 2}
        for i in range(4)
        for j in range(4)
    }
    s = AStructure(space, maps={2: MultiMap(space, 2, table)}, name="dense")
    report = verify_linfty(s, 3)
    assert not report.passed
    assert report == oracle_linfty_report(s, 3)
