"""Structure maps, transfer, coderivation, and both defect formulations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import (
    AStructure,
    BasisElement,
    EXAMPLE_SPACE,
    GradedSpace,
    InputError,
    MultiMap,
    TensorPoly,
    apply_map,
    coderivation_apply,
    d_apply,
    d_squared,
    example_m,
    example_mprime,
    example_structure,
    prime,
    stasheff_defect,
    unprime,
    verify_linfty,
    verify_structure,
    word_degree,
)
from ainfty.signs import alpha_sign
from conftest import graded_spaces, homogeneous_multimaps, words_over

V1, V2, W = 0, 1, 2
ONE = Fraction(1)


def mutated_structure(max_arity: int = 4) -> AStructure:
    """The example truncated to finitely many arities, with one sign flipped."""
    maps = {n: example_m(n) for n in range(1, max_arity + 1)}
    table = dict(maps[2].table)
    table[(V1, V2)] = {V1: -1}
    maps[2] = MultiMap(EXAMPLE_SPACE, 2, table)
    return AStructure(EXAMPLE_SPACE, maps=maps, name="mutated")


def truncated_example(max_arity: int = 4) -> AStructure:
    maps = {n: example_m(n) for n in range(1, max_arity + 1)}
    return AStructure(EXAMPLE_SPACE, maps=maps, name="truncated")


# ---------------------------------------------------------------------------
# MultiMap and apply_map
# ---------------------------------------------------------------------------


def test_apply_map_examples():
    m2 = example_m(2)
    assert apply_map(m2, (V1, V2)) == {V1: 1}
    assert apply_map(m2, (V2, V1)) == {}
    m3 = example_m(3)
    assert apply_map(m3, (V1, W, V1)) == {V1: -1}


def test_apply_map_arity_mismatch():
    with pytest.raises(InputError):
        apply_map(example_m(2), (V1,))


def test_multimap_validates_homogeneity():
    with pytest.raises(InputError):
        # arity 2 needs deg(out) == deg(in): w against (v1, v1) is off by one
        MultiMap(EXAMPLE_SPACE, 2, {(V1, V1): {W: 1}})


def test_multimap_validates_word_arity():
    with pytest.raises(InputError):
        MultiMap(EXAMPLE_SPACE, 2, {(V1,): {V1: 1}})


def test_multimap_drops_zero_entries():
    m = MultiMap(EXAMPLE_SPACE, 2, {(V1, V1): {V1: 0}})
    assert m.table == {}


def test_multimap_degrees():
    assert example_m(3).degree == -1
    assert example_mprime(3).degree == 1


# ---------------------------------------------------------------------------
# prime / unprime
# ---------------------------------------------------------------------------


def test_prime_examples():
    p2 = prime(example_m(2))
    assert p2.table[(V1, W)] == {W: 1}
    assert p2.table[(V1, V1)] == {V1: 1}
    p3 = prime(example_m(3))
    assert p3.table[(V1, W, V1)] == {V1: 1}


def test_unprime_examples():
    assert unprime(prime(example_m(4))) == example_m(4)
    back = unprime(example_mprime(2))
    assert back.table[(V1, W)] == {W: 1}  # the arity-sign there is +1


def test_prime_rejects_wrong_flavor():
    with pytest.raises(InputError):
        prime(example_mprime(2))
    with pytest.raises(InputError):
        unprime(example_m(2))


@settings(max_examples=200)
@given(st.data())
def test_prime_unprime_round_trip(data):
    m = data.draw(homogeneous_multimaps(max_arity=6))
    assert unprime(prime(m)) == m
    mp = data.draw(homogeneous_multimaps(max_arity=6, primed=True))
    assert prime(unprime(mp)) == mp


@pytest.mark.parametrize("n", range(1, 9))
def test_generated_maps_are_degree_homogeneous(n):
    for m in (example_m(n), example_mprime(n)):
        for w, vec in m.table.items():
            in_deg = word_degree(EXAMPLE_SPACE, w)
            for b in vec:
                if m.primed:
                    out = EXAMPLE_SPACE.degree(b) - 1
                    assert out == (in_deg - n) + m.degree
                else:
                    assert EXAMPLE_SPACE.degree(b) == in_deg + m.degree


# ---------------------------------------------------------------------------
# coderivation
# ---------------------------------------------------------------------------


def test_coderivation_apply_examples():
    m1p = example_mprime(1)
    out = coderivation_apply(m1p, (V1, V2))
    assert out.terms == {(W, V2): ONE, (V1, W): -ONE}

    m2p = example_mprime(2)
    assert coderivation_apply(m2p, (V1, W, V2)).terms == {(W, V2): ONE}
    assert coderivation_apply(m2p, (V1, W)).terms == {(W,): ONE}


def test_coderivation_apply_higher_arity_map_gives_zero():
    assert coderivation_apply(example_mprime(3), (V1, V2)).is_zero()


def test_coderivation_apply_requires_primed():
    with pytest.raises(InputError):
        coderivation_apply(example_m(2), (V1, V2))


def test_d_apply_examples():
    s = example_structure(primed=True)
    assert d_apply(s, TensorPoly(EXAMPLE_SPACE, {(V1,): 1})).terms == {(W,): ONE}
    out = d_apply(s, TensorPoly(EXAMPLE_SPACE, {(V1, V2): 1}))
    assert out.terms == {(V1,): ONE, (W, V2): ONE, (V1, W): -ONE}
    assert d_apply(s, TensorPoly(EXAMPLE_SPACE)).is_zero()


def test_d_apply_is_linear():
    s = example_structure(primed=True)
    p = TensorPoly(EXAMPLE_SPACE, {(V1, V2): Fraction(2, 3), (V1, W): -2})
    a = d_apply(s, TensorPoly(EXAMPLE_SPACE, {(V1, V2): Fraction(2, 3)}))
    b = d_apply(s, TensorPoly(EXAMPLE_SPACE, {(V1, W): -2}))
    assert d_apply(s, p) == a + b


def test_d_squared_examples():
    s = example_structure(primed=True)
    assert d_squared(s, (V1, V2)).is_zero()
    assert d_squared(s, (V1, W, V2)).is_zero()
    mp = mutated_structure().primed_version()
    assert d_squared(mp, (V1, V2)).terms == {(W,): Fraction(-2)}


def test_d_squared_requires_primed():
    with pytest.raises(InputError):
        d_squared(example_structure(), (V1, V2))


def test_d_apply_requires_a_primed_structure_on_its_space():
    p = TensorPoly(EXAMPLE_SPACE, {(V1,): 1})
    with pytest.raises(InputError, match="needs a primed structure"):
        d_apply(example_structure(), p)
    other = TensorPoly(GradedSpace((BasisElement("a", 0),)), {(0,): 1})
    with pytest.raises(InputError, match="different spaces"):
        d_apply(example_structure(primed=True), other)


# ---------------------------------------------------------------------------
# direct identity
# ---------------------------------------------------------------------------


def brute_defect(s: AStructure, x: tuple) -> dict:
    """Independent oracle: expand every (prefix, inner-arity) term literally."""
    n = len(x)
    total: dict[int, Fraction] = {}
    for lam in range(n):
        for k in range(1, n - lam + 1):
            inner_map = s.map_at(k)
            outer_map = s.map_at(n - k + 1)
            if inner_map is None or outer_map is None:
                continue
            prefix_degree = sum(s.space.degree(i) for i in x[:lam])
            a = alpha_sign(k, lam, n, prefix_degree)
            inner = apply_map(inner_map, x[lam : lam + k])
            for b, c in inner.items():
                outer = apply_map(outer_map, x[:lam] + (b,) + x[lam + k :])
                for b2, c2 in outer.items():
                    total[b2] = total.get(b2, Fraction(0)) + a * c * c2
    return {b: c for b, c in total.items() if c}


def test_stasheff_defect_examples():
    s = example_structure()
    assert stasheff_defect(s, (V1,)) == {}
    assert stasheff_defect(s, (V1, V2)) == {}
    assert stasheff_defect(s, (V1, W, V2)) == {}


def test_stasheff_defect_matches_brute_oracle_on_example():
    s = example_structure()
    for n in range(1, 5):
        for x in EXAMPLE_SPACE.basis_words(n):
            assert stasheff_defect(s, x) == brute_defect(s, x)


def test_stasheff_defect_matches_brute_oracle_on_mutation():
    s = mutated_structure()
    seen_nonzero = False
    for n in range(1, 5):
        for x in EXAMPLE_SPACE.basis_words(n):
            d = stasheff_defect(s, x)
            assert d == brute_defect(s, x)
            seen_nonzero = seen_nonzero or bool(d)
    assert seen_nonzero


def test_stasheff_defect_requires_unprimed():
    with pytest.raises(InputError):
        stasheff_defect(example_structure(primed=True), (V1,))


def test_nonzero_defect_degree():
    s = mutated_structure()
    for n in range(1, 5):
        for x in EXAMPLE_SPACE.basis_words(n):
            for b in stasheff_defect(s, x):
                assert EXAMPLE_SPACE.degree(b) == word_degree(EXAMPLE_SPACE, x) + 3 - n


# ---------------------------------------------------------------------------
# cross-formulation agreement
# ---------------------------------------------------------------------------


def top_component(p: TensorPoly) -> dict:
    return {w[0]: c for w, c in p.terms.items() if len(w) == 1}


@pytest.mark.parametrize("builder", [example_structure, mutated_structure, truncated_example])
def test_direct_defect_vanishes_iff_word_output_component_of_d_squared(builder):
    s = builder()
    sp = s.primed_version()
    for n in range(1, 5):
        for x in EXAMPLE_SPACE.basis_words(n):
            direct = stasheff_defect(s, x)
            coder = top_component(d_squared(sp, x))
            assert bool(direct) == bool(coder)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_formulation_agreement_on_random_maps(data):
    space = data.draw(graded_spaces(max_dim=3))
    maps = {}
    for arity in (1, 2):
        m = data.draw(
            homogeneous_multimaps(space=space, min_arity=arity, max_arity=arity)
        )
        if m.table:
            maps[arity] = m
    if not maps:
        maps = {1: MultiMap(space, 1, {})}
    s = AStructure(space, maps=maps, name="random")
    sp = s.primed_version()
    x = data.draw(words_over(space, max_arity=3))
    assert bool(stasheff_defect(s, x)) == bool(top_component(d_squared(sp, x)))


# ---------------------------------------------------------------------------
# split-word decomposition and window anticommutation
# ---------------------------------------------------------------------------


def concat(a: TensorPoly, b: TensorPoly) -> TensorPoly:
    terms = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            terms[wa + wb] = terms.get(wa + wb, Fraction(0)) + ca * cb
    return TensorPoly(a.space, terms)


def straddle_terms(s: AStructure, u: tuple, v: tuple) -> TensorPoly:
    """Terms of D(u + v) whose window starts in u and ends in v."""
    word = u + v
    terms: dict = {}
    for k, table in s.tables_up_to(len(word)).items():
        for i in range(len(word) - k + 1):
            if not (i < len(u) < i + k):
                continue
            hit = table.get(word[i : i + k])
            if hit is None:
                continue
            sign = (-1) ** ((word_degree(s.space, word[:i]) - i) & 1) if i else 1
            for b, c in hit.items():
                nw = word[:i] + (b,) + word[i + k :]
                terms[nw] = terms.get(nw, Fraction(0)) + sign * c
    return TensorPoly(s.space, terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_split_word_decomposition_of_d(data):
    s = example_structure(primed=True)
    u = data.draw(words_over(EXAMPLE_SPACE, max_arity=3))
    v = data.draw(words_over(EXAMPLE_SPACE, max_arity=3))
    du_v = concat(d_apply(s, TensorPoly(EXAMPLE_SPACE, {u: 1})), TensorPoly(EXAMPLE_SPACE, {v: 1}))
    sign = -1 if (word_degree(EXAMPLE_SPACE, u) - len(u)) % 2 else 1
    u_dv = concat(TensorPoly(EXAMPLE_SPACE, {u: 1}), d_apply(s, TensorPoly(EXAMPLE_SPACE, {v: 1})))
    expected = du_v + sign * u_dv + straddle_terms(s, u, v)
    assert d_apply(s, TensorPoly(EXAMPLE_SPACE, {u + v: 1})) == expected


def one_position(mp: MultiMap, word: tuple, pos: int, coeff: Fraction) -> dict:
    """One summand of the coderivation extension: the window at ``pos`` only."""
    k = mp.arity
    hit = mp.table.get(word[pos : pos + k])
    if hit is None:
        return {}
    sign = 1
    if pos:
        sign = -1 if (word_degree(mp.space, word[:pos]) - pos) % 2 else 1
    return {
        word[:pos] + (b,) + word[pos + k :]: sign * coeff * c for b, c in hit.items()
    }


@pytest.mark.parametrize("n", range(2, 8))
def test_disjoint_window_applications_anticommute(n):
    """Tail-then-head application is minus head-then-tail, window by window."""
    s = example_structure(primed=True)
    for i in range(1, n):
        for j in range(1, n - i + 1):
            mi, mj = s.map_at(i), s.map_at(j)
            for word in list(EXAMPLE_SPACE.basis_words(n))[:: max(1, 3 ** (n - 3))]:
                total: dict = {}
                for w1, c1 in one_position(mj, word, n - j, ONE).items():
                    for w2, c2 in one_position(mi, w1, 0, c1).items():
                        total[w2] = total.get(w2, Fraction(0)) + c2
                for w1, c1 in one_position(mi, word, 0, ONE).items():
                    for w2, c2 in one_position(mj, w1, n - i + 1 - j, c1).items():
                        total[w2] = total.get(w2, Fraction(0)) + c2
                assert all(c == 0 for c in total.values()), (i, j, word, total)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_d_squared_output_is_degree_homogeneous(data):
    s = mutated_structure().primed_version()
    x = data.draw(words_over(EXAMPLE_SPACE, max_arity=4))
    out = d_squared(s, x)
    expected = word_degree(EXAMPLE_SPACE, x) - len(x) + 2
    for w in out.terms:
        assert word_degree(EXAMPLE_SPACE, w) - len(w) == expected


# ---------------------------------------------------------------------------
# verify_structure
# ---------------------------------------------------------------------------


def test_verify_example_passes_both_modes():
    report = verify_structure(example_structure(), 5, mode="both")
    assert report.passed
    assert report.failure_count == 0
    assert [rec.check for rec in report.checks] == ["direct"] * 5 + ["coderivation"] * 5
    assert [rec.words for rec in report.checks[:5]] == [3, 9, 27, 81, 243]


def test_verify_all_zero_structure_passes():
    space = EXAMPLE_SPACE
    s = AStructure(space, maps={1: MultiMap(space, 1, {})}, name="zero")
    assert verify_structure(s, 4, mode="both").passed


def test_verify_mutated_structure_fails_at_arity_two():
    report = verify_structure(mutated_structure(), 4, mode="coderivation")
    assert not report.passed
    first = next(rec for rec in report.checks if rec.failures)
    assert first.arity == 2
    assert first.failures[0].word == ("v1", "v2")
    assert first.failures[0].defect == ((Fraction(-2), ("w",)),)


def test_verify_mode_validation():
    with pytest.raises(InputError):
        verify_structure(example_structure(), 3, mode="sideways")
    with pytest.raises(InputError):
        verify_structure(example_structure(), 0)
    # the driver's third check is not a mode of verify_structure
    with pytest.raises(InputError):
        verify_structure(example_structure(), 3, mode="linfty")
    with pytest.raises(InputError):
        verify_linfty(example_structure(), 0)


def test_verify_accepts_primed_families_too():
    report = verify_structure(example_structure(primed=True), 3, mode="both")
    assert report.passed
    # a failing family reports the same failures from either side of the transfer
    s = mutated_structure()
    primed = s.primed_version()
    report = verify_structure(s, 5, mode="both")
    assert not report.passed
    assert verify_structure(primed, 5, mode="both") == report
    assert verify_linfty(primed, 4) == verify_linfty(s, 4)


# ---------------------------------------------------------------------------
# AStructure mechanics
# ---------------------------------------------------------------------------


def test_structure_requires_exactly_one_backing():
    with pytest.raises(InputError):
        AStructure(EXAMPLE_SPACE)
    with pytest.raises(InputError):
        AStructure(EXAMPLE_SPACE, maps={}, generator=example_m)


def test_structure_validates_members():
    with pytest.raises(InputError):
        AStructure(EXAMPLE_SPACE, maps={3: example_m(2)})
    with pytest.raises(InputError):
        AStructure(EXAMPLE_SPACE, maps={2: example_mprime(2)})  # primed mismatch
    other = GradedSpace((BasisElement("a", 0),))
    with pytest.raises(InputError, match="share the structure's space"):
        AStructure(EXAMPLE_SPACE, maps={1: MultiMap(other, 1, {})})


def test_generator_backed_structure_materializes_lazily():
    s = example_structure()
    assert s.map_at(6) == example_m(6)
    assert list(s.tables_up_to(3)) == [1, 2, 3]
    assert not s.is_finite
    snap = s.snapshot(4)
    assert snap.is_finite and snap.arities == [1, 2, 3, 4]
    with pytest.raises(InputError, match="no finite arity list"):
        s.arities
    with pytest.raises(InputError, match="arity must be >= 1"):
        s.map_at(0)


def test_transferred_family_reads_the_source_rule_once_per_arity():
    calls = []

    def rule(k):
        calls.append(k)
        return example_m(k)

    s = AStructure(EXAMPLE_SPACE, generator=rule)
    primed = s.primed_version()
    tables = primed.tables_up_to(6)
    assert tables == {k: prime(s.map_at(k)).table for k in range(1, 7)}
    assert calls == [1, 2, 3, 4, 5, 6]


def test_primed_unprimed_versions_round_trip():
    s = truncated_example(3)
    sp = s.primed_version()
    assert sp.primed and sp.map_at(2) == prime(example_m(2))
    assert sp.primed_version() is sp
    back = sp.unprimed_version()
    assert back.map_at(3) == example_m(3)


def test_repr_shows_the_structure():
    """A failing property prints its structure: name, flag, basis and tables."""
    s = mutated_structure(2)
    text = repr(s)
    assert text.startswith("AStructure('mutated', primed=False, basis=[")
    assert "v1:" in text and "m2(v1,v2) = " in text
    primed = repr(s.primed_version())
    assert "primed=True" in primed and "m1(" in primed
    assert repr(example_structure()) == "AStructure('paper-example', primed=False, generator)"
