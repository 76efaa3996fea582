"""The sweeps against the literal per-word oracle, and exactness."""

from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ainfty import (
    AStructure,
    BasisElement,
    CheckRecord,
    Failure,
    GradedSpace,
    MultiMap,
    Report,
    TensorPoly,
    active_backend,
    coderivation_apply,
    d_apply,
    d_squared,
    example_structure,
    parse_structure,
    stasheff_defect,
    verify_structure,
)
import ainfty._backend as backend
from ainfty._backend import _direct_candidates
from conftest import random_structures
from test_engine import mutated_structure


def oracle_report(
    s: AStructure, max_arity: int, checks=("direct", "coderivation")
) -> Report:
    """The checks built over all words from stasheff_defect and d_squared."""
    space = s.space
    names = space.word_names
    unprimed, primed = s.unprimed_version(), s.primed_version()
    records = []
    for check in checks:
        for n in range(1, max_arity + 1):
            failures = []
            for word in space.basis_words(n):
                if check == "direct":
                    defect = {(b,): c for b, c in stasheff_defect(unprimed, word).items()}
                else:
                    defect = d_squared(primed, word).terms
                if defect:
                    terms = tuple(
                        (defect[w], names(w))
                        for w in sorted(defect, key=lambda w: (len(w), w))
                    )
                    failures.append(Failure(word=names(word), defect=terms))
            records.append(CheckRecord(check, n, space.dim**n, tuple(failures)))
    return Report(s.name, space.convention, max_arity, tuple(records))


def assert_sweep_matches_oracle(s: AStructure, max_arity: int) -> Report:
    report = verify_structure(s, max_arity, mode="both")
    assert report == oracle_report(s, max_arity)
    return report


def test_active_backend_is_pure():
    assert active_backend() == "pure"


def test_sweep_matches_oracle_on_the_example():
    assert assert_sweep_matches_oracle(example_structure(), 5).passed


def test_sweep_matches_oracle_on_failures():
    report = assert_sweep_matches_oracle(mutated_structure(), 4)
    assert not report.passed
    assert all(rec.failures for rec in report.checks if rec.arity >= 2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sweep_matches_oracle_on_random_structures(data):
    s = data.draw(random_structures(max_arity=3, max_dim=3))
    assert_sweep_matches_oracle(s, 3)


def test_wide_coefficients_stay_exact():
    """Coefficients far beyond any machine word are carried exactly."""
    space = GradedSpace((BasisElement("a", 0), BasisElement("b", 1)))
    big = Fraction(2**80)
    s = AStructure(
        space,
        maps={1: MultiMap(space, 1, {(0,): {1: big}})},
        name="wide",
    )
    # nothing above arity 1 exists and b has no outgoing map
    assert assert_sweep_matches_oracle(s, 2).passed


def test_large_products_stay_exact():
    """Coefficients whose products exceed 64 bits give the exact defect."""
    space = GradedSpace(
        (BasisElement("a", 0), BasisElement("b", 1), BasisElement("c", 2))
    )
    big = Fraction(2**40)
    maps = {
        1: MultiMap(space, 1, {(0,): {1: big}, (1,): {2: big}}),
    }
    s = AStructure(space, maps=maps, name="overflowing")
    report = assert_sweep_matches_oracle(s, 2)
    coderivation = [rec for rec in report.checks if rec.check == "coderivation"]
    assert coderivation[0].failures[0].defect == ((Fraction(2**80), ("c",)),)


P, Q = 2**61 - 1, 2**89 - 1  # coprime (both prime)


def wide_denominator_structure() -> AStructure:
    """A dense failing structure whose common denominator is P*Q.

    x0, x1, x2 of degree 0 and y of degree 1; m_1(x_i) = y, m_2 is Z/3
    addition on the x's with m_2(x1, x1) = x2 / P, and
    m_3(x_i, x_j, y) = x_{i+j+2} / Q for every i, j.
    """
    space = GradedSpace(
        tuple(BasisElement(f"x{i}", 0) for i in range(3)) + (BasisElement("y", 1),)
    )
    m1 = {(i,): {3: Fraction(1)} for i in range(3)}
    m2 = {(i, j): {(i + j) % 3: Fraction(1)} for i in range(3) for j in range(3)}
    m2[(1, 1)] = {2: Fraction(1, P)}
    m3 = {(i, j, 3): {(i + j + 2) % 3: Fraction(1, Q)} for i in range(3) for j in range(3)}
    maps = {
        1: MultiMap(space, 1, m1),
        2: MultiMap(space, 2, m2),
        3: MultiMap(space, 3, m3),
    }
    return AStructure(space, maps=maps, name="wide-denominators")


def test_wide_denominators_stay_exact():
    """The sweep's integer defects, scaled by (P*Q)**2, divide back exactly."""
    s = wide_denominator_structure()
    report = verify_structure(s, 3)
    assert report == oracle_report(s, 3)
    assert not report.passed
    # at x1 x1 x2 all prefix degrees are 0, so the terms of the identity are
    # + m_2(m_2(x1, x1), x2) = x1 / P, - m_2(x1, m_2(x1, x2)) = - x1 and
    # + m_3(x1, x1, m_1(x2)) = x1 / Q; the other terms meet absent entries
    (direct_3,) = [r for r in report.checks if (r.check, r.arity) == ("direct", 3)]
    (failure,) = [f for f in direct_3.failures if f.word == ("x1", "x1", "x2")]
    assert failure.defect == ((Fraction(1, P) - 1 + Fraction(1, Q), ("x1",)),)


def test_sweep_cores_return_ints(monkeypatch):
    """Inside the sweeps the cores see int tables and return only ints.

    A stray Fraction seed or table would bring Fraction arithmetic back
    into the hot loop without changing any report; this catches it.
    """
    returned: dict[str, list] = {}
    for name in ("_stasheff_vec", "_d_squared_raw"):
        core, values = getattr(backend, name), returned.setdefault(name, [])

        def recording(*args, core=core, values=values):
            out = core(*args)
            values.extend(out.values())
            return out

        monkeypatch.setattr(backend, name, recording)
    s = wide_denominator_structure()
    assert not verify_structure(s, 3).passed
    for values in returned.values():
        assert values and all(type(c) is int for c in values)
    # the per-word oracles still compute in Fraction
    primed = s.primed_version()
    word = (1, 1, 2)
    oracle_values = [
        *stasheff_defect(s, word).values(),
        *d_squared(primed, word).terms.values(),
        *coderivation_apply(primed.map_at(2), word[:2]).terms.values(),
        *d_apply(primed, TensorPoly(s.space, {word: Fraction(1)})).terms.values(),
    ]
    assert oracle_values and all(type(c) is Fraction for c in oracle_values)


def candidate_words(s: AStructure, n: int) -> set:
    """The direct sweep's distinct words, reading at most 1000 of them.

    A fallback to all words at high arity then fails a count, not hangs.
    """
    return set(islice(_direct_candidates(s.tables_up_to(n), s.space, n), 1000))


@settings(max_examples=75, deadline=None)
@given(st.data())
def test_direct_sweep_matches_oracle_on_sparse_structures(data):
    s = data.draw(
        random_structures(
            max_arity=4, min_dim=4, max_dim=5, min_degree=-1, max_degree=1
        )
    )
    space = s.space
    report = verify_structure(s, 4, mode="direct")
    assert report == oracle_report(s, 4, checks=("direct",))
    # at most 4 entries per table give fewer (u, lam, v) triples than the
    # dim**4 >= 256 words, so arity 4 enumerates candidates, not all words
    assert len(candidate_words(s, 4)) < space.dim**4


def test_dense_tables_iterate_all_words_lazily():
    path = Path(__file__).parent / "corpus" / "z12.astr"
    s = parse_structure(path.read_text(encoding="utf-8"), name="z12")
    # the direct sweep reads the unprimed tables, the coderivation sweep the primed
    for t in (s, s.primed_version()):
        words = _direct_candidates(t.tables_up_to(3), t.space, 3)
        assert iter(words) is words  # an iterator, not a materialized collection
        assert len(set(words)) == 12**3


def test_direct_candidate_counts_on_the_example():
    """Polynomial work: a fallback to all 3**n words fails here."""
    s = example_structure()
    assert [len(candidate_words(s, n)) for n in (3, 9, 20)] == [8, 107, 569]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_coderivation_sweep_matches_oracle_on_random_structures(data):
    """About a third of these fail below arity 4, so bad windows get placed."""
    s = data.draw(
        random_structures(
            max_arity=3, max_entries=6, min_dim=2, max_dim=3, min_degree=-1, max_degree=1
        )
    )
    report = verify_structure(s, 4, mode="coderivation")
    assert report == oracle_report(s, 4, checks=("coderivation",))


def test_coderivation_sweep_matches_oracle_on_the_mutated_example():
    s = mutated_structure()
    report = verify_structure(s, 6, mode="coderivation")
    assert report == oracle_report(s, 6, checks=("coderivation",))


def one_letter_part(primed: AStructure, word) -> dict:
    return {w: c for w, c in d_squared(primed, word).terms.items() if len(w) == 1}


def test_coderivation_placements_that_cancel_are_not_reported():
    """Two bad windows of a t a put opposite coefficients on the word a a."""
    s = parse_structure(
        "ainfty v1\nconvention cochain\nbasis a 0\nbasis t -1\n"
        "map 1: t -> 1 a\nmap 2: a t -> 1 t\nmap 2: t a -> 1 t\n",
        name="cancel",
    )
    a, t = 0, 1
    primed = s.primed_version()
    assert one_letter_part(primed, (a, t)) == {(a,): 1}
    assert one_letter_part(primed, (t, a)) == {(a,): -1}
    assert d_squared(primed, (a, t, a)).is_zero()
    report = verify_structure(s, 5, mode="coderivation")
    assert report == oracle_report(s, 5, checks=("coderivation",))
    assert ("a", "t", "a") not in [f.word for f in report.checks[2].failures]
    assert [len(rec.failures) for rec in report.checks] == [0, 2, 5, 13, 28]


def test_coderivation_windows_of_two_arities_add_into_one_defect():
    """At a a a, the bad windows a and a a both contribute terms."""
    s = parse_structure(
        "ainfty v1\nconvention cochain\nbasis a 0\nbasis b 1\nbasis c 2\n"
        "map 1: a -> 1 b\nmap 1: b -> 1 c\nmap 2: a a -> 1 a\n",
        name="two-arities",
    )
    primed = s.primed_version()
    assert one_letter_part(primed, (0,)) and one_letter_part(primed, (0, 0))
    defect = d_squared(primed, (0, 0, 0)).terms
    assert {len(w) for w in defect} == {2, 3}
    report = verify_structure(s, 5, mode="coderivation")
    assert report == oracle_report(s, 5, checks=("coderivation",))
    failure = next(f for f in report.checks[2].failures if f.word == ("a", "a", "a"))
    assert len(failure.defect) == len(defect)


def test_coderivation_words_visited_on_the_example(monkeypatch):
    """Polynomial work: a fallback to all 3**n words fails after 1000 reads."""
    visited = []
    d_squared_raw = backend._d_squared_raw

    def counting(tables, degrees, word):
        visited.append(word)
        assert len(visited) <= 1000, "the sweep reads too many words"
        return d_squared_raw(tables, degrees, word)

    monkeypatch.setattr(backend, "_d_squared_raw", counting)
    primed = example_structure().primed_version()
    counts = []
    for n in (7, 12):
        visited.clear()
        tables, scale = backend._scaled_tables(primed, n)
        assert backend._sweep_one(primed, "coderivation", n, {}, tables, scale) == []
        counts.append(len(visited))
    assert counts == [62, 197]


def test_words_visited_on_a_failing_structure(monkeypatch):
    """Both sweeps evaluate their core only at the candidates, even failing.

    The coderivation sweep assembles the defects of the words that contain a
    bad window instead of evaluating D(D(.)) there; evaluating every such
    word raises its visits to 2, 10, 37, 128, 455 (632 in all).
    """
    visits = {"direct": Counter(), "coderivation": Counter()}

    def counting(check, core):
        def wrapper(tables, degrees, word):
            visits[check][len(word)] += 1
            return core(tables, degrees, word)

        return wrapper

    monkeypatch.setattr(
        backend, "_stasheff_vec", counting("direct", backend._stasheff_vec)
    )
    monkeypatch.setattr(
        backend, "_d_squared_raw", counting("coderivation", backend._d_squared_raw)
    )
    assert not verify_structure(mutated_structure(), 6).passed
    assert [visits["direct"][n] for n in range(2, 7)] == [2, 8, 17, 27, 27]
    assert [visits["coderivation"][n] for n in range(2, 7)] == [2, 8, 17, 27, 27]
