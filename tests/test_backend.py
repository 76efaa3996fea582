"""The exhaustive sweep against the literal per-word oracle, and exactness."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ainfty import (
    AStructure,
    BasisElement,
    CheckRecord,
    Failure,
    GradedSpace,
    MultiMap,
    Report,
    active_backend,
    d_squared,
    example_structure,
    stasheff_defect,
    verify_structure,
)
from conftest import graded_spaces, homogeneous_multimaps
from test_engine import mutated_structure


def oracle_report(s: AStructure, max_arity: int) -> Report:
    """Both checks built word by word from stasheff_defect and d_squared."""
    space = s.space
    names = space.word_names
    unprimed, primed = s.unprimed_version(), s.primed_version()
    records = []
    for check in ("direct", "coderivation"):
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
    space = data.draw(graded_spaces(max_dim=3))
    maps = {}
    for arity in (1, 2, 3):
        m = data.draw(
            homogeneous_multimaps(space=space, min_arity=arity, max_arity=arity)
        )
        if m.table:
            maps[arity] = m
    if not maps:
        maps = {1: MultiMap(space, 1, {})}
    assert_sweep_matches_oracle(AStructure(space, maps=maps, name="random"), 3)


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
