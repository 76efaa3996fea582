"""Value semantics of the seven immutable records.

``BasisElement``, ``GradedSpace``, ``MultiMap``, ``TensorPoly``,
``Failure``, ``CheckRecord`` and ``Report`` compare and hash by their
fields in declaration order, refuse attribute assignment, and survive
``pickle`` and ``copy``; all but ``TensorPoly``, which prints as a sum,
also print by their fields.  The repr strings and validation messages
below are pinned: the reports, error lines and test output that show them
must not drift.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings

from ainfty import (
    BasisElement,
    CheckRecord,
    Failure,
    GradedSpace,
    InputError,
    MultiMap,
    Report,
    TensorPoly,
    prime,
    symmetrize_prime,
    unprime,
)
from conftest import homogeneous_multimaps

A, B = BasisElement("a", 0), BasisElement("b", 1)
SPACE = GradedSpace((A, B), "chain")
MAP = MultiMap(SPACE, 2, {(0, 1): {1: 2}})
FAILURE = Failure(("a", "b"), ((Fraction(-1, 2), ("b",)),))
RECORD = CheckRecord("direct", 2, 4, (FAILURE,))
REPORT = Report("s", "cochain", 2, (RECORD,))
POLY = TensorPoly(SPACE, {(0,): Fraction(1, 2), (0, 1): -1})
VALUES = (A, SPACE, MAP, FAILURE, RECORD, REPORT, POLY)
# the polynomial's second field, so that no two ids are the same
FIRST_FIELDS = ("name", "elements", "space", "word", "check", "structure", "terms")

SPACE_REPR = (
    "GradedSpace(elements=(BasisElement(name='a', degree=0), "
    "BasisElement(name='b', degree=1)), convention='chain')"
)
FAILURE_REPR = "Failure(word=('a', 'b'), defect=((Fraction(-1, 2), ('b',)),))"
RECORD_REPR = f"CheckRecord(check='direct', arity=2, words=4, failures=({FAILURE_REPR},))"


def test_repr_lists_the_fields_in_order():
    assert repr(A) == "BasisElement(name='a', degree=0)"
    assert repr(SPACE) == SPACE_REPR
    assert repr(MAP) == (
        f"MultiMap(space={SPACE_REPR}, arity=2, table={{(0, 1): {{1: Fraction(2, 1)}}}}, "
        "primed=False)"
    )
    assert repr(MultiMap(SPACE, 1)) == (
        f"MultiMap(space={SPACE_REPR}, arity=1, table={{}}, primed=False)"
    )
    assert repr(FAILURE) == FAILURE_REPR
    assert repr(RECORD) == RECORD_REPR
    assert repr(REPORT) == (
        f"Report(structure='s', convention='cochain', max_arity=2, checks=({RECORD_REPR},))"
    )


def test_keyword_construction_and_defaults():
    assert BasisElement(name="a", degree=0) == A
    assert GradedSpace(elements=[A, B], convention="chain") == SPACE
    assert GradedSpace((A, B)).convention == "cochain"
    assert GradedSpace([A, B]).elements == (A, B)  # any iterable, stored as a tuple
    assert MultiMap(space=SPACE, arity=2, table={(0, 1): {1: 2}}, primed=False) == MAP
    empty = MultiMap(SPACE, 3)
    assert (empty.table, empty.primed, empty.degree) == ({}, False, -1)
    assert MultiMap(SPACE, 3, primed=True).degree == 1
    assert Failure(word=FAILURE.word, defect=FAILURE.defect) == FAILURE
    assert CheckRecord(check="direct", arity=2, words=4, failures=(FAILURE,)) == RECORD
    assert Report(structure="s", convention="cochain", max_arity=2, checks=(RECORD,)) == REPORT


def test_equality_is_by_class_and_fields():
    assert BasisElement("a", 0) == A and BasisElement("a", 1) != A
    assert GradedSpace((A, B)) != SPACE  # conventions differ
    assert MultiMap(SPACE, 2, {(0, 1): {1: 2}}, primed=True) != MAP
    assert MultiMap(SPACE, 2, {(0, 1): {1: 0}}) == MultiMap(SPACE, 2)  # zeros dropped
    assert Failure(("a", "b"), ()) != FAILURE
    assert TensorPoly(SPACE, {(0,): 1, (1,): 0}) == TensorPoly(SPACE, {(0,): Fraction(1)})
    assert TensorPoly(SPACE) != TensorPoly(GradedSpace((A, B)))  # spaces differ
    assert A != ("a", 0) and A.__eq__(("a", 0)) is NotImplemented
    assert RECORD != REPORT


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(A) == hash(("a", 0)) == hash(BasisElement("a", 0))
    assert hash(SPACE) == hash(((A, B), "chain"))
    assert hash(REPORT) == hash(("s", "cochain", 2, (RECORD,)))
    assert len({FAILURE, Failure(FAILURE.word, FAILURE.defect)}) == 1
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(MAP)  # its table is a dict
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(POLY)  # so are its terms


@pytest.mark.parametrize("value, field", zip(VALUES, FIRST_FIELDS), ids=FIRST_FIELDS)
def test_fields_cannot_be_assigned_or_deleted(value, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert getattr(value, field) is not None


def test_space_index_is_private_to_the_fields():
    with pytest.raises(AttributeError):
        SPACE._index = {}
    assert "_index" not in repr(SPACE)
    assert SPACE.index("b") == 1


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_pickle_and_copy_round_trip(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)


def test_copied_space_rebuilds_its_index():
    twin = copy.deepcopy(SPACE)
    assert twin is not SPACE
    assert [twin.index(n) for n in ("a", "b")] == [0, 1]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BasisElement("", 0), "basis element name must be a non-empty string"),
        (lambda: BasisElement(3, 0), "basis element name must be a non-empty string"),
        (lambda: BasisElement("a", 1.0), "degrees must be integers"),
        (lambda: GradedSpace((A,), "weird"), "unknown convention 'weird'"),
        (lambda: GradedSpace(()), "a graded space needs at least one basis element"),
        (lambda: GradedSpace((A, A)), "duplicate basis name 'a'"),
        (lambda: MultiMap(SPACE, 0), "map arity must be >= 1"),
        (lambda: MultiMap(SPACE, 2, {(0,): {0: 1}}), "table word (0,) has arity 1, map has arity 2"),
        (lambda: MultiMap(SPACE, 2, {(0, 5): {0: 1}}), "basis index 5 out of range in word (0, 5)"),
        # the word is checked before its vector, even when the vector is zero
        (lambda: MultiMap(SPACE, 2, {(0, 5): {7: 0}}), "basis index 5 out of range in word (0, 5)"),
        (lambda: MultiMap(SPACE, 2, {(0, 0): {7: 1}}), "basis index 7 out of range"),
        (lambda: MultiMap(SPACE, 2, {(0, 0): {1: 1}}), "inhomogeneous entry: (0, 0) -> basis b"),
        (lambda: MultiMap(SPACE, 2, {(0, 0): {0: 1, 1: 1}}),
         "inhomogeneous entry: (0, 0) -> basis b"),
        (lambda: TensorPoly(SPACE, {(0, 5): 1}), "basis index 5 out of range in word (0, 5)"),
        (lambda: TensorPoly(SPACE, {(5,): 0}), "basis index 5 out of range in word (5,)"),
        (lambda: TensorPoly(SPACE, {(): 1}), "words must have arity >= 1"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


@settings(max_examples=60, deadline=None)
@given(homogeneous_multimaps(max_arity=4))
def test_derived_maps_are_the_checked_values(m):
    """The transfer and the symmetrization build their results unchecked.

    They derive every entry from a checked map with the same letters, so
    ``MultiMap._raw`` stores what ``MultiMap(...)`` would have built.
    """
    for derived in (prime(m), unprime(prime(m)), symmetrize_prime(prime(m))):
        checked = MultiMap(derived.space, derived.arity, derived.table, derived.primed)
        assert derived == checked
        assert all(type(c) is Fraction for vec in derived.table.values() for c in vec.values())
