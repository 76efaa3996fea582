"""Metamorphic relations: conjugation by a degree-0 map and direct sums.

Neither needs an oracle, and both hold on failing structures.  Conjugating
by an invertible degree-0 ``g`` transforms every defect by ``g`` on each
letter, with no sign; a permutation ``g`` only relabels the records.  A
direct sum A (+) B fails the direct and linfty checks exactly where A or B
does.  Its coderivation check also fails at the mixed words that hold a
bad window of A or of B, since D(D(.)) places each window anywhere.
"""

from fractions import Fraction
from pathlib import Path

from hypothesis import assume, example, given, settings, strategies as st

from ainfty import (
    AStructure,
    Report,
    d_squared,
    parse_structure,
    stasheff_defect,
    verify_linfty,
    verify_structure,
)
from conftest import conjugated, direct_sum, inverse, random_structures, transformed_word
from test_engine import mutated_structure

CORPUS = Path(__file__).parent / "corpus"
# the rational g: on the letters i, j of one degree, g(i) = 1/3 i + 2 j and
# g(j) = -7/2 i + 5 j, of determinant 26/3
MIXING = ((Fraction(1, 3), Fraction(2)), (Fraction(-7, 2), Fraction(5)))

# narrow degrees give random structures many entries and letters of one degree
structures = random_structures(max_arity=3, min_dim=2, max_dim=3, min_degree=-1, max_degree=1)


def failures(report: Report) -> dict[tuple[str, int], dict]:
    """Each record's failing words, by (check, arity): word -> {defect word: coefficient}."""
    return {
        (rec.check, rec.arity): {f.word: {w: c for c, w in f.defect} for f in rec.failures}
        for rec in report.checks
    }


def reports(s: AStructure, max_arity: int) -> dict[tuple[str, int], dict]:
    """The failures of all three checks of ``s`` through ``max_arity``."""
    return failures(verify_structure(s, max_arity)) | failures(verify_linfty(s, max_arity))


def relabelled(records: dict, rename) -> dict:
    """``records`` with ``rename`` applied to each letter of each word."""
    def word(w):
        return tuple(map(rename, w))

    return {
        key: {word(x): {word(w): c for w, c in defect.items()} for x, defect in cell.items()}
        for key, cell in records.items()
    }


def mixing(dim: int, i: int, j: int) -> dict[int, dict[int, Fraction]]:
    """The identity, except that ``MIXING`` acts on the letters i and j."""
    g = {a: {a: Fraction(1)} for a in range(dim)}
    (a, b), (c, d) = MIXING
    g[i], g[j] = {i: a, j: b}, {i: c, j: d}
    return g


def lowest_failing(records: dict) -> dict[str, int | None]:
    checks = {check for check, _ in records}
    return {
        check: min((n for (c, n), cell in records.items() if c == check and cell), default=None)
        for check in checks
    }


@settings(max_examples=60, deadline=None)
@given(s=structures, data=st.data())
@example(s=mutated_structure(), data=None)
def test_a_permutation_only_relabels_every_record(s, data):
    """A degree-preserving permutation of the letters relabels each failure."""
    degrees = s.space.degrees
    perm = list(range(s.space.dim))
    if data is None:
        perm[0], perm[1] = 1, 0  # v1 <-> v2
    else:
        for d in sorted(set(degrees)):
            letters = [a for a in range(s.space.dim) if degrees[a] == d]
            for a, b in zip(letters, data.draw(st.permutations(letters))):
                perm[a] = b
    g = {a: {perm[a]: Fraction(1)} for a in range(s.space.dim)}
    names = [e.name for e in s.space.elements]
    rename = {names[a]: names[perm[a]] for a in range(s.space.dim)}.__getitem__
    assert reports(conjugated(s, g), 4) == relabelled(reports(s, 4), rename)


@settings(max_examples=60, deadline=None)
@given(s=structures, data=st.data())
@example(s=mutated_structure(), data=None)
def test_a_rational_conjugation_transforms_each_direct_defect(s, data):
    """S^g = g S (g^-1)^{(x)n}; every verdict and lowest failing arity stays.

    g mixes two letters of one degree, so a failure may spread over more
    words, but each check's arities with a failure are the same.
    """
    degrees = s.space.degrees
    pairs = [(i, j) for i in range(len(degrees)) for j in range(i + 1, len(degrees))
             if degrees[i] == degrees[j]]
    assume(pairs)
    i, j = (0, 1) if data is None else data.draw(st.sampled_from(pairs))
    g = mixing(s.space.dim, i, j)
    c = conjugated(s, g)
    before, after = reports(s, 4), reports(c, 4)
    assert lowest_failing(after) == lowest_failing(before)  # so every verdict too
    g_inv = inverse(g, s.space.dim)
    names = s.space.word_names
    for n in range(1, 5):
        expected = {}
        for x in s.space.basis_words(n):
            out: dict[int, Fraction] = {}
            for w, weight in transformed_word(g_inv, x).items():
                for b, coeff in stasheff_defect(s, w).items():
                    for b2, c2 in g[b].items():
                        out[b2] = out.get(b2, 0) + weight * coeff * c2
            out = {names((b,)): coeff for b, coeff in out.items() if coeff}
            if out:
                expected[names(x)] = out
        assert after[("direct", n)] == expected


def test_a_rational_conjugation_of_the_mutated_example():
    """Mixing v1 and v2 spreads the direct and coderivation failures, not linfty's."""
    s = mutated_structure()
    c = conjugated(s, mixing(3, 0, 1))

    def counts(report: Report, check: str) -> list[int]:
        return [len(rec.failures) for rec in report.checks if rec.check == check]

    before, after = verify_structure(s, 5), verify_structure(c, 5)
    assert counts(before, "direct") == [0, 1, 2, 7, 17]
    assert counts(after, "direct") == [0, 4, 12, 24, 56]
    assert counts(before, "coderivation") == [0, 1, 6, 28, 119]
    assert counts(after, "coderivation") == [0, 4, 16, 60, 216]
    assert counts(verify_linfty(s, 4), "linfty") == [0, 2, 6, 12]
    assert counts(verify_linfty(c, 4), "linfty") == [0, 2, 6, 12]


def summands(records: dict, prefix: str) -> dict:
    """Each record of A (+) B restricted to the words of one summand's letters."""
    return {
        key: {x: defect for x, defect in cell.items() if all(a.startswith(prefix) for a in x)}
        for key, cell in records.items()
    }


def assert_sum_fails_as_its_summands(a: AStructure, b: AStructure, max_arity: int) -> int:
    """The pure words of A (+) B fail as in A and in B; returns its mixed coderivation failures.

    No mixed word fails the direct or the linfty check.
    """
    records = reports(direct_sum(a, b), max_arity)
    for prefix, summand in (("A.", a), ("B.", b)):
        assert summands(records, prefix) == relabelled(reports(summand, max_arity), prefix.__add__)
    mixed = 0
    for (check, _), cell in records.items():
        pure = [x for x in cell if len({name[0] for name in x}) == 1]
        if check != "coderivation":
            assert len(pure) == len(cell), check
        mixed += len(cell) - len(pure)
    return mixed


@settings(max_examples=40, deadline=None)
@given(structures, structures)
def test_a_direct_sum_fails_exactly_as_its_summands(a, b):
    assert_sum_fails_as_its_summands(a, b, 3)


def test_mixed_words_of_a_direct_sum_fail_the_coderivation_check():
    """A bad window of one summand, placed among the other's letters, still fails.

    Through arity 3 every coderivation failure of mutated (+) rational is
    checked against ``d_squared``.
    """
    rational = parse_structure((CORPUS / "rational.astr").read_text(), name="rational")
    mutated = mutated_structure()
    assert assert_sum_fails_as_its_summands(mutated, rational, 4) == 385
    s = direct_sum(mutated, rational)
    records, primed, names = failures(verify_structure(s, 3)), s.primed_version(), s.space.word_names
    for n in range(1, 4):
        expected = {}
        for x in s.space.basis_words(n):
            terms = d_squared(primed, x).terms
            if terms:
                expected[names(x)] = {names(w): c for w, c in terms.items()}
        assert records[("coderivation", n)] == expected
