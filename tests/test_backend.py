"""The sweeps against the literal per-word oracle, and exactness."""

import itertools
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

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
    verify_linfty,
    verify_structure,
)
import ainfty._backend as backend
import ainfty.engine as engine
from ainfty.signs import desusp_word_sign
from conftest import nonzero_coefficients, random_structures, rescaled, valid_structures
from test_engine import mutated_structure

CORPUS = Path(__file__).parent / "corpus"


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


def test_top_sums_yield_only_ints(monkeypatch):
    """Inside the sweeps the top sums walk int tables and yield only ints.

    A stray Fraction table would bring Fraction arithmetic back into the
    hot loop without changing any report; this catches it.
    """
    values = []
    top_sums = backend._top_sums

    def recording(*args):
        for x, top in top_sums(*args):
            values.extend(top.values())
            yield x, top

    monkeypatch.setattr(backend, "_top_sums", recording)
    s = wide_denominator_structure()
    assert not verify_structure(s, 3).passed
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


@settings(max_examples=75, deadline=None)
@given(st.data())
def test_direct_sweep_matches_oracle_on_sparse_structures(data):
    s = data.draw(
        random_structures(
            max_arity=4, min_dim=4, max_dim=5, min_degree=-1, max_degree=1
        )
    )
    report = verify_structure(s, 4, mode="direct")
    assert report == oracle_report(s, 4, checks=("direct",))


@st.composite
def dense_structures(draw, max_dim: int = 4):
    """Full tables of arity 1..3 with up to three outputs per entry.

    Letters 0 and 1 have degree 0, the others 0 or 1.  Every word whose
    degree allows an output has an entry, so on the degree-0 letters alone
    m_2(m_2(.)) builds at least 2 * dim**3 (u, lam, v) triples at arity 3.
    """
    dim = draw(st.integers(min_value=2, max_value=max_dim))
    rest = st.lists(st.sampled_from([0, 1]), min_size=dim - 2, max_size=dim - 2)
    degrees = [0, 0] + draw(rest)
    space = GradedSpace(tuple(BasisElement(f"e{i}", d) for i, d in enumerate(degrees)))
    maps = {}
    for k in (1, 2, 3):
        table = {}
        for w in itertools.product(range(dim), repeat=k):
            target = sum(degrees[i] for i in w) + 2 - k
            allowed = [b for b in range(dim) if degrees[b] == target]
            if allowed:
                outputs = draw(st.sets(st.sampled_from(allowed), min_size=1, max_size=3))
                table[w] = {b: draw(nonzero_coefficients) for b in sorted(outputs)}
        if table:
            maps[k] = MultiMap(space, k, table)
    return AStructure(space, maps=maps, name="dense")


@settings(max_examples=60, deadline=None)
@given(dense_structures())
def test_sweep_matches_oracle_on_dense_tables(s):
    """Triples far outnumber the words: each word's sum gathers many terms."""
    assert triple_count(s.tables_up_to(3), 3) >= 2 * s.space.dim**3
    assert_sweep_matches_oracle(s, 3)


def triple_count(tables, n: int) -> int:
    """The (u, lam, v) triples of arity n, counted from the tables alone.

    u is an entry of m_{n-k+1} and v one of m_k whose output holds u[lam].
    """
    return sum(
        1
        for k in range(1, n + 1)
        for u in tables.get(n - k + 1, {})
        for letter in u
        for vec in tables.get(k, {}).values()
        if letter in vec
    )


def z32_broken() -> AStructure:
    """Z/32 addition as a full m_2 table, with four entries halved."""
    n = 32
    space = GradedSpace(tuple(BasisElement(f"g{i}", 0) for i in range(n)))
    table = {(a, b): {(a + b) % n: Fraction(1)} for a in range(n) for b in range(n)}
    for a, b in [(1, 2), (5, 7), (9, 30), (20, 20)]:
        table[(a, b)] = {(a + b) % n: Fraction(1, 2)}
    return AStructure(space, maps={2: MultiMap(space, 2, table)}, name="z32")


def test_top_sums_hold_one_first_letter_at_a_time():
    """The sums are accumulated one block of dim**(n-1) words at a time.

    Accumulating all 32**3 words at once peaks at about 12 MB traced here;
    one first letter at a time, about 1.5 MB.
    """
    s = z32_broken()
    tracemalloc.start()
    try:
        report = verify_structure(s, 3, "both")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(rec.failures) for rec in report.checks] == [0, 0, 485] * 2
    assert peak < 4_000_000, f"peak traced memory {peak} bytes"


def test_sweep_copies_neither_tables_nor_defects():
    """The z32 sweep keeps no scaled copy of the tables and no defect copy.

    One index of the entries with scaled coefficients is built per run and
    dropped before the cells, the cells hand their defects to the records as
    they are, and each record builds one ``Fraction`` per distinct
    coefficient.  The traced peak is about 0.57-0.75 MB (less when warm
    allocator free lists serve some objects untraced); with a run-long
    scaled copy of the tables, a ``Fraction`` per term and one-letter
    defects rewrapped as words it was about 1.0-1.06 MB.
    """
    s = z32_broken()
    tracemalloc.start()
    try:
        report = verify_structure(s, 3, "both")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.passed
    assert peak < 900_000, f"peak traced memory {peak} bytes"


def test_coderivation_cell_of_top_windows_only_is_not_copied():
    """z32 has bad windows at arity 3 only; there no two placements meet.

    So the arity-3 coderivation cell is those windows themselves.  With a
    window below the arity, the cell is assembled afresh.
    """
    s = z32_broken()
    degrees = s.space.degrees
    _, index = backend._indexed(s.tables_up_to(3), s.space.dim)
    sums = [dict(backend._top_sums(index, degrees, n)) for n in (1, 2, 3)]
    windows = [backend._desuspended(top, degrees) for top in sums]
    assert not windows[0] and not windows[1] and windows[2]
    assert backend._sweep_one(s, "coderivation", 3, sums[2], windows) is windows[2]
    lower = [{(0,): {(1,): 1}}, *windows[1:]]
    assert backend._sweep_one(s, "coderivation", 3, sums[2], lower) is not windows[2]


def shared_terms(report: Report) -> tuple[int, int]:
    """Count the defect terms that repeat an equal one of the same record.

    Each repeated coefficient and each repeated defect word must be the
    very object met first.  Returns the numbers of repeated coefficients
    and of repeated defect words.
    """
    repeats = [0, 0]
    for rec in report.checks:
        first: tuple[dict, dict] = ({}, {})  # coefficients, defect words
        for failure in rec.failures:
            for term in failure.defect:
                for i, value in enumerate(term):
                    if value in first[i]:
                        assert first[i][value] is value, (rec.check, rec.arity, value)
                        repeats[i] += 1
                    first[i][value] = value
    return repeats[0], repeats[1]


def test_records_share_equal_defect_terms():
    """Within a record, equal coefficients are one Fraction, equal words one tuple."""
    assert shared_terms(verify_structure(z32_broken(), 3, "both")) == (964, 906)
    report = verify_structure(mutated_structure(), 6, "coderivation")
    assert not report.passed
    assert shared_terms(report) == (1134, 683)


def triples_walked(s: AStructure, n: int) -> int:
    """The (u, lam, v) triples ``_top_sums`` walks at arity n.

    Each triple multiplies c_v[u[lam]] once by each coefficient of m(u), so
    on tables with one output per entry the products are the triples.  The
    numerators count the products of two coefficients they take part in
    (scaling one by an int is not such a product); a walk that multiplies
    far more than the triples fails at 20,000 products.
    """
    tables = s.tables_up_to(n)
    assert all(len(vec) == 1 for t in tables.values() for vec in t.values())
    products = 0

    class Counted(int):
        def __neg__(self):
            return Counted(-int(self))

        def __mul__(self, other):
            if not isinstance(other, Counted):
                return Counted(int(self) * other)
            nonlocal products
            products += 1
            assert products <= 20_000, "the walk multiplies too many coefficients"
            return int(self) * int(other)

        __rmul__ = __mul__

    def counted(c: Fraction) -> SimpleNamespace:
        return SimpleNamespace(numerator=Counted(c.numerator), denominator=c.denominator)

    counted_tables = {
        k: {w: {b: counted(c) for b, c in vec.items()} for w, vec in t.items()}
        for k, t in tables.items()
    }
    _, index = backend._indexed(counted_tables, s.space.dim)
    list(backend._top_sums(index, s.space.degrees, n))
    assert products == triple_count(tables, n)
    return products


def test_triples_walked_on_the_example():
    """Polynomial work: 6,040 triples at arity 20, against 3**20 words."""
    s = example_structure()
    assert [triples_walked(s, n) for n in (7, 12, 20)] == [294, 1384, 6040]


def test_top_sums_keys_past_64_bits():
    """At arity 42 a key idx(x) * 3 + b passes 2**64, and every sum stays exact.

    The example's all-w entry of m_21 gets its coefficient times 3/2.  Each
    word the walk yields, and each word a triple through that entry builds
    (the entry as inner v or as outer u, both against m_22), has the sum
    ``stasheff_defect`` gives times scale**2.
    """
    n, k = 42, 21
    example = example_structure()
    tables = {j: dict(t) for j, t in example.tables_up_to(n).items()}
    entry = (0,) + (2,) * (k - 1)  # v1 w^20
    outputs = tables[k][entry] = {b: c * Fraction(3, 2) for b, c in tables[k][entry].items()}
    space = example.space
    s = AStructure(space, maps={j: MultiMap(space, j, t) for j, t in tables.items()})
    scale, index = backend._indexed(s.tables_up_to(n), space.dim)
    assert scale == 2
    sums = dict(backend._top_sums(index, space.degrees, n))
    partners = tables[n - k + 1]
    built = {u[:lam] + entry + u[lam + 1 :] for u in partners for lam in range(len(u))
             if u[lam] in outputs}
    built |= {entry[:lam] + v + entry[lam + 1 :] for lam in range(k)
              for v, vec in partners.items() if entry[lam] in vec}
    assert sums and set(sums) <= built
    for x in built:
        expected = {(b,): c * scale**2 for b, c in stasheff_defect(s, x).items()}
        assert sums.get(x, {}) == expected, space.word_names(x)
    assert any(int("".join(map(str, x)), 3) * 3 >= 2**64 for x in sums)


def test_every_check_walks_each_arity_once(monkeypatch):
    """Both A-infinity checks and the linfty check share one walk per arity.

    The coderivation and linfty sums are the direct ones times a sign of
    the word, so no sweep transfers the maps to the primed side.
    """
    calls = []
    top_sums = backend._top_sums

    def counting(index, degrees, n):
        calls.append(n)
        return top_sums(index, degrees, n)

    def no_transfer(*args):
        raise AssertionError("a sweep built the primed maps")

    monkeypatch.setattr(backend, "_top_sums", counting)
    monkeypatch.setattr(engine, "prime", no_transfer)
    monkeypatch.setattr(AStructure, "primed_version", no_transfer)
    assert verify_structure(example_structure(), 8, "both").passed
    assert calls == list(range(1, 9))
    calls.clear()
    assert not verify_structure(mutated_structure(), 5, "both").passed
    assert calls == list(range(1, 6))
    calls.clear()
    assert not verify_linfty(mutated_structure(), 4).passed
    assert calls == list(range(1, 5))


def test_each_table_entry_is_indexed_once_per_run(monkeypatch):
    """One index serves every arity's walk: two ``_index`` calls per entry.

    Each entry w gets idx(w) and its tail's idx(w[1:]) once per run, in
    ``_indexed``, whichever roles it plays at whichever arities.  The
    example through arity 8 has 2 + 3 + ... + 9 = 44 entries; indexing each
    arity's entries afresh at every walk made 468 calls.
    """
    calls = []
    index = backend._index

    def counting(w, dim):
        calls.append(w)
        return index(w, dim)

    monkeypatch.setattr(backend, "_index", counting)
    s = example_structure()
    assert verify_structure(s, 8, "both").passed
    entries = sum(len(t) for t in s.tables_up_to(8).values())
    assert entries == 44
    assert len(calls) == 2 * entries


def test_every_walk_comes_before_the_first_record(monkeypatch):
    """Phase 1 walks arities 1..N; only then does phase 2 build records.

    The records follow check by check, arity ascending, so every verdict is
    fixed before the first record exists.
    """
    events = []
    top_sums, to_record = backend._top_sums, backend._to_record

    def walking(index, degrees, n):
        events.append(("walk", n))
        return top_sums(index, degrees, n)

    def recording(space, check, arity, defects, scale):
        events.append(("record", check, arity))
        return to_record(space, check, arity, defects, scale)

    monkeypatch.setattr(backend, "_top_sums", walking)
    monkeypatch.setattr(backend, "_to_record", recording)
    a_infinity = ("direct", "coderivation")
    runs = [
        (lambda: verify_structure(example_structure(), 8, "both"), 8, a_infinity, True),
        (lambda: verify_structure(mutated_structure(), 5, "both"), 5, a_infinity, False),
        (lambda: verify_linfty(mutated_structure(), 4), 4, ("linfty",), False),
    ]
    for run, max_arity, checks, passed in runs:
        events.clear()
        assert run().passed is passed
        arities = range(1, max_arity + 1)
        walks = [("walk", n) for n in arities]
        assert events == walks + [("record", check, n) for check in checks for n in arities]


def test_every_cell_keys_its_defects_by_word(monkeypatch):
    """Every cell hands ``_to_record`` one shape: defects keyed by defect word.

    The direct and linfty defects are one-letter words, the coderivation
    defects words of any length; none is keyed by a bare letter.
    """
    keys = {}
    to_record = backend._to_record

    def recording(space, check, arity, defects, scale):
        keys.setdefault(check, []).extend(dw for defect in defects.values() for dw in defect)
        return to_record(space, check, arity, defects, scale)

    monkeypatch.setattr(backend, "_to_record", recording)
    sparse = parse_structure((CORPUS / "sparse-orbits.astr").read_text(), name="sparse")
    for s, max_arity in ((z32_broken(), 3), (mutated_structure(), 4), (sparse, 4)):
        keys.clear()
        assert not verify_structure(s, max_arity, "both").passed
        assert not verify_linfty(s, max_arity).passed
        assert set(keys) == {"direct", "coderivation", "linfty"}
        letters = range(s.space.dim)
        for check, found in keys.items():
            for dw in found:
                assert type(dw) is tuple and dw, (check, dw)
                assert all(type(b) is int and b in letters for b in dw), (check, dw)
            if check != "coderivation":
                assert {len(dw) for dw in found} == {1}, check


def test_sweeps_never_evaluate_a_word(monkeypatch):
    """No sweep runs the literal oracles; every D route goes through one core."""
    calls = []
    for name in ("stasheff_defect", "_coderivation_terms"):
        fn = getattr(engine, name)

        def counting(*args, fn=fn, name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(engine, name, counting)
    assert verify_structure(example_structure(), 8).passed
    assert not verify_structure(mutated_structure(), 6).passed
    assert not verify_structure(wide_denominator_structure(), 3).passed
    assert not verify_linfty(mutated_structure(), 4).passed
    assert calls == []
    # the counters do see the oracles
    s = mutated_structure()
    engine.stasheff_defect(s, (0, 1))
    assert calls == ["stasheff_defect"]
    engine.d_squared(s.primed_version(), (0, 1))
    assert len(calls) > 1 and set(calls[1:]) == {"_coderivation_terms"}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_coderivation_sweep_matches_oracle_on_random_structures(data):
    """About a quarter of these fail below arity 4, so bad windows get placed.

    Degrees -2..3 put letters of both parities on either side of zero, so
    the desuspension sign of each window is exercised with negative degrees.
    """
    s = data.draw(
        random_structures(
            max_arity=3, max_entries=6, min_dim=2, max_dim=3, min_degree=-2, max_degree=3
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


@settings(max_examples=100, deadline=None)
@given(
    random_structures(
        max_arity=3, max_entries=6, max_dim=3, min_degree=-2, max_degree=3
    )
)
@example(mutated_structure())
@example(wide_denominator_structure())
def test_one_letter_part_is_desuspension_signed_direct_defect(s):
    """R(x) = sigma(x) * S(x) on every word, from the literal oracles.

    R(x) is the one-letter part of D(D(x)) on the primed maps, S(x) the
    direct defect and sigma(x) the desuspension sign of x.  The coderivation
    and linfty sweeps take their sums from the direct walk by this identity.
    """
    primed = s.primed_version()
    for n in range(1, 5):
        for x in s.space.basis_words(n):
            sigma = desusp_word_sign([s.space.degree(a) for a in x])
            direct = stasheff_defect(s, x)
            assert one_letter_part(primed, x) == {(b,): sigma * c for b, c in direct.items()}


def cancelling_structure() -> AStructure:
    """The bad windows a t and t a of a t a cancel on the word a a."""
    return parse_structure(
        "ainfty v1\nconvention cochain\nbasis a 0\nbasis t -1\n"
        "map 1: t -> 1 a\nmap 2: a t -> 1 t\nmap 2: t a -> 1 t\n",
        name="cancel",
    )


def test_coderivation_placements_that_cancel_are_not_reported():
    """Two bad windows of a t a put opposite coefficients on the word a a."""
    s = cancelling_structure()
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


def phase_one_verdicts(s: AStructure, max_arity: int) -> tuple[bool, bool]:
    """The A-infinity and linfty verdicts read off the sums S alone.

    The A-infinity checks pass exactly when every S is zero, linfty exactly
    when every Sym(R) is, with R = sigma * S the bad windows.
    """
    _, index = backend._indexed(s.unprimed_version().tables_up_to(max_arity), s.space.dim)
    degrees = s.space.degrees
    sums = [dict(backend._top_sums(index, degrees, n)) for n in range(1, max_arity + 1)]
    ddegs = [d - 1 for d in degrees]
    windows = [backend._desuspended(top, degrees) for top in sums]
    return not any(sums), not any(backend._symmetrize(r, ddegs) for r in windows)


@settings(max_examples=100, deadline=None)
@given(random_structures(max_arity=4, min_dim=2, max_dim=3, min_degree=-2, max_degree=3))
@example(cancelling_structure())
def test_phase_one_fixes_every_verdict(s):
    """Direct and coderivation fail exactly when some S(x) is nonzero.

    Of the windows placed on a word x, only x itself puts a one-letter
    defect on x, so a nonzero S(x) cannot cancel in the coderivation check;
    the cancelling structure cancels at a longer word only.
    """
    a_infinity, linfty = phase_one_verdicts(s, 4)
    direct = verify_structure(s, 4, "direct").passed
    coderivation = verify_structure(s, 4, "coderivation").passed
    assert direct is coderivation is a_infinity
    assert verify_linfty(s, 4).passed is linfty


def _lowest_failing_arity(report: Report, check: str):
    return min((r.arity for r in report.checks if r.check == check and r.failures), default=None)


# narrow degrees give random structures many entries: about a third fail
@settings(max_examples=60, deadline=None)
@given(
    s=st.one_of(
        random_structures(max_arity=3, min_dim=2, max_dim=3, min_degree=-1, max_degree=1),
        valid_structures(),
    ),
    t=st.sampled_from([Fraction(-5, 7), Fraction(101, 9973)]),
    max_arity=st.integers(1, 4),
)
@example(s=mutated_structure(), t=Fraction(101, 9973), max_arity=5)
@example(s=example_structure(), t=Fraction(-5, 7), max_arity=6)
def test_rescaling_scales_each_defect_by_a_power_of_t(s, t, max_arity):
    """``m_k -> t**(k - 2) m_k`` keeps every verdict and scales every defect.

    The large-prime denominator of ``t = 101/9973`` enters the lcm scale of
    passing structures too.  At arity n a defect term on a word of l letters
    is ``t**(n - l - 2)`` times the original: ``t**(n - 3)`` for the
    one-letter direct and linfty defects.
    """
    r = rescaled(s, t, max_arity)
    pairs = [
        (verify_structure(s, max_arity, "both"), verify_structure(r, max_arity, "both")),
        (verify_linfty(s, max_arity), verify_linfty(r, max_arity)),
    ]
    for before, after in pairs:
        assert after.passed is before.passed
        for check in ("direct", "coderivation", "linfty"):
            assert _lowest_failing_arity(after, check) == _lowest_failing_arity(before, check)
        assert len(after.checks) == len(before.checks)
        for old, new in zip(before.checks, after.checks):
            assert (new.check, new.arity, new.words) == (old.check, old.arity, old.words)
            assert [f.word for f in new.failures] == [f.word for f in old.failures]
            for f, g in zip(old.failures, new.failures):
                if old.check != "coderivation":
                    assert all(len(w) == 1 for _, w in f.defect)
                scaled = tuple((c * t ** (old.arity - len(w) - 2), w) for c, w in f.defect)
                assert g.defect == scaled
