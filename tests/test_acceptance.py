"""Acceptance sweep: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is exact arithmetic, so every comparison below is against
literal zero or a literal table value; there are no tolerances to tune.
"""

import json
import time
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ainfty import (
    alpha_sign,
    d_squared,
    example_structure,
    koszul_permutation_sign,
    lemma1_check,
    lemma2_top_sum_check,
    parse_structure,
    prime,
    s_sign,
    serialize_structure,
    stasheff_defect,
    susp_iso_sign,
    unprime,
    verify_linfty,
    verify_structure,
)
from ainfty.cli import run_cli
from conftest import graded_spaces, homogeneous_multimaps
from test_engine import concat, mutated_structure, straddle_terms

V1, V2, W = 0, 1, 2


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_coderivation_sweep_to_arity_8(capsys):
    ok = False
    try:
        start = time.perf_counter()
        code = run_cli(
            ["verify", "--builtin", "paper-example", "--check", "coderivation",
             "--max-arity", "8", "--format", "machine"]
        )
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["pass"] is True
        assert [rec["words"] for rec in doc["checks"]] == [3**n for n in range(1, 9)]
        assert sum(rec["words"] for rec in doc["checks"]) == 9840
        assert all(rec["failures"] == [] for rec in doc["checks"])
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(1, "coderivation square vanishes through arity 8", ok)


def test_criterion_2_direct_sweep_to_arity_6_agrees(capsys):
    ok = False
    try:
        code = run_cli(
            ["verify", "--builtin", "paper-example", "--check", "direct",
             "--max-arity", "6", "--format", "machine"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["pass"] is True
        assert all(rec["failures"] == [] for rec in doc["checks"])
        # cross-formulation agreement on the shared range
        both = verify_structure(example_structure(), 6, mode="both")
        direct = {(r.arity): r.failures for r in both.checks if r.check == "direct"}
        coder = {(r.arity): r.failures for r in both.checks if r.check == "coderivation"}
        assert set(direct) == set(coder) == set(range(1, 7))
        for arity in range(1, 7):
            assert direct[arity] == coder[arity] == ()
        # both sweep records come from one walk per arity, so they cannot
        # disagree; the literal per-word oracles of the two formulations can
        s = example_structure()
        primed = s.primed_version()
        words = [w for n in range(1, 7) for w in s.space.basis_words(n)]
        assert len(words) == 1092
        assert all(not stasheff_defect(s, w) for w in words)
        assert all(d_squared(primed, w).is_zero() for w in words)
        ok = True
    finally:
        _verdict(2, "direct identity vanishes through arity 6, both checks agree", ok)


def test_criterion_3_transfer_matches_closed_form():
    ok = False
    try:
        assert all(lemma1_check(n) for n in range(1, 11))
        ok = True
    finally:
        _verdict(3, "transferred maps equal their closed form for n = 1..10", ok)


def test_criterion_4_top_sum_reduction():
    ok = False
    try:
        assert all(lemma2_top_sum_check(n) for n in range(2, 8))
        ok = True
    finally:
        _verdict(4, "double expansion equals top-arity sum for n = 2..7", ok)


def test_criterion_5_sign_tables():
    ok = False
    try:
        assert [s_sign(n) for n in range(2, 10)] == [1, 1, -1, -1, 1, 1, -1, -1]
        for n in range(1, 9):
            assert susp_iso_sign(n) == (-1) ** (n * (n - 1) // 2)
        assert alpha_sign(1, 0, 2, 0) == -1
        assert alpha_sign(2, 0, 2, 0) == 1
        assert alpha_sign(2, 1, 3, 1) == -1
        ok = True
    finally:
        _verdict(5, "sign tables match their pinned values", ok)


def test_criterion_6_induced_symmetrized_structure():
    ok = False
    try:
        report = verify_linfty(example_structure(), 5)
        assert report.passed
        assert sum(rec.words for rec in report.checks) == sum(
            3**n for n in range(1, 6)
        )
        ok = True
    finally:
        _verdict(6, "symmetrized relation vanishes through arity 5", ok)


def test_criterion_7_mutation_sensitivity(tmp_path, capsys):
    ok = False
    try:
        mutated = mutated_structure(4)
        defect = d_squared(mutated.primed_version(), (V1, V2))
        assert defect.terms == {(W,): Fraction(-2)}
        assert stasheff_defect(mutated, (V1, V2)) != {}
        path = tmp_path / "broken.astr"
        path.write_text(serialize_structure(mutated))
        code = run_cli(["verify", "--input", str(path), "--max-arity", "4"])
        capsys.readouterr()
        assert code == 1
        ok = True
    finally:
        _verdict(7, "single sign flip is detected by both checks and the CLI", ok)


# --- criterion 8: property suites at 1000 randomized cases each -------------


@settings(max_examples=1000, deadline=None)
@given(st.data())
def _prop_prime_unprime_round_trip(data):
    m = data.draw(homogeneous_multimaps(max_arity=4))
    assert unprime(prime(m)) == m


@settings(max_examples=1000, deadline=None)
@given(st.data())
def _prop_koszul_homomorphism(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    degrees = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    sigma = tuple(data.draw(st.permutations(list(range(n)))))
    tau = tuple(data.draw(st.permutations(list(range(n)))))
    composed = tuple(sigma[tau[i]] for i in range(n))
    tau_degrees = [0] * n
    for i in range(n):
        tau_degrees[tau[i]] = degrees[i]
    assert koszul_permutation_sign(degrees, composed) == (
        koszul_permutation_sign(tau_degrees, sigma)
        * koszul_permutation_sign(degrees, tau)
    )


@settings(max_examples=1000, deadline=None)
@given(st.data())
def _prop_split_word_decomposition(data):
    from ainfty import EXAMPLE_SPACE, TensorPoly, d_apply, word_degree
    from conftest import words_over

    s = example_structure(primed=True)
    u = data.draw(words_over(EXAMPLE_SPACE, max_arity=3))
    v = data.draw(words_over(EXAMPLE_SPACE, max_arity=3))
    left = concat(
        d_apply(s, TensorPoly(EXAMPLE_SPACE, {u: 1})), TensorPoly(EXAMPLE_SPACE, {v: 1})
    )
    sign = -1 if (word_degree(EXAMPLE_SPACE, u) - len(u)) % 2 else 1
    right = concat(
        TensorPoly(EXAMPLE_SPACE, {u: 1}), d_apply(s, TensorPoly(EXAMPLE_SPACE, {v: 1}))
    )
    expected = left + sign * right + straddle_terms(s, u, v)
    assert d_apply(s, TensorPoly(EXAMPLE_SPACE, {u + v: 1})) == expected


@settings(max_examples=1000, deadline=None)
@given(st.data())
def _prop_parse_serialize_round_trip(data):
    from ainfty import AStructure, MultiMap

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
    s2 = parse_structure(serialize_structure(s), name="random")
    assert s2.space == s.space
    for k in (1, 2):
        before = s.map_at(k).table if s.map_at(k) else {}
        after = s2.map_at(k).table if s2.map_at(k) else {}
        assert before == after


def test_criterion_8_property_suites():
    ok = False
    try:
        _prop_prime_unprime_round_trip()
        _prop_koszul_homomorphism()
        _prop_split_word_decomposition()
        _prop_parse_serialize_round_trip()
        ok = True
    finally:
        _verdict(8, "four property suites hold over 1000 random cases each", ok)


def test_criterion_9_direct_sweep_to_arity_20(capsys):
    ok = False
    try:
        code = run_cli(
            ["verify", "--builtin", "paper-example", "--check", "direct",
             "--max-arity", "20", "--format", "machine"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["pass"] is True
        assert [rec["arity"] for rec in doc["checks"]] == list(range(1, 21))
        for rec in doc["checks"]:
            assert rec["words"] == 3 ** rec["arity"]
            assert rec["failures"] == []
        ok = True
    finally:
        _verdict(9, "direct identity vanishes through arity 20", ok)


def test_criterion_10_coderivation_sweep_to_arity_20(capsys):
    ok = False
    try:
        code = run_cli(
            ["verify", "--builtin", "paper-example", "--check", "coderivation",
             "--max-arity", "20", "--format", "machine"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["pass"] is True
        assert [rec["arity"] for rec in doc["checks"]] == list(range(1, 21))
        for rec in doc["checks"]:
            assert rec["words"] == 3 ** rec["arity"]
            assert rec["failures"] == []
        ok = True
    finally:
        _verdict(10, "coderivation square vanishes through arity 20", ok)


def test_criterion_11_linfty_sweep_to_arity_16(capsys):
    ok = False
    try:
        code = run_cli(
            ["linfty", "--builtin", "paper-example", "--max-arity", "16",
             "--format", "machine"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["pass"] is True
        assert [rec["arity"] for rec in doc["checks"]] == list(range(1, 17))
        for rec in doc["checks"]:
            assert rec["check"] == "linfty"
            assert rec["words"] == 3 ** rec["arity"]
            assert rec["failures"] == []
        ok = True
    finally:
        _verdict(11, "induced Jacobi relations hold through arity 16", ok)
