"""Structure-file parsing, exact serialization round trips, report emission."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ainfty import (
    AStructure,
    BasisElement,
    CheckRecord,
    Failure,
    GradedSpace,
    InputError,
    MultiMap,
    ParseError,
    Report,
    emit_report,
    example_m,
    parse_structure,
    serialize_structure,
    verify_structure,
)
from conftest import graded_spaces, homogeneous_multimaps

EXAMPLE_FILE = """\
# three-element example, arities 1 and 2
ainfty v1
convention cochain
basis v1 0
basis v2 0
basis w 1
map 1: v1 -> 1 w
map 1: v2 -> 1 w
map 2: v1 v1 -> 1 v1
map 2: v1 v2 -> 1 v1
map 2: v1 w -> 1 w
"""


def test_parse_example_file_matches_generators():
    s = parse_structure(EXAMPLE_FILE)
    assert s.map_at(1) == example_m(1)
    assert s.map_at(2) == example_m(2)
    assert s.space.convention == "cochain"
    assert not s.primed


def test_parse_unknown_basis_name_names_the_line():
    text = EXAMPLE_FILE + "map 2: v1 q -> 1 v1\n"
    with pytest.raises(ParseError) as exc:
        parse_structure(text)
    assert exc.value.line == 12
    assert "q" in str(exc.value)


def test_parse_inhomogeneous_entry_rejected():
    text = EXAMPLE_FILE + "map 2: v1 v1 -> 1 w\n"
    with pytest.raises(ParseError) as exc:
        parse_structure(text)
    assert "inhomogeneous" in str(exc.value)
    assert exc.value.line == 12


def test_parse_duplicate_entry_rejected():
    text = EXAMPLE_FILE + "map 2: v1 w -> -1 w\n"
    with pytest.raises(ParseError) as exc:
        parse_structure(text)
    assert "duplicate" in str(exc.value)


def test_parse_arity_word_mismatch_rejected():
    text = EXAMPLE_FILE + "map 3: v1 w -> 1 w\n"
    with pytest.raises(ParseError) as exc:
        parse_structure(text)
    assert "expected 3 input names" in str(exc.value)


def test_parse_malformed_rational_rejected():
    text = EXAMPLE_FILE + "map 2: v2 w -> 1/0 w\n"
    with pytest.raises(ParseError):
        parse_structure(text)
    text = EXAMPLE_FILE + "map 2: v2 w -> one w\n"
    with pytest.raises(ParseError):
        parse_structure(text)


ABC_HEADER = "ainfty v1\nconvention cochain\nbasis a 0\nbasis b 0\n"


@pytest.mark.parametrize(
    "text, line",
    [
        # int() alone reads 1_0 as 10 and accepts any Unicode decimal digit
        (ABC_HEADER + "map 2: a a -> 1_0 a\n", 5),
        (ABC_HEADER + "map 2: a a -> 1/1_0 a\n", 5),
        (ABC_HEADER + "map 2: a a -> \u0663 a\n", 5),
        (ABC_HEADER + "map 2: a a -> 1/\u0663 a\n", 5),
        (ABC_HEADER + "map 2: a a -> \uff11 a\n", 5),
        (ABC_HEADER + "map \u0661: a -> 3 b\n", 5),
        (ABC_HEADER + "map 1_1: a a a a a a a a a a a -> 1 a\n", 5),
        ("ainfty v1\nconvention cochain\nbasis a \u0660\n", 3),
        ("ainfty v1\nconvention cochain\nbasis a 0\nbasis b 1_0\n", 4),
    ],
)
def test_parse_accepts_only_ascii_integers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_structure(text)
    assert exc.value.line == line


# str.splitlines() also ends a line at each of these; a file read in text
# mode ends lines only at \n, \r\n and \r
SEPARATORS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("sep", SEPARATORS)
def test_separators_inside_comments_end_no_line(sep):
    s = parse_structure(
        f"ainfty v1\nconvention cochain\nbasis a 0\nbasis b 1\n# off{sep}map 1: a -> 1 b\n"
    )
    assert s.arities == []
    text = f"ainfty v1\nconvention cochain\nbasis a 0\n# x{sep} y\nbasis b 1\nmap 1: a -> 1 q\n"
    with pytest.raises(ParseError, match="unknown basis name 'q'") as exc:
        parse_structure(text)
    assert exc.value.line == 6


AB_HEADER = "ainfty v1\nconvention cochain\nbasis a 0\nbasis b 1\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        (
            "ainfty v1\nconvention cochain\nbasis a 0\nbasis a 1\nbasis b 0\nbasis c 0\n",
            4,
            "duplicate basis name 'a'",
        ),
        ("ainfty v1\nconvention cochain\nmap 1: a -> 1 a\n", 3, "at least one basis line"),
        # '+' separates terms, so no part of a coefficient can carry one
        (AB_HEADER + "map 1: a -> +1 b\n", 5, "found ''"),
        (AB_HEADER + "map 1: a -> 1/+2 b\n", 5, "found '1/'"),
        (AB_HEADER + "map 0: -> 1 a\n", 5, "map arity must be >= 1"),
        (AB_HEADER + "map 2 a a -> 1 a\n", 5, "expected 'map <k>: ...'"),
        (AB_HEADER + "map 2 3: a a -> 1 a\n", 5, "expected 'map <k>: ...'"),
    ],
    ids=[
        "duplicate-basis-name", "map-before-basis", "plus-coeff", "plus-denominator", "arity-0",
        "no-colon", "extra-head-token",
    ],
)
def test_parse_error_names_its_own_line(text, line, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_structure(text)
    assert exc.value.line == line


def test_parse_signed_ascii_integers():
    s = parse_structure(
        "ainfty v1\nconvention cochain\nbasis a +0\nbasis b -1\n"
        "map 2: a a -> 3/-4 a + -1 a\nmap +1: b -> 2 a\n"
    )
    assert s.space.degrees == (0, -1)
    assert s.map_at(2).table[(0, 0)] == {0: Fraction(-7, 4)}
    assert s.map_at(1).table[(1,)] == {0: Fraction(2)}


def test_parse_header_and_section_errors():
    with pytest.raises(ParseError):
        parse_structure("not a header\n")
    with pytest.raises(ParseError):
        parse_structure("ainfty v1\n")
    with pytest.raises(ParseError):
        parse_structure("ainfty v1\nconvention cochain\nmap 1: x -> 1 x\n")
    with pytest.raises(ParseError):
        parse_structure("")


def test_parse_rational_coefficients_exact():
    text = (
        "ainfty v1\nconvention cochain\nbasis a 0\nbasis b 1\n"
        "map 1: a -> 2/3 b + 1/6 b\n"
    )
    s = parse_structure(text)
    assert s.map_at(1).table[(0,)] == {1: Fraction(5, 6)}


def test_parsed_coefficients_are_fractions():
    """Once, repeated across lines, or summed on one line: every value is a Fraction."""
    text = (
        "ainfty v1\nconvention cochain\nbasis a 0\nbasis c 0\nbasis b 1\n"
        "map 1: a -> 2/3 b\n"
        "map 1: c -> 2/3 b\n"
        "map 2: a a -> 5 a + 1/2 c\n"
        "map 2: a c -> 1/2 a + 3 a + -1 c\n"
    )
    s = parse_structure(text)
    once = s.map_at(2).table[(0, 0)]
    repeated = [s.map_at(1).table[(0,)][2], s.map_at(1).table[(1,)][2]]
    summed = s.map_at(2).table[(0, 1)]
    assert once == {0: 5, 1: Fraction(1, 2)}
    assert repeated == [Fraction(2, 3)] * 2
    assert summed == {0: Fraction(7, 2), 1: -1}
    values = [*once.values(), *repeated, *summed.values()]
    assert all(type(c) is Fraction for c in values)


def test_parse_terms_summing_to_zero_drop_out():
    text = (
        "ainfty v1\nconvention cochain\nbasis a 0\nbasis b 1\n"
        "map 1: a -> 1 b + -1 b\n"
    )
    s = parse_structure(text)
    assert s.arities == []


def test_chain_convention_negates_degrees_internally():
    text = (
        "ainfty v1\nconvention chain\nbasis a 0\nbasis b -1\n"
        "map 1: a -> 1 b\n"
    )
    s = parse_structure(text)
    # chain degree -1 is internal degree +1, so the entry is homogeneous
    assert s.space.degree(1) == 1
    assert s.space.convention == "chain"
    round_tripped = serialize_structure(s)
    assert "basis b -1" in round_tripped
    assert parse_structure(round_tripped).space == s.space


def test_serialize_round_trip_exact():
    s = parse_structure(EXAMPLE_FILE)
    text = serialize_structure(s)
    s2 = parse_structure(text)
    assert s2.space == s.space
    assert s2.arities == s.arities
    for k in s.arities:
        assert s2.map_at(k) == s.map_at(k)
    # canonical text is a fixed point
    assert serialize_structure(s2) == text


def test_serialize_rejects_generator_backed():
    from ainfty import example_structure

    with pytest.raises(Exception):
        serialize_structure(example_structure())


def test_serialize_rejects_primed():
    with pytest.raises(InputError, match="only unprimed structures have a file form"):
        serialize_structure(parse_structure(EXAMPLE_FILE).primed_version())


# each breaks the map line: '+' splits terms, '->' splits sides, '#' starts
# a comment and whitespace splits names
UNWRITABLE_NAMES = ["a+b", "->", "x->y", "a#b", "a b", "a\tb", "a,b"]


@pytest.mark.parametrize("name", UNWRITABLE_NAMES)
def test_parse_rejects_unwritable_basis_name_on_its_line(name):
    text = f"ainfty v1\nconvention cochain\nbasis v 0\nbasis {name} 0\n"
    with pytest.raises(ParseError) as exc:
        parse_structure(text)
    assert exc.value.line == 4


@pytest.mark.parametrize("name", UNWRITABLE_NAMES)
def test_serialize_rejects_unwritable_basis_name(name):
    space = GradedSpace((BasisElement("v", 0), BasisElement(name, 0)))
    s = AStructure(space, maps={2: MultiMap(space, 2, {(0, 0): {1: 1}})})
    with pytest.raises(InputError, match="basis name"):
        serialize_structure(s)


def test_basis_names_with_other_punctuation_round_trip():
    names = ["a-b", "a>b", "-", ">", "a:b", "a/b", "a*b"]
    space = GradedSpace(tuple(BasisElement(nm, 0) for nm in names))
    table = {(i, i): {(i + 1) % len(names): Fraction(i + 1, 3)} for i in range(len(names))}
    s = AStructure(space, maps={2: MultiMap(space, 2, table)})
    s2 = parse_structure(serialize_structure(s))
    assert s2.space == space
    assert s2.map_at(2) == s.map_at(2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_serialize_round_trip_random_structures(data):
    space = data.draw(graded_spaces())
    maps = {}
    for arity in data.draw(st.sets(st.integers(1, 4), max_size=3)):
        m = data.draw(
            homogeneous_multimaps(space=space, min_arity=arity, max_arity=arity)
        )
        if m.table:
            maps[arity] = m
    if not maps:
        maps = {1: MultiMap(space, 1, {})}
    s = AStructure(space, maps=maps, name="random")
    text = serialize_structure(s)
    s2 = parse_structure(text, name="random")
    assert s2.space == s.space
    # an empty table and an absent map both mean the zero map
    for k in range(1, 5):
        before = s.map_at(k).table if s.map_at(k) else {}
        after = s2.map_at(k).table if s2.map_at(k) else {}
        assert before == after


def test_report_emission_formats():
    report = verify_structure(parse_structure(EXAMPLE_FILE), 2, mode="both")
    text = emit_report(report, format="text")
    machine = emit_report(report, format="machine")
    assert text.decode().startswith("structure:")
    assert b'"pass": true' in machine
    # identical inputs emit byte-identical documents
    report2 = verify_structure(parse_structure(EXAMPLE_FILE), 2, mode="both")
    assert emit_report(report2, format="machine") == machine
    assert emit_report(report2, format="text") == text


def test_report_failure_terms_rendered():
    from test_engine import mutated_structure

    report = verify_structure(mutated_structure(), 2, mode="coderivation")
    machine = emit_report(report, format="machine").decode()
    assert '"coeff": "-2"' in machine
    assert '"word": ["v1", "v2"]' in machine or '"word": [\n' in machine
    text = emit_report(report, format="text").decode()
    assert "word v1,v2: defect -2 w" in text
    assert "result: FAIL" in text


# the line ends of str.splitlines() and the escape the text layout prints for each
LINE_BREAKS = {
    "\n": r"\n", "\x0b": r"\x0b", "\x0c": r"\x0c", "\r": r"\r", "\x1c": r"\x1c",
    "\x1d": r"\x1d", "\x1e": r"\x1e", "\x85": r"\x85", "\u2028": r"\u2028", "\u2029": r"\u2029",
}


def test_line_breaks_are_every_splitlines_boundary():
    every_char = "".join(map(chr, range(sys.maxunicode + 1)))
    ends = {line[-1] for line in every_char.splitlines(keepends=True)[:-1]}
    assert ends == set(LINE_BREAKS)


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_text_report_escapes_line_breaks_in_names(brk):
    esc = LINE_BREAKS[brk]
    failure = Failure(word=(f"a{brk}b", "c"), defect=((Fraction(-1, 2), (f"d{brk}", "e")),))
    report = Report(
        f"x{brk}result: PASS (0 failures in 2 words)",
        "cochain",
        2,
        (CheckRecord("direct", 1, 2, ()), CheckRecord("direct", 2, 4, (failure,))),
    )
    text = emit_report(report, format="text").decode("utf-8")
    assert text.splitlines() == [
        f"structure: x{esc}result: PASS (0 failures in 2 words)",
        "convention: cochain",
        "max arity: 2",
        "check direct, arity 1: 2 words, 0 failures",
        "check direct, arity 2: 4 words, 1 failures",
        f"  word a{esc}b,c: defect -1/2 d{esc},e",
        "result: FAIL (1 failures in 6 words)",
    ]
    # JSON escapes every line break already: the machine layout keeps each name as is
    machine = json.loads(emit_report(report, format="machine"))
    assert machine["structure"] == report.structure
    assert machine["checks"][1]["failures"][0]["word"] == [f"a{brk}b", "c"]


def test_emit_report_unknown_format():
    report = verify_structure(parse_structure(EXAMPLE_FILE), 1, mode="direct")
    with pytest.raises(ValueError):
        emit_report(report, format="xml")


def machine_oracle(report):
    """The machine layout as ``json.dumps(indent=2)`` writes the report's nested dict."""
    doc = {
        "structure": report.structure,
        "convention": report.convention,
        "max_arity": report.max_arity,
        "pass": report.passed,
        "checks": [
            {
                "check": rec.check,
                "arity": rec.arity,
                "words": rec.words,
                "failures": [
                    {
                        "word": list(f.word),
                        "defect": [{"coeff": str(c), "word": list(w)} for c, w in f.defect],
                    }
                    for f in rec.failures
                ],
            }
            for rec in report.checks
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


# names that need JSON escapes: quote, backslash, control characters,
# U+2028 and non-ASCII (BMP and astral)
_names = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\u2028\u00e9\u20ac\U0001f600'), st.characters()),
    max_size=4,
)
_words = st.lists(_names, max_size=3).map(tuple)
_huge = st.integers(min_value=-(10**300), max_value=10**300)
_coeffs = st.one_of(
    st.fractions(),
    st.builds(Fraction, _huge, _huge.filter(bool)),
    st.sampled_from([Fraction(10**4299), Fraction(-(10**4299)), Fraction(-1, 10**4299)]),
)
_failures = st.builds(
    Failure, word=_words, defect=st.lists(st.tuples(_coeffs, _words), max_size=3).map(tuple)
)
_records = st.builds(
    CheckRecord,
    check=_names,
    arity=st.integers(0, 40),
    words=st.integers(0, 10**40),
    failures=st.lists(_failures, max_size=3).map(tuple),
)
_reports = st.builds(
    Report,
    structure=_names,
    convention=_names,
    max_arity=st.integers(0, 40),
    checks=st.lists(_records, max_size=3).map(tuple),
)


@given(_reports)
@settings(max_examples=150, deadline=None)
@example(Report("s", "cochain", 1, ()))  # zero checks
@example(Report("s", "chain", 2, (CheckRecord("direct", 2, 4, ()),)))  # no failures
@example(Report("s", "cochain", 1, (CheckRecord("direct", 1, 2, (Failure((), ()),)),)))
@example(
    Report('a"b\\c\u2028\x01\u00e9', "\x00", 1, (
        CheckRecord("\U0001f600", 1, 2, (
            Failure(("a",), ((Fraction(-(10**4299), 3), ()),)),
        )),
    ))
)
def test_machine_writer_matches_json_dumps(report):
    assert emit_report(report, format="machine") == machine_oracle(report)
