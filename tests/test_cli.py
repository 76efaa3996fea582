"""End-to-end command-line behavior and exit-code partitioning."""

import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import (
    CheckRecord,
    Failure,
    InputError,
    Report,
    cli,
    emit_report,
    parse_structure,
    serialize_structure,
    verify_structure,
)
from ainfty.cli import run_cli
from test_engine import mutated_structure, truncated_example
from test_formats import SEPARATORS

V1, V2, W = 0, 1, 2
CORPUS = Path(__file__).parent / "corpus"
# a child process imports the package from this checkout
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
# coderivation 1..8 on mutated.astr: a failing machine report of about 5 MB
LARGE_REPORT = [
    "verify", "--check", "coderivation", "--format", "machine", "--max-arity", "8",
    "--input", str(CORPUS / "mutated.astr"),
]


@pytest.fixture
def valid_file(tmp_path):
    path = tmp_path / "example4.astr"
    path.write_text(serialize_structure(truncated_example(4)))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.astr"
    path.write_text(serialize_structure(mutated_structure(4)))
    return str(path)


def test_verify_builtin_passes(capsys):
    code = run_cli(["verify", "--builtin", "paper-example", "--max-arity", "4",
                    "--check", "both"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out


def test_verify_defaults_to_builtin(capsys):
    code = run_cli(["verify", "--max-arity", "3"])
    assert code == 0
    assert "result: PASS" in capsys.readouterr().out


def test_verify_valid_file_passes(valid_file, capsys):
    code = run_cli(["verify", "--input", valid_file, "--max-arity", "4"])
    assert code == 0
    assert "result: PASS" in capsys.readouterr().out


def test_verify_mutated_file_fails(broken_file, capsys):
    code = run_cli(["verify", "--input", broken_file, "--max-arity", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "result: FAIL" in out
    assert "word v1,v2" in out


def test_verify_machine_format_deterministic(capsys):
    args = ["verify", "--max-arity", "3", "--format", "machine"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    assert run_cli(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert '"pass": true' in first


def test_verify_report_ignores_path_spelling(broken_file, tmp_path, monkeypatch, capsys):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    outputs = []
    for path in ("broken.astr", broken_file, "sub/../broken.astr"):
        args = ["verify", "--input", path, "--max-arity", "3", "--format", "machine"]
        assert run_cli(args) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert '"structure": "broken.astr"' in outputs[0]


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_verify_file_name_not_utf8(fmt, tmp_path, capsysbinary):
    """The base name keeps an undecodable byte as a surrogate escape."""
    name = os.fsdecode(b"z\xff.astr")
    (tmp_path / name).write_bytes((CORPUS / "z12.astr").read_bytes())
    argv = ["verify", "--max-arity", "2", "--format", fmt]
    assert run_cli([*argv, "--input", str(tmp_path / name)]) == 0
    out = capsysbinary.readouterr().out
    assert run_cli([*argv, "--input", str(CORPUS / "z12.astr")]) == 0
    # text: the name's own bytes; machine: json.dumps's escape of the surrogate
    renamed = b"z\xff.astr" if fmt == "text" else b"z\\udcff.astr"
    assert out == capsysbinary.readouterr().out.replace(b"z12.astr", renamed)
    if fmt == "text":
        assert b"structure: z\xff.astr\n" in out


def test_verify_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.astr"
    bad.write_text("ainfty v1\nconvention cochain\nbasis a 0\nmap 2: a q -> 1 a\n")
    code = run_cli(["verify", "--input", str(bad), "--max-arity", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 4" in err


@pytest.mark.parametrize("sep", SEPARATORS)
def test_verify_ignores_separators_inside_comments(sep, tmp_path, capsys):
    """The commented-out entry would make m_1 m_1 (a) = c."""
    path = tmp_path / "sep.astr"
    path.write_text(
        "ainfty v1\nconvention cochain\nbasis a 0\nbasis b 1\nbasis c 2\n"
        f"map 1: b -> 1 c\n# off{sep}map 1: a -> 1 b\n",
        encoding="utf-8",
    )
    code = run_cli(["verify", "--input", str(path), "--max-arity", "2"])
    assert code == 0
    assert "result: PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-arity", "2"],
        ["d2", "--word", "a,b"],
        ["apply", "--arity", "1", "--word", "a"],
    ],
)
def test_basis_name_with_a_comma_exits_two(argv, tmp_path, capsys):
    """``--word a,b`` could not name such a letter, so the file is refused."""
    bad = tmp_path / "comma.astr"
    bad.write_text("ainfty v1\nconvention cochain\nbasis a 0\nbasis a,b 0\n")
    code = run_cli(argv + ["--input", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 4" in captured.err
    assert "','" in captured.err


def test_verify_missing_file_exits_two(capsys):
    code = run_cli(["verify", "--input", "/no/such/file", "--max-arity", "2"])
    assert code == 2
    assert capsys.readouterr().err


def test_verify_non_utf8_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "utf16.astr"
    bad.write_bytes(b"\xff\xfeainfty v1\n")
    code = run_cli(["verify", "--input", str(bad), "--max-arity", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not UTF-8" in err
    assert "Traceback" not in err


def test_lemma1_rejects_nonpositive_arity(capsys):
    assert run_cli(["lemma1", "--max-arity", "0"]) == 2
    captured = capsys.readouterr()
    assert "result" not in captured.out
    assert "max_arity" in captured.err


@pytest.mark.parametrize("error", [RuntimeError, SystemError])
def test_internal_error_exits_three(monkeypatch, capsys, error):
    def broken(args):
        raise error("invariant violated")

    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    code = run_cli(["verify", "--max-arity", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: ")
    assert "invariant violated" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_sigint_exits_130_with_one_line():
    # lemma1 at this arity runs for minutes, so the signal lands mid-run
    child = subprocess.Popen(
        [sys.executable, "-u", "-m", "ainfty.cli", "lemma1", "--max-arity", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
        text=True,
    )
    try:
        assert child.stdout.readline().startswith("arity 1: ")
        child.send_signal(signal.SIGINT)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 130
    assert err == "interrupted\n"
    assert "Traceback" not in err


def _assert_one_error_line(child, err):
    assert child.returncode == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Exception ignored" not in err and "Traceback" not in err


def test_stdout_closed_before_the_first_write_exits_two():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "ainfty.cli", *LARGE_REPORT],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    _assert_one_error_line(child, child.stderr)
    assert "Broken pipe" in child.stderr


def test_stdout_closed_after_100_bytes_exits_two():
    # the report is far larger than a pipe holds, so the child is still
    # writing when the reader goes away
    child = subprocess.Popen(
        [sys.executable, "-m", "ainfty.cli", *LARGE_REPORT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
        text=True,
    )
    try:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    _assert_one_error_line(child, err)
    assert "Broken pipe" in err


def test_out_of_memory_exits_two_with_one_line():
    resource = pytest.importorskip("resource")
    limit = 64 << 20  # bytes of address space: enough to start, not for this sweep

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # coderivation 1..10 on mutated.astr holds about 110 MB at its peak
    argv = ["verify", "--check", "coderivation", "--max-arity", "10"]
    child = subprocess.run(
        [sys.executable, "-m", "ainfty.cli", *argv, "--input", str(CORPUS / "mutated.astr")],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
        text=True,
        timeout=120,
        preexec_fn=cap_memory,
    )
    _assert_one_error_line(child, child.stderr)
    assert child.stderr == "error: out of memory\n"


# CPython 3.11 raises the SystemError when a new Python frame finds no memory
@pytest.mark.parametrize(
    "error", [MemoryError(), SystemError("error return without exception set")]
)
def test_memory_error_exits_two(monkeypatch, capsys, error):
    def no_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "verify_structure", no_memory)
    code = run_cli(["verify", "--max-arity", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


class _RecordingBinaryStdout:
    """A stand-in for ``sys.stdout`` that keeps each binary write."""

    def __init__(self):
        self.writes = []
        self.buffer = self

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_cli_writes_the_report_in_pieces(fmt, monkeypatch):
    path = CORPUS / "mutated.astr"
    stdout = _RecordingBinaryStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ["--check", "coderivation", "--format", fmt, "--max-arity", "6"]
    assert run_cli(["verify", *argv, "--input", str(path)]) == 1
    report = verify_structure(
        parse_structure(path.read_text(encoding="utf-8"), name=path.name), 6, mode="coderivation"
    )
    whole = emit_report(report, format=fmt)
    assert b"".join(stdout.writes) == whole
    assert max(map(len, stdout.writes)) <= len(whole) / 10


def test_cli_import_loads_no_introspection_modules():
    # every CLI run pays for what this import loads; compared before and
    # after, so modules that site loads at interpreter start do not count
    code = (
        "import sys; before = set(sys.modules); import ainfty.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], env=CHILD_ENV, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "ainfty.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.fixture
def digit_limit():
    """Pin Python's int-to-str digit limit at its default, 4300."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


# the machine report prints dim**N, the text result line the total
# n_checks * (dim + dim**2 + ... + dim**N); the last arity whose integer
# still prints.  10**4300 is the first int of 4301 digits
@pytest.mark.parametrize(
    "dim, fmt, n_checks, last",
    [
        (3, "machine", 1, 9012),
        (3, "machine", 2, 9012),
        (3, "text", 1, 9012),
        (3, "text", 2, 9011),
        (10, "machine", 1, 4299),
    ],
)
def test_unprintable_report_boundary(digit_limit, dim, fmt, n_checks, last):
    cli._refuse_unprintable(dim, last, n_checks, fmt)
    with pytest.raises(InputError, match="more than 4300 digits"):
        cli._refuse_unprintable(dim, last + 1, n_checks, fmt)


def test_unprintable_report_helper_agrees_with_python(digit_limit):
    assert len(str(3**9012)) == 4300
    with pytest.raises(ValueError):
        str(3**9013)
    # far past the limit the refusal builds no power of dim
    with pytest.raises(InputError):
        cli._refuse_unprintable(3, 10**12, 1, "machine")
    cli._refuse_unprintable(1, 10**5, 2, "text")
    # the dim-1 text total is computed, not summed over the arities
    cli._refuse_unprintable(1, 10**400, 2, "text")
    sys.set_int_max_str_digits(0)  # no limit
    cli._refuse_unprintable(3, 10**5, 2, "text")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--check", "direct", "--format", "machine", "--max-arity", "9013"],
        ["verify", "--check", "both", "--format", "machine", "--max-arity", "9013"],
        ["verify", "--check", "direct", "--max-arity", "9013"],
        ["verify", "--check", "both", "--max-arity", "9012"],
        ["linfty", "--format", "machine", "--max-arity", "9013"],
        ["linfty", "--max-arity", "9013"],
        # too large to convert to a float
        ["verify", "--max-arity", "9" * 400],
        ["linfty", "--max-arity", "9" * 400],
    ],
)
def test_unprintable_report_refused_before_any_sweep(
    argv, digit_limit, monkeypatch, capsys
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(cli, "verify_structure", no_sweep)
    monkeypatch.setattr(cli, "verify_linfty", no_sweep)
    code = run_cli(argv + ["--builtin", "paper-example"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --max-arity ")
    assert captured.err.count("\n") == 1


# a 4000-digit coefficient prints; a product of two of them does not
BIG = "7" * 4000
BIG_FAILING = f"""ainfty v1
convention cochain
basis a 0
basis b 0
map 2: a a -> {BIG} b
map 2: b a -> {BIG} a
"""
BIG_PASSING = f"""ainfty v1
convention cochain
basis a 0
basis b 0
map 2: a a -> {BIG} b
"""
# d(d(a)) = BIG**2 c: fails the Jacobi relation of arity 1
BIG_LINFTY = f"""ainfty v1
convention cochain
basis a 0
basis b 1
basis c 2
map 1: a -> {BIG} b
map 1: b -> {BIG} c
"""


def _run_file(tmp_path, text, argv):
    path = tmp_path / "big.astr"
    path.write_text(text)
    return run_cli(argv + ["--input", str(path), "--max-arity", "3"])


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize(
    "text, argv",
    [
        (BIG_FAILING, ["verify", "--check", "direct"]),
        (BIG_FAILING, ["verify", "--check", "coderivation"]),
        (BIG_FAILING, ["verify", "--check", "both"]),
        (BIG_LINFTY, ["linfty"]),
    ],
)
def test_unprintable_defect_coefficient_exits_two(
    text, argv, fmt, digit_limit, tmp_path, capsys
):
    code = _run_file(tmp_path, text, argv + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "more than 4300 digits" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("argv", [["verify", "--check", "both"], ["linfty"]])
def test_long_coefficients_in_a_passing_file_still_print(
    argv, fmt, digit_limit, tmp_path, capsys
):
    assert _run_file(tmp_path, BIG_PASSING, argv + ["--format", fmt]) == 0
    assert "PASS" in capsys.readouterr().out.upper()


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_unprintable_defect_coefficient_boundary(fmt, digit_limit):
    def report(c):
        failure = Failure(word=("a",), defect=((c, ("b",)),))
        return Report("s", "cochain", 1, (CheckRecord("direct", 1, 2, (failure,)),))

    for c in (Fraction(10**4300 - 1), Fraction(-(10**4300) + 1), Fraction(1, 10**4300 - 1)):
        emit_report(report(c), format=fmt)
    for c in (Fraction(10**4300), Fraction(-(10**4300)), Fraction(1, 10**4300)):
        with pytest.raises(InputError, match="more than 4300 digits"):
            emit_report(report(c), format=fmt)
    sys.set_int_max_str_digits(0)  # no limit
    emit_report(report(Fraction(10**4300)), format=fmt)


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("field", ["max_arity", "arity", "words"])
def test_unprintable_report_integer_boundary(field, fmt, digit_limit):
    def report(n):
        ints = {"max_arity": 1, "arity": 1, "words": 2, field: n}
        rec = CheckRecord("direct", ints["arity"], ints["words"], ())
        return Report("s", "cochain", ints["max_arity"], (rec,))

    assert b"9" * 4300 in emit_report(report(10**4300 - 1), format=fmt)
    with pytest.raises(InputError, match="more than 4300 digits"):
        emit_report(report(10**4300), format=fmt)


def test_unprintable_text_total_words(digit_limit):
    # each record's count prints; only the text result line's total does not
    half = CheckRecord("direct", 1, 5 * 10**4299, ())
    report = Report("s", "cochain", 1, (half, half))
    emit_report(report, format="machine")
    with pytest.raises(InputError, match="more than 4300 digits"):
        emit_report(report, format="text")


def test_usage_errors_exit_two(capsys):
    assert run_cli([]) == 2
    assert run_cli(["verify"]) == 2  # --max-arity is required
    assert run_cli(["verify", "--max-arity", "2", "--check", "banana"]) == 2
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_apply_prints_signed_vector(capsys):
    code = run_cli(["apply", "--builtin", "paper-example", "--arity", "3",
                    "--word", "v1,w,v2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "-1 v1"


def test_apply_primed_variant(capsys):
    code = run_cli(["apply", "--builtin", "paper-example", "--arity", "3",
                    "--word", "v1,w,v2", "--primed"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1 v1"


def test_apply_zero_result(capsys):
    code = run_cli(["apply", "--builtin", "paper-example", "--arity", "2",
                    "--word", "v2,v1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_apply_word_arity_mismatch_exits_two(capsys):
    code = run_cli(["apply", "--builtin", "paper-example", "--arity", "3",
                    "--word", "v1,w"])
    assert code == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["apply", "--builtin", "paper-example", "--arity", "1", "--word", "zz"],
    ["apply", "--builtin", "paper-example", "--arity", "2", "--word", "v1,,v2"],
    ["d2", "--builtin", "paper-example", "--word", ",v1,v2,"],
])
def test_apply_unknown_letter_exits_two(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # an unknown or empty letter is no basis name; the message quotes the input
    assert repr(argv[-1]) in captured.err


def test_apply_requires_a_structure(capsys):
    assert run_cli(["apply", "--arity", "1", "--word", "v1"]) == 2
    capsys.readouterr()


def test_d2_zero_on_valid_structure(capsys):
    code = run_cli(["d2", "--builtin", "paper-example", "--word", "v1,v2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_d2_nonzero_on_mutated_file(broken_file, capsys):
    code = run_cli(["d2", "--input", broken_file, "--word", "v1,v2"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "-2 w"


def test_lemma1_subcommand(capsys):
    code = run_cli(["lemma1", "--max-arity", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("yes") == 6
    assert "result: PASS" in out


def test_linfty_subcommand(capsys):
    code = run_cli(["linfty", "--builtin", "paper-example", "--max-arity", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check linfty" in out


def test_linfty_mutated_fails(broken_file, capsys):
    code = run_cli(["linfty", "--input", broken_file, "--max-arity", "3"])
    assert code == 1
    assert "result: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["nope", ""])
def test_unknown_builtin_exits_two(name, capsys):
    code = run_cli(["verify", "--builtin", name, "--max-arity", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"unknown builtin {name!r}" in captured.err
    assert captured.out == ""


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()



@st.composite
def mutated_corpus_files(draw):
    """A corpus structure file with one to four bytes replaced, inserted or deleted.

    Half of the new bytes are drawn from the file format's own characters,
    so many mutants still parse and reach a sweep.
    """
    name = draw(st.sampled_from(sorted(p.name for p in CORPUS.glob("*.astr"))))
    data = bytearray((CORPUS / name).read_bytes())
    syntax = st.sampled_from(b"0123456789-+/:># \n\tabem")
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(data) - 1))
        byte = draw(st.one_of(syntax, st.integers(min_value=0, max_value=255)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "replace":
            data[i] = byte
        elif op == "insert":
            data.insert(i, byte)
        else:
            del data[i]
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(data=mutated_corpus_files(), command=st.sampled_from(["verify", "linfty"]))
def test_mutated_corpus_files_keep_the_exit_code_contract(tmp_path_factory, data, command):
    """A file that does not parse exits 2, and no file exits 3."""
    path = tmp_path_factory.mktemp("mutant") / "mutant.astr"
    path.write_bytes(data)
    try:
        # read as the CLI reads it, with universal newlines
        parse_structure(path.read_text(encoding="utf-8"))
        parses = True
    except (UnicodeDecodeError, InputError):
        parses = False
    code = run_cli([command, "--input", str(path), "--max-arity", "3", "--format", "machine"])
    assert code != 3, "a mutated structure file raised an internal error"
    if not parses:
        assert code == 2
