"""Command-line entry points.

Exit codes partition the outcomes: 0 = all requested checks pass, 1 = a
verification check found a nonzero defect, 2 = usage, input or parse
error, 3 = internal error (a bug in this package), 130 = interrupted
(SIGINT), with one ``interrupted`` line on standard error.  A reader that
closes standard output early (``| head``), running out of memory, a
``--max-arity`` below 1 and a report with an integer too long to print all
exit 2 with one ``error:`` line.  Reports go to standard output as they are
written, diagnostics to standard error; no outcome prints a traceback.
``verify`` and ``linfty`` write through ``report._pieces``, which alone
decides whether a report streams or is rendered whole first.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable

from ._backend import _sweep, verify_linfty
from .engine import AStructure, apply_map, d_squared, prime
from .errors import AinftyError, InputError
from .example import BUILTIN_STRUCTURES, lemma1_check
from .formats import parse_structure
from .report import _format_terms, _pieces, _refuse_unprintable, _stream, _term_order, _utf8
from .report import emit_report  # unused here: perfbench/trace_cli.py wraps cli.emit_report

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _load_structure(args) -> AStructure:
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(
                f"{args.input}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
        # the report names the file, not the path it was reached by
        return parse_structure(text, name=os.path.basename(args.input))
    name = "paper-example" if args.builtin is None else args.builtin
    try:
        factory = BUILTIN_STRUCTURES[name]
    except KeyError:
        raise AinftyError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTIN_STRUCTURES))}"
        ) from None
    return factory()


def _add_structure_args(p: argparse.ArgumentParser, required: bool) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--input", metavar="FILE", help="structure file to load")
    group.add_argument(
        "--builtin",
        metavar="NAME",
        help="built-in structure name (default: paper-example)",
    )


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    _add_structure_args(p, required=False)
    p.add_argument("--max-arity", type=int, required=True, metavar="N")
    p.add_argument("--format", choices=["text", "machine"], default="text")


def _parse_word(s: AStructure, text: str) -> tuple[int, ...]:
    names = [t.strip() for t in text.split(",")]
    if "" in names:
        raise AinftyError(f"--word {text!r} has an empty letter")
    return tuple(s.space.index(nm) for nm in names)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ainfty",
        description="Exact verification of homotopy-associative structure data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="sweep the defining identities over all words")
    _add_sweep_args(p)
    p.add_argument(
        "--check",
        choices=["direct", "coderivation", "both"],
        default="both",
    )

    p = sub.add_parser(
        "lemma1", help="compare transferred maps against their closed form"
    )
    p.add_argument("--max-arity", type=int, required=True, metavar="N")

    p = sub.add_parser("linfty", help="verify the induced symmetrized structure")
    _add_sweep_args(p)
    p.set_defaults(check="linfty")

    p = sub.add_parser("apply", help="evaluate one structure map on one word")
    _add_structure_args(p, required=True)
    p.add_argument("--arity", type=int, required=True, metavar="K")
    p.add_argument("--word", required=True, metavar="a,b,c")
    p.add_argument(
        "--primed",
        action="store_true",
        help="apply the transferred degree-1 map instead",
    )

    p = sub.add_parser("d2", help="apply the coderivation twice to one word")
    _add_structure_args(p, required=True)
    p.add_argument("--word", required=True, metavar="a,b,c")
    return parser


def _write(pieces: Iterable[str]) -> None:
    """Write ``pieces`` to stdout as ``_utf8`` encodes them, whatever the locale."""
    for piece in _utf8(pieces):
        sys.stdout.buffer.write(piece)
    sys.stdout.flush()  # a closed stdout fails here, not at exit


def _cmd_sweep(args) -> int:
    s = _load_structure(args)
    _refuse_unprintable(
        s.space.dim, args.max_arity, 2 if args.check == "both" else 1, args.format
    )
    if args.check == "linfty":
        stream = _stream(verify_linfty(s, args.max_arity))
    else:
        stream = _sweep(s, args.max_arity, args.check)
    _write(_pieces(stream, args.format))
    return EXIT_PASS if stream[0][3] else EXIT_FAIL


def _cmd_lemma1(args) -> int:
    if args.max_arity < 1:
        raise InputError("max_arity must be >= 1")
    ok = True
    for n in range(1, args.max_arity + 1):
        good = lemma1_check(n)
        ok = ok and good
        _write([f"arity {n}: transferred map matches closed form: {'yes' if good else 'NO'}\n"])
    _write([f"result: {'PASS' if ok else 'FAIL'}\n"])
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_apply(args) -> int:
    s = _load_structure(args)
    word = _parse_word(s, args.word)
    if len(word) != args.arity:
        raise AinftyError(
            f"--word has {len(word)} letters but --arity is {args.arity}"
        )
    m = s.map_at(args.arity)
    if args.primed and m is not None:
        m = prime(m)
    vec = {} if m is None else apply_map(m, word)
    _write([_format_terms((c, (s.space.name(b),)) for b, c in sorted(vec.items())) + "\n"])
    return EXIT_PASS


def _cmd_d2(args) -> int:
    s = _load_structure(args)
    word = _parse_word(s, args.word)
    result = d_squared(s.primed_version(), word)
    words = _term_order(result.terms)
    _write([_format_terms((result.terms[w], result.space.word_names(w)) for w in words) + "\n"])
    return EXIT_PASS if result.is_zero() else EXIT_FAIL


_COMMANDS = {
    "verify": _cmd_sweep,
    "lemma1": _cmd_lemma1,
    "linfty": _cmd_sweep,
    "apply": _cmd_apply,
    "d2": _cmd_d2,
}


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError as exc:
        # the reader is gone: send what stdout still buffers to devnull, so
        # that Python's flush at exit prints nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AinftyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a process it interrupted
    except Exception as exc:  # no memory, or a bug: exit 1 is kept for defects
        # CPython 3.11 raises this SystemError, not MemoryError, when a new frame finds no memory
        lost_frame = repr(exc) == "SystemError('error return without exception set')"
        if lost_frame or isinstance(exc, MemoryError):
            print("error: out of memory", file=sys.stderr)
            return EXIT_USAGE
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
