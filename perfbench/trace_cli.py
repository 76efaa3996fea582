"""Run the `ainfty` CLI once with spans recorded at each layer boundary.

Usage: python3 perfbench/trace_cli.py SPANS.json CLI-ARG...

The program is not changed: the public functions and module-level helpers
at each layer boundary are replaced, for this process only, by wrappers
that record a span (layer name, start, end, parent span) or count calls.
The CLI's report goes to stdout as usual; the spans and counters are kept
in memory and written to SPANS.json when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, owner, attr: str, layer: str, describe=None) -> None:
        """Wrap owner.attr so that each call records one span named `layer`.

        `describe(args, result)` may return extra fields (such as the cell's
        check and arity, or a byte count) to store on the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = {"layer": layer, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.update(describe(args, result))
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, counter: str) -> None:
        """Wrap owner.attr so that each call adds one to `counter`."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts[counter] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)


def install(rec: Recorder) -> None:
    import ainfty._backend as backend
    import ainfty.cli as cli
    import ainfty.engine as engine
    import ainfty.example as example
    import ainfty.linfty as linfty

    rec.span(cli, "parse_structure", "formats.parse", lambda a, r: {"bytes": len(a[0].encode())})
    rec.span(example, "example_m", "example.generate")
    rec.span(engine, "prime", "engine.transfer")
    rec.span(engine, "unprime", "engine.transfer")
    rec.span(
        backend,
        "_sweep_one",
        "backend.cell",
        lambda a, r: {
            "check": a[1],
            "arity": a[2],
            "words": a[0].space.dim ** a[2],
            "failures": len(r),
        },
    )
    rec.span(backend, "_to_record", "backend.record")
    rec.span(cli, "emit_report", "report.emit", lambda a, r: {"bytes": len(r)})
    rec.span(linfty, "symmetrize_prime", "linfty.symmetrize")
    # the Jacobi sweep is the self time of verify_linfty: its children are
    # the generated and transferred maps and their symmetrization
    rec.span(cli, "verify_linfty", "linfty.jacobi")
    rec.count(linfty, "linfty_defect", "linfty.jacobi_words")
    rec.count(linfty, "koszul_permutation_sign", "signs.koszul_calls")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    t0 = time.perf_counter()
    import ainfty
    import ainfty.cli

    t1 = time.perf_counter()
    install(rec)
    t2 = time.perf_counter()
    try:
        code = ainfty.cli.run_cli(cli_args)
        sys.stdout.flush()
    finally:
        t3 = time.perf_counter()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "argv": cli_args,
                    "backend": ainfty.active_backend(),
                    "import_s": t1 - t0,
                    "run_s": t3 - t2,
                    "spans": rec.spans,
                    "counts": rec.counts,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
