"""Golden corpus: machine reports must keep their pinned sha256 and exit code.

Each case in ``corpus/expected.json`` is one CLI invocation; ``--input``
names a file in ``corpus/``, passed here by its absolute path.  The hashes
were recorded before the sweep was last refactored; a change that alters
any report byte fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ainfty.cli import run_cli

CORPUS = Path(__file__).parent / "corpus"
EXPECTED = json.loads((CORPUS / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_corpus_report_is_byte_identical(name, capsysbinary):
    case = EXPECTED[name]
    argv = list(case["argv"])
    if "--input" in argv:
        i = argv.index("--input") + 1
        argv[i] = str(CORPUS / argv[i])
    code = run_cli(argv)
    report = capsysbinary.readouterr().out
    assert code == case["exit"]
    assert hashlib.sha256(report).hexdigest() == case["sha256"]
