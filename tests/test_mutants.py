"""The mutant list of ``tools/mutants.py`` still anchors every mutant.

Each mutant names a source substring that must occur exactly once in its
file.  The script refuses to run when one does not, but it takes minutes
and runs outside the suite; this test only reads the files, so a refactor
that moves an anchor fails here at once.
"""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"


def test_every_mutant_anchor_occurs_once():
    spec = importlib.util.spec_from_file_location("ainfty_mutants", TOOLS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.stale_anchors(mutants.MUTANTS) == []
