"""Exact-arithmetic verification of homotopy-associative structure data.

The package represents finite families of multilinear structure maps over a
graded basis, checks the defining identities in two formulations (the
direct quadratic identity and the square of the induced tensor-coalgebra
coderivation), ships a three-element example that carries such a structure
at every arity, and produces the induced symmetrized (bracket-style) data.
The literal per-word defect functions of the two formulations are
independent of each other; ``verify_structure`` derives both verdicts from
one walk per arity.

All arithmetic is exact rational.  The sweeps (see ``ainfty._backend``)
sum the same terms as the public per-word defect functions, but walk the
(u, lam, v) triples of table entries that build them instead of the words.
"""

from ._backend import active_backend, verify_linfty, verify_structure
from .engine import (
    AStructure,
    MultiMap,
    apply_map,
    coderivation_apply,
    d_apply,
    d_squared,
    prime,
    stasheff_defect,
    unprime,
)
from .errors import AinftyError, InputError, ParseError
from .example import (
    BUILTIN_STRUCTURES,
    EXAMPLE_SPACE,
    example_m,
    example_mprime,
    example_structure,
    lemma1_check,
    lemma2_top_sum_check,
)
from .formats import parse_structure, serialize_structure
from .graded import (
    BasisElement,
    GradedSpace,
    TensorPoly,
    Vector,
    Word,
    word_degree,
)
from .linfty import linfty_defect, symmetrize_prime, unshuffles
from .report import CheckRecord, Failure, Report, emit_report
from .signs import (
    alpha_sign,
    desusp_word_sign,
    koszul_permutation_sign,
    pass_operator_sign,
    s_sign,
    susp_iso_sign,
)

__version__ = "0.1.0"

__all__ = [
    "AStructure",
    "AinftyError",
    "BUILTIN_STRUCTURES",
    "BasisElement",
    "CheckRecord",
    "EXAMPLE_SPACE",
    "Failure",
    "GradedSpace",
    "InputError",
    "MultiMap",
    "ParseError",
    "Report",
    "TensorPoly",
    "Vector",
    "Word",
    "active_backend",
    "alpha_sign",
    "apply_map",
    "coderivation_apply",
    "d_apply",
    "d_squared",
    "desusp_word_sign",
    "emit_report",
    "example_m",
    "example_mprime",
    "example_structure",
    "koszul_permutation_sign",
    "lemma1_check",
    "lemma2_top_sum_check",
    "linfty_defect",
    "parse_structure",
    "pass_operator_sign",
    "prime",
    "s_sign",
    "serialize_structure",
    "stasheff_defect",
    "susp_iso_sign",
    "symmetrize_prime",
    "unprime",
    "unshuffles",
    "verify_linfty",
    "verify_structure",
    "word_degree",
]
