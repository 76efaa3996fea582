"""Every sign rule used by the engine, isolated in one audited module.

Sign conventions are where implementations of homotopy-algebra identities
go wrong, so all of them live here, are computed with integer arithmetic
only, and are pinned by tests.  The fixed conventions:

* Commuting two graded symbols (objects or operators) of degrees p and q
  introduces a factor of (-1)**(p*q).
* A permutation ``sigma`` is a tuple sending letter ``i`` of a word to
  position ``sigma[i]``; its sign accumulates one Koszul factor per
  inversion, with degrees read at the letters' *original* positions.
* Exponents may be negative: desuspended letters have degree d-1, which is
  -1 for a degree-0 element.  Parity of a negative integer is well defined
  and that is all a sign depends on.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError

# A sign is just +1 or -1 as a plain int, so it composes with rational
# coefficients at no cost.
Sign = int


def sign_of(exponent: int) -> Sign:
    """(-1)**exponent for a possibly negative integer exponent."""
    return -1 if exponent % 2 else 1


def koszul_permutation_sign(degrees: Sequence[int], sigma: Sequence[int]) -> Sign:
    """Koszul sign of rearranging graded letters by ``sigma``.

    One factor of (-1)**(degrees[i] * degrees[j]) per inversion of sigma,
    i.e. per pair of letters whose relative order flips.  Equals +1 when
    all degrees are even and the classical signature when all are odd.
    """
    n = len(sigma)
    if len(degrees) != n:
        raise InputError("degrees and permutation must have equal length")
    if sorted(sigma) != list(range(n)):
        raise InputError(f"{tuple(sigma)} is not a permutation of 0..{n - 1}")
    exponent = 0
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j]:
                exponent += degrees[i] * degrees[j]
    return sign_of(exponent)


def pass_operator_sign(op_degree: int, passed_degree: int) -> Sign:
    """Sign for moving an operator of one degree past a symbol of another."""
    return sign_of(op_degree * passed_degree)


def susp_iso_sign(n: int) -> Sign:
    """Sign (-1)**(n(n-1)/2) collected when n suspensions cancel n desuspensions.

    It is the Koszul cost of the n degree -1 operators threading past each
    other, i.e. the sign of reversing n odd symbols.
    """
    if n < 1:
        raise InputError("arity must be >= 1")
    return sign_of(n * (n - 1) // 2)


def desusp_word_sign(degrees: Sequence[int]) -> Sign:
    """Sign identifying a word of desuspended letters with a desuspended word.

    For letters of degrees d_1..d_n, moving the n desuspension operators out
    front costs (-1)**(sum_i (n-i)*d_i): the i-th operator passes the i-1
    letters in front of it.
    """
    if not degrees:
        raise InputError("need at least one degree")
    return sign_of(_desusp_parity(degrees))


def _desusp_parity(degrees: Sequence[int]) -> int:
    """The parity of ``desusp_word_sign``'s exponent, without argument checks."""
    n = len(degrees)
    return sum((n - 1 - i) * d for i, d in enumerate(degrees)) & 1


def _alpha_parity(k: int, lam: int, n: int, prefix_degree_sum: int) -> int:
    """The parity of ``alpha_sign``'s exponent, without argument checks.

    1 exactly when the sign is -1; the top-sum walk of every sweep calls
    this per (table entry, position).
    """
    return (k + lam + k * lam + k * n + k * prefix_degree_sum) & 1


def alpha_sign(k: int, lam: int, n: int, prefix_degree_sum: int) -> Sign:
    """The sign on the (lam, k) term of the arity-n associativity-up-to-homotopy identity.

    Exponent k + lam + k*lam + k*n + k*(degree sum of the lam untouched
    prefix letters).
    """
    if not 0 <= lam <= n - 1:
        raise InputError(f"prefix length {lam} out of range for arity {n}")
    if not 1 <= k <= n - lam:
        raise InputError(f"inner arity {k} out of range for arity {n}, prefix {lam}")
    return sign_of(_alpha_parity(k, lam, n, prefix_degree_sum))


def s_sign(n: int) -> Sign:
    """The arity-dependent sign (-1)**((n+1)(n+2)/2) of the built-in example.

    Follows the period-4 pattern -,+,+,- for n = 1,2,3,4 and repeats.
    """
    if n < 1:
        raise InputError("arity must be >= 1")
    return sign_of((n + 1) * (n + 2) // 2)
