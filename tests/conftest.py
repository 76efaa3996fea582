"""Shared hypothesis strategies and small helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from hypothesis import Phase, settings, strategies as st

from ainfty import AStructure, BasisElement, GradedSpace, MultiMap

# A failing property stops at its first counterexample and prints it
# unshrunk: shrinking the many failures of a broken sign can run for minutes.
settings.register_profile("no-shrink", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("no-shrink")

# small exact rationals, zero excluded where noted
coefficients = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
nonzero_coefficients = coefficients.filter(lambda c: c != 0)


@st.composite
def graded_spaces(
    draw, max_dim: int = 4, min_degree: int = -2, max_degree: int = 3, min_dim: int = 1
):
    dim = draw(st.integers(min_value=min_dim, max_value=max_dim))
    degrees = draw(
        st.lists(
            st.integers(min_value=min_degree, max_value=max_degree),
            min_size=dim,
            max_size=dim,
        )
    )
    elements = tuple(BasisElement(f"e{i}", d) for i, d in enumerate(degrees))
    return GradedSpace(elements)


@st.composite
def words_over(draw, space: GradedSpace, min_arity: int = 1, max_arity: int = 4):
    arity = draw(st.integers(min_value=min_arity, max_value=max_arity))
    return tuple(
        draw(st.integers(min_value=0, max_value=space.dim - 1)) for _ in range(arity)
    )


@st.composite
def homogeneous_multimaps(
    draw,
    space: GradedSpace | None = None,
    min_arity: int = 1,
    max_arity: int = 4,
    primed: bool = False,
    max_entries: int = 4,
):
    """A random degree-homogeneous map: only entries the grading allows."""
    if space is None:
        space = draw(graded_spaces())
    arity = draw(st.integers(min_value=min_arity, max_value=max_arity))
    n_entries = draw(st.integers(min_value=0, max_value=max_entries))
    table = {}
    for _ in range(n_entries):
        w = draw(words_over(space, min_arity=arity, max_arity=arity))
        target = sum(space.degree(i) for i in w) + 2 - arity
        allowed = [b for b in range(space.dim) if space.degree(b) == target]
        if not allowed:
            continue
        vec = {}
        for b in draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=2)):
            vec[b] = draw(nonzero_coefficients)
        table[w] = vec
    return MultiMap(space, arity, table, primed=primed)


@st.composite
def random_structures(draw, max_arity: int = 3, max_entries: int = 4, **space_options):
    """A finite structure of random homogeneous maps; some fail the identities.

    ``space_options`` go to ``graded_spaces``.  Arities whose drawn table is
    empty are left out; a structure with no entries at all gets one empty
    arity-1 map.
    """
    space = draw(graded_spaces(**space_options))
    maps = {}
    for arity in range(1, max_arity + 1):
        m = draw(
            homogeneous_multimaps(
                space=space, min_arity=arity, max_arity=arity, max_entries=max_entries
            )
        )
        if m.table:
            maps[arity] = m
    if not maps:
        maps = {1: MultiMap(space, 1, {})}
    return AStructure(space, maps=maps, name="random")


@st.composite
def square_zero_differentials(draw):
    """A valid one-map structure: the map raises degree from level 0 to 1.

    With only two degree levels the composite of the map with itself has
    nowhere to land, so the single defining identity holds by construction
    and the structure is valid at every arity.
    """
    n0 = draw(st.integers(min_value=1, max_value=3))
    n1 = draw(st.integers(min_value=1, max_value=2))
    elements = tuple(
        BasisElement(f"a{i}", 0) for i in range(n0)
    ) + tuple(BasisElement(f"b{i}", 1) for i in range(n1))
    space = GradedSpace(elements)
    table = {}
    for i in range(n0):
        vec = {}
        for j in range(n1):
            c = draw(coefficients)
            if c:
                vec[n0 + j] = c
        if vec:
            table[(i,)] = vec
    maps = {1: MultiMap(space, 1, table)} if table else {}
    if not maps:
        maps = {1: MultiMap(space, 1, {})}
    return AStructure(space, maps=maps, name="random-differential")


@st.composite
def scaled_idempotent_algebras(draw):
    """A valid two-map-free structure: one degree-0 element with x*x = c*x.

    Associativity of the product holds for any scale c, and with no other
    maps every higher identity is vacuous.
    """
    c = draw(coefficients)
    space = GradedSpace((BasisElement("x", 0),))
    table = {(0, 0): {0: c}} if c else {}
    return AStructure(
        space, maps={2: MultiMap(space, 2, table)}, name="scaled-idempotent"
    )


def valid_structures():
    """Structures that satisfy the identities at every arity."""
    return st.one_of(square_zero_differentials(), scaled_idempotent_algebras())


@st.composite
def permutations_of(draw, n: int):
    return tuple(draw(st.permutations(list(range(n)))))


def rescaled(s: AStructure, t: Fraction, max_arity: int) -> AStructure:
    """``s`` with each m_k of arity 1..max_arity multiplied by ``t**(k - 2)``.

    A term of the direct identity, of D(D(word)) or of a Jacobi relation
    composes two maps m_a, m_b on a + b - 1 letters, and so picks up
    ``t**(a + b - 4)``: at arity n a one-letter defect scales by
    ``t**(n - 3)``, and a defect word of l letters by ``t**(n - l - 2)``.
    """
    maps = {}
    for k in range(1, max_arity + 1):
        m = s.map_at(k)
        if m is not None:
            table = {w: {b: c * t ** (k - 2) for b, c in vec.items()} for w, vec in m.table.items()}
            maps[k] = MultiMap(s.space, k, table, primed=m.primed)
    return AStructure(s.space, maps=maps, name=s.name)


# a degree-0 linear map of the space: letter i -> {letter j: coefficient of j in g(i)}
LinearMap = dict[int, dict[int, Fraction]]


def inverse(g: LinearMap, dim: int) -> LinearMap:
    """The inverse of the invertible map ``g``, by Gauss-Jordan elimination."""
    rows = [[Fraction(g[i].get(j, 0)) for j in range(dim)] + [Fraction(i == j) for j in range(dim)]
            for i in range(dim)]
    for col in range(dim):
        pivot = next(r for r in range(col, dim) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [c / rows[col][col] for c in rows[col]]
        for r in range(dim):
            if r != col and rows[r][col]:
                rows[r] = [c - rows[r][col] * d for c, d in zip(rows[r], rows[col])]
    return {i: {j: c for j, c in enumerate(rows[i][dim:]) if c} for i in range(dim)}


def transformed_word(g: LinearMap, word: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """``g`` applied to each letter of ``word``: g^{(x)n}(word) as {word: coefficient}."""
    out: dict[tuple[int, ...], Fraction] = {}
    for terms in product(*(g[a].items() for a in word)):
        w = tuple(b for b, _ in terms)
        out[w] = out.get(w, 0) + prod(c for _, c in terms)
    return {w: c for w, c in out.items() if c}


def conjugated(s: AStructure, g: LinearMap) -> AStructure:
    """``s`` with each m_k replaced by m^g_k = g o m_k o (g^-1)^{(x)k}.

    ``g`` must be invertible and of degree 0: each g(i) holds only letters of
    i's degree.  Then no sign enters, and every direct defect transforms as
    S^g = g o S o (g^-1)^{(x)n}; a permutation ``g`` only relabels letters.
    """
    space = s.space
    # the transpose of g^-1: an entry's word w is read by each word x whose
    # image under (g^-1)^{(x)k} holds w, with that coefficient
    reads: LinearMap = {}
    for x, vec in inverse(g, space.dim).items():
        for a, c in vec.items():
            reads.setdefault(a, {})[x] = c
    maps = {}
    for k in s.arities:
        table: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for w, vec in s.map_at(k).table.items():
            for x, weight in transformed_word(reads, w).items():
                acc = table.setdefault(x, {})
                for b, c in vec.items():
                    for b2, c2 in g[b].items():
                        acc[b2] = acc.get(b2, 0) + weight * c * c2
        maps[k] = MultiMap(space, k, table, primed=s.primed)
    return AStructure(space, maps=maps, primed=s.primed, name=s.name)


def direct_sum(a: AStructure, b: AStructure) -> AStructure:
    """A (+) B: its letters are A's, named ``A.<name>``, then B's, named ``B.<name>``.

    Each m_k acts as A's on the words of A's letters and as B's on those of
    B's, shifted by A's dimension; a mixed word maps to zero.  Both are
    unprimed and read in A's convention.
    """
    elements = [BasisElement(f"A.{e.name}", e.degree) for e in a.space.elements]
    elements += [BasisElement(f"B.{e.name}", e.degree) for e in b.space.elements]
    space = GradedSpace(elements, convention=a.space.convention)
    shift = a.space.dim
    maps = {}
    for k in sorted({*a.arities, *b.arities}):
        ma, mb = a.map_at(k), b.map_at(k)
        table = dict(ma.table) if ma is not None else {}
        for w, vec in (mb.table if mb is not None else {}).items():
            table[tuple(i + shift for i in w)] = {i + shift: c for i, c in vec.items()}
        maps[k] = MultiMap(space, k, table)
    return AStructure(space, maps=maps, name=f"{a.name}+{b.name}")
