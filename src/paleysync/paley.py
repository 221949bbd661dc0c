"""Difference graphs on GF(q): power-residue connection sets, orbital
families, union graphs, complements, and multiplier permutations.

Vertices are always the element codes 0..q-1; no relabeling happens
anywhere, so multiplication maps act literally on indices.  Adjacency is
stored as one bitmask per vertex, which makes complementation and the
clique solver word-parallel.
Every graph is a Cayley graph of GF(q)+: row 0 is the indicator of the
connection set, and each further row is an earlier one translated by a
basis vector along gf.translation_walk (two shifts split by a carry mask).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadDivisorError,
    BadInputError,
    DegenerateMError,
    EmptySubsetError,
    NotUndirectedError,
)
from .gf import FieldTables, carry_masks, odd_prime_power, subgroup_coset, translation_walk


@dataclass(frozen=True)
class PaleyParams:
    """Normalized residue parameters: r = (q-1)/m, and the adjusted pair
    (r_bar, m_bar) with r_bar even, r_bar * m_bar = q - 1."""

    q: int
    p: int
    n: int
    m: int
    r: int
    r_bar: int
    m_bar: int
    graph_valid: bool  # 2m | q-1, i.e. the m-th power residues are symmetric


def normalize_params(q: int, m: int) -> PaleyParams:
    """Validate a residue pair and normalize it: q must be an odd prime
    power (BadInputError) and m a divisor of q-1 (BadDivisorError).  Every
    entry point that takes (q, m) checks it here."""
    p, n = odd_prime_power(q)
    if m < 1 or (q - 1) % m:
        raise BadDivisorError(f"m={m} does not divide q-1={q - 1}")
    r = (q - 1) // m
    if r % 2 == 0:
        r_bar, m_bar = r, m
    else:  # q-1 = r*m is even, so m is
        r_bar, m_bar = 2 * r, m // 2
    return PaleyParams(q, p, n, m, r, r_bar, m_bar, graph_valid=(r % 2 == 0))


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n_vertices-1 with bitmask rows.

    `multiplier` is (field, d) on a Cayley graph of GF(q)+ whose connection
    set is a union of cosets of the d-th powers H, so translations and x -> a*x,
    a in H, are automorphisms: the searches may fix vertex 0 and branch once
    per H-orbit.  It is None on other graphs, and equality ignores it.
    """

    n_vertices: int
    adjacency: tuple[int, ...]
    multiplier: tuple[FieldTables, int] | None = dataclass_field(default=None, compare=False)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adjacency[u] >> v) & 1 == 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, row in enumerate(self.adjacency):
            for v in iter_bits(row >> (u + 1) << (u + 1)):
                yield (u, v)


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def validate_graph(g: Graph) -> None:
    """Raise BadInputError unless adjacency is symmetric and irreflexive."""
    n = g.n_vertices
    if len(g.adjacency) != n:
        raise BadInputError("adjacency length differs from n_vertices")
    for v, row in enumerate(g.adjacency):
        if row >> n:
            raise BadInputError(f"row {v} has bits beyond the vertex range")
        if (row >> v) & 1:
            raise BadInputError(f"vertex {v} is self-adjacent")
    for u in range(n):
        for v in iter_bits(g.adjacency[u]):
            if not (g.adjacency[v] >> u) & 1:
                raise BadInputError(f"edge ({u},{v}) is not symmetric")


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise BadInputError(f"bad edge ({u},{v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    """The complement; the complement of a Cayley graph is one (of the
    complementary connection set, a union of the same cosets)."""
    n = g.n_vertices
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adjacency)),
                 g.multiplier)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under the vertex map v -> perm[v].  The image carries no
    multiplier, so searches on it take the generic path.

    Each row is permuted as a bit string, by one itemgetter over the
    binary digits: a leading 1 (bit n, stripped again) keeps the string
    n + 1 long, so every row, and n = 0, takes the same path.
    """
    n = g.n_vertices
    source = [0] * n
    for v, w in enumerate(perm):
        source[w] = v
    # digit i of the string of r | top is bit n - i of r; digit 0 is the leading 1
    pick = itemgetter(0, *(n - source[n - i] for i in range(1, n + 1)))
    top = 1 << n
    rows = [0] * n
    for v, r in enumerate(g.adjacency):
        rows[perm[v]] = int("".join(pick(format(r | top, "b"))), 2) ^ top
    return Graph(n, tuple(rows))


def _difference_graph(field: FieldTables, diffs: frozenset[int], d: int) -> Graph:
    """Graph with u ~ v iff u - v lies in diffs (assumed symmetric, 0-free,
    and a union of cosets of the d-th powers)."""
    p, n = field.p, field.n
    top = carry_masks(p, n)
    row0 = 0
    for s in diffs:
        row0 |= 1 << s
    rows = [row0]
    for prev, i in translation_walk(p, n):
        r, t, step = rows[prev], top[i], p**i
        rows.append(((r & ~t) << step) | ((r & t) >> step * (p - 1)))
    return Graph(field.q, tuple(rows), (field, d))


def validate_residue_params(q: int, m: int) -> None:
    """Raise unless the m-th power residue graph on GF(q) exists: it needs
    m >= 2 (m = 1 would be the complete graph) and 2m | q-1 so that -1 is an
    m-th power (else the relation is not symmetric)."""
    if m < 2:
        raise DegenerateMError(f"m={m} < 2 gives the complete graph; not a Paley graph")
    if (q - 1) % (2 * m):
        raise NotUndirectedError(f"2m={2 * m} does not divide q-1={q - 1}; difference set not symmetric")


def build_paley(field: FieldTables, m: int) -> Graph:
    """Generalized Paley graph: u ~ v iff u - v is a nonzero m-th power."""
    validate_residue_params(field.q, m)
    return _difference_graph(field, subgroup_coset(field, m, 0), m)


@dataclass(frozen=True)
class OrbitalFamily:
    """The m_bar difference cosets gamma^i * {m_bar-th powers}; coset i is the
    edge-difference set of the i-th undirected orbital graph."""

    field: FieldTables
    params: PaleyParams
    difference_cosets: tuple[frozenset[int], ...]

    @property
    def m_bar(self) -> int:
        return self.params.m_bar


def orbital_family(field: FieldTables, m: int) -> OrbitalFamily:
    params = normalize_params(field.q, m)
    mb = params.m_bar
    # r_bar is even, so -1 = gamma^((q-1)/2) is an m_bar-th power: every coset is negation-closed
    cosets = tuple(subgroup_coset(field, mb, j) for j in range(mb))
    return OrbitalFamily(field, params, cosets)


def union_graph(family: OrbitalFamily, subset: Iterable[int]) -> Graph:
    indices = sorted(set(subset))
    if not indices:
        raise EmptySubsetError("orbital subset must be nonempty")
    if indices[0] < 0 or indices[-1] >= family.m_bar:
        raise BadInputError(f"orbital indices {indices} out of range [0, {family.m_bar})")
    diffs: set[int] = set()
    for i in indices:
        diffs |= family.difference_cosets[i]
    return _difference_graph(family.field, frozenset(diffs), family.m_bar)


def multiplier_map(field: FieldTables, i: int) -> tuple[int, ...]:
    """Vertex permutation v -> v * gamma**i (fixes 0)."""
    if i < 0:
        raise BadInputError(f"i={i} must be nonnegative")
    g = field.exp[i % (field.q - 1)]
    mul = field.mul
    return tuple(mul(v, g) for v in range(field.q))
