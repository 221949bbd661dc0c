import random

import pytest

from paleysync import (
    BadDivisorError,
    DegenerateMError,
    EmptySubsetError,
    Graph,
    NotUndirectedError,
    build_field,
    build_paley,
    complement,
    multiplier_map,
    normalize_params,
    orbital_family,
    relabel,
    union_graph,
    validate_graph,
)
from paleysync.paley import iter_bits
from conftest import field_for, odd_prime_powers, random_graph, valid_graph_ms


def test_normalize_even_r():
    params = normalize_params(13, 3)
    assert (params.r, params.r_bar, params.m_bar) == (4, 4, 3)
    assert params.graph_valid


def test_normalize_odd_r():
    params = normalize_params(11, 2)
    assert (params.r, params.r_bar, params.m_bar) == (5, 10, 1)
    assert not params.graph_valid


def test_normalize_bad_divisor():
    with pytest.raises(BadDivisorError):
        normalize_params(13, 5)


@pytest.mark.parametrize("q,m", [(13, 3), (25, 4), (9, 2), (11, 5), (27, 13), (49, 6)])
def test_normalized_identities(q, m):
    params = normalize_params(q, m)
    assert params.r * params.m == q - 1
    assert params.r_bar * params.m_bar == q - 1
    assert params.r_bar % 2 == 0


def test_build_paley_five_cycle():
    g = build_paley(build_field(5), 2)
    assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_build_paley_gf9_regular():
    g = build_paley(build_field(3, 2), 2)
    validate_graph(g)
    assert all(g.degree(v) == 4 for v in range(9))


def test_build_paley_rejects_asymmetric_connection_set():
    with pytest.raises(NotUndirectedError):
        build_paley(build_field(13), 4)


def test_build_paley_rejects_m_one():
    with pytest.raises(DegenerateMError):
        build_paley(build_field(13), 1)


@pytest.mark.parametrize("q", [9, 13, 17, 25, 27, 49, 81, 121])
def test_paley_graphs_are_symmetric_and_regular(q):
    field = field_for(q)
    for m in valid_graph_ms(q):
        g = build_paley(field, m)
        validate_graph(g)
        assert all(g.degree(v) == (q - 1) // m for v in range(q))


def test_orbital_family_gf13():
    fam = orbital_family(build_field(13), 3)
    assert fam.m_bar == 3
    for i in range(3):
        g = union_graph(fam, {i})
        assert all(g.degree(v) == 4 for v in range(13))


def test_orbital_family_m_bar_one_is_complete():
    fam = orbital_family(build_field(11), 2)
    assert fam.m_bar == 1
    g = union_graph(fam, {0})
    assert all(g.degree(v) == 10 for v in range(11))


def test_orbital_shift_by_multiplier():
    field = build_field(3, 2)
    fam = orbital_family(field, 2)
    assert fam.m_bar == 2
    image = relabel(union_graph(fam, {0}), multiplier_map(field, 1))
    assert image == union_graph(fam, {1})


def test_cosets_partition_and_negation_closed():
    for q, m in [(13, 3), (25, 4), (23, 11), (27, 13)]:
        field = field_for(q)
        fam = orbital_family(field, m)
        union = set()
        for coset in fam.difference_cosets:
            assert not (union & coset)
            union |= coset
            for s in coset:
                assert field.neg(s) in coset
        assert union == set(range(1, q))


def test_union_graph_full_subset_is_complete():
    fam = orbital_family(build_field(13), 3)
    g = union_graph(fam, {0, 1, 2})
    assert all(g.degree(v) == 12 for v in range(13))


def test_union_graph_single_is_residue_graph():
    field = build_field(13)
    fam = orbital_family(field, 3)
    assert union_graph(fam, {0}) == build_paley(field, 3)


def test_orbital_zero_is_normalized_residue_graph():
    # m=4 on GF(13) has odd r=3, so the family normalizes to m_bar=2 and
    # orbital 0 is the index-2 graph; orbital 1 is its multiplier image.
    field = build_field(13)
    fam = orbital_family(field, 4)
    assert fam.m_bar == 2
    assert union_graph(fam, {0}) == build_paley(field, 2)
    assert relabel(union_graph(fam, {0}), multiplier_map(field, 1)) == union_graph(fam, {1})


def test_union_graph_complementary_subsets():
    fam = orbital_family(build_field(13), 3)
    assert union_graph(fam, {1, 2}) == complement(union_graph(fam, {0}))


def test_union_graph_empty_subset():
    with pytest.raises(EmptySubsetError):
        union_graph(orbital_family(build_field(13), 3), set())


def test_complement_involution_and_k_q():
    g = build_paley(build_field(13), 2)
    assert complement(complement(g)) == g
    assert all(complement(g).degree(v) == 6 for v in range(13))
    fam = orbital_family(build_field(13), 1)
    k13 = union_graph(fam, {0})
    assert complement(k13).edge_count() == 0


def test_multiplier_map_examples():
    f5 = build_field(5)
    assert multiplier_map(f5, 0) == (0, 1, 2, 3, 4)
    assert multiplier_map(f5, 1) == (0, 2, 4, 1, 3)  # cycle (1 2 4 3), fixes 0


def test_multiplier_maps_send_orbital_zero_onto_each_orbital():
    field = build_field(13)
    fam = orbital_family(field, 3)
    g0 = union_graph(fam, {0})
    for i in range(fam.m_bar):
        assert relabel(g0, multiplier_map(field, i)) == union_graph(fam, {i})


@pytest.mark.parametrize("q,m", [(9, 2), (13, 2), (13, 3), (25, 2), (17, 4)])
def test_residue_graph_embeds_in_complement(q, m):
    field = field_for(q)
    g = build_paley(field, m)
    image = relabel(g, multiplier_map(field, 1))
    for v in range(q):
        assert not (g.adjacency[v] & image.adjacency[v])


def _graph_from_definition(field, diffs):
    """u ~ v iff field.sub(u, v) lies in diffs; v runs over u - d, d in diffs."""
    sub = field.sub
    rows = []
    for u in range(field.q):
        row = 0
        for d in diffs:
            v = sub(u, d)
            assert sub(u, v) == d
            row |= 1 << v
        rows.append(row)
    return Graph(field.q, tuple(rows))


def _every_orbital_up_to(limit):
    for q in odd_prime_powers(limit):
        m_bars = {normalize_params(q, m).m_bar for m in range(1, q) if (q - 1) % m == 0}
        for m_bar in sorted(m_bars):
            for i in range(m_bar):
                yield q, m_bar, i


@pytest.mark.parametrize(
    "cases",
    [list(_every_orbital_up_to(125)), [(243, 11, 1), (343, 3, 2), (625, 3, 1), (729, 4, 3)]],
    ids=["every orbital q<=125", "one orbital on 243, 343, 625, 729"],
)
def test_union_graph_matches_definition(cases):
    for q, m_bar, i in cases:
        family = orbital_family(field_for(q), m_bar)
        expected = _graph_from_definition(family.field, family.difference_cosets[i])
        assert union_graph(family, {i}) == expected, (q, m_bar, i)


def _reference_relabel(g, perm):
    """relabel by a walk over every edge."""
    rows = [0] * g.n_vertices
    for v in range(g.n_vertices):
        r = 0
        for u in iter_bits(g.adjacency[v]):
            r |= 1 << perm[u]
        rows[perm[v]] = r
    return Graph(g.n_vertices, tuple(rows))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 63, 64, 65, 200])
def test_relabel_matches_a_walk_over_every_edge(n):
    rng = random.Random(n)
    for seed in range(3):
        g = random_graph(n, seed, p_edge=rng.choice((0.05, 0.5, 0.95)))
        perm = list(range(n))
        rng.shuffle(perm)
        assert relabel(g, perm).adjacency == _reference_relabel(g, perm).adjacency, seed
