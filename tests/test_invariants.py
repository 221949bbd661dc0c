import math
import tracemalloc

import pytest

from paleysync import (
    InvalidWitnessError,
    TooLargeError,
    brute_force_invariants,
    build_field,
    build_paley,
    chromatic_number,
    clique_number,
    complement,
    graph_from_edges,
    independence_number,
    k_colorable,
    multiplier_map,
    paley_certificate,
    product_certificate,
    relabel,
    subfield_clique,
    theta_pair,
    verify_certificate,
)
from conftest import field_for, random_graph, residue_graph, valid_graph_ms

FIVE_CYCLE = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def complete_graph(n):
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_clique_number_examples():
    assert clique_number(FIVE_CYCLE).value == 2
    assert clique_number(residue_graph(9, 2)).value == 3
    assert clique_number(residue_graph(13, 2)).value == 3


def test_independence_number_examples():
    assert independence_number(FIVE_CYCLE).value == 2
    assert independence_number(residue_graph(9, 2)).value == 3
    assert independence_number(residue_graph(13, 2)).value == 3


def test_chromatic_number_examples():
    assert chromatic_number(FIVE_CYCLE).value == 3
    assert chromatic_number(residue_graph(9, 2)).value == 3
    assert chromatic_number(residue_graph(13, 2)).value == 5


def test_witnesses_are_verified():
    g = residue_graph(13, 2)
    res = clique_number(g)
    assert len(res.witness) == 3
    for i, u in enumerate(res.witness):
        for v in res.witness[i + 1 :]:
            assert g.has_edge(u, v)
    col = chromatic_number(g)
    for u, v in g.edges():
        assert col.witness[u] != col.witness[v]
    assert len(set(col.witness)) == 5


def test_brute_force_examples():
    empty = graph_from_edges(4, [])
    cert = brute_force_invariants(empty)
    assert (cert.omega, cert.alpha, cert.chi) == (1, 4, 1)
    cert = brute_force_invariants(complete_graph(4))
    assert (cert.omega, cert.alpha, cert.chi) == (4, 1, 4)
    cert = brute_force_invariants(residue_graph(13, 2))
    assert (cert.omega, cert.alpha, cert.chi) == (3, 3, 5)


def test_brute_force_cap():
    with pytest.raises(TooLargeError):
        brute_force_invariants(graph_from_edges(17, []))


@pytest.mark.parametrize("q,m", [(5, 2), (9, 2), (9, 4), (13, 2), (13, 3), (13, 6)])
def test_solver_matches_brute_force_on_residue_graphs(q, m):
    g = residue_graph(q, m)
    bf = brute_force_invariants(g)
    assert clique_number(g).value == bf.omega
    assert independence_number(g).value == bf.alpha
    assert chromatic_number(g).value == bf.chi


@pytest.mark.parametrize("seed", range(30))
def test_solver_matches_brute_force_on_random_graphs(seed):
    n = 10 + seed % 4
    g = random_graph(n, seed, p_edge=0.15 + 0.07 * (seed % 10))
    bf = brute_force_invariants(g)
    assert clique_number(g).value == bf.omega
    assert independence_number(g).value == bf.alpha
    assert chromatic_number(g).value == bf.chi


def test_product_certificate_fires_on_gf9():
    field = build_field(3, 2)
    g = build_paley(field, 2)
    clique = subfield_clique(field, 2, 1)
    indep = tuple(sorted(field.mul(c, field.gamma) for c in clique))
    assert product_certificate(g, clique, indep) == (3, 3)


def test_product_certificate_absent_on_five_cycle():
    assert product_certificate(FIVE_CYCLE, (0, 1), (0, 2)) is None


def test_product_certificate_single_vertex():
    g = graph_from_edges(1, [])
    assert product_certificate(g, (0,), (0,)) == (1, 1)


def test_product_certificate_rejects_bad_witnesses():
    g = residue_graph(9, 2)
    with pytest.raises(InvalidWitnessError):
        product_certificate(g, (0, 1, 2, 3), (0,))  # not a clique
    clique = clique_number(g).witness
    with pytest.raises(InvalidWitnessError):
        product_certificate(g, clique, clique)  # a clique is not independent here


def test_subfield_clique_examples():
    assert len(subfield_clique(build_field(3, 2), 2, 1)) == 3
    assert subfield_clique(build_field(7, 2), 3, 1) is None  # 6 does not divide 16
    sc = subfield_clique(build_field(5, 2), 3, 1)
    assert len(sc) == 5
    g = residue_graph(25, 3)
    for i, u in enumerate(sc):
        for v in sc[i + 1 :]:
            assert g.has_edge(u, v)


def test_paley_certificate_exact_and_verifiable():
    field = build_field(7, 2)
    for m in (2, 3, 4):
        cert = paley_certificate(field, m)
        assert cert.status == "exact"
        verify_certificate(build_paley(field, m), cert)


def test_timeout_reports_bounds_not_answers():
    g = residue_graph(81, 4)
    res = chromatic_number(g, budget=2000)
    assert not res.exact
    assert res.lower <= res.upper
    with pytest.raises(RuntimeError):
        _ = res.value
    # the timeout witness is still a proper coloring
    for u, v in g.edges():
        assert res.witness[u] != res.witness[v]


def test_hints_only_prune():
    g = residue_graph(13, 2)
    rep = theta_pair(field_for(13), 2)
    hinted = clique_number(g, upper_hint=int(rep.theta_complement + 1e-6))
    assert hinted.value == clique_number(g).value == 3


def test_chromatic_refutes_false_upper_claim():
    from paleysync import BadInputError

    with pytest.raises(BadInputError):
        chromatic_number(FIVE_CYCLE, upper=2)  # odd cycle needs 3 colors


def test_k_colorable_statuses():
    g = residue_graph(13, 2)
    sat, coloring, _ = k_colorable(g, 5)
    assert sat == "sat"
    for u, v in g.edges():
        assert coloring[u] != coloring[v]
    unsat, _, _ = k_colorable(g, 4)
    assert unsat == "unsat"


def chorded_cycle_edges(n):
    # An n-cycle with chords (i, i+7) on every fifth vertex: the search
    # colors one vertex per level, so its depth grows with n.
    return [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 7) % n) for i in range(0, n, 5)]


def test_k_colorable_deep_search_has_no_recursion_limit():
    edges = chorded_cycle_edges(1200)
    status, coloring, _ = k_colorable(graph_from_edges(1200, edges), 3)
    assert status == "sat"
    assert all(coloring[u] != coloring[v] for u, v in edges)


def test_k_colorable_deep_search_memory_is_small():
    # A pending branch keeps its parent's state alive through all 1200
    # levels, so the state must be k masks: a pair of n-long lists per
    # level would peak near 22 MiB.
    g = graph_from_edges(1200, chorded_cycle_edges(1200))
    tracemalloc.start()
    try:
        status, _, _ = k_colorable(g, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == "sat"
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "q, m, k, budget, status, nodes",
    [
        (37, 3, 5, 20_000, "unsat", 760),
        (81, 4, 5, 20_000, "unsat", 3131),
        (61, 5, 5, 20_000, "sat", 28),
        (49, 4, 7, 20_000, "sat", 21),
        (81, 5, 9, 20_000, "sat", 45),
        (81, 4, 5, 1000, "timeout", 1001),  # a timed-out search reports budget + 1 nodes
    ],
)
def test_k_colorable_search_order_is_pinned(q, m, k, budget, status, nodes):
    """Budgets are node counts, so the node count of a search is part of its
    answer: a change to the branching order must re-record these values.
    (49, 4, 7) and (81, 5, 9) branch on vertices with up to 6 and 8 colors
    left, so the MRV threshold table is pinned well past its first levels."""
    g = residue_graph(q, m)
    got, coloring, spent = k_colorable(g, k, budget=budget, clique_hint=clique_number(g).witness)
    assert (got, spent) == (status, nodes)
    if status == "sat":
        assert all(coloring[u] != coloring[v] for u, v in g.edges())
    else:
        assert coloring is None


@pytest.mark.parametrize(
    "n, seed, p_edge, k, status, nodes",
    [
        (60, 1, 0.3, 6, "unsat", 104),
        (60, 1, 0.3, 7, "sat", 26),
        (70, 3, 0.2, 5, "unsat", 498),
        (70, 3, 0.2, 6, "sat", 67),
        (50, 4, 0.7, 13, "unsat", 1600),
        (50, 4, 0.7, 14, "sat", 45),
    ],
)
def test_k_colorable_search_order_is_pinned_on_irregular_graphs(n, seed, p_edge, k, status, nodes):
    """Residue graphs are regular; these graphs have 13-17 distinct degrees,
    so they pin the degree tie-break of the branching order as well."""
    g = random_graph(n, seed, p_edge)
    got, coloring, spent = k_colorable(g, k, budget=20_000, clique_hint=clique_number(g).witness)
    assert (got, spent) == (status, nodes)
    if status == "sat":
        assert all(coloring[u] != coloring[v] for u, v in g.edges())


def test_relabeling_invariance():
    field = build_field(13)
    g = build_paley(field, 3)
    base = (clique_number(g).value, independence_number(g).value, chromatic_number(g).value)
    for i in (1, 2, 5):
        h = relabel(g, multiplier_map(field, i))
        assert clique_number(h).value == base[0]
        assert independence_number(h).value == base[1]
        assert chromatic_number(h).value == base[2]


def test_sandwich_consistency(square_field_sweep):
    for (q, m), cert in square_field_sweep.items():
        assert cert.status == "exact"
        assert cert.omega <= cert.chi
        assert cert.chi >= math.ceil(q / cert.alpha)


def test_product_equivalence_chain(square_field_sweep):
    """omega*alpha = q holds iff omega = chi, and the complement agrees.

    Complement chromatic numbers are searched exactly where affordable
    (q <= 25 everywhere, and the q = 49 pairs with m <= 4)."""
    for (q, m), cert in sorted(square_field_sweep.items()):
        assert (cert.omega * cert.alpha == q) == (cert.omega == cert.chi)
        if q <= 25 or m <= 4:
            gc = complement(residue_graph(q, m))
            omega_c = clique_number(gc).value
            assert omega_c == cert.alpha
            assert clique_number(gc, witness_hint=cert.independent_set).value == cert.alpha
            chi_c = chromatic_number(
                gc, lower=max(omega_c, -(-q // cert.omega)), budget=2_000_000
            )
            if chi_c.exact:
                assert (cert.omega == cert.chi) == (omega_c == chi_c.value), (q, m)


def test_certificate_json_shape():
    cert = paley_certificate(build_field(3, 2), 2)
    blob = cert.to_json_dict()
    assert list(blob) == [
        "omega", "alpha", "chi", "clique", "independent_set", "coloring", "status", "bounds",
    ]
    assert blob["status"] == "exact"
    assert blob["omega"] == 3 and blob["chi"] == 3


def test_verify_certificate_rejects_tampering():
    g = residue_graph(9, 2)
    cert = paley_certificate(build_field(3, 2), 2)
    bad = cert.__class__(**{**cert.__dict__, "omega": 4})
    with pytest.raises(InvalidWitnessError):
        verify_certificate(g, bad)
