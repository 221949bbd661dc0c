import hashlib
import itertools
import json
import math
import os
import sys
import tracemalloc

import pytest

from paleysync import (
    BadInputError,
    Graph,
    InvalidWitnessError,
    SearchResult,
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
    normalize_params,
    orbital_family,
    paley_certificate,
    prime_power,
    relabel,
    subfield_elements,
    theta_pair,
    union_graph,
    verify_certificate,
)
from paleysync.classify import _canonical_pair_masks
from paleysync.gf import odd_prime_powers
from paleysync import invariants
from paleysync.invariants import (PROBE, TABU_SEED, _Budget, _chi_seed, _degeneracy_order,
                                  _dsatur_coloring, _greedy_clique, _is_witness, _k_colorable,
                                  _root_class_test, _Rng, _squeeze, _tabu_coloring,
                                  factorization_certificate)
from paleysync.paley import _difference_graph, iter_bits
from conftest import field_for, random_graph, residue_graph, valid_graph_ms

FIVE_CYCLE = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def complete_graph(n):
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def chi_seed(g):
    """The clique chromatic_number seeds its k-tests with when it is given
    none."""
    return tuple(_chi_seed(list(g.adjacency), g.n_vertices))


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


@pytest.mark.parametrize("hint", [0, -1])
def test_a_clique_bound_below_1_is_refused(hint):
    """On a graph with vertices omega is at least 1, so a smaller upper_hint
    raises, where it once gave an "exact" omega of 0 with an empty witness
    (the plain copy) or of 1 (the Cayley graph)."""
    g = residue_graph(13, 2)
    for h in (g, relabel(g, range(13))):
        with pytest.raises(BadInputError, match="below 1"):
            clique_number(h, upper_hint=hint)
        with pytest.raises(BadInputError, match="below 1"):
            independence_number(h, upper_hint=hint)
    assert clique_number(graph_from_edges(0, []), upper_hint=0) == SearchResult(True, 0, 0, (), 0)


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
    got, coloring, spent = k_colorable(g, k, budget=budget, clique_hint=chi_seed(g))
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


GF121_M5 = orbital_family(build_field(11, 2), 5)


@pytest.mark.parametrize(
    "subset, budget, exact, bounds, nodes",
    [
        ({0, 1}, None, True, (4, 4), 2517),
        ({2, 3, 4}, None, True, (9, 9), 14346),
        ({0, 2}, None, True, (5, 5), 1575),
        ({1, 3, 4}, None, True, (9, 9), 10360),
        ({2, 3, 4}, 1000, False, (9, 73), 1001),  # a timed-out search reports budget + 1 nodes
    ],
    ids=["0+1", "2+3+4", "0+2", "1+3+4", "2+3+4@1000"],
)
def test_clique_search_order_is_pinned(subset, budget, exact, bounds, nodes):
    """Budgets are node counts, so the node count of a search is part of its
    answer: a change to the branching order must re-record these values.
    The rows are those of orbital unions of GF(121) at m = 5, in a plain
    Graph with no Cayley mark, so they pin the search over all vertices."""
    g = union_graph(GF121_M5, subset)
    g = Graph(g.n_vertices, g.adjacency)
    res = clique_number(g, budget=budget)
    assert (res.exact, (res.lower, res.upper), res.nodes) == (exact, bounds, nodes)
    assert len(res.witness) == res.lower
    assert all(g.has_edge(u, v) for u in res.witness for v in res.witness if u < v)


@pytest.mark.parametrize(
    "subset, budget, exact, bounds, nodes",
    [
        ({0, 1}, None, True, (4, 4), 7),
        ({2, 3, 4}, None, True, (9, 9), 92),
        ({0, 2}, None, True, (5, 5), 7),
        ({1, 3, 4}, None, True, (9, 9), 46),
        ({2, 3, 4}, 50, False, (9, 73), 51),
    ],
    ids=["0+1", "2+3+4", "0+2", "1+3+4", "2+3+4@50"],
)
def test_cayley_clique_search_order_is_pinned(subset, budget, exact, bounds, nodes):
    """The same unions as Cayley graphs: the search runs inside N(0) with
    vertex 0 fixed, one branch per multiplier orbit, and the timeout keeps
    the upper bound of the full search."""
    g = union_graph(GF121_M5, subset)
    res = clique_number(g, budget=budget)
    assert (res.exact, (res.lower, res.upper), res.nodes) == (exact, bounds, nodes)
    assert _is_witness(list(g.adjacency), res.witness, adjacent=True)
    assert len(res.witness) == res.lower


def _cayley_graphs(q_max):
    """Every residue graph and its complement, and every orbital union with
    2 <= m_bar <= 8 (both members of each canonical pair), for q <= q_max;
    each distinct graph once, mapped to the first (q, m, kind) that builds it."""
    graphs = {}
    for q in odd_prime_powers(q_max):
        field = field_for(q)
        for m in valid_graph_ms(q):
            g = build_paley(field, m)
            graphs.setdefault(g, (q, m, "residue"))
            graphs.setdefault(complement(g), (q, m, "complement"))
        for m in range(1, q):
            if (q - 1) % m or not 2 <= normalize_params(q, m).m_bar <= 8:
                continue
            family = orbital_family(field, m)
            full = (1 << family.m_bar) - 1
            for mask in _canonical_pair_masks(family.m_bar):
                for subset in (mask, full ^ mask):
                    graphs.setdefault(union_graph(family, iter_bits(subset)), (q, m, subset))
    return graphs


def test_cayley_clique_search_agrees_with_the_generic_search():
    """The search inside N(0) finds the omega of the search over all
    vertices, with a witness that contains vertex 0."""
    for g, key in _cayley_graphs(81).items():
        assert g.multiplier is not None, key
        res = clique_number(g)
        assert res.value == clique_number(Graph(g.n_vertices, g.adjacency)).value, key
        assert _is_witness(list(g.adjacency), res.witness, adjacent=True), key
        assert 0 in res.witness, key


def test_cayley_clique_search_branches_once_per_orbit():
    """(6561, 8), the union [0, 1]: one branch per multiplier orbit of N(0)
    proves omega = 9 within 2,000 nodes, where one branch per vertex of N(0)
    timed out at 2,001 nodes with omega in [9, 1641]."""
    g = union_graph(orbital_family(build_field(3, 8), 8), [0, 1])
    res = clique_number(g, budget=2000)
    assert (res.exact, res.value, res.nodes) == (True, 9, 1268)
    assert _is_witness(list(g.adjacency), res.witness, adjacent=True)


def _k_test_seeds(monkeypatch):
    """The clique_hint of every k_colorable call chromatic_number makes, as
    they are made."""
    seeds = []

    def traced(g, k, budget=None, clique_hint=()):
        seeds.append(tuple(clique_hint))
        return k_colorable(g, k, budget=budget, clique_hint=clique_hint)

    monkeypatch.setattr(invariants, "k_colorable", traced)
    return seeds


def test_the_greedy_start_is_the_clique_that_seeds_chi_of_81_4(monkeypatch):
    """chi seeds its k-tests with the 48-seed greedy start, (5, 38, 80) on
    (81, 4), while omega's witness is (0, 1, 2), a dive from 0 that meets
    the cap 3 with no search.  Seeded with the start, the 6-test is unsat
    after 3,122,536 nodes; seeded with (0, 1, 2) it is open after
    6,000,000."""
    g = residue_graph(81, 4)
    assert clique_number(g, upper_hint=3) == SearchResult(True, 3, 3, (0, 1, 2), 0)
    assert clique_number(g).witness == (0, 1, 2)
    assert chi_seed(g) == (5, 38, 80)
    seeds = _k_test_seeds(monkeypatch)
    assert not chromatic_number(g, budget=5000).exact
    assert seeds and set(seeds) == {(5, 38, 80)}


def test_omega_witnesses_contain_0_and_chi_seeds_its_own_k_tests(monkeypatch):
    """On every residue graph with q <= 125, the exact omega witness contains
    0, and chi's k-tests are seeded with the greedy start whatever omega's
    witness is: at budget 0, 117 of the 134 graphs reach a k-test, and on
    each of them the start differs from omega's witness."""
    seeds = _k_test_seeds(monkeypatch)
    seeded = []
    for q in odd_prime_powers(125):
        field = field_for(q)
        for m in valid_graph_ms(q):
            g = build_paley(field, m)
            omega = clique_number(g)
            assert omega.exact and 0 in omega.witness, (q, m)
            seeds.clear()
            chromatic_number(g, budget=0)
            if seeds:
                assert set(seeds) == {chi_seed(g)}, (q, m)
                seeded.append(chi_seed(g) != omega.witness)
    assert seeded == [True] * 117


def test_only_difference_graphs_take_the_cayley_cut():
    g = union_graph(GF121_M5, {0, 1})
    assert g.multiplier == complement(g).multiplier == (GF121_M5.field, 5)
    for h in (relabel(g, range(g.n_vertices)), graph_from_edges(g.n_vertices, g.edges())):
        assert h == g and h.multiplier is None
        assert clique_number(h).nodes == 2517


def test_every_difference_graph_maps_onto_itself_under_its_multiplier(monkeypatch):
    """x -> gamma^d * x, the generator of the d-th powers, fixes 0 and maps
    the rows of every graph built with the multiplier (field, d) onto
    themselves: residue graphs, orbital unions, their complements, and the
    graphs of the factorization certificate and its coset coloring."""
    built = []

    def spy(field, diffs, d):
        built.append(_difference_graph(field, diffs, d))
        return built[-1]

    monkeypatch.setattr(invariants, "_difference_graph", spy)
    for q, m in ((27, 13), (49, 6), (81, 8), (125, 31)):
        assert factorization_certificate(field_for(q), m, _Budget(10**6)) is not None, (q, m)
    assert len(built) == 8
    for q in (25, 27, 49, 81):
        field = field_for(q)
        for m in valid_graph_ms(q):
            family = orbital_family(field, m)
            built += [build_paley(field, m), union_graph(family, range(0, family.m_bar, 2))]
    for g in built + [complement(g) for g in built]:
        field, d = g.multiplier
        image = multiplier_map(field, d)
        assert image[0] == 0 and relabel(g, image) == g, (field.q, d)


def test_independence_orbit_search_agrees_with_the_generic_search():
    """One branch per multiplier orbit of N(0) finds the alpha of the search
    over all vertices of a relabelled copy, which carries no multiplier."""
    for g, key in _cayley_graphs(81).items():
        res = independence_number(g)
        assert res.value == independence_number(relabel(g, range(g.n_vertices))).value, key
        assert _is_witness(list(g.adjacency), res.witness, adjacent=False), key


def test_independence_orbit_search_agrees_past_q_81_at_the_theta_cap():
    """Residue graphs with 81 < q <= 125, alpha capped at theta, 1,000 nodes
    each: every exact answer of the search over all vertices is matched, and
    every pair of brackets meets."""
    for q in odd_prime_powers(125):
        if q <= 81:
            continue
        field = field_for(q)
        for m in valid_graph_ms(q):
            g = build_paley(field, m)
            cap = int(theta_pair(field, m).theta + 1e-6)
            res = independence_number(g, budget=1000, upper_hint=cap)
            ref = independence_number(relabel(g, range(q)), budget=1000, upper_hint=cap)
            assert _is_witness(list(g.adjacency), res.witness, adjacent=False), (q, m)
            assert len(res.witness) == res.lower, (q, m)
            assert res.exact or not ref.exact, (q, m)
            assert max(res.lower, ref.lower) <= min(res.upper, ref.upper), (q, m)


def test_a_timed_out_independence_search_keeps_the_greedy_start():
    """The lower bound of a timed-out alpha is at least the 48-seed greedy
    start of the search over all vertices, the budget-0 answer on a
    relabelled copy.  That start beats the orbit dives on (49, 6) and
    (71, 5), so both must be among the timeouts checked."""
    timed_out = set()
    for q in odd_prime_powers(81):
        field = field_for(q)
        for m in valid_graph_ms(q):
            lower, upper = paley_certificate(field, m, budget=0).bounds["alpha"]
            if lower < upper:
                g = relabel(build_paley(field, m), range(q))
                start = independence_number(g, budget=0, upper_hint=upper).lower
                assert lower >= start, (q, m)
                timed_out.add((q, m))
    assert {(49, 6), (71, 5)} <= timed_out


@pytest.mark.parametrize("q", [9, 25, 49])
def test_the_whole_graph_coloring_closes_a_search_with_no_multiplier(q):
    """A copy of the Paley graph (q, 2) that carries no multiplier: its
    greedy coloring has as many classes as the 48-seed start has vertices,
    sqrt(q), so the search is exact at budget 0 and spends no node, as on
    the Cayley graph itself."""
    g = relabel(residue_graph(q, 2), range(q))
    assert g.multiplier is None
    res = clique_number(g, budget=0)
    assert (res.exact, res.value, res.nodes) == (True, math.isqrt(q), 0)


@pytest.mark.parametrize(
    "n, seed, p_edge, omega, nodes, witness",
    [
        (60, 1, 0.3, 5, 35, (4, 24, 35, 37, 56)),
        (50, 4, 0.7, 11, 193, (7, 14, 16, 20, 24, 28, 32, 37, 38, 39, 41)),
        (120, 2, 0.5, 9, 1342, (5, 6, 19, 32, 38, 61, 91, 94, 102)),
    ],
)
def test_clique_search_order_is_pinned_on_irregular_graphs(n, seed, p_edge, omega, nodes, witness):
    res = clique_number(random_graph(n, seed, p_edge))
    assert (res.value, res.nodes, res.witness) == (omega, nodes, witness)


def _reference_degeneracy_order(adj):
    """Min-degree elimination by a scan of every remaining vertex per step."""
    n = len(adj)
    degs = [row.bit_count() for row in adj]
    alive = set(range(n))
    order, degeneracy = [], 0
    while alive:
        v = min(alive, key=lambda u: (degs[u], u))
        degeneracy = max(degeneracy, degs[v])
        order.append(v)
        alive.remove(v)
        for u in alive:
            degs[u] -= adj[v] >> u & 1
    return order, degeneracy


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 64, 120])
def test_degeneracy_order_matches_a_reference_scan(n):
    for seed in range(3):
        for p_edge in (0.05, 0.3, 0.6, 0.95):
            adj = list(random_graph(n, seed, p_edge).adjacency)
            assert _degeneracy_order(adj, n) == _reference_degeneracy_order(adj), (seed, p_edge)


def _reference_greedy_clique(adj, seeds):
    """The greedy start grown in full from every seed, with no cap and no cut."""
    best = []
    for seed in seeds:
        clique = [seed]
        cand = adj[seed]
        while cand:
            pick = max(iter_bits(cand), key=lambda v: ((adj[v] & cand).bit_count(), -v))
            clique.append(pick)
            cand &= adj[pick]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _reference_dsatur_coloring(adj, n):
    """DSATUR by a scan of every uncolored vertex per step."""
    colors = [-1] * n
    sat = [0] * n
    for _ in range(n):
        v = max((u for u in range(n) if colors[u] < 0),
                key=lambda u: (sat[u].bit_count(), adj[u].bit_count(), -u))
        c = 0
        while sat[v] >> c & 1:
            c += 1
        colors[v] = c
        for u in iter_bits(adj[v]):
            if colors[u] < 0:
                sat[u] |= 1 << c
    return colors


def _oracle_graphs():
    """Every residue graph and its complement with q <= 125, then seeded
    random graphs of 0 to 90 vertices, sparse to dense."""
    for q in odd_prime_powers(125):
        field = field_for(q)
        for m in valid_graph_ms(q):
            g = build_paley(field, m)
            yield (q, m), g
            yield (q, m, "complement"), complement(g)
    for n in (0, 1, 2, 5, 17, 40, 90):
        for seed in range(3):
            for p_edge in (0.1, 0.5, 0.9):
                yield (n, seed, p_edge), random_graph(n, seed, p_edge)


def test_greedy_clique_and_dsatur_match_their_reference_scans():
    """The greedy start stops at its cap and drops a seed that cannot beat
    the best, and DSATUR picks its vertex through threshold masks; neither
    changes what the full scans return.  The greedy start is checked at the
    cap clique_number gives it and at the tightest cap that holds, its own
    size."""
    for key, g in _oracle_graphs():
        adj, n = list(g.adjacency), g.n_vertices
        assert _dsatur_coloring(adj, n) == _reference_dsatur_coloring(adj, n), key
        order, degeneracy = _degeneracy_order(adj, n)
        seeds = list(reversed(order))[:48]
        want = _reference_greedy_clique(adj, seeds)
        for cap in (min(degeneracy + 1, n), len(want)):
            assert _greedy_clique(adj, seeds, cap) == want, (key, cap)


# sha256 of the records below, recorded before the coloring search kept its
# lost-color counts in threshold masks
K_COLORABLE_DIGEST = "db6946b38305ea652b882e14dfd1c971820c6907dc682486428b74d134947d0d"


def test_k_colorable_answers_match_a_pinned_digest():
    """(status, coloring, nodes) of k_colorable at budget 2000 on every
    residue graph with q <= 81, for each k that chromatic_number would test
    (the clique size up to one below the DSATUR bound), seeded with the
    greedy start that chi seeds them with and unseeded.  The unseeded root
    has no color in use, so its MRV scan runs down to level 0."""
    records = []
    for q in odd_prime_powers(81):
        field = field_for(q)
        for m in valid_graph_ms(q):
            g = build_paley(field, m)
            clique = chi_seed(g)
            upper = chromatic_number(g, lower=len(clique), budget=0).upper
            for hint in (clique, ()):
                for k in range(len(clique), upper):
                    records.append([q, m, k, len(hint), *k_colorable(g, k, budget=2000, clique_hint=hint)])
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == K_COLORABLE_DIGEST


def test_clique_deep_search_has_no_recursion_limit():
    # K_1000 beside a complete tripartite decoy K_{501,501,501}: the decoy
    # has the larger degrees, so the greedy seed is a triangle and the
    # search descends through the whole K_1000, one level per vertex.
    big, part = 1000, 501
    n = big + 3 * part
    clique_rows = [((1 << big) - 1) ^ (1 << v) for v in range(big)]
    decoy = ((1 << n) - 1) ^ ((1 << big) - 1)
    decoy_rows = []
    for j in range(3):
        own = ((1 << part) - 1) << (big + j * part)
        decoy_rows += [decoy & ~own] * part
    res = clique_number(Graph(n, tuple(clique_rows + decoy_rows)))
    assert res.value == big
    assert res.witness == tuple(range(big))
    assert res.nodes == big


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


def test_verify_certificate_rejects_exact_certificate_without_alpha():
    g = residue_graph(9, 2)
    cert = paley_certificate(build_field(3, 2), 2)
    partial = cert.__class__(**{**cert.__dict__, "alpha": None})
    with pytest.raises(InvalidWitnessError, match="missing omega, alpha or chi"):
        verify_certificate(g, partial)


@pytest.mark.parametrize(
    "independent_set, alpha",
    [
        ((1, 6, 12, 99), 4),  # a vertex out of range
        ((1, 6, 12, 6), 4),  # a repeated vertex
        ((-1, 1), 2),  # a negative vertex
    ],
)
def test_verify_certificate_rejects_forged_independent_sets(independent_set, alpha):
    """Paley(13) has alpha = 3, and (1, 6, 12) is a maximum independent set:
    each forgery passes the pair test alone."""
    g = residue_graph(13, 2)
    cert = paley_certificate(build_field(13), 2)
    forged = cert.__class__(**{**cert.__dict__, "alpha": alpha, "independent_set": independent_set})
    with pytest.raises(InvalidWitnessError, match="independent-set witness is not independent"):
        verify_certificate(g, forged)


@pytest.mark.parametrize("q", [q for q in odd_prime_powers(729) if prime_power(q)[1] % 2 == 0])
def test_subfield_certificate_colors_by_the_cosets_of_the_subfield_multiple(q):
    """Every color class of a subfield certificate, the factorization
    certificate with A = GF(p^(n/2)), is v + gamma*GF(p^(n/2)), computed
    here with the digit-wise field.add as the reference."""
    field = field_for(q)
    multiple = [field.mul(field.gamma, c) for c in subfield_elements(field, field.n // 2)]
    certified = 0
    for m in valid_graph_ms(q):
        found = factorization_certificate(field, m, _Budget.of(None), single=True)
        if found is None or found[1].omega != len(multiple):
            continue
        cert = found[1]
        certified += 1
        classes = {}
        for v, c in enumerate(cert.coloring):
            classes.setdefault(c, set()).add(v)
        assert len(classes) == len(multiple) == cert.chi
        for members in classes.values():
            v = min(members)
            assert members == {field.add(v, a) for a in multiple}, (q, m, v)
    assert certified  # m = 2 always qualifies: 2 divides p^(n/2) + 1


@pytest.mark.parametrize("v", range(9))
def test_verify_certificate_rejects_one_recolored_vertex(v):
    g = residue_graph(9, 2)
    cert = paley_certificate(build_field(3, 2), 2)
    verify_certificate(g, cert)
    coloring = list(cert.coloring)
    coloring[v] = cert.coloring[(g.adjacency[v] & -g.adjacency[v]).bit_length() - 1]
    recolored = cert.__class__(**{**cert.__dict__, "coloring": tuple(coloring)})
    with pytest.raises(InvalidWitnessError, match="coloring is not proper"):
        verify_certificate(g, recolored)


def test_timeout_certificate_carries_the_coloring_behind_chis_upper_bound():
    g = residue_graph(79, 3)
    cert = paley_certificate(field_for(79), 3, budget=2000)
    assert cert.status == "timeout" and cert.chi is None
    assert cert.bounds["chi"] == (9, 11) and len(set(cert.coloring)) == 11
    verify_certificate(g, cert)
    # a singleton class keeps the coloring proper but makes it a 12-coloring
    coloring = cert.coloring[:-1] + (11,)
    wider = cert.__class__(**{**cert.__dict__, "coloring": coloring})
    with pytest.raises(InvalidWitnessError, match="more colors than"):
        verify_certificate(g, wider)


@pytest.mark.parametrize("budget", [1, 10, 91])  # the clique search is exact at 92 nodes
def test_chromatic_number_stops_when_its_clique_search_spends_the_budget(budget):
    g = union_graph(orbital_family(build_field(11, 2), 5), {2, 3, 4})
    res = chromatic_number(g, budget=budget)
    assert not res.exact
    assert (res.lower, res.upper, res.nodes) == (9, 33, budget + 1)
    assert all(res.witness[u] != res.witness[v] for u, v in g.edges())


def _tabu_cases():
    """(key, graph, k): the three residue graphs whose exhaustive k-test at
    chi's lower bound runs past 50,000 nodes, then seeded random graphs at
    one color below their DSATUR count."""
    for q, m, k in ((61, 3, 8), (73, 3, 10), (79, 3, 9)):
        yield (q, m), residue_graph(q, m), k
    for n, p_edge in ((40, 0.5), (60, 0.3), (90, 0.1)):
        g = random_graph(n, 1, p_edge)
        yield (n, p_edge), g, max(_dsatur_coloring(list(g.adjacency), n))


def test_tabu_coloring_repeats_and_every_coloring_it_returns_is_proper():
    found = 0
    for key, g, k in _tabu_cases():
        adj, n = list(g.adjacency), g.n_vertices
        runs = []
        for _ in range(2):
            meter = _Budget(20_000)
            runs.append((_tabu_coloring(adj, n, k, meter, 10_000), meter.spent))
        assert runs[0] == runs[1], key
        coloring, spent = runs[0]
        assert spent <= 10_000, key
        if coloring is not None:
            found += 1
            assert len(coloring) == n and set(coloring) <= set(range(k)), key
            assert all(coloring[u] != coloring[v] for u, v in g.edges()), key
    assert found >= 3


def _reference_tabu_coloring(adj, n, k, meter, moves, start=None):
    """_tabu_coloring as first written: every color of every conflicting
    vertex tested in one condition, gamma updated through bit loops."""
    rng = _Rng(TABU_SEED)
    col = list(start) if start is not None else [rng.below(k) for _ in range(n)]
    cls = [0] * k
    for v, c in enumerate(col):
        cls[c] |= 1 << v
    gamma = [[(row & members).bit_count() for members in cls] for row in adj]
    bad = conflicts = 0
    for v in range(n):
        if gamma[v][col[v]]:
            bad |= 1 << v
            conflicts += gamma[v][col[v]]
    conflicts //= 2
    tabu = [[0] * k for _ in range(n)]
    best = conflicts
    it = 0
    while conflicts:
        if it >= moves or not meter.step():
            return None
        it += 1
        pick_delta, picks = n, []
        m = bad
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            g, t, a = gamma[v], tabu[v], col[v]
            ga = g[a]
            for c in range(k):
                delta = g[c] - ga
                if delta > pick_delta or c == a or (t[c] >= it and conflicts + delta >= best):
                    continue
                if delta < pick_delta:
                    pick_delta, picks = delta, [(v, c)]
                else:
                    picks.append((v, c))
        if not picks:
            continue
        v, c = picks[rng.below(len(picks))]
        a = col[v]
        bit = 1 << v
        nbrs = adj[v]
        conflicts += pick_delta
        col[v] = c
        cls[a] ^= bit
        m = nbrs
        while m:
            b = m & -m
            g = gamma[b.bit_length() - 1]
            m ^= b
            g[a] -= 1
            g[c] += 1
        freed = nbrs & cls[a]
        while freed:
            b = freed & -freed
            freed ^= b
            if not gamma[b.bit_length() - 1][a]:
                bad ^= b
        bad |= nbrs & cls[c]
        cls[c] |= bit
        if gamma[v][c]:
            bad |= bit
        else:
            bad &= ~bit
        tabu[v][a] = it + conflicts * 3 // 5 + rng.below(10)
        best = min(best, conflicts)
    return tuple(col)


PAST_PROBE_K_TESTS = [(61, 3, 8), (73, 3, 10), (73, 4, 7), (73, 6, 5), (79, 3, 9), (81, 4, 6)]


def _tabu_run(tabu, g, k, limit, moves, start=None):
    meter = _Budget(limit)
    return tabu(list(g.adjacency), g.n_vertices, k, meter, moves, start), meter.spent


@pytest.mark.parametrize("q, m, k", PAST_PROBE_K_TESTS)
def test_tabu_coloring_makes_the_reference_moves_on_past_probe_k_tests(q, m, k):
    """On 22,951 moves, more than the PROBE each search gets, the tabu
    search returns the reference's coloring, or None, after as many moves."""
    g = residue_graph(q, m)
    moves = (50_000 - PROBE - 1) // 2
    run = _tabu_run(_tabu_coloring, g, k, 50_000, moves)
    assert run == _tabu_run(_reference_tabu_coloring, g, k, 50_000, moves)


def test_tabu_coloring_makes_the_reference_moves_on_random_graphs():
    """Seeded random graphs at 2 to 5 colors, with a move cap of 300 or 5,000
    and a meter that runs out before a cap of 300.  The runs reach both a
    coloring and a spent cap or meter, all asserted to occur."""
    outcomes = set()
    for seed in range(6):
        n = (20, 40, 60)[seed % 3]
        g = random_graph(n, seed, (0.1, 0.2, 0.3)[seed // 2 % 3])
        for k in range(2, 6):
            for limit, moves in ((10_000, 300), (10_000, 5_000), (150, 300)):
                run = _tabu_run(_tabu_coloring, g, k, limit, moves)
                assert run == _tabu_run(_reference_tabu_coloring, g, k, limit, moves), (seed, k)
                outcomes.add("sat" if run[0] else "cap" if run[1] == moves else "meter")
    assert outcomes == {"sat", "cap", "meter"}


def _reference_squeeze(adj, coloring, k):
    """coloring with each vertex of color k, in vertex order, moved to the
    lowest color its neighbors hold least, counted neighbor by neighbor."""
    col = list(coloring)
    for v in range(len(col)):
        if col[v] == k:
            held = [sum(col[u] == c for u in iter_bits(adj[v])) for c in range(k)]
            col[v] = held.index(min(held))
    return col


def test_tabu_coloring_from_a_start_makes_the_reference_moves():
    """The upper-bound phase's descent, run in lockstep on both: from the
    DSATUR coloring, each search at one color fewer starts from the last
    coloring squeezed, on PROBE moves, until one fails.  On the six
    past-probe graphs and seeded random graphs, every start equals the
    reference squeeze, and every search returns the reference's coloring,
    or None, after as many moves."""
    graphs = [residue_graph(q, m) for q, m, _ in PAST_PROBE_K_TESTS]
    graphs += [random_graph(n, seed, p_edge) for seed in range(3)
               for n, p_edge in ((40, 0.5), (60, 0.3), (90, 0.1))]
    found = failed = 0
    for g in graphs:
        adj, n = list(g.adjacency), g.n_vertices
        best = _dsatur_coloring(adj, n)
        k = max(best)
        while k > 0:
            start = _squeeze(adj, best, k)
            assert start == _reference_squeeze(adj, best, k)
            run = _tabu_run(_tabu_coloring, g, k, 50_000, PROBE, start)
            assert run == _tabu_run(_reference_tabu_coloring, g, k, 50_000, PROBE, start)
            if run[0] is None:
                failed += 1
                break
            found += 1
            best, k = run[0], k - 1
    assert found >= len(graphs) and failed >= len(PAST_PROBE_K_TESTS)


def _chi_by(k_test, g, lo, budget):
    """chi as k_test(k, meter) -> (status, coloring) decides k = lo, lo + 1,
    ... on one meter, up to the upper bound, whose coloring a timeout
    carries.  The bound opens at the DSATUR coloring's count; while it is
    above lo and more than PROBE nodes are left, the module's tabu search
    at one color fewer, from the last coloring squeezed, on min(PROBE,
    left - PROBE) moves, lowers it by one, until a search fails."""
    invariants = sys.modules["paleysync.invariants"]
    probe = invariants.PROBE

    def first_seen(coloring):
        seen = {}
        return tuple(seen.setdefault(c, len(seen)) for c in coloring)

    adj, n = list(g.adjacency), g.n_vertices
    best = _dsatur_coloring(adj, n)
    ub = max(best) + 1
    meter = _Budget(budget)
    while lo < ub and meter.limit - meter.spent > probe:
        moves = min(probe, meter.limit - meter.spent - probe)
        start = _reference_squeeze(adj, best, ub - 1)
        coloring = invariants._tabu_coloring(adj, n, ub - 1, meter, moves, start)
        if coloring is None:
            break
        best, ub = coloring, ub - 1
    for k in range(lo, ub):
        status, coloring = k_test(k, meter)
        if status == "sat":
            return SearchResult(True, k, k, first_seen(coloring), meter.spent)
        if status == "timeout":
            return SearchResult(False, k, ub, first_seen(best), meter.spent)
    return SearchResult(True, ub, ub, first_seen(best), meter.spent)


def _exhaustive_alone(g, lo, budget, clique):
    """chi by k_colorable alone."""
    return _chi_by(lambda k, meter: k_colorable(g, k, budget=meter, clique_hint=clique)[:2],
                   g, lo, budget)


def _reference_root_class(g, k, meter):
    """The root-class k-test written from its lemma, on sets and field
    arithmetic: a recursive Bron-Kerbosch over the non-neighbors of 0, with
    the pivot of the most candidates among its non-neighbors (the lowest on
    a tie) and its branches in vertex order, one meter step a node; a node
    whose set plus a greedy clique cover of its candidates, each clique
    grown lowest vertex first, is below ceil(q/k) is dropped.  Each maximal
    set I whose mask no image a * (I - t), t in I, a in H, undercuts gets
    k_colorable on G - I, relabelled in vertex order, with k - 1 colors,
    seeded with chi's seed of that graph."""
    field, d = g.multiplier
    n = g.n_vertices
    non = [set(range(n)) - {v} - set(iter_bits(row)) for v, row in enumerate(g.adjacency)]
    need = math.ceil(n / k)
    multipliers = [field.exp[j] for j in range(0, n - 1, d)]

    def least(members):
        mask = sum(1 << v for v in members)
        return all(sum(1 << field.mul(a, field.add(x, field.neg(t))) for x in members) >= mask
                   for t in members for a in multipliers)

    def cover(cand):
        count, left = 0, sorted(cand)
        while left:
            count += 1
            clique = []
            for v in left:
                if not any(v in non[u] for u in clique):
                    clique.append(v)
            left = [v for v in left if v not in clique]
        return count

    def expand(members, cand, tried):
        if not meter.step():
            return "timeout", None
        if len(members) + cover(cand) < need:
            return None
        if not cand:
            if tried or not least(members):
                return None
            rest = [v for v in range(n) if v not in members]
            index = {v: i for i, v in enumerate(rest)}
            sub = graph_from_edges(len(rest), [(index[u], index[v]) for u, v in g.edges()
                                               if u in index and v in index])
            status, coloring, _ = k_colorable(sub, k - 1, budget=meter, clique_hint=chi_seed(sub))
            if status == "unsat":
                return None
            if status == "sat":
                coloring = tuple(coloring[index[v]] if v in index else k - 1 for v in range(n))
            return status, coloring
        pivot = max(sorted(cand | tried), key=lambda u: len(cand & non[u]))
        for v in sorted(cand - non[pivot]):
            found = expand(members | {v}, cand & non[v], tried & non[v])
            if found:
                return found
            cand, tried = cand - {v}, tried | {v}
        return None

    return expand({0}, non[0], set()) or ("unsat", None)


def _stages_in_turn(g, lo, budget, clique, outcomes=None):
    """chi with each k-test's stages run in turn.  On a graph with no
    multiplier the k-test is k_colorable on the whole meter.  On a graph
    with one: the exhaustive probe on _Budget(PROBE), or on what is left
    when that is less; if it times out with nodes left, the tabu search on
    min(PROBE, left) moves; if that fails, the reference root-class test on
    the rest of the meter.  `outcomes` collects what each k-test of a graph
    with no multiplier, and each one past its probe, came to."""
    adj, n = list(g.adjacency), g.n_vertices
    probe_nodes = sys.modules["paleysync.invariants"].PROBE

    def k_test(k, meter):
        if g.multiplier is None:
            stage, outcome = "exhaustive", k_colorable(g, k, budget=meter, clique_hint=clique)[:2]
        else:
            probe = _Budget(min(probe_nodes, meter.limit - meter.spent))
            status, coloring, _ = k_colorable(g, k, budget=probe, clique_hint=clique)
            meter.spent += probe.spent
            if status != "timeout" or meter.spent > meter.limit:
                return status, coloring
            coloring = _tabu_coloring(adj, n, k, meter,
                                      min(probe_nodes, meter.limit - meter.spent))
            if coloring is not None:
                stage, outcome = "tabu", ("sat", coloring)
            else:
                stage, outcome = "root class", _reference_root_class(g, k, meter)
        if outcomes is not None:
            outcomes.add(f"{stage} {outcome[0]}")
        return outcome

    return _chi_by(k_test, g, lo, budget)


def _cut_phase(monkeypatch, tabu=_tabu_coloring):
    """Cut chi's upper-bound phase out: a tabu search given a start fails
    with no move, so chi's k-tests run from the DSATUR bound, each as it
    would with no phase before it; `tabu` runs the k-tests' searches.  The
    phase closes (73, 3), (73, 4), (73, 6) and (79, 3) above any k-test at
    every budget where a k-test could outlast its probe."""
    def k_test_tabu(adj, n, k, meter, moves, start=None):
        return None if start is not None else tabu(adj, n, k, meter, moves)

    monkeypatch.setattr(sys.modules["paleysync.invariants"], "_tabu_coloring", k_test_tabu)


@pytest.mark.parametrize("budget", [PROBE + 1, 10_000, 50_000])
def test_chromatic_number_counts_tabu_moves_within_its_budget(monkeypatch, budget):
    """nodes is every k-test node plus every tabu move, as the stages in
    turn count them.  At PROBE + 1 the probe spends the whole meter, so the
    tabu search gets no move; past it, PROBE moves.  The upper-bound phase
    is cut out, as it would close chi(79, 3) at 10,000 and 50,000."""
    g = residue_graph(79, 3)
    clique = chi_seed(g)
    moves = []

    def traced_tabu(adj, n, k, meter, cap):
        before = meter.spent
        coloring = _tabu_coloring(adj, n, k, meter, cap)
        moves.append(meter.spent - before)
        return coloring

    _cut_phase(monkeypatch, traced_tabu)
    res = chromatic_number(g, lower=9, budget=budget)
    assert res == _stages_in_turn(g, 9, budget, clique)
    assert res.nodes <= budget + 1
    assert moves == ([0] if budget == PROBE + 1 else [PROBE])
    if budget == PROBE + 1:
        assert res.nodes == budget + 1


def test_tabu_search_moves_are_capped_on_a_large_budget(monkeypatch):
    class Stop(Exception):
        pass

    moves = []

    def traced_tabu(adj, n, k, meter, cap, start=None):
        if start is not None:  # the upper-bound phase: 8 and 7 colors, then a failure at 6
            return _tabu_coloring(adj, n, k, meter, cap, start)
        moves.append(cap)
        raise Stop

    monkeypatch.setattr(sys.modules["paleysync.invariants"], "_tabu_coloring", traced_tabu)
    g = residue_graph(81, 4)
    with pytest.raises(Stop):
        chromatic_number(g, lower=6, budget=10**8)
    assert moves == [PROBE]


@pytest.mark.parametrize("q, m, k", PAST_PROBE_K_TESTS)
def test_forked_rerun_matches_the_stages_in_turn_on_past_probe_k_tests(monkeypatch, q, m, k):
    """The six k-tests of the q <= 81 sweep at budget 50,000 that outlast
    the probe with the upper-bound phase cut out (with it, the phase closes
    all but (61, 3) and (81, 4) above them): chi returns what the stages in
    turn return, node count included.  The "forked rerun" of the name is
    the k-test past its probe, which once ran in a forked child and now
    runs in the calling process."""
    g = residue_graph(q, m)
    _cut_phase(monkeypatch)
    assert chromatic_number(g, lower=k, budget=50_000) == _stages_in_turn(
        g, k, 50_000, chi_seed(g))


def test_forked_rerun_matches_the_stages_in_turn_on_every_outcome(monkeypatch):
    """With PROBE cut to 8, random graphs and orbital unions reach every
    outcome of the last search of a k-test: sat, unsat or timeout, the
    exhaustive search that is the whole k-test on a graph with no
    multiplier, and the root-class test after a failed tabu search on a
    graph with one.  With PROBE as it is, the tabu search finds chi(113, 2)
    = 17.  chi, from omega, returns what the stages in turn return, node
    count included."""
    monkeypatch.setattr(sys.modules["paleysync.invariants"], "PROBE", 8)
    graphs = [random_graph(40, seed, 0.5) for seed in range(4)]
    graphs += [union_graph(orbital_family(field_for(q), m), subset)
               for q, m, subset in ((41, 5, [0, 1]), (61, 6, [0, 2]), (49, 4, [0]), (73, 4, [1]))]
    outcomes = set()
    for g in graphs:
        omega = clique_number(g).value
        for budget in (50, 200, 1000, 5000):
            expected = _stages_in_turn(g, omega, budget, chi_seed(g), outcomes)
            assert chromatic_number(g, lower=omega, budget=budget) == expected, budget
    assert outcomes == {f"{stage} {status}" for stage in ("exhaustive", "root class")
                        for status in ("sat", "unsat", "timeout")}
    monkeypatch.undo()
    outcomes.clear()
    g = residue_graph(113, 2)
    expected = _stages_in_turn(g, 17, 50_000, chi_seed(g), outcomes)
    assert chromatic_number(g, lower=17, budget=50_000) == expected
    assert outcomes == {"tabu sat"} and expected.value == 17


def _orbital_unions(q_max, most):
    """Every union of 1 to `most` orbitals on GF(q), q <= q_max, for every
    m_bar >= 2, each distinct graph once."""
    graphs = {}
    for q in odd_prime_powers(q_max):
        for m in range(1, q):
            if (q - 1) % m or normalize_params(q, m).m_bar < 2:
                continue
            family = orbital_family(field_for(q), m)
            for size in range(1, most + 1):
                for subset in itertools.combinations(range(family.m_bar), size):
                    graphs.setdefault(union_graph(family, subset), (q, m, subset))
    return graphs


def test_the_root_class_test_agrees_with_the_exhaustive_search():
    """On every union of 1 to 3 orbitals with q <= 29, at k = 1..8, the
    root-class test and _k_colorable agree wherever both decide within
    20,000 steps, and every coloring is proper with at most k colors; with
    q <= 13 both agree with the brute-force chromatic number, and with
    q <= 17 the root-class test returns what the reference returns, step
    count included."""
    decided = {"sat": 0, "unsat": 0}
    for g, key in _orbital_unions(29, 3).items():
        adj, n = list(g.adjacency), g.n_vertices
        chi = brute_force_invariants(g).chi if n <= 13 else None
        for k in range(1, 9):
            meter = _Budget(20_000)
            got = _root_class_test(g, k, meter)
            want = _k_colorable(adj, n, k, chi_seed(g), _Budget(20_000))
            for status, coloring in (got, want):
                if status == "sat":
                    assert max(coloring) < k, (key, k)
                    assert all(coloring[u] != coloring[v] for u, v in g.edges()), (key, k)
                if chi is not None and status != "timeout":
                    assert (status == "sat") == (k >= chi), (key, k)
            if "timeout" not in (got[0], want[0]):
                assert got[0] == want[0], (key, k)
                decided[got[0]] += 1
            if n <= 17:
                reference = _Budget(20_000)
                assert _reference_root_class(g, k, reference) == got, (key, k)
                assert reference.spent == meter.spent, (key, k)
    assert decided["sat"] > 9_000 and decided["unsat"] > 4_000


@pytest.mark.parametrize("q, m, chi", [(61, 3, 8), (81, 4, 7), (113, 2, 17)])
def test_chi_is_exact_at_budget_50_000(q, m, chi):
    """(61, 3) by the root-class test at k = 8, (81, 4) by the root-class
    test's unsat 6-test, and (113, 2) by the k-test's tabu search at 17."""
    cert = paley_certificate(field_for(q), m, budget=50_000)
    assert (cert.status, cert.chi, len(set(cert.coloring))) == ("exact", chi, chi)
    verify_certificate(residue_graph(q, m), cert)


def test_chromatic_number_forks_no_process(monkeypatch):
    """Every stage of every k-test runs in the calling process."""
    forks = []
    fork = os.fork

    def traced_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", traced_fork)
    for q, m in ((41, 5), (61, 3), (81, 4)):
        assert paley_certificate(field_for(q), m, budget=50_000).status == "exact"
    assert forks == []


def _probe_cases():
    """(key, graph, lower): the six past-probe k-tests, then seeded random
    graphs, whose k-tests at budget 100 time out after unsat ones below."""
    for q, m, k in ((61, 3, 8), (73, 3, 10), (73, 4, 7), (73, 6, 5), (79, 3, 9), (81, 4, 6)):
        yield (q, m), residue_graph(q, m), k
    for seed in range(3):
        g = random_graph(50, seed, 0.5)
        yield seed, g, len(clique_number(g).witness)


def test_a_k_test_with_at_most_probe_nodes_left_is_the_exhaustive_search_alone(monkeypatch):
    """With at most PROBE nodes left, the probe is the whole k-test: chi
    returns what k_colorable returns on one meter, node count included, and
    neither the tabu search nor the root-class test runs."""
    def no_stages(*args):
        raise AssertionError("a stage past the probe ran")

    monkeypatch.setattr(sys.modules["paleysync.invariants"], "_tabu_coloring", no_stages)
    monkeypatch.setattr(sys.modules["paleysync.invariants"], "_root_class_test", no_stages)
    for key, g, lo in _probe_cases():
        clique = chi_seed(g)
        for budget in (0, 1, 100, PROBE - 1, PROBE):
            res = chromatic_number(g, lower=lo, budget=budget)
            assert res == _exhaustive_alone(g, lo, budget, clique), (key, budget)


def test_a_k_test_with_no_multiplier_is_one_exhaustive_search(monkeypatch):
    """random_graph(70, 0, 0.8) carries no multiplier.  The upper-bound
    phase finds 23-, 22- and 21-colorings and fails at 20, on 3 + 76 +
    2,854 + 4,096 = 7,029 moves; the 20-test is then one _k_colorable call
    on the whole graph, unsat in 9,781 nodes, so chi = 21 is exact in
    16,810 nodes.  A probe, a tabu search and a restart from the root
    spent 25,003."""
    g = random_graph(70, 0, 0.8)
    assert k_colorable(g, 20, budget=50_000, clique_hint=chi_seed(g)) == ("unsat", None, 9781)
    moves, searches = [], []

    def traced_tabu(adj, n, k, meter, cap, start=None):
        before = meter.spent
        coloring = _tabu_coloring(adj, n, k, meter, cap, start)
        moves.append(meter.spent - before)
        return coloring

    def traced_search(adj, n, k, seed_clique, budget):
        searches.append((n, k))
        return _k_colorable(adj, n, k, seed_clique, budget)

    monkeypatch.setattr(invariants, "_tabu_coloring", traced_tabu)
    monkeypatch.setattr(invariants, "_k_colorable", traced_search)
    res = chromatic_number(g, lower=20, budget=50_000)
    assert (res.exact, res.value, res.nodes) == (True, 21, 16_810)
    assert moves == [3, 76, 2854, 4096] and searches == [(70, 20)]


def test_tabu_search_decides_three_former_chi_timeouts(sweep_q81):
    """At budget 50,000 the exhaustive k-test at chi's lower bound times out
    on these.  The upper-bound phase, a tabu descent, finds a coloring with
    that many colors on (73, 3) and (79, 3), and the root-class test, past
    the k-test's failed tabu search, on (61, 3)."""
    for (q, m), chi in {(61, 3): 8, (73, 3): 10, (79, 3): 9}.items():
        cert = sweep_q81[(q, m)][0]
        assert (cert.status, cert.chi, cert.bounds["chi"]) == ("exact", chi, (chi, chi)), (q, m)
        verify_certificate(residue_graph(q, m), cert)


def test_the_upper_bound_phase_closes_chi_with_no_k_test(monkeypatch):
    """At budget 50,000 the tabu descent from the DSATUR coloring lowers
    chi's upper bound to chi on (73, 3), (73, 4), (73, 6) and (79, 3), so no
    k_colorable call runs; on (61, 3) it stops at 9 colors and one k-test,
    at 8, decides it."""
    calls = []

    def traced_k_colorable(g, k, *args, **kwargs):
        calls.append(k)
        return k_colorable(g, k, *args, **kwargs)

    monkeypatch.setattr(sys.modules["paleysync.invariants"], "k_colorable", traced_k_colorable)
    for (q, m), (chi, k_tests) in {(73, 3): (10, []), (73, 4): (7, []), (73, 6): (5, []),
                                   (79, 3): (9, []), (61, 3): (8, [8])}.items():
        calls.clear()
        cert = paley_certificate(field_for(q), m, budget=50_000)
        assert (cert.status, cert.chi, calls) == ("exact", chi, k_tests), (q, m)
        verify_certificate(residue_graph(q, m), cert)


def test_the_first_k_test_opens_with_at_least_probe_nodes_left(monkeypatch):
    """The upper-bound phase's searches get at most min(PROBE, left - PROBE)
    moves, so the first k-test opens with PROBE nodes left or more, and
    with exactly PROBE when the phase had at most 2 * PROBE nodes and
    failed; below PROBE + 1 nodes the phase does not run."""
    opened = []

    def traced_k_colorable(g, k, budget=None, clique_hint=()):
        opened.append(meter.limit - meter.spent)
        return k_colorable(g, k, budget=budget, clique_hint=clique_hint)

    monkeypatch.setattr(sys.modules["paleysync.invariants"], "k_colorable", traced_k_colorable)
    budgets = [PROBE, PROBE + 1, PROBE + 60, 2 * PROBE, 2 * PROBE + 1, 3 * PROBE, 10_000]
    for q, m, k in [(61, 3, 8), (81, 4, 6), (41, 5, 4)]:
        g = residue_graph(q, m)
        for budget in budgets:
            opened.clear()
            meter = _Budget(budget)
            chromatic_number(g, lower=k, budget=meter)
            assert opened, (q, m, budget)
            if budget <= PROBE:
                assert opened[0] == budget
            elif budget <= 2 * PROBE:
                assert opened[0] == PROBE, (q, m, budget)
            else:
                assert PROBE <= opened[0] < budget, (q, m, budget)


def test_tabu_search_finds_a_7_coloring_of_81_4():
    """chi(81, 4) = 7: the 6-test is unsat (3,122,536 exhaustive nodes, or
    12,584 root-class steps), and the tabu search finds a 7-coloring in
    under 1,000 moves."""
    g = residue_graph(81, 4)
    meter = _Budget(1000)
    coloring = _tabu_coloring(list(g.adjacency), g.n_vertices, 7, meter, 1000)
    assert coloring is not None and meter.spent <= 1000
    assert set(coloring) == set(range(7))
    assert all(coloring[u] != coloring[v] for u, v in g.edges())


def test_chi_of_81_4_is_exact_with_a_verified_coloring(sweep_q81):
    """The upper-bound phase lowers DSATUR's 9 colors to 7 and fails at 6;
    the 6-test's probe and tabu search fail, and its root-class test is
    unsat, so the 7-coloring is exact."""
    cert = sweep_q81[(81, 4)][0]
    assert (cert.status, cert.chi, cert.bounds["chi"]) == ("exact", 7, (7, 7))
    verify_certificate(residue_graph(81, 4), cert)


# sha256 of [q, m, to_json_dict()] for each certificate of sweep_q81, in the
# fixture's order, recorded before chromatic_number lost its clique_hint
SWEEP_Q81_DIGEST = "e81f2ced5fc8c7d404f3dec11ae871ba43f4f3a5a6b05a1a26c2eb019bd75a28"


def test_the_q81_sweep_certificates_match_a_pinned_digest(sweep_q81):
    """Every byte of the 82 certificates at budget 50,000, the witnesses and
    colorings of chi's k-tests included."""
    records = [[q, m, cert.to_json_dict()] for (q, m), (cert, _) in sweep_q81.items()]
    assert len(records) == 82
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == SWEEP_Q81_DIGEST


def test_chi_of_81_4_stays_a_timeout_with_a_proper_coloring():
    """At budget 20,000 the phase, the 6-test's probe and its tabu search
    leave the root-class test too few steps to finish (it needs 12,584),
    so chi stays a timeout in [6, 7] whose 7-coloring is proper."""
    cert = paley_certificate(field_for(81), 4, budget=20_000)
    assert (cert.status, cert.chi, cert.bounds["chi"]) == ("timeout", None, (6, 7))
    # checks that the coloring is proper and uses at most 7 colors
    verify_certificate(residue_graph(81, 4), cert)
