import hashlib
import json
import math
import os
import signal
import sys
import time
import tracemalloc

import pytest

from paleysync import (
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
from paleysync.invariants import (PROBE, TABU_MOVES, TABU_SEED, _Budget, _chi_seed,
                                  _degeneracy_order, _dsatur_coloring, _greedy_clique, _is_witness,
                                  _k_colorable, _KTest, _Rng, _squeeze, _tabu_coloring,
                                  _tabu_moves, factorization_certificate)
from paleysync._child import Child
from paleysync.paley import _difference_graph, iter_bits
from conftest import (assert_no_child, field_for, open_fds, random_graph, residue_graph,
                      valid_graph_ms)

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
            upper = chromatic_number(g, budget=0, clique_hint=clique).upper
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
    """With the moves each gets at budget 50,000 (the probe spent PROBE + 1
    nodes), the tabu search returns the reference's coloring, or None, after
    as many moves."""
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


def _stages_in_turn(g, lo, budget, clique, outcomes=None):
    """chi with each k-test's stages run in turn, in this process: the
    exhaustive probe on _Budget(PROBE), or on what is left when that is
    less; if it times out with nodes left, the tabu search with _tabu_moves
    moves; if that fails, k_colorable from the root on the rest of the
    meter.  `outcomes` collects what each k-test past its probe came to."""
    adj, n = list(g.adjacency), g.n_vertices
    probe_nodes = sys.modules["paleysync.invariants"].PROBE

    def k_test(k, meter):
        probe = _Budget(min(probe_nodes, meter.limit - meter.spent))
        status, coloring, _ = k_colorable(g, k, budget=probe, clique_hint=clique)
        meter.spent += probe.spent
        if status != "timeout" or meter.spent > meter.limit:
            return status, coloring
        coloring = _tabu_coloring(adj, n, k, meter, _tabu_moves(meter.limit, meter.spent))
        if coloring is not None:
            outcome = "sat", coloring
        else:
            outcome = k_colorable(g, k, budget=meter, clique_hint=clique)[:2]
        if outcomes is not None:
            outcomes.add(("tabu " if coloring is not None else "rerun ") + outcome[0])
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
    tabu search gets no move.  The tabu search runs in this process with
    os.fork gone, where the wrapper sees its moves.  The upper-bound phase
    is cut out, as it would close chi(79, 3) at 10,000 and 50,000."""
    g = residue_graph(79, 3)
    clique = clique_number(g).witness
    _cut_phase(monkeypatch)
    forked = chromatic_number(g, lower=9, budget=budget, clique_hint=clique)
    assert_no_child()
    moves = []

    def traced_tabu(adj, n, k, meter, cap):
        before = meter.spent
        coloring = _tabu_coloring(adj, n, k, meter, cap)
        moves.append(meter.spent - before)
        return coloring

    monkeypatch.delattr(os, "fork")
    _cut_phase(monkeypatch, traced_tabu)
    res = chromatic_number(g, lower=9, budget=budget, clique_hint=clique)
    assert res == forked == _stages_in_turn(g, 9, budget, clique)
    assert res.nodes <= budget + 1
    assert res.exact == (budget == 50_000)
    if budget == PROBE + 1:
        assert (moves, res.nodes) == ([0], budget + 1)
    else:
        assert len(moves) == 1 and moves[0] > 0


def test_tabu_search_moves_are_capped_on_a_large_budget(monkeypatch):
    class Stop(Exception):
        pass

    moves = []

    def traced_tabu(adj, n, k, meter, cap, start=None):
        if start is not None:  # the upper-bound phase: 8 and 7 colors, then a failure at 6
            return _tabu_coloring(adj, n, k, meter, cap, start)
        moves.append(cap)
        raise Stop  # the exhaustive rerun would run for minutes

    monkeypatch.setattr(sys.modules["paleysync.invariants"], "_tabu_coloring", traced_tabu)
    g = residue_graph(81, 4)
    clique = clique_number(g).witness
    start = time.perf_counter()
    with pytest.raises(Stop):
        chromatic_number(g, lower=6, budget=10**8, clique_hint=clique)
    assert moves == [TABU_MOVES]
    # The tabu child's search raises, so the child dies and the search is
    # run here, where it raises too: the call ends with the child reaped,
    # not after a 10**8-node rerun.
    assert_no_child()
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("q, m, k", [(61, 3, 8), (73, 3, 10), (73, 4, 7), (73, 6, 5),
                                     (79, 3, 9), (81, 4, 6)])
def test_forked_rerun_matches_the_stages_in_turn_on_past_probe_k_tests(monkeypatch, q, m, k):
    """The six k-tests of the q <= 81 sweep at budget 50,000 that outlast
    the probe with the upper-bound phase cut out (with it, the phase closes
    all but (61, 3) and (81, 4) above them): with a fork and with os.fork
    gone, chi returns what the stages in turn return, node count included,
    and leaves no child."""
    g = residue_graph(q, m)
    clique = clique_number(g).witness
    _cut_phase(monkeypatch)
    forked = chromatic_number(g, lower=k, budget=50_000, clique_hint=clique)
    assert_no_child()
    assert forked == _stages_in_turn(g, k, 50_000, clique)
    monkeypatch.delattr(os, "fork")
    assert chromatic_number(g, lower=k, budget=50_000, clique_hint=clique) == forked


def test_forked_rerun_matches_the_stages_in_turn_on_every_outcome(monkeypatch):
    """With PROBE cut to 8, random graphs reach every outcome of the stages
    after the probe: a tabu coloring, or a failed tabu search followed by a
    sat, unsat or timeout rerun.  With a fork and with os.fork gone, chi
    returns what the stages in turn return, node count included, and
    leaves no child."""
    monkeypatch.setattr(sys.modules["paleysync.invariants"], "PROBE", 8)
    cases = [(random_graph(40, seed, 0.5), budget)
             for seed in range(4) for budget in (50, 200, 1000, 5000)]
    outcomes = set()
    expected = []
    for g, budget in cases:
        clique = clique_number(g).witness
        expected.append(_stages_in_turn(g, len(clique), budget, clique, outcomes))
        assert chromatic_number(g, budget=budget, clique_hint=clique) == expected[-1], budget
        assert_no_child()
    assert outcomes == {"tabu sat", "rerun sat", "rerun unsat", "rerun timeout"}
    monkeypatch.delattr(os, "fork")
    for (g, budget), res in zip(cases, expected):
        assert chromatic_number(g, budget=budget, clique_hint=clique_number(g).witness) == res


def test_a_rerun_child_that_dies_without_a_result_is_rerun_here(monkeypatch):
    """(61, 3) at budget 10,000: the upper-bound phase finds a 9-coloring and
    fails at 8, then the k-test's tabu search fails and the rerun times
    out.  The exhaustive search, the rerun included, runs in the caller and
    the child runs the tabu search alone, so an exhaustive search that would
    raise in any other process never does, and the result is that of the
    stages in turn.  A child that dies is the next test's case."""
    invariants = sys.modules["paleysync.invariants"]
    caller = os.getpid()

    def dies_in_child(*args):
        if os.getpid() != caller:
            raise RuntimeError("the child's search fails")
        return _k_colorable(*args)

    g = residue_graph(61, 3)
    clique = clique_number(g).witness
    monkeypatch.setattr(invariants, "_k_colorable", dies_in_child)
    res = chromatic_number(g, lower=8, budget=10_000, clique_hint=clique)
    assert_no_child()
    assert res == _stages_in_turn(g, 8, 10_000, clique)
    monkeypatch.delattr(os, "fork")
    assert chromatic_number(g, lower=8, budget=10_000, clique_hint=clique) == res
    assert (res.exact, res.nodes) == (False, 10_001)


@pytest.mark.parametrize("budget, late", [(10_000, False), (50_000, True)])
def test_a_tabu_child_that_dies_without_a_result_falls_back_to_the_stages_in_turn(monkeypatch,
                                                                                  budget, late):
    """(61, 3) at k = 8, past the upper-bound phase, which finds a
    9-coloring and fails at 8: a tabu child whose search raises exits with
    nothing written.  At budget 10,000 the charge leaves the rerun no node past the
    probe's, so the caller finds the dead child when it takes the report.
    At 50,000 (late) the child dies only once the caller's search has run
    on past the probe, and the caller finds it at a poll.  Either way the
    caller runs the tabu search itself, once, and returns what the stages
    in turn return, node count included."""
    invariants = sys.modules["paleysync.invariants"]
    most_constrained = invariants._most_constrained
    caller = os.getpid()
    here, nodes = [], []
    read_end, write_end = os.pipe()

    def dies_in_child(adj, n, k, meter, moves, start=None):
        if start is not None:  # the upper-bound phase, run here before the k-test
            return _tabu_coloring(adj, n, k, meter, moves, start)
        if os.getpid() != caller:
            if late:
                os.read(read_end, 1)  # wait for the caller's search to pass the probe
            raise RuntimeError("the child's tabu search fails")
        here.append(k)
        return _tabu_coloring(adj, n, k, meter, moves)

    def past_the_probe(*args):
        nodes.append(1)
        if late and len(nodes) == PROBE + 100:
            os.write(write_end, b"x")
            time.sleep(0.2)  # the child dies before the next poll
        return most_constrained(*args)

    g = residue_graph(61, 3)
    clique = clique_number(g).witness
    monkeypatch.setattr(invariants, "_tabu_coloring", dies_in_child)
    monkeypatch.setattr(invariants, "_most_constrained", past_the_probe)
    fds = open_fds()
    try:
        res = chromatic_number(g, lower=8, budget=budget, clique_hint=clique)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert_no_child()
    assert open_fds() == fds - 2
    assert here == [8]  # the dead child's search ran here, once
    monkeypatch.undo()
    assert res == _stages_in_turn(g, 8, budget, clique)
    assert res.exact == (budget == 50_000)


def test_a_probe_that_decides_after_the_fork_kills_its_child(monkeypatch):
    """(41, 5) at k = 4 is unsat after 2,330 nodes, past the fork point at
    PROBE // 4: the probe's result stands and its tabu child, whose search
    for a 4-coloring that does not exist would run 22,951 moves, is killed
    and reaped."""
    assert PROBE // 4 < 2_330 <= PROBE
    g = residue_graph(41, 5)
    clique = clique_number(g).witness
    fork, waitpid = os.fork, os.waitpid
    forked, reaped = [], {}

    def traced_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def traced_waitpid(pid, options):
        got, status = waitpid(pid, options)
        reaped[got] = status
        return got, status

    monkeypatch.setattr(os, "fork", traced_fork)
    monkeypatch.setattr(os, "waitpid", traced_waitpid)
    res = chromatic_number(g, lower=4, budget=50_000, clique_hint=clique)
    monkeypatch.undo()
    assert_no_child()
    assert len(forked) == 1
    status = reaped[forked[0]]
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert (res.exact, res.lower) == (True, 5)
    assert res == _stages_in_turn(g, 4, 50_000, clique)
    monkeypatch.delattr(os, "fork")
    assert chromatic_number(g, lower=4, budget=50_000, clique_hint=clique) == res
    status, _, nodes = k_colorable(g, 4, clique_hint=clique)
    assert (status, nodes) == ("unsat", 2_330)


def test_an_unsat_rerun_does_not_wait_for_the_tabu_child(monkeypatch):
    """With PROBE cut to 1,024, the 4-test of (41, 5), unsat after 2,330
    nodes, outlasts the probe and the search running on as the rerun proves
    it unsat while the tabu child still searches for a 4-coloring.  No
    coloring exists, so the result stands at once: no read of the child's
    report that would wait for it, the result of the stages in turn, and no
    child left."""
    monkeypatch.setattr(sys.modules["paleysync.invariants"], "PROBE", 1024)
    result, waits = Child.result, []

    def traced_result(self):
        waits.append(not self.ready())
        return result(self)

    monkeypatch.setattr(Child, "result", traced_result)
    g = residue_graph(41, 5)
    clique = clique_number(g).witness
    res = chromatic_number(g, lower=4, budget=50_000, clique_hint=clique)
    assert_no_child()
    assert True not in waits
    assert res == _stages_in_turn(g, 4, 50_000, clique)
    monkeypatch.delattr(os, "fork")
    assert chromatic_number(g, lower=4, budget=50_000, clique_hint=clique) == res
    assert (res.exact, res.lower) == (True, 5)


def test_a_search_that_raises_after_the_fork_leaves_no_child_or_pipe(monkeypatch):
    """An error in the probe's search after the fork point, here on (61, 3) at
    k = 8 past the upper-bound phase, leaves chromatic_number with its tabu child killed and reaped and
    both ends of the pipe closed."""
    class Stop(Exception):
        pass

    invariants = sys.modules["paleysync.invariants"]
    most_constrained = invariants._most_constrained
    calls = []

    def raises_late(*args):
        calls.append(1)
        if len(calls) > PROBE // 2:
            raise Stop
        return most_constrained(*args)

    g = residue_graph(61, 3)
    clique = clique_number(g).witness
    fork = os.fork
    forked = []

    def traced_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", traced_fork)
    monkeypatch.setattr(invariants, "_most_constrained", raises_late)
    fds = open_fds()
    with pytest.raises(Stop):
        chromatic_number(g, lower=8, budget=50_000, clique_hint=clique)
    assert len(forked) == 1
    assert open_fds() == fds
    assert_no_child()


@pytest.mark.parametrize("q, m, k", PAST_PROBE_K_TESTS + [(41, 5, 4)])
def test_the_charged_continuation_matches_the_stages_in_turn_at_its_boundaries(monkeypatch,
                                                                               q, m, k):
    """At PROBE + 1 and PROBE + 2 the tabu search gets no move, at PROBE + 3
    one; at 3 * PROBE the rerun's allotment crosses PROBE, so the probe's
    search runs on past its end or times out there.  With a fork and with
    os.fork gone, chi returns what the stages in turn return, node count
    included.  The upper-bound phase is cut out, as it would leave the
    k-test a count of nodes that is no longer the budget."""
    g = residue_graph(q, m)
    clique = clique_number(g).witness
    _cut_phase(monkeypatch)
    budgets = [PROBE + 1, PROBE + 2, PROBE + 3, *range(3 * PROBE - 1, 3 * PROBE + 4), 10_000]
    forked = []
    for budget in budgets:
        forked.append(chromatic_number(g, lower=k, budget=budget, clique_hint=clique))
        assert_no_child()
        assert forked[-1] == _stages_in_turn(g, k, budget, clique), budget
    monkeypatch.delattr(os, "fork")
    for budget, res in zip(budgets, forked):
        assert chromatic_number(g, lower=k, budget=budget, clique_hint=clique) == res, budget


@pytest.mark.parametrize("budget", [10_000, 50_000])
def test_a_failed_fork_runs_the_rerun_here(monkeypatch, budget):
    """(61, 3) at k = 8, past the upper-bound phase, which finds a 9-coloring
    and fails at 8: at budget 10,000 the k-test's tabu search fails and the
    rerun times out, at 50,000 the tabu search finds an 8-coloring.  When os.fork
    raises OSError, the caller runs the tabu search itself, to the result of
    the stages in turn, of the forked run and of the run without os.fork,
    node count included, and leaves no child and neither end of the pipe
    open."""
    g = residue_graph(61, 3)
    clique = clique_number(g).witness
    forked = chromatic_number(g, lower=8, budget=budget, clique_hint=clique)
    assert_no_child()
    forks = []

    def fork_fails():
        forks.append(1)
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", fork_fails)
    fds = open_fds()
    res = chromatic_number(g, lower=8, budget=budget, clique_hint=clique)
    assert forks == [1]
    assert open_fds() == fds
    assert_no_child()
    monkeypatch.delattr(os, "fork")
    assert chromatic_number(g, lower=8, budget=budget, clique_hint=clique) == res == forked
    assert res == _stages_in_turn(g, 8, budget, clique)
    assert res.exact == (budget == 50_000)
    if not res.exact:
        assert res.nodes == 10_001


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
    the tabu search runs neither here nor in a child."""
    def no_stages(*args):
        raise AssertionError("a stage past the probe ran")

    monkeypatch.setattr(sys.modules["paleysync.invariants"], "_tabu_coloring", no_stages)
    monkeypatch.setattr(Child, "start", no_stages)
    for key, g, lo in _probe_cases():
        clique = clique_number(g).witness
        for budget in (0, 1, 100, PROBE - 1, PROBE):
            res = chromatic_number(g, lower=lo, budget=budget, clique_hint=clique)
            assert res == _exhaustive_alone(g, lo, budget, clique), (key, budget)


def test_tabu_search_decides_three_former_chi_timeouts(sweep_q81):
    """At budget 50,000 the exhaustive k-test at chi's lower bound times out
    on these, and the tabu search finds a coloring with that many colors."""
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
    init = _KTest.__init__

    def traced_init(self, adj, n, k, meter):
        opened.append(meter.limit - meter.spent)
        init(self, adj, n, k, meter)

    monkeypatch.setattr(_KTest, "__init__", traced_init)
    monkeypatch.delattr(os, "fork")
    budgets = [PROBE, PROBE + 1, PROBE + 60, 2 * PROBE, 2 * PROBE + 1, 3 * PROBE, 10_000]
    for q, m, k in [(61, 3, 8), (81, 4, 6), (41, 5, 4)]:
        g = residue_graph(q, m)
        clique = clique_number(g).witness
        for budget in budgets:
            opened.clear()
            chromatic_number(g, lower=k, budget=budget, clique_hint=clique)
            assert opened, (q, m, budget)
            if budget <= PROBE:
                assert opened[0] == budget
            elif budget <= 2 * PROBE:
                assert opened[0] == PROBE, (q, m, budget)
            else:
                assert PROBE <= opened[0] < budget, (q, m, budget)


def test_tabu_search_finds_a_7_coloring_of_81_4():
    """chi(81, 4) = 7: the exhaustive 6-test is unsat (3,122,536 nodes at
    budget 10**8, about 90 s; CI checks it through the installed entry
    point), and the tabu search finds a 7-coloring in under 1,000 moves."""
    g = residue_graph(81, 4)
    meter = _Budget(1000)
    coloring = _tabu_coloring(list(g.adjacency), g.n_vertices, 7, meter, 1000)
    assert coloring is not None and meter.spent <= 1000
    assert set(coloring) == set(range(7))
    assert all(coloring[u] != coloring[v] for u, v in g.edges())


def test_chi_of_81_4_stays_a_timeout_with_a_proper_coloring(sweep_q81):
    """The upper-bound phase lowers DSATUR's 9 colors to 7 and fails at 6,
    and the exhaustive 6-test times out."""
    cert = sweep_q81[(81, 4)][0]
    assert (cert.status, cert.chi, cert.bounds["chi"]) == ("timeout", None, (6, 7))
    # checks that the coloring is proper and uses at most 7 colors
    verify_certificate(residue_graph(81, 4), cert)
