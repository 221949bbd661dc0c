"""Decisions with no search: factorization witnesses and the Redei rule.

`factorization_certificate` finds GF(q) = A + B with A a subfield GF(p^t)
and B an F_p-subspace none of whose units lies in the classes S that A's
units hit, and returns S with its omega = chi = p^t certificate.  The Redei
fast path calls every n = 2 row it reaches Synchronizing.  Here both are
checked against certificates rebuilt from scratch, against the search,
against Thm 5.2(4), and against a brute force over GF(25).
"""

from itertools import combinations
from math import gcd

import pytest

from paleysync import (
    NON_SYNCHRONIZING,
    SYNCHRONIZING,
    UNKNOWN,
    Reason,
    build_field,
    classify,
    exhaustive_decision,
    fast_paths,
    normalize_params,
    orbital_family,
    union_graph,
    verify_certificate,
)
from paleysync.classify import _omega_equals_chi
from paleysync.gf import divisors, odd_prime_powers, prime_power
from paleysync.invariants import _Budget, factorization_certificate
from paleysync.paley import iter_bits
from paleysync.spectral import feasible_clique_sizes
from conftest import field_for, valid_graph_ms


def _witness(q, m, single=False):
    return factorization_certificate(field_for(q), m, _Budget.of(None), single)


def _rows(q_max, n=None):
    for q in odd_prime_powers(q_max):
        if prime_power(q)[1] >= 2 and n in (None, prime_power(q)[1]):
            yield from ((q, m) for m in divisors(q - 1) if normalize_params(q, m).m_bar >= 2)


def test_every_witness_passes_verify_on_its_rebuilt_union_graph():
    """Every witness with q <= 343, and the single-orbital one wherever the
    residue graph exists, is checked against the union graph of its S built
    again from the field: a clique and a proper coloring of p^t colors."""
    found = singles = 0
    for q, m in _rows(343):
        p = prime_power(q)[0]
        for single in (False, True):
            if single and (q - 1) % (2 * m):
                continue
            witness = _witness(q, m, single=single)
            if witness is None:
                continue
            subset, cert = witness
            assert not single or subset == [0], (q, m)
            mb = normalize_params(q, m).m_bar
            assert 0 in subset and len(subset) < mb, (q, m, subset)
            verify_certificate(union_graph(orbital_family(field_for(q), m), subset), cert)
            assert cert.omega == cert.chi == q // cert.alpha and q % cert.omega == 0
            assert cert.omega % p == 0 and cert.omega < q
            found += 1
            singles += single
    assert (found, singles) == (117, 32)


def test_witnesses_agree_with_the_search_where_it_finishes():
    """For every (q, m) with q <= 121 where a witness fires (43 rows), the
    search on the witness's union finds omega = chi with the same value,
    and where m_bar <= 8 (the scan's cap) the search-only orbital walk
    (spectral_prune=False) ends NonSynchronizing, wherever each finishes
    within 2,000 nodes.  At 10^6 nodes the union search still leaves six
    (121, .) unions open, an 11-coloring of 121 vertices being out of its
    reach; at 10^5 nodes a walk over every m_bar ends NonSynchronizing on
    34 of the 43 rows and runs out on the other nine.  The union searches of
    (121, 2) and (121, 10), and the walk of (121, 2), finish within 2,000
    nodes since the k-test at omega is seeded with a witness through 0."""
    rows = unions = walks = 0
    for q, m in _rows(121):
        witness = _witness(q, m)
        if witness is None:
            continue
        rows += 1
        subset, cert = witness
        field = field_for(q)
        kind, omega_res, _ = _omega_equals_chi(
            union_graph(orbital_family(field, m), subset), _Budget(2000)
        )
        if kind != "timeout":
            assert (kind, omega_res.value) == ("eq", cert.omega), (q, m)
            unions += 1
        if normalize_params(q, m).m_bar > 8:
            continue
        result = exhaustive_decision(field, m, budget=2000, spectral_prune=False)
        if result.verdict != UNKNOWN:
            assert (result.verdict, result.status) == (NON_SYNCHRONIZING, "complete"), (q, m)
            walks += 1
    assert (rows, unions, walks) == (43, 37, 20)


def test_quadratic_witnesses_are_thm_5_2_4():
    """For n = 2 a witness exists iff gcd(p+1, m_bar) > 1, the condition of
    Thm 5.2(4)'s fast path (every m | q - 1, q <= 961); the Redei rule
    fires only where there is none."""
    checked = 0
    for q, m in _rows(961, n=2):
        p = prime_power(q)[0]
        has = _witness(q, m) is not None
        assert has == (gcd(p + 1, normalize_params(q, m).m_bar) > 1), (q, m)
        fp = fast_paths(q, m)
        if fp is not None and fp.reasons[0].rule == "Redei n=2":
            assert not has, (q, m)
        checked += 1
    assert checked == 166


@pytest.mark.parametrize(
    ("q", "ms", "subset"),
    [
        (343, (19, 38), [0]),
        (729, (13,), [0]),
        (1331, (7, 14, 19, 38), [0]),
        (1331, (35, 70), [0, 7, 14, 21, 28]),
        (1331, (95, 190), [0, 19, 38, 57, 76]),
        (2197, (61,), [0]),
        (2197, (122, 244), [0, 61]),
        (3125, (71,), [0]),
        (3125, (142, 284), [0, 71]),
    ],
)
def test_classify_decides_the_wide_rows_by_a_witness(q, ms, subset):
    """Rows past the fast paths that the orbital walk cannot reach (m_bar up
    to 95, 2^94 odd masks): classify calls them NonSynchronizing with a
    witness on S, which verify_certificate passes on the rebuilt union."""
    p = prime_power(q)[0]
    for m in ms:
        assert fast_paths(q, m) is None
        result = classify(q, m, budget=1000)
        assert (result.verdict, result.status) == (NON_SYNCHRONIZING, "complete")
        assert result.reasons[0].rule == "subspace factorization"
        assert result.witness["orbital_subset"] == subset
        cert = result.certificate
        assert cert.omega == cert.chi == (9 if q == 729 else p)
        verify_certificate(union_graph(orbital_family(field_for(q), m), subset), cert)


def test_every_feasible_residue_graph_has_a_single_orbital_witness():
    """Where the spectral filter leaves a residue graph its one feasible
    value k, a factorization witness with S = [0] has omega = chi = k: 62 of
    the 126 residue graphs with n >= 2 and q <= 729.  On a prime field the
    feasible set is always empty.  So with q <= 729 the walk never searches
    the single orbital: the witness settles it first, or the filter clears
    it.  This is checked, not proved."""
    graphs = feasible = 0
    for q in odd_prime_powers(729):
        field = field_for(q)
        for m in valid_graph_ms(q):
            sizes = feasible_clique_sizes(field, m)
            if field.n == 1:
                assert not sizes, (q, m)
                continue
            graphs += 1
            if sizes:
                feasible += 1
                subset, cert = factorization_certificate(field, m, _Budget.of(None), single=True)
                assert (subset, {cert.omega}) == ([0], sizes), (q, m)
    assert (graphs, feasible) == (126, 62)


def test_a_spent_meter_ends_the_functional_search():
    """(729, 13) has no hyperplane witness; its B, of codimension 2 beside
    A = GF(9), takes the metered search some nodes.  One node fewer returns
    None with the meter spent, and classify's reason says where the budget
    went."""
    meter = _Budget.of(None)
    subset, cert = factorization_certificate(build_field(3, 6), 13, meter)
    nodes = meter.spent
    assert (subset, cert.omega, nodes > 0) == ([0], 9, True)
    short = _Budget(nodes - 1)
    assert factorization_certificate(build_field(3, 6), 13, short) is None
    assert short.spent == nodes
    result = classify(729, 13, budget=nodes - 1)
    assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
    assert result.reasons == (Reason("budget", "budget spent in the factorization witness search"),)
    assert classify(729, 13, budget=nodes).verdict == NON_SYNCHRONIZING


def test_every_factorization_of_gf25_into_two_five_sets_has_a_subgroup_factor():
    """Redei's theorem on GF(25)+ = Z_5^2, by brute force: for each of the
    C(24, 4) = 10,626 sets A = {0} + four units, every B with 0 in B and
    A + B = GF(25) (|A| |B| = 25 and no difference of A but 0 is one of B)
    has A or B closed under addition, the digit-wise field.add as the
    reference."""
    field = build_field(5, 2)
    sub = [[field.sub(a, b) for b in range(25)] for a in range(25)]

    def closed(s):
        return all(field.add(a, b) in s for a in s for b in s)

    factorizations = subgroups = 0
    for rest in combinations(range(1, 25), 4):
        a = (0, *rest)
        diffs = 0
        for x, y in combinations(a, 2):
            diffs |= 1 << sub[x][y] | 1 << sub[y][x]
        free = [b for b in range(1, 25) if not diffs >> b & 1]
        # the units that may share B with b: their difference is no difference of A
        fits = {b: sum(1 << c for c in free if c > b and not diffs >> sub[c][b] & 1) for b in free}
        stack = [((), sum(1 << b for b in free))]
        while stack:
            chosen, cand = stack.pop()
            if len(chosen) == 4:
                factorizations += 1
                assert closed(set(a)) or closed({0, *chosen}), (a, chosen)
                subgroups += closed(set(a))
                continue
            stack.extend(((*chosen, b), cand & fits[b]) for b in iter_bits(cand))
    # A is one of the 6 lines through 0 in 3,750 of them (625 sets B each)
    assert (factorizations, subgroups) == (7470, 3750)


@pytest.mark.parametrize(("q", "m"), [(121, 5), (361, 9), (529, 11), (961, 5), (1849, 21)])
def test_redei_rule_decides_quadratic_rows(q, m):
    result = classify(q, m)
    assert (result.verdict, result.status) == (SYNCHRONIZING, "complete")
    assert result.reasons[0].rule == "Redei n=2"


def test_redei_rule_agrees_with_the_search_only_walk():
    """(121, 5), which the orbital walk decided before the rule, is
    Synchronizing by the search alone as well; (361, 9) at 10^5 nodes is
    test_one_search_per_pair_decides_m9_within_budget[361]."""
    result = exhaustive_decision(field_for(121), 5, spectral_prune=False)
    assert (result.verdict, result.status) == (SYNCHRONIZING, "complete")
