import math
import os
import subprocess
import sys
from collections import Counter

import pytest

import paleysync
from paleysync import (
    NotUndirectedError,
    TooLargeError,
    build_field,
    build_paley,
    eigen_oracle,
    feasible_clique_sizes,
    gauss_periods,
    graph_from_edges,
    theta_pair,
)
from conftest import field_for, odd_prime_powers, valid_graph_ms


def test_periods_gf9():
    periods = sorted(gauss_periods(build_field(3, 2), 2))
    assert abs(periods[0] + 2) < 1e-12
    assert abs(periods[1] - 1) < 1e-12


def test_periods_gf13():
    periods = sorted(gauss_periods(build_field(13), 2))
    assert abs(periods[0] - (-1 - math.sqrt(13)) / 2) < 1e-12
    assert abs(periods[1] - (-1 + math.sqrt(13)) / 2) < 1e-12


def test_periods_reject_asymmetric_set():
    with pytest.raises(NotUndirectedError):
        gauss_periods(build_field(13), 4)


@pytest.mark.parametrize("q", [9, 13, 17, 25, 49, 81, 121, 169])
def test_trace_identity(q):
    field = field_for(q)
    for m in valid_graph_ms(q):
        periods = gauss_periods(field, m)
        degree = (q - 1) // m
        assert abs(degree + degree * sum(periods)) < 1e-8


def test_theta_pair_gf9():
    rep = theta_pair(build_field(3, 2), 2)
    assert abs(rep.theta - 3) < 1e-9
    assert abs(rep.theta_complement - 3) < 1e-9
    assert rep.lambda_min < 0
    assert rep.degree == 4


def test_theta_gf13_is_sqrt13():
    rep = theta_pair(build_field(13), 2)
    assert abs(rep.theta - math.sqrt(13)) < 1e-9


@pytest.mark.parametrize("q", [9, 13, 25, 29, 49, 81])
def test_theta_product_identity(q):
    field = field_for(q)
    for m in valid_graph_ms(q):
        rep = theta_pair(field, m)
        assert abs(rep.theta * rep.theta_complement - q) < 1e-9


def test_eigen_oracle_complete_graph():
    k4 = graph_from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    vals = eigen_oracle(k4)
    assert abs(vals[0] - 3) < 1e-8
    assert all(abs(v + 1) < 1e-8 for v in vals[1:])


def test_eigen_oracle_five_cycle():
    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    vals = eigen_oracle(c5)
    expected = sorted((2 * math.cos(2 * math.pi * k / 5) for k in range(5)), reverse=True)
    assert max(abs(a - b) for a, b in zip(vals, expected)) < 1e-8


def test_eigen_oracle_cap():
    with pytest.raises(TooLargeError):
        eigen_oracle(graph_from_edges(201, []))


@pytest.mark.parametrize("q", [9, 13, 17, 25, 29, 49, 81])
def test_periods_match_eigensolver(q):
    field = field_for(q)
    for m in valid_graph_ms(q):
        rep = theta_pair(field, m)
        oracle = eigen_oracle(build_paley(field, m))
        ours = rep.eigenvalue_multiset()
        assert max(abs(a - b) for a, b in zip(ours, oracle)) < 1e-8


def test_feasible_sizes_examples():
    assert feasible_clique_sizes(field_for(49), 3) == frozenset()
    assert feasible_clique_sizes(field_for(81), 2) == frozenset({9})
    assert feasible_clique_sizes(field_for(13), 2) == frozenset()
    assert feasible_clique_sizes(field_for(49), 2) == frozenset({7})


def test_feasible_sizes_prime_field_always_empty():
    for p in (5, 13, 17, 29):
        for m in valid_graph_ms(p):
            assert feasible_clique_sizes(field_for(p), m) == frozenset()


def test_report_json_shape():
    blob = theta_pair(build_field(3, 2), 2).to_json_dict()
    assert list(blob) == [
        "q", "m", "degree", "periods", "lambda_min", "theta", "theta_complement", "tolerance",
    ]


def _count_table_periods(field, m):
    """The count-table formula: eta_j = sum_t c[j][t] * cos(2 pi t / p), with
    c[j][t] the number of elements of coset j whose trace is t.  Only the
    nonzero counts are kept (in a dict), so this is O(q), not O(m * p)."""
    p, tr = field.p, field.trace
    cos_t = [math.cos(2.0 * math.pi * t / p) for t in range(p)]
    terms = [[] for _ in range(m)]
    for (j, t), c in Counter((k % m, tr[e]) for k, e in enumerate(field.exp)).items():
        terms[j].append(c * cos_t[t])
    return [math.fsum(row) for row in terms]


def _valid_pairs(q_max):
    return [(q, m) for q in odd_prime_powers(q_max) for m in valid_graph_ms(q)]


def test_periods_match_count_table_formula():
    for q, m in _valid_pairs(729):
        ours = gauss_periods(field_for(q), m)
        ref = _count_table_periods(field_for(q), m)
        assert max(abs(a - b) for a, b in zip(ours, ref)) < 1e-12, (q, m)


def _per_call_periods(field, m):
    """gauss_periods with its cosine terms rebuilt on every call."""
    cos_t = [math.cos(2.0 * math.pi * t / field.p) for t in range(field.p)]
    terms = [cos_t[field.trace[e]] for e in field.exp]
    return tuple(math.fsum(terms[j::m]) for j in range(m))


def test_periods_read_off_the_cached_character_row_are_unchanged():
    for q, m in _valid_pairs(729):
        assert gauss_periods(field_for(q), m) == _per_call_periods(field_for(q), m), (q, m)
    field = field_for(81)
    assert field.character_row is field.character_row
    assert field.character_row.typecode == "d" and len(field.character_row) == 80


def test_feasible_sizes_match_tolerance_rule():
    """The exact rationality test accepts the same k as comparing the float
    least period with -degree/(k-1) to 1e-6, on every extension field q <= 729.
    At most one k is accepted, and it is theta of the complement: k equals
    int(theta_bar + 1e-6) and lies within 1e-9 of theta_bar, so a clique
    search capped at k is capped at theta_bar."""
    checked = accepted = 0
    for q, m in _valid_pairs(729):
        field = field_for(q)
        if field.n == 1:
            continue
        degree = (q - 1) // m
        lam_min = min(_count_table_periods(field, m))
        expected = {
            k
            for k in (field.p**t for t in range(1, field.n) if field.n % t == 0)
            if degree % (k - 1) == 0 and abs(lam_min + degree / (k - 1)) < 1e-6
        }
        feasible = feasible_clique_sizes(field, m)
        assert feasible == expected, (q, m)
        assert len(feasible) <= 1, (q, m)
        for k in feasible:
            theta_bar = theta_pair(field, m).theta_complement
            assert k == int(theta_bar + 1e-6), (q, m)
            assert abs(theta_bar - k) < 1e-9, (q, m)
            accepted += 1
        checked += 1
    assert (checked, accepted) == (126, 62)


def test_import_loads_no_numpy():
    """numpy is imported only inside eigen_oracle, so importing the package
    stays light."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(paleysync.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, paleysync; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
