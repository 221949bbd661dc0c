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
from paleysync.spectral import THETA_MARGIN, _delsarte_lp, theta_bounds
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


def _undirected_widths(q):
    """Every m_bar >= 2 of a residue graph on GF(q): 2 m_bar | q - 1."""
    return [mb for mb in range(2, q) if (q - 1) % (2 * mb) == 0]


def _bracket(periods, q, mask):
    """[L_S, q/L_T], widened by THETA_MARGIN, for the pair of `mask`."""
    subset = [i for i in range(len(periods)) if mask >> i & 1]
    low, rest = theta_bounds(periods, subset, (q - 1) // len(periods))
    return low * (1 - THETA_MARGIN), q / rest * (1 + THETA_MARGIN)


def test_theta_lp_on_the_single_orbital_is_the_closed_form():
    """On S = {0} the LP's checked bound is theta of the residue graph's
    complement, 1 + degree/(-lambda_min), to 1e-9 relative, and the bound
    for T from its dual makes the product q, for every (q, m_bar) with
    q <= 729."""
    checked = 0
    for q in odd_prime_powers(729):
        field = field_for(q)
        for mb in _undirected_widths(q):
            value, rest = theta_bounds(gauss_periods(field, mb), [0], (q - 1) // mb)
            assert math.isclose(value, theta_pair(field, mb).theta_complement, rel_tol=1e-9), (q, mb)
            assert math.isclose(value * rest, q, rel_tol=1e-8), (q, mb)
            checked += 1
    assert checked == 834


def test_theta_lp_bracket_holds_every_feasible_clique_size():
    """Wherever the exact filter keeps k (feasible_clique_sizes == {k}), the
    LP bracket of the single orbital's pair holds k, so the LP never clears
    a residue graph the filter keeps: q <= 729 and m_bar <= 64, which leaves
    out 6 of the 62 such graphs, whose complement side is an LP in up to 363
    weights."""
    kept = 0
    for q in odd_prime_powers(729):
        field = field_for(q)
        for mb in _undirected_widths(q):
            sizes = feasible_clique_sizes(field, mb) if mb <= 64 else ()
            if sizes:
                (k,) = sizes
                low, high = _bracket(gauss_periods(field, mb), q, 1)
                assert low <= k <= high, (q, mb, low, high)
                kept += 1
    assert kept == 56


def test_theta_bounds_rescale_weights_that_break_a_row(monkeypatch):
    """theta_bounds checks the weights the LP gives: weights 1.5 times the
    optimum break the least row, and the bound from them is still no more
    than theta, where the unchecked objective would exceed it, on either
    side; weights of negative sum give 1, the bound of x = 0, not less."""
    periods, subset = gauss_periods(build_field(3, 5), 11), [0, 2, 3]
    twice = periods * 2
    x, y = _delsarte_lp(list(zip(*(twice[i:i + 11] for i in subset))), 22)
    exact, exact_rest = theta_bounds(periods, subset, 22)
    assert 1 + 1.5 * (exact - 1) > exact
    module = sys.modules["paleysync.spectral"]
    monkeypatch.setattr(module, "_delsarte_lp", lambda rows, size: ([1.5 * v for v in x], [3 * v for v in y]))
    low, rest = theta_bounds(periods, subset, 22)
    assert low <= exact * (1 + 1e-12) and rest <= exact_rest * (1 + 1e-12)
    monkeypatch.setattr(module, "_delsarte_lp", lambda rows, size: ([-1.0] * 3, [0.0] * 11))
    assert theta_bounds(periods, subset, 22)[0] == 1.0


def test_theta_lp_agrees_with_highs_on_every_frobenius_pair():
    """One union per family under rotation, Frobenius and complement, with
    q <= 343, on both members of the pair (one from the LP, the other from
    its dual), against scipy's HiGHS solver;
    only solves that HiGHS reports optimal (status 0) are compared, and the
    widths are those up to 11, the widest of scan-729's walks, and up to 6
    on prime fields: 1,048 LPs on 146 (q, m_bar)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    from paleysync.classify import _least_image

    compared = 0
    for q in odd_prime_powers(343):
        field = field_for(q)
        for mb in _undirected_widths(q):
            if mb > 11 or (field.n == 1 and mb > 6):
                continue
            periods, size, full = gauss_periods(field, mb), (q - 1) // mb, (1 << mb) - 1
            units = tuple({pow(field.p, a, mb) for a in range(mb)})
            reps = {_least_image(mask, mb, units) for mask in range(1, full)}
            for mask in sorted(mask for mask in reps if mask <= _least_image(full ^ mask, mb, units)):
                ours = theta_bounds(periods, [i for i in range(mb) if mask >> i & 1], size)
                for member, bound in zip((mask, full ^ mask), ours):
                    subset = [i for i in range(mb) if member >> i & 1]
                    rows = [[-periods[(i + j) % mb] for i in subset] for j in range(mb)]
                    res = linprog([-size] * len(subset), A_ub=rows, b_ub=[1.0] * mb,
                                  bounds=[(None, None)] * len(subset), method="highs")
                    if res.status == 0:
                        assert abs(bound - (1 - res.fun)) <= 1e-7 * bound, (q, mb, member)
                        compared += 1
    assert compared > 1000


def test_the_theta_lp_loads_no_numpy():
    """The LP is pure Python: deciding (343, 9) by it leaves numpy unloaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(paleysync.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, paleysync; r = paleysync.classify(343, 9);"
            " print(r.reasons[0].rule, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "Delsarte LP False"
