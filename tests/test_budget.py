"""One node budget per public call.

Every search under `classify`, `exhaustive_decision`, `paley_certificate` or
`chromatic_number` draws on one node meter, so the nodes that the
`clique_number` and `k_colorable` calls under one public call report add up
to at most budget + 1.  The searches are wrapped in both modules that call
them, taken from sys.modules because the package attribute
`paleysync.classify` is the function, not the module.
"""

import sys

import pytest

from paleysync import (
    UNKNOWN,
    build_field,
    build_paley,
    chromatic_number,
    classify,
    exhaustive_decision,
    paley_certificate,
)
from conftest import without_lp, without_witness

MODULES = ("paleysync.classify", "paleysync.invariants")


@pytest.fixture
def searches(monkeypatch):
    """Record (nodes, timed_out) of every clique and colorability search, in
    call order, and the index of the search before each union graph built."""
    log = {"searches": [], "unions": []}
    invariants = sys.modules["paleysync.invariants"]
    clique_number, k_colorable = invariants.clique_number, invariants.k_colorable
    union_graph = sys.modules["paleysync.classify"].union_graph

    def traced_clique(*args, **kwargs):
        res = clique_number(*args, **kwargs)
        log["searches"].append((res.nodes, not res.exact))
        return res

    def traced_colorable(*args, **kwargs):
        res = k_colorable(*args, **kwargs)
        log["searches"].append((res[2], res[0] == "timeout"))
        return res

    def traced_union(*args, **kwargs):
        log["unions"].append(len(log["searches"]))
        return union_graph(*args, **kwargs)

    for name in MODULES:
        monkeypatch.setattr(sys.modules[name], "clique_number", traced_clique)
        monkeypatch.setattr(sys.modules[name], "k_colorable", traced_colorable)
    monkeypatch.setattr(sys.modules["paleysync.classify"], "union_graph", traced_union)
    return log


def _exhaustive_81_8_by_search(budget):
    # a factorization witness would settle (81, 8) with no search
    with without_witness():
        return exhaustive_decision(build_field(3, 4), 8, budget=budget)


def _by_search(call):
    # the theta LP would clear every pair past the single orbital with no search
    def searched(budget):
        with without_lp():
            return call(budget)
    return searched


CALLS = {
    "certificate-73-3": lambda b: paley_certificate(build_field(73), 3, budget=b),
    "certificate-79-3": lambda b: paley_certificate(build_field(79), 3, budget=b),
    "certificate-81-4": lambda b: paley_certificate(build_field(3, 4), 4, budget=b),
    "chromatic-73-3": lambda b: chromatic_number(build_paley(build_field(73), 3), budget=b),
    # (121, 5) is decided by the Redei fast path: its walk is called directly
    "classify-121-5": _by_search(lambda b: exhaustive_decision(build_field(11, 2), 5, budget=b)),
    "classify-343-9": _by_search(lambda b: classify(343, 9, budget=b)),
    "exhaustive-81-8": _exhaustive_81_8_by_search,
}


@pytest.mark.parametrize("budget", [0, 1, 50, 2000, 10_000])
@pytest.mark.parametrize("call", CALLS)
def test_one_public_call_spends_at_most_its_budget(searches, call, budget):
    CALLS[call](budget)
    assert searches["searches"]
    assert sum(nodes for nodes, _ in searches["searches"]) <= budget + 1


def test_no_union_graph_is_built_on_a_spent_budget(searches):
    with without_lp():
        result = classify(343, 9, budget=10_000)
    assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
    timed_out = [i for i, (_, timeout) in enumerate(searches["searches"]) if timeout]
    # the first timeout spends the budget, and no search or union follows it
    assert timed_out == [len(searches["searches"]) - 1]
    assert [i for i in searches["unions"] if i > timed_out[0]] == []
    assert sum(nodes for nodes, _ in searches["searches"]) == 10_001
    # one budget reason for the timed-out union, one for the unreached pairs
    assert [r.rule for r in result.reasons[-2:]] == ["budget", "budget"]
    assert result.reasons[-1].detail.endswith("15 of 29 canonical pairs not reached")


def test_a_spent_budget_ends_a_wide_orbital_walk_at_once():
    # (1331, 70): m_bar = 35, so the walk would cover 2^34 odd masks; a lazy
    # walk stops at the first pair past the budget.  The factorization
    # witness, which decides the row with no search, and the theta LP, with
    # its Frobenius reduction, are taken out.
    with without_witness(), without_lp():
        result = exhaustive_decision(build_field(11, 3), 70, budget=1)
    assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
    assert result.reasons[-1].detail.endswith("490853413 of 490853415 canonical pairs not reached")


def test_a_spent_budget_ends_the_frobenius_reduced_walk_before_a_graph(searches):
    # (1331, 70) with the theta LP: 163,619,991 pairs under rotation,
    # Frobenius (11*i mod 35) and complement.  At budget 1 the filter clears
    # the single orbital, the LP test of [0, 1] takes the one node and clears
    # it, and the LP test of [0, 2] finds the meter spent: no union graph is
    # built and no search runs.
    with without_witness():
        result = exhaustive_decision(build_field(11, 3), 70, budget=1)
    assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
    assert [r.rule for r in result.reasons] == ["Thm 4.6 spectral", "budget"]
    assert result.reasons[-1].detail.endswith("163619989 of 163619991 canonical pairs not reached")
    assert searches["unions"] == searches["searches"] == []
