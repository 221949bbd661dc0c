"""One node budget per public call.

Every search under `classify`, `exhaustive_decision`, `paley_certificate` or
`chromatic_number` draws on one node meter, so the nodes that the
`clique_number` and `k_colorable` calls under one public call report, with
the |S| * m_bar nodes of each theta LP of the sweep, add up to at most
budget + 1.  The searches are wrapped in both modules that call them, taken
from sys.modules because the package attribute `paleysync.classify` is the
function, not the module.
"""

import sys

import pytest

from paleysync import (
    UNKNOWN,
    Reason,
    build_field,
    build_paley,
    chromatic_number,
    exhaustive_decision,
    paley_certificate,
)
from conftest import without_witness

MODULES = ("paleysync.classify", "paleysync.invariants")


@pytest.fixture
def searches(monkeypatch):
    """Record (nodes, timed_out) of every clique and colorability search, in
    call order, the index of the search before each union graph built, and
    the nodes of each theta LP of the sweep (solved only once paid for)."""
    log = {"searches": [], "unions": [], "lps": []}
    invariants = sys.modules["paleysync.invariants"]
    clique_number, k_colorable = invariants.clique_number, invariants.k_colorable
    classify_module = sys.modules["paleysync.classify"]
    union_graph, theta_bounds = classify_module.union_graph, classify_module.theta_bounds

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

    def traced_theta(periods, subset, size):
        log["lps"].append(len(periods) * len(subset))
        return theta_bounds(periods, subset, size)

    for name in MODULES:
        monkeypatch.setattr(sys.modules[name], "clique_number", traced_clique)
        monkeypatch.setattr(sys.modules[name], "k_colorable", traced_colorable)
    monkeypatch.setattr(classify_module, "union_graph", traced_union)
    monkeypatch.setattr(classify_module, "theta_bounds", traced_theta)
    return log


def _exhaustive_81_8_by_search(budget):
    # a factorization witness would settle (81, 8) with no search; the
    # reference walk searches at every budget, where at budget 0 the sweep
    # finds the meter spent at its first LP
    return exhaustive_decision(build_field(3, 4), 8, budget=budget, spectral_prune=False)


def _sweep_81_8_by_search(budget):
    # with the witness taken out, the sweep's LP of [0] (8 nodes) leaves it
    # open and its search finds omega = chi = 3 on the same meter; below 8
    # nodes the LP finds the meter spent and no search runs
    with without_witness():
        return exhaustive_decision(build_field(3, 4), 8, budget=budget)


CALLS = {
    "certificate-73-3": lambda b: paley_certificate(build_field(73), 3, budget=b),
    "certificate-79-3": lambda b: paley_certificate(build_field(79), 3, budget=b),
    "certificate-81-4": lambda b: paley_certificate(build_field(3, 4), 4, budget=b),
    "chromatic-73-3": lambda b: chromatic_number(build_paley(build_field(73), 3), budget=b),
    # the reference walk, which searches every pair: (121, 5) is decided by
    # the Redei fast path and (343, 9) by the theta LP with no search
    "classify-121-5": lambda b: exhaustive_decision(build_field(11, 2), 5, budget=b, spectral_prune=False),
    "classify-343-9": lambda b: exhaustive_decision(build_field(7, 3), 9, budget=b, spectral_prune=False),
    "exhaustive-81-8": _exhaustive_81_8_by_search,
    "sweep-81-8": _sweep_81_8_by_search,
}


@pytest.mark.parametrize("budget", [0, 1, 50, 2000, 10_000])
@pytest.mark.parametrize("call", CALLS)
def test_one_public_call_spends_at_most_its_budget(searches, call, budget):
    CALLS[call](budget)
    if call != "sweep-81-8" or budget >= 8:  # below 8 nodes its first LP finds the meter spent
        assert searches["searches"] or searches["lps"]
    assert sum(nodes for nodes, _ in searches["searches"]) + sum(searches["lps"]) <= budget + 1


def test_no_union_graph_is_built_on_a_spent_budget(searches):
    # the reference walk: the theta LP decides (343, 9) with no search
    result = exhaustive_decision(build_field(7, 3), 9, budget=2_000, spectral_prune=False)
    assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
    timed_out = [i for i, (_, timeout) in enumerate(searches["searches"]) if timeout]
    # the first timeout spends the budget, and no search or union follows it
    assert timed_out == [len(searches["searches"]) - 1]
    assert [i for i in searches["unions"] if i > timed_out[0]] == []
    assert sum(nodes for nodes, _ in searches["searches"]) == 2_001
    # one budget reason for the timed-out union, one for the unreached pairs
    assert [r.rule for r in result.reasons[-2:]] == ["budget", "budget"]
    assert result.reasons[-1].detail.endswith("5 of 29 canonical pairs not reached")


def test_a_spent_budget_ends_a_wide_orbital_walk_at_once():
    # (1331, 70): m_bar = 35, so the walk would cover 2^34 odd masks; a lazy
    # walk stops at the first pair past the budget.  The factorization
    # witness, which decides the row with no search, is taken out, and the
    # reference walk searches every pair.
    with without_witness():
        result = exhaustive_decision(build_field(11, 3), 70, budget=1, spectral_prune=False)
    assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
    assert result.reasons[-1].detail.endswith("490853413 of 490853415 canonical pairs not reached")


def test_a_spent_budget_ends_the_frobenius_reduced_walk_before_a_graph(searches):
    # (1331, 70) in the theta sweep, one set per family under i -> 11^a*i + s:
    # at budget 35 the LP of the single class [0] takes all 35 nodes, one
    # per orbital, and leaves it closed, and the LP of [0, 1] finds the meter
    # spent: no union graph is built and no search runs.
    with without_witness():
        result = exhaustive_decision(build_field(11, 3), 70, budget=35)
    assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
    assert result.reasons == (Reason("budget", "exhaustive check incomplete: budget spent after"
                                               " 1 sets visited, before Delta-subset [0, 1]"),)
    assert searches["unions"] == searches["searches"] == []
    assert searches["lps"] == [35]
