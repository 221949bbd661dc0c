import dataclasses
import sys
from math import gcd

import pytest

from paleysync import (
    NON_SYNCHRONIZING,
    SYNCHRONIZING,
    UNKNOWN,
    BadDivisorError,
    BadInputError,
    InvalidWitnessError,
    Reason,
    build_field,
    build_paley,
    chromatic_number,
    classify,
    clique_number,
    complement,
    exhaustive_decision,
    fast_paths,
    normalize_params,
    orbital_family,
    primitivity,
    prime_power,
    union_graph,
    verify_certificate,
)
from paleysync.classify import LP_WALK_CAP, _canonical_pair_count, _canonical_pair_masks, _omega_equals_chi
from paleysync.gf import odd_prime_powers
from paleysync.invariants import _Budget, factorization_certificate
from conftest import field_for, valid_graph_ms, without_lp, without_witness


def test_primitivity_examples():
    assert primitivity(9, 2)  # r=4 does not divide 2
    assert not primitivity(9, 4)  # r=2 divides 2
    assert primitivity(13, 3)  # prime degree, vacuous


def test_fast_path_imprimitive():
    result = fast_paths(9, 4)
    assert result.verdict == NON_SYNCHRONIZING
    assert result.reasons[0].rule == "Lemma 3.1 imprimitive"


def test_fast_path_quadratic_cases():
    result = fast_paths(25, 2)
    assert result.verdict == NON_SYNCHRONIZING
    assert result.reasons[0].rule == "Thm 5.2(6)"
    result = fast_paths(9, 2)
    assert result.verdict == NON_SYNCHRONIZING
    assert result.reasons[0].rule == "Thm 5.2(6)"


def test_fast_path_odd_extension_m2():
    # q=125 has 4 | 124 so the two-orbital case exercises the odd-n m=2 rule;
    # q=27 and q=343 have a single complete orbital and resolve even earlier.
    assert fast_paths(125, 2).reasons[0].rule == "Thm 5.2(5)"
    assert fast_paths(27, 2).reasons[0].rule == "2-homogeneous"
    for q in (27, 125, 343):
        result = fast_paths(q, 2)
        assert result.verdict == SYNCHRONIZING
        assert result.status == "complete"


def test_fast_path_gcd_rule_general_case():
    result = fast_paths(81, 2)
    assert result.verdict == NON_SYNCHRONIZING
    assert result.reasons[0].rule == "Thm 5.2(4)"


def test_fast_path_imprimitivity_precedes_everything():
    # r = 2 divides p - 1 = 2, so imprimitivity fires before any graph rule
    result = fast_paths(27, 13)
    assert result.verdict == NON_SYNCHRONIZING
    assert result.reasons[0].rule == "Lemma 3.1 imprimitive"


def test_classify_validation():
    # one validator behind every entry point: the same input, the same error
    for entry in (classify, fast_paths, primitivity, normalize_params):
        with pytest.raises(BadInputError, match="is not a prime power"):
            entry(12, 2)
        with pytest.raises(BadDivisorError):
            entry(13, 5)
        with pytest.raises(BadInputError, match="must be odd"):
            entry(16, 3)
        with pytest.raises(BadDivisorError):
            entry(13, 0)


def test_classify_key_verdicts():
    assert classify(27, 2).verdict == SYNCHRONIZING
    assert classify(25, 2).verdict == NON_SYNCHRONIZING
    assert classify(25, 3).verdict == NON_SYNCHRONIZING
    assert classify(49, 3).verdict == SYNCHRONIZING
    assert classify(13, 3).verdict == SYNCHRONIZING
    assert classify(9, 4).verdict == NON_SYNCHRONIZING


def test_classify_m1_is_two_homogeneous():
    result = classify(13, 1)
    assert result.verdict == SYNCHRONIZING
    assert result.reasons[0].rule == "2-homogeneous"


def test_classify_smallest_field():
    for m in (1, 2):
        result = classify(3, m)
        assert result.verdict == SYNCHRONIZING
        assert result.reasons[0].rule == "2-homogeneous"


def test_classify_single_graph_criterion_path():
    # m = 3 with composite or repunit-divisible extension degree has no
    # arithmetic fast path; the walk's one canonical pair is the residue
    # graph, and the spectral feasibility filter clears it without any
    # search: Thm 5.2(2)'s one-graph criterion.
    for q in (343, 625):
        result = classify(q, 3)
        assert result.verdict == SYNCHRONIZING
        assert result.status == "complete"
        assert result.reasons[0].rule == "Thm 4.6 spectral"
        assert result.reasons[-1].detail.endswith("(1 canonical pairs, 0 union graphs searched)")

def test_classify_past_the_fast_paths_depends_on_m_only_through_m_bar():
    """Two rows with the same q and m_bar have the same orbital unions, so
    past the fast paths classify gives them the same verdict, status and
    reason trace: every q <= 729, with the scan's exhaustive cap of 8."""
    rows = {}
    for q in odd_prime_powers(729):
        for m in range(1, q):
            if (q - 1) % m == 0 and fast_paths(q, m) is None:
                rows.setdefault((q, normalize_params(q, m).m_bar), []).append(m)
    shared = {key: ms for key, ms in rows.items() if len(ms) > 1}
    assert shared[(343, 3)] == [3, 6]
    for (q, _), ms in shared.items():
        results = [classify(q, m, exhaustive_cap=8) for m in ms]
        traces = {(r.verdict, r.status, r.reasons) for r in results}
        assert len(traces) == 1, (q, ms, traces)


def test_classify_budget_exhaustion_is_unknown():
    # (961, 5) is decided by the Redei fast path; its orbital walk is not,
    # once the theta LP, which clears its pairs with no search, is taken out
    with without_lp():
        result = exhaustive_decision(field_for(961), 5, budget=50_000)
    assert result.verdict == UNKNOWN
    assert result.status == "budget_exhausted"
    assert any(r.rule == "budget" for r in result.reasons)


def test_exhaustive_agrees_with_union_brute_force():
    """Independent oracle for the whole exhaustive machinery: enumerate every
    proper nonempty orbital union (no rotation dedup, no complement transfer,
    no spectral filter) and brute-force its invariants; the classifier must
    report NonSynchronizing exactly when some union has omega = chi."""
    from paleysync import brute_force_invariants, orbital_family, union_graph

    for q in (5, 7, 9, 11, 13):
        field = field_for(q)
        for m in [d for d in range(1, q) if (q - 1) % d == 0]:
            mb = normalize_params(q, m).m_bar
            if mb < 2:
                continue
            family = orbital_family(field, m)
            exists = False
            for mask in range(1, (1 << mb) - 1):
                subset = {i for i in range(mb) if (mask >> i) & 1}
                cert = brute_force_invariants(union_graph(family, subset))
                if cert.omega == cert.chi:
                    exists = True
                    break
            for prune in (True, False):
                result = exhaustive_decision(field, m, spectral_prune=prune)
                assert result.status == "complete", (q, m, prune)
                assert (result.verdict == NON_SYNCHRONIZING) == exists, (q, m, prune)


def test_exhaustive_gf9_witness():
    result = exhaustive_decision(build_field(3, 2), 2)
    assert result.verdict == NON_SYNCHRONIZING
    assert result.status == "complete"
    assert result.witness["orbital_subset"] == [0]
    cert = result.certificate
    assert cert.omega == cert.chi == 3
    assert cert.alpha == 3  # omega * alpha = q on the witness
    verify_certificate(build_paley(build_field(3, 2), 2), cert)


def test_search_witness_certificate_is_fully_exact():
    """An omega = chi = k union found by search carries alpha = q/k, read off
    its coloring: the class of vertex 0, no independence search."""
    field = build_field(5, 2)
    result = exhaustive_decision(field, 6, budget=20, spectral_prune=False)
    assert result.verdict == NON_SYNCHRONIZING
    cert = result.certificate
    assert cert.status == "exact"
    assert cert.omega == cert.chi == 5
    assert cert.alpha * cert.omega == field.q
    assert cert.bounds["alpha"] == (5, 5)
    color_of_0 = cert.coloring[0]
    assert cert.independent_set == tuple(v for v, c in enumerate(cert.coloring) if c == color_of_0)
    subset = result.witness["orbital_subset"]
    verify_certificate(union_graph(orbital_family(field, 6), subset), cert)


def test_exhaustive_gf13_synchronizing_by_search():
    field = build_field(13)
    result = exhaustive_decision(field, 2, spectral_prune=False)
    assert result.verdict == SYNCHRONIZING
    assert result.status == "complete"
    # independent confirmation: both invariant graphs have omega != chi
    g = build_paley(field, 2)
    for h in (g, complement(g)):
        assert clique_number(h).value != chromatic_number(h).value


def test_exhaustive_matches_fast_paths():
    """Wherever both a fast path and the exhaustive check complete, they agree."""
    for q in (9, 13, 17, 25, 49):
        field = field_for(q)
        for m in range(1, q):
            if (q - 1) % m:
                continue
            fp = fast_paths(q, m)
            if fp is None:
                continue
            mb = normalize_params(q, m).m_bar
            if mb < 2 or mb > 8:
                continue
            ex = exhaustive_decision(field, m, budget=400_000)
            if ex.status == "complete" and fp.verdict != UNKNOWN:
                assert ex.verdict == fp.verdict, (q, m)


def test_monotonicity_in_m():
    """If the divisor-d group is non-synchronizing by an invariant-graph
    witness, every G_{q,m} with d | m is non-synchronizing too."""
    for q in (9, 25, 49, 81):
        ms = [m for m in range(1, q) if (q - 1) % m == 0]
        for d in ms:
            if classify(q, d).verdict != NON_SYNCHRONIZING:
                continue
            for m in ms:
                if m % d == 0:
                    assert classify(q, m).verdict == NON_SYNCHRONIZING, (q, d, m)


def test_odd_extension_even_m_never_equal(sweep_q81):
    """n odd with even m forces omega != chi wherever exact values complete.

    q <= 81 reuses the budgeted session sweep; beyond that (q <= 729) only
    very sparse instances (degree <= 4) are cheap enough to decide exactly.
    Budget-limited attempts are skipped, never asserted.
    """
    from math import ceil

    from paleysync import theta_pair

    checked = 0
    for (q, m), (cert, _) in sweep_q81.items():
        p, n = prime_power(q)
        if n % 2 == 0 or m % 2 or cert.status != "exact":
            continue
        assert cert.omega != cert.chi, (q, m)
        checked += 1
    for q in [x for x in range(83, 730) if _is_odd_prime_power_odd_n(x)]:
        for m in valid_graph_ms(q):
            if m % 2 or (q - 1) // m > 4:
                continue
            field = field_for(q)
            g = build_paley(field, m)
            rep = theta_pair(field, m)
            omega = clique_number(
                g, upper_hint=int(rep.theta_complement + 1e-6), budget=100_000
            )
            if not omega.exact:
                continue
            chi = chromatic_number(
                g,
                lower=max(omega.value, ceil(rep.theta_complement - 1e-6)),
                budget=100_000,
                clique_hint=omega.witness,
            )
            if not chi.exact:
                continue
            assert omega.value != chi.value, (q, m)
            checked += 1
    assert checked >= 40


def _is_odd_prime_power_odd_n(q):
    try:
        p, n = prime_power(q)
    except BadInputError:
        return False
    return p != 2 and n % 2 == 1


def test_prime_extension_necessity(square_field_sweep):
    """For quadratic extensions, an exact omega = chi forces the common value
    to be p and m to divide p + 1."""
    for (q, m), cert in square_field_sweep.items():
        if cert.omega == cert.chi:
            p, n = prime_power(q)
            assert cert.omega == p
            assert (p + 1) % m == 0


def test_nonsynchronizing_witness_product(square_field_sweep):
    """Exhaustive witnesses on single orbitals satisfy omega * alpha = q."""
    for q in (9, 25, 49):
        for m in valid_graph_ms(q):
            result = classify(q, m)
            if result.verdict == NON_SYNCHRONIZING and result.certificate is not None:
                cert = result.certificate
                if cert.alpha is not None:
                    assert cert.omega * cert.alpha == q


def test_classification_json_shape():
    blob = classify(25, 2).to_json_dict()
    assert list(blob) == ["q", "p", "n", "m", "verdict", "reasons", "witness", "status"]
    assert blob["reasons"][0]["rule"] == "Thm 5.2(6)"


def test_exhaustive_cap_reports_skip():
    # (343, 9): primitive, m_bar = 9, no fast path and no factorization
    # witness; the theta LP, which clears its pairs, is taken out
    assert fast_paths(343, 9) is None
    with without_lp():
        result = classify(343, 9, exhaustive_cap=8)
    assert result.verdict == UNKNOWN
    assert result.status == "skipped_exhaustive"


def test_canonical_pair_masks_are_orbit_minima():
    """One pair per orbit of the proper nonempty masks under rotation and
    complement, namely the orbit's least member; orbits built here from
    bit strings, apart from the shifts the enumeration uses."""
    lengths = []
    for width in range(1, 16):
        full = (1 << width) - 1
        seen: set[int] = set()
        reps = []
        for mask in range(1, full):
            if mask in seen:
                continue
            orbit = set()
            for word in (format(mask, f"0{width}b"), format(full ^ mask, f"0{width}b")):
                orbit.update(int(word[s:] + word[:s], 2) for s in range(width))
            seen |= orbit
            reps.append(min(orbit))
        assert list(_canonical_pair_masks(width)) == sorted(reps), width
        assert _canonical_pair_count(width) == len(reps), width
        lengths.append(len(reps))
    assert lengths == [0, 1, 1, 3, 3, 7, 9, 19, 29, 55, 93, 179, 315, 595, 1095]


def test_classification_is_frozen():
    result = classify(25, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.verdict = SYNCHRONIZING
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.reasons[0].rule = "edited"


def test_equal_invariants_certificate_is_verified(monkeypatch):
    """Every "omega = chi" search checks its certificate before it leaves,
    the single orbital's capped search as well as any other union's: an
    improper coloring from the colorability test is refused.  The union
    case runs on GF(25), where omega = 5 divides q and so the colorability
    test is reached; on a prime field no proper union has omega | q.  On
    GF(81) with m = 8 the feasible set is {3}; with the factorization
    witness taken out, the default mode reaches the single orbital's
    search."""
    module = sys.modules["paleysync.classify"]
    monkeypatch.setattr(module, "k_colorable", lambda g, k, **kw: ("sat", (0,) * g.n_vertices, 0))
    with pytest.raises(InvalidWitnessError):
        exhaustive_decision(build_field(5, 2), 2, spectral_prune=False)
    with without_witness(), pytest.raises(InvalidWitnessError):
        exhaustive_decision(build_field(3, 4), 8)


def test_single_orbital_step_on_81_8_with_and_without_its_witness():
    """(81, 8): the single orbital has a hyperplane witness, omega = chi = 3,
    and the walk's witness search over every union finds GF(9) + B with
    S = [0, 2, 4, 6]; neither spends a node.  With the witness taken out
    the single orbital is searched like any other union: its
    3-colorability test runs out at 1 node and finds omega = chi = 3 by
    50."""
    field = build_field(3, 4)
    meter = _Budget(0)
    subset, cert = factorization_certificate(field, 8, meter, single=True)
    assert (subset, cert.omega, cert.chi, meter.spent) == ([0], 3, 3, 0)
    result = exhaustive_decision(field, 8, budget=meter)
    assert (result.verdict, result.witness["orbital_subset"], result.witness["omega"]) == (
        NON_SYNCHRONIZING, [0, 2, 4, 6], 9)
    assert [r.rule for r in result.reasons] == ["subspace factorization"]
    assert meter.spent == 0
    with without_witness():
        result = exhaustive_decision(field, 8, budget=1)
        assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
        assert result.reasons[0].detail == "Delta-subset [0]: 3-colorability undecided"
        result = exhaustive_decision(field, 8, budget=50)
    assert (result.verdict, result.witness["orbital_subset"], result.witness["omega"]) == (
        NON_SYNCHRONIZING, [0], 3)
    assert result.reasons[-1].detail == "Delta-subset [0] has omega=chi=3"


def test_single_orbital_search_moves_on_when_omega_and_chi_differ(monkeypatch):
    """On (81, 8) with its witness and the theta LP taken out, each way the
    single orbital's omega and chi can differ sends the walk past [0] to the
    next pair: a
    feasible set of {9} that the clique number 3 misses, and a colorability
    test that answers unsat."""
    module = sys.modules["paleysync.classify"]
    field = build_field(3, 4)
    built = []
    union_graph = module.union_graph

    def traced_union(family, subset):
        built.append(tuple(subset))
        return union_graph(family, subset)

    monkeypatch.setattr(module, "union_graph", traced_union)
    with without_witness(), without_lp():
        monkeypatch.setattr(module, "feasible_clique_sizes", lambda field, mb: {9})
        result = exhaustive_decision(field, 8, budget=10**4)
        assert built[:2] == [(0,), (0, 1)]
        assert result.witness["orbital_subset"] != [0]
        built.clear()
        monkeypatch.setattr(module, "feasible_clique_sizes", lambda field, mb: {3})
        monkeypatch.setattr(module, "k_colorable", lambda g, k, **kw: ("unsat", None, 0))
        result = exhaustive_decision(field, 8, budget=10**4)
    assert built[:2] == [(0,), (0, 1)]
    assert (result.verdict, result.status) == (SYNCHRONIZING, "complete")
    assert result.reasons[-1].detail.endswith("(19 canonical pairs, 19 union graphs searched)")


def test_omega_equals_chi_agrees_on_a_union_and_its_complement():
    """The lemma in the classify module docstring, which lets the orbital
    walk search one member per complement pair: on every canonical pair with
    q <= 81 and 2 <= m_bar <= 8 (190 pairs), a union and its complement get
    the same outcome whenever both searches finish, and omega | q on "eq".
    At 20,000 nodes per search both members of every pair finish."""
    pairs = finished = 0
    for q in odd_prime_powers(81):
        field = field_for(q)
        families = {}
        for m in range(2, q):
            if (q - 1) % m == 0 and 2 <= normalize_params(q, m).m_bar <= 8:
                families.setdefault(normalize_params(q, m).m_bar, orbital_family(field, m))
        for mb, family in families.items():
            full = (1 << mb) - 1
            for mask in _canonical_pair_masks(mb):
                pairs += 1
                outcomes = []
                for member in (mask, full ^ mask):
                    g = union_graph(family, [i for i in range(mb) if member >> i & 1])
                    kind, omega_res, _ = _omega_equals_chi(g, _Budget.of(20_000))
                    assert kind != "eq" or q % omega_res.value == 0, (q, mb, member)
                    outcomes.append(kind)
                if "timeout" not in outcomes:
                    finished += 1
                    assert outcomes[0] == outcomes[1], (q, mb, mask, outcomes)
    assert pairs == finished == 190


def test_the_orbital_walk_builds_one_union_graph_per_pair(monkeypatch):
    """One search per canonical pair: a pair's complement is never built.
    (121, 5) has 3 pairs; the single orbital is settled without a union
    graph in the default mode, so 2 are built there and 3 without the
    spectral filter.  The theta LP, which clears the other 2 with no graph,
    is taken out."""
    built = []

    def traced_union(family, subset):
        built.append(tuple(subset))
        return union_graph(family, subset)

    monkeypatch.setattr(sys.modules["paleysync.classify"], "union_graph", traced_union)
    assert _canonical_pair_count(5) == 3
    for prune, expected in ((True, 2), (False, 3)):
        built.clear()
        with without_lp():
            result = exhaustive_decision(field_for(121), 5, spectral_prune=prune)
        assert (result.verdict, result.status) == (SYNCHRONIZING, "complete")
        assert len(built) == len(set(built)) == expected


@pytest.mark.parametrize("q", [343, 361])
def test_one_search_per_pair_decides_m9_within_budget(q):
    """(343, 9) and (361, 9): 29 canonical pairs, each one search; at 10^5
    nodes every pair finishes, where searching complements as well ran out.
    The walk is called directly: classify decides (361, 9) by the Redei rule.
    The theta LP, which clears every pair but the single orbital, is taken
    out."""
    with without_lp():
        result = exhaustive_decision(field_for(q), 9, budget=10**5)
    assert (result.verdict, result.status) == (SYNCHRONIZING, "complete")
    assert result.reasons[-1].detail.endswith("(29 canonical pairs, 28 union graphs searched)")


def _affine_orbit_minima(width, mult):
    """The least member of each orbit of the proper nonempty masks under
    i -> u*i + s (u a power of mult) and complement, from bit strings."""
    full = (1 << width) - 1
    units = [pow(mult, a, width) for a in range(width)]
    seen, reps = set(), []
    for mask in range(1, full):
        if mask in seen:
            continue
        orbit = set()
        for x in (mask, full ^ mask):
            for u in units:
                word = "".join(str(x >> (u * i % width) & 1) for i in range(width))[::-1]
                orbit.update(int(word[s:] + word[:s], 2) for s in range(width))
        seen |= orbit
        reps.append(min(orbit))
    return sorted(reps)


def test_frobenius_pair_count_matches_the_walk():
    """For every width 2..16 and every unit u mod width (each is p mod width
    for some prime p), the Burnside count equals the length of the walk, and
    up to width 10 the walk is the orbit minima built from bit strings."""
    for width in range(2, 17):
        for u in range(1, width):
            if gcd(u, width) == 1:
                masks = list(_canonical_pair_masks(width, u))
                assert _canonical_pair_count(width, u) == len(masks), (width, u)
                if width <= 10:
                    assert masks == _affine_orbit_minima(width, u), (width, u)
    assert [_canonical_pair_count(11, 3), _canonical_pair_count(9, 7)] == [21, 13]
    assert [_canonical_pair_count(11), _canonical_pair_count(9)] == [93, 29]


def test_the_lp_decides_the_rows_past_the_cap_with_no_search():
    """scan-729's last four rows, past the cap of 8: the filter clears the
    single orbital, the theta LP every other pair of the Frobenius-reduced
    walk, and no union graph is built."""
    for q, m, pairs in ((243, 11, 21), (243, 22, 21), (343, 9, 13), (343, 18, 13)):
        result = classify(q, m, exhaustive_cap=8)
        assert (result.verdict, result.status) == (SYNCHRONIZING, "complete"), (q, m)
        assert [r.rule for r in result.reasons] == ["Thm 4.6 spectral", "Delsarte LP",
                                                    "Lemma 2.3 exhaustive"]
        assert result.reasons[-1].detail.endswith(
            f", {pairs - 1} pairs cleared by the theta LP and 1 by the spectral filter"
            f" ({pairs} canonical pairs, 0 union graphs searched)")


def test_the_walk_past_the_cap_costs_a_node_per_lp_and_stops_at_its_cap():
    """Past the cap each LP test costs one node and the single orbital none:
    (343, 9) spends nothing before its walk of 13 pairs, so 12 nodes decide
    it and at 11 the walk runs out at its last pair.  A row wider than
    LP_WALK_CAP is skipped before its walk: (2197, 18), and (3125, 142)
    without its witness."""
    assert classify(343, 9, budget=12, exhaustive_cap=8).verdict == SYNCHRONIZING
    result = classify(343, 9, budget=11, exhaustive_cap=8)
    assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
    assert result.reasons[-1] == Reason(
        "budget", "exhaustive check incomplete: budget spent, 1 of 13 canonical pairs not reached")
    assert LP_WALK_CAP == 16
    result = classify(2197, 18, exhaustive_cap=8)
    assert (result.verdict, result.status) == (UNKNOWN, "skipped_exhaustive")
    assert result.reasons == (Reason(
        "skipped", "m_bar=18 exceeds the exhaustive cap 8 and the LP walk cap 16"),)
    with without_witness():
        result = classify(3125, 142, budget=1, exhaustive_cap=8)
    assert (result.verdict, result.status) == (UNKNOWN, "skipped_exhaustive")
    assert result.reasons[0].detail.endswith("and the LP walk cap 16")


def test_a_pair_the_lp_leaves_skips_a_row_past_the_cap(monkeypatch):
    """Past the cap a pair the LP does not clear is not searched: the row is
    skipped at that pair."""
    monkeypatch.setattr(sys.modules["paleysync.classify"], "_lp_clears",
                        lambda periods, params, mask, meter: mask != 3)
    result = classify(343, 9, exhaustive_cap=8)
    assert (result.verdict, result.status) == (UNKNOWN, "skipped_exhaustive")
    assert result.reasons[0].detail == (
        "m_bar=9 exceeds the exhaustive cap 8, and Delta-subset [0, 1] is not cleared without search")


def test_a_witness_search_that_spends_the_budget_says_so():
    """(6561, 5): the factorization witness search, which finds no B in
    2,186 nodes, runs out at 100, and the reason names it."""
    result = classify(6561, 5, budget=100, exhaustive_cap=8)
    assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
    assert result.reasons == (Reason("budget", "budget spent in the factorization witness search"),)


def test_pruned_and_reference_walks_agree_to_q_121():
    """The Frobenius-reduced walk with its witness, filter and LP against the
    rotation walk that searches every pair: every (q, m) with q <= 121 and
    2 <= m_bar <= 8, at 20,000 nodes.  The rows whose reference search does
    not finish there are listed; the pruned walk decides each of them."""
    unfinished = []
    for q in odd_prime_powers(121):
        field = field_for(q)
        for m in range(2, q):
            if (q - 1) % m or not 2 <= normalize_params(q, m).m_bar <= 8:
                continue
            pruned = exhaustive_decision(field, m, budget=20_000)
            reference = exhaustive_decision(field, m, budget=20_000, spectral_prune=False)
            assert pruned.status == "complete", (q, m)
            if reference.status != "complete":
                unfinished.append((q, m))
            else:
                assert pruned.verdict == reference.verdict, (q, m)
    assert unfinished == [(121, 3), (121, 4), (121, 8)]
