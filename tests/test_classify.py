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
from paleysync.classify import _canonical_pair_count, _canonical_pair_masks, _least_image, _omega_equals_chi
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
    # arithmetic fast path; every proper union is the residue graph or its
    # complement, up to rotation, and the theta LP clears that pair without
    # any search: Thm 5.2(2)'s one-graph criterion.  (625, 3) also visits
    # [0, 1], the complement of a class, as n = 4 is even.
    for q, sets in ((343, 1), (625, 2)):
        result = classify(q, 3)
        assert result.verdict == SYNCHRONIZING
        assert result.status == "complete"
        assert result.reasons[0].rule == "Delsarte LP"
        assert result.reasons[-1].detail.endswith(f"({sets} sets visited, 0 union graphs searched)")

def test_classify_past_the_fast_paths_depends_on_m_only_through_m_bar():
    """Two rows with the same q and m_bar have the same orbital unions, so
    past the fast paths classify gives them the same verdict, status and
    reason trace: every q <= 729."""
    rows = {}
    for q in odd_prime_powers(729):
        for m in range(1, q):
            if (q - 1) % m == 0 and fast_paths(q, m) is None:
                rows.setdefault((q, normalize_params(q, m).m_bar), []).append(m)
    shared = {key: ms for key, ms in rows.items() if len(ms) > 1}
    assert shared[(343, 3)] == [3, 6]
    for (q, _), ms in shared.items():
        results = [classify(q, m) for m in ms]
        traces = {(r.verdict, r.status, r.reasons) for r in results}
        assert len(traces) == 1, (q, ms, traces)


def test_classify_budget_exhaustion_is_unknown():
    # (961, 5) is decided by the Redei fast path; the reference walk, which
    # searches every pair, is not (it needs 2,345 nodes)
    result = exhaustive_decision(field_for(961), 5, budget=1_000, spectral_prune=False)
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
    GF(81) with m = 8 the bracket of the single orbital holds 3; with the
    factorization witness taken out, the sweep searches it."""
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
    the sweep searches the single orbital, whose bracket holds 3: at budget
    8 its LP takes every node, one per orbital, and its 3-colorability test
    runs out at once, one node less leaves the LP unpaid, and by 57 it finds
    omega = chi = 3."""
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
        result = exhaustive_decision(field, 8, budget=8)
        assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
        assert result.reasons[0].detail == "Delta-subset [0]: 3-colorability undecided"
        result = exhaustive_decision(field, 8, budget=7)
        assert result.reasons[0].detail.endswith("after 0 sets visited, before Delta-subset [0]")
        result = exhaustive_decision(field, 8, budget=57)
    assert (result.verdict, result.witness["orbital_subset"], result.witness["omega"]) == (
        NON_SYNCHRONIZING, [0], 3)
    assert result.reasons[-1].detail == "Delta-subset [0] has omega=chi=3"


def test_single_orbital_search_moves_on_when_omega_and_chi_differ(monkeypatch):
    """On (81, 8) with its witness taken out, each way the single orbital's
    omega and chi can differ sends the sweep past [0] to the next set: a
    bracket [9, 81] that the clique number 3 falls below, and, with every
    bracket left open, a colorability test that answers unsat.  The sweep
    then searches one union per family under i -> 3^a*i + s, all 25."""
    module = sys.modules["paleysync.classify"]
    field = build_field(3, 4)
    built = []
    union_graph = module.union_graph

    def traced_union(family, subset):
        built.append(tuple(subset))
        return union_graph(family, subset)

    monkeypatch.setattr(module, "union_graph", traced_union)
    monkeypatch.setattr(module, "theta_bounds", lambda periods, subset, size: (9.0 if subset == [0] else 1.0, 1.0))
    with without_witness():
        result = exhaustive_decision(field, 8, budget=10**4)
    assert built[:2] == [(0,), (0, 1)]
    assert result.witness["orbital_subset"] != [0]
    built.clear()
    with without_witness(), without_lp():
        monkeypatch.setattr(module, "k_colorable", lambda g, k, **kw: ("unsat", None, 0))
        result = exhaustive_decision(field, 8, budget=10**4)
    assert built[:2] == [(0,), (0, 1)]
    assert (result.verdict, result.status) == (SYNCHRONIZING, "complete")
    assert result.reasons[-1].detail.endswith("(25 sets visited, 25 union graphs searched)")


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
    (121, 5) has 3 pairs under rotation and complement, and the reference
    walk builds one graph for each.  The sweep with every bracket left open
    builds one per set it visits, 6 under rotation (11 is 1 mod 5), never
    the same one twice."""
    built = []

    def traced_union(family, subset):
        built.append(tuple(subset))
        return union_graph(family, subset)

    monkeypatch.setattr(sys.modules["paleysync.classify"], "union_graph", traced_union)
    assert _canonical_pair_count(5) == 3
    for prune, expected in ((True, 6), (False, 3)):
        built.clear()
        with without_lp():
            result = exhaustive_decision(field_for(121), 5, spectral_prune=prune)
        assert (result.verdict, result.status) == (SYNCHRONIZING, "complete")
        assert len(built) == len(set(built)) == expected


@pytest.mark.parametrize("q", [343, 361])
def test_one_search_per_pair_decides_m9_within_budget(q):
    """(343, 9) and (361, 9): 29 canonical pairs, each one search; at 10^5
    nodes the reference walk finishes every pair, where searching
    complements as well ran out.  The walk is called directly: classify
    decides (361, 9) by the Redei rule and (343, 9) by the theta LP."""
    result = exhaustive_decision(field_for(q), 9, budget=10**5, spectral_prune=False)
    assert (result.verdict, result.status) == (SYNCHRONIZING, "complete")
    assert result.reasons[-1].detail.endswith("(29 canonical pairs, 29 union graphs searched)")


def _affine_orbit(mask, width, mult):
    """The images of mask under i -> u*i + s (u a power of mult), from bit
    strings."""
    orbit = set()
    for u in [pow(mult, a, width) for a in range(width)]:
        word = "".join(str(mask >> (u * i % width) & 1) for i in range(width))[::-1]
        orbit.update(int(word[s:] + word[:s], 2) for s in range(width))
    return orbit


def test_the_sweep_keeps_the_least_member_of_each_orbit():
    """For every width 2..10 and every unit u mod width (each is p mod width
    for some prime p), the sweep's representative of every proper nonempty
    mask, taken over the powers of u, is the least member of the orbit
    built from bit strings."""
    for width in range(2, 11):
        for u in range(1, width):
            if gcd(u, width) == 1:
                units = tuple(sorted({pow(u, a, width) for a in range(width)}))
                for mask in range(1, (1 << width) - 1):
                    assert _least_image(mask, width, units) == min(_affine_orbit(mask, width, u)), (width, u, mask)
    assert len({_least_image(mask, 9, (1, 4, 7)) for mask in range(1, 511)}) == 26


def test_the_lp_decides_the_rows_past_the_cap_with_no_search():
    """scan-729's four rows with m_bar > 8 past the fast paths and the
    witness: the theta sweep clears every set it visits, 20 on (243, m) and
    3 on (343, m), and no union graph is built."""
    for q, m, sets in ((243, 11, 20), (243, 22, 20), (343, 9, 3), (343, 18, 3)):
        result = classify(q, m)
        assert (result.verdict, result.status) == (SYNCHRONIZING, "complete"), (q, m)
        assert [r.rule for r in result.reasons] == ["Delsarte LP", "Lemma 2.3 exhaustive"]
        assert result.reasons[0].detail.startswith(f"theta sweep: {sets} sets visited,")
        assert result.reasons[-1].detail.endswith(f"({sets} sets visited, 0 union graphs searched)")


def test_the_sweep_is_decided_at_a_budget_of_its_lp_nodes():
    """The LP of a set S the sweep visits costs |S| * m_bar nodes, and
    neither row spends one before it: (343, 9) visits 3 sets for 45 nodes
    and (2197, 18) 48 for 2,898, so a budget of that many decides each, and
    one node less leaves it Unknown with a reason that names the set whose
    LP it cannot pay for."""
    for q, m, sets, nodes, last in ((343, 9, 3, 45, [0, 3]), (2197, 18, 48, 2898, [0, 4, 6, 9])):
        result = classify(q, m, budget=nodes)
        assert (result.verdict, result.status) == (SYNCHRONIZING, "complete"), (q, m)
        assert result.reasons[-1].detail.endswith(f"({sets} sets visited, 0 union graphs searched)")
        result = classify(q, m, budget=nodes - 1)
        assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted"), (q, m)
        assert result.reasons == (Reason("budget", f"exhaustive check incomplete: budget spent after"
                                                   f" {sets - 1} sets visited, before Delta-subset {last}"),)


def test_an_open_bracket_is_searched_before_the_row_is_synchronizing(monkeypatch):
    """With the LP of [0, 1] on (343, 9) patched to the bracket [7, 7], which
    holds p, that union is searched (omega = 4 there, 7 clique nodes): at
    no budget is the row Synchronizing without the search, 133 nodes decide
    it (126 of them for the LPs of its 6 sets), and at budget 27, where the
    LP of [0, 1] takes the last 18 nodes, the row is Unknown with a reason
    that names the set."""
    module = sys.modules["paleysync.classify"]
    theta_bounds, union_graph = module.theta_bounds, module.union_graph
    monkeypatch.setattr(module, "theta_bounds", lambda periods, subset, size: (
        (7.0, 49.0) if subset == [0, 1] else theta_bounds(periods, subset, size)))
    built = []
    monkeypatch.setattr(module, "union_graph", lambda family, subset: (
        built.append(list(subset)) or union_graph(family, subset)))
    for budget in range(134):
        built.clear()
        result = classify(343, 9, budget=budget)
        assert result.verdict == UNKNOWN or built == [[0, 1]], budget
        assert (result.verdict == SYNCHRONIZING) == (budget == 133), budget
    assert result.reasons[-1].detail.endswith("(6 sets visited, 1 union graphs searched)")
    assert classify(343, 9, budget=27).reasons == (Reason("budget", "Delta-subset [0, 1]: clique bounds [4, 7]"),)


def test_a_witness_search_that_spends_the_budget_says_so():
    """(6561, 5): the factorization witness search, which finds no B in
    2,186 nodes, runs out at 100, and the reason names it."""
    result = classify(6561, 5, budget=100)
    assert (result.verdict, result.status) == (UNKNOWN, "budget_exhausted")
    assert result.reasons == (Reason("budget", "budget spent in the factorization witness search"),)


def test_pruned_and_reference_walks_agree_to_q_121():
    """The witness and the theta sweep against the rotation walk that
    searches every pair: every (q, m) with q <= 121 and 2 <= m_bar <= 8, at
    20,000 nodes.  The rows whose reference search does not finish there are
    listed; the sweep decides each of them."""
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
