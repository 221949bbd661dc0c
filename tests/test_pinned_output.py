"""Pinned classifier output.

Each group of the corpus below is serialized (the `Classification` JSON with
its certificate and spectral report, or the `scan` CSV and exit code) and
hashed; the digests were recorded before the omega = chi searches of
`classify.py` were folded into one.  The search-only, gf81-8 and default
digests were re-recorded when `invariants.equal_certificate` took over the
certificate of an omega = chi = k found by search: its alpha is q/k, read off
the coloring with the class of vertex 0 as witness, where an independence
search had given another witness, or alpha None on a timeout.  With the
alpha fields (alpha, independent_set, bounds.alpha) masked, the corpus did not
change; 27 records differ, 19 in the witness alone and 8 from None to q/k.
The search-only and gf81-8 digests were re-recorded again when every search
under one call came to share one node budget: 99 records differ, every one
with b in {1, 5} and every one a call that spent more than b nodes when each
search had b nodes to itself; a spent budget now ends the orbital-union loop
with one reason naming the pairs not reached.
The search-only digest was re-recorded once more when the clique search of a
Cayley graph came to run inside N(0) with vertex 0 fixed, which spends fewer
nodes: 66 of its 102 records differ, every one of them an Unknown at the old
digest.  7 became decided (6 Synchronizing, (9, 2) at b = 1
NonSynchronizing), and 59 stay Unknown with another budget reason, 6 of them
reaching further pairs and none fewer; no decided verdict changed.
The paley-certificate digest was recorded before the single-orbital search
took its clique cap from the one feasible value and the subfield witness
hints were removed, and neither change moved it.  It holds timeouts whose
alpha bound is the theta cap, such as (101, 10) with alpha in [26, 34],
which would widen to [26, 91] without it.
The paley-certificate digest was re-recorded when a timeout certificate
came to carry the coloring behind chi's upper bound instead of null.  19 of
its 37 records differ, each a timeout whose coloring search did not finish
and each in `coloring` alone; with `coloring` masked on the timeouts the
corpus did not change.
The search-only and default digests were re-recorded when the orbital walk
came to search one member per complement pair (the lemma in the classify
module docstring) and to call an omega that does not divide q "neq" with no
coloring search.  76 of 133 records differ and no decided verdict or
witness changed: in search-only 65 of 102, 26 of them Unknowns that became
Synchronizing, 33 Unknowns that reach further pairs (none fewer) and 6 in
the "union graphs searched" count alone; in default 11 of 31, each in that
count alone.

The paley-certificate digest was re-recorded when the factorization
certificate (a subfield A and an F_p-subspace B with A + B = GF(q))
replaced the half-degree subfield certificate, and the no-search group was
added for the Redei rule and the factorization witness, in classify and in
the walk's single-orbital step.  1 of 37 paley-certificate records differs:
(125, 31) is now certified by a hyperplane, in its clique, independent set
and coloring alone, with no omega, alpha, chi or status changed.  gf81-8
kept its digest by taking the walk without the witness, so that it still
pins the single-orbital search: a colorability timeout at b = 1 and an
exact-search witness after it.  With the witness, (81, 8) is certified by a
hyperplane at every budget; the no-search group holds it at b = 1.

The classify-large, gf81-8, default and no-search digests were re-recorded
when the orbital walk became the one place where omega = chi is decided:
the walk opens with the factorization witness over every union, the single
orbital is searched like any other union once the spectral filter leaves
it a feasible value, and classify lost its own step for m in {2, 3}.  13
of 41 records differ, and no verdict or status changed:
- classify-large, 1 of 3: (343, 3) is cleared by the spectral filter as the
  walk's one pair, so its first rule reads "Thm 4.6 spectral" for
  "Thm 5.2(2)" and the walk's closing reason follows it;
- gf81-8, 1 of 3: the b = 1 timeout reads as any union's, "Delta-subset
  [0]: 3-colorability undecided"; the group takes the witness out to reach
  that search;
- default, 10 of 31: each NonSynchronizing record is now led by the
  witness reason, on the same subset; 4 of them, (25, m) for m in
  {4, 8, 12, 24}, carry the witness's clique (and for m in {4, 8} its
  independent set and coloring) in place of the search's;
- no-search, 1 of 4: the walk on (81, 8) finds GF(9) + B on the subset
  [0, 2, 4, 6], omega = chi = 9, before the single orbital's hyperplane
  witness on [0].

The classify-large, default and gf81-8 digests were re-recorded when the
walk came to clear pairs by Delsarte's theta LP and to take one pair per
family under rotation, Frobenius and complement.  22 of 41 records
differ, and no verdict or status changed:
- default, 21 of 31: the closing reason of every Synchronizing walk now
  counts the pairs cleared by the LP and by the spectral filter; in 10 of
  them, each with one pair that the filter clears, that count is all that
  differs; in the other 11, (11, 5), (11, 10), (13, 6), (13, 12),
  (17, 4), (17, 8), (17, 16), (19, 9), (19, 18), (23, 11) and (23, 22),
  the LP clears every pair the search took before, so 0 union graphs are
  searched where 2 to 92 were, and a "Delsarte LP" reason precedes the
  closing one;
- classify-large, 1 of 3: (343, 3), the closing reason's count alone;
- gf81-8, 1 of 3: the b = 1 timeout counts 14 pairs (Frobenius, 3i mod
  8, joins rotation), where it counted 19: "13 of 14 canonical pairs not
  reached" for "18 of 19".

The classify-large, default and gf81-8 digests were re-recorded when the
theta sweep replaced the Frobenius-reduced pair walk and its single-orbital
filter, and the sweep group was added for its budget reason.  23 of the
41 earlier records differ, and no verdict or status changed:
- default, 21 of 31: every Synchronizing record, each on a prime field,
  where the single class is the one set visited (p^floor(n/2) = 1 stops it
  from growing), now reads "Delsarte LP" ("theta sweep: 1 sets visited",
  cleared with no search) and closes with "(1 sets visited, 0 union graphs
  searched)"; it read "Thm 4.6 spectral", in 11 of them a "Delsarte LP"
  pair count, and a closing reason that counted canonical pairs;
- classify-large, 1 of 3: (343, 3), the same two reasons;
- gf81-8, 1 of 3: the b = 1 timeout, "Delta-subset [0]: 3-colorability
  undecided", is now the only reason: the sweep ends at its first timeout,
  so "13 of 14 canonical pairs not reached" no longer follows it.

When the LP of a set S came to cost |S| * m_bar nodes, where it cost one,
the gf81-8 group moved its budgets from 1, 5 and 50 to 8, 12 and 57, and
the sweep group from 2 and 3 to 44 and 45, so that each search and each
budget reason gets the nodes it had; no digest moved.

The paley-certificate digest was re-recorded when the independence search
of a graph with a multiplier came to branch once per H-orbit of N(0) and to
open with one greedy dive per orbit.  28 of its 37 records differ, and no
omega, clique or bound widened:
- 24 in `independent_set` alone: (101, 2), (101, 50), (103, 3), (103, 17),
  (103, 51), (107, 53), (109, 2), (109, 9), (109, 18), (109, 27),
  (109, 54), (113, 2), (113, 7), (113, 14), (113, 28), (113, 56),
  (121, 5), (121, 10), (121, 15), (121, 20), (121, 30), (121, 60),
  (125, 2) and (125, 62);
- 4 tightened, each with alpha exact where it was a bracket: (101, 5) and
  (113, 4) stay timeouts, with chi in [6, 8] for [4, 8] and in [9, 11] for
  [7, 11]; (101, 25) became exact, and (109, 3) too, with chi = 13 where
  chi was in [7, 15].

The search-only digest was re-recorded when the clique search of a graph
with a multiplier came to branch once per H-orbit of N(0), as the
independence search does, where it branched once per vertex of N(0).  It
spends fewer nodes, so 10 of its 102 records differ, every one an Unknown
at b = 5, and no decided verdict changed:
- (29, 2), (29, 4), (37, 2), (37, 4), (41, 2) and (49, 3) became
  Synchronizing, their one pair searched within the budget;
- (37, 6) and (37, 12) reach a fourth of their 7 pairs, and (41, 4) and
  (41, 8) the last of their 3, before the budget is spent.

The paley-certificate, gf81-8 and search-only digests were re-recorded
when the clique search of a graph with a multiplier took the incumbent of
the independence search, one greedy dive per orbit from 0, while chi came
to seed its k-tests with the 48-seed greedy start instead of omega's
witness.  So an exact omega witness now contains 0, and no omega, alpha,
chi, bound or status of a certificate changed:
- paley-certificate, 31 of 37, in `clique` alone;
- gf81-8, 2 of 3, the b = 12 and b = 57 witnesses: their clique, and the
  coloring and independent set that the k-test seeded with it finds;
- search-only, 7 of 102, all at q <= 25.  Five differ in their witnesses
  alone: (9, 2) at b = 1 and 5, (9, 4), (9, 8) and (25, 2) at b = 5.
  (25, 4) and (25, 8) at b = 5 became NonSynchronizing, "Delta-subset
  [0, 2] has omega=chi=5", where they were Unknown: seeded with omega's
  witness (0, 1, 2, 3, 4), the subfield GF(5), the 5-test is sat in 2
  nodes, where it took 4 with (1, 8, 10, 17, 24), within the budget left.

The corpus reaches every reason kind the classifier emits: each fast-path
rule, the Redei rule, the factorization witness, the theta sweep and its
budget reason, the exhaustive texts of the sweep and of the reference walk,
the clique-bound and colorability timeouts and an exact-search witness.

A deliberate change of output re-records the digests: print
`{name: _digest(items) for name, items in _corpus().items()}`.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

from paleysync import (
    build_field,
    classify,
    exhaustive_decision,
    normalize_params,
    paley_certificate,
)
from paleysync.cli import _round_floats, run
from paleysync.gf import odd_prime_powers
from conftest import field_for, valid_graph_ms, without_witness

PINNED = {
    "classify": "a208ea5c9a7907d282a418dcf1e4fd9cff892ab59f598bec7251064d19d89649",
    "classify-large": "11dbf59e1311bacece004880ec16540ddf835e25967c3be166840f0c48c218c7",
    "search-only": "855a31537f8c22332a10ffe737a1d86f486f1db286f4e737660a53b3b585feb2",
    "gf81-8": "3a9b243470457d98e0843a740d37e63401b13fab8509023e0f05309b2f50f18a",
    "default": "eadfa649b0a5b4a1eacdae1e845897611367ec517c93d9e173ee2d3225b2168a",
    "scan": "bd986e1cfd58a95a558f5b38226ae8559d70cb62b844dc2b8bd04e8d98dcd3c4",
    "sweep": "e950ca10be8ac484f84ffd5464ad43944ca3f41f931adcb62381cadd0ec503d3",
    "paley-certificate": "81a0f4daff4868b6145cc1c3e2ae5f89e86b9269ad400eaf4c237b201299a702",
    "no-search": "9ba7c44c3dafe5c21e9981612a08fbaf75bba4fa0767756776aa2cd13134bb1e",
}


def _blob(result) -> dict:
    out = result.to_json_dict()
    out["certificate"] = result.certificate.to_json_dict() if result.certificate else None
    out["spectral"] = result.spectral.to_json_dict() if result.spectral else None
    return out


def _divisors(q):
    return [m for m in range(1, q) if (q - 1) % m == 0]


def _corpus() -> dict:
    small = odd_prime_powers(49)
    groups = {
        # fast paths, with and without a budget
        "classify": [
            _blob(classify(q, m, budget=b))
            for q in small
            for m in _divisors(q)
            for b in (None, 1, 30)
        ],
        # the single-graph criterion, cleared by the theta LP, Thm 5.2(5) and
        # (3); the last returns before any field is built
        "classify-large": [_blob(classify(q, m)) for q, m in ((343, 3), (125, 2), (16807, 3))],
        # search-only unions: clique-bound and colorability timeouts, witnesses
        "search-only": [
            _blob(exhaustive_decision(field_for(q), m, budget=b, spectral_prune=False))
            for q in small
            for m in _divisors(q)
            if 2 <= normalize_params(q, m).m_bar <= 8
            for b in (1, 5)
        ],
        # the theta sweep and factorization witnesses
        "default": [
            _blob(exhaustive_decision(field_for(q), m))
            for q in odd_prime_powers(25)
            for m in _divisors(q)
            if normalize_params(q, m).m_bar >= 2
        ],
        # the Redei rule and factorization witnesses on S = [0] and on 5 classes,
        # in classify and in the walk
        "no-search": [_blob(classify(q, m)) for q, m in ((121, 5), (343, 19), (1331, 35))]
        + [_blob(exhaustive_decision(build_field(3, 4), 8, budget=1))],
        # the theta sweep one node short of its 3 LPs' 45 nodes, and at 45
        "sweep": [_blob(classify(343, 9, budget=b)) for b in (44, 45)],
        # exact certificates and theta-capped timeout bounds past q = 81
        "paley-certificate": [
            paley_certificate(field_for(q), m, budget=2000).to_json_dict()
            for q in odd_prime_powers(125)
            if q >= 101
            for m in valid_graph_ms(q)
        ],
    }
    # the single orbital's search after its LP's 8 nodes: a timeout at budget
    # 8, an exact witness after
    with without_witness():
        groups["gf81-8"] = [
            _blob(exhaustive_decision(build_field(3, 4), 8, budget=b)) for b in (8, 12, 57)
        ]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run(["scan", "--q-max", "81"])
    groups["scan"] = [code, stdout.getvalue()]
    return groups


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(_round_floats(items)).encode()).hexdigest()


def test_classifier_output_matches_pinned_digests():
    digests = {name: _digest(items) for name, items in _corpus().items()}
    assert digests == PINNED
