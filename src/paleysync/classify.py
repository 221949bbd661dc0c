"""Synchronization decision engine for the 1-dimensional affine groups
generated by translations and multiplications by m-th power residues.

The pipeline is: input validation (`paley.normalize_params`), cheap
arithmetic fast paths (rule labels below), then the orbital walk,
`exhaustive_decision`, the one place where omega = chi is decided.  By
Lemma 2.3 a row is NonSynchronizing iff some proper union of undirected
orbitals has omega = chi.  The walk first looks for a factorization witness
on any union, then takes one union per canonical pair, under rotation,
Frobenius and complement, each cleared by the theta LP below or else by one
search, `_omega_equals_chi`.  The residue graph (mask 1) is put through the
spectral filter of Thm 4.6 instead, whose one feasible value caps its
clique search; for m_bar <= 3 it is the walk's one pair, and the walk is
then Thm 5.2(2)'s single-graph criterion.  A row past the cap gets the walk
with no search, up to m_bar = LP_WALK_CAP.  One builder,
`_non_synchronizing`, turns a certificate into a verdict.  Every verdict
carries an ordered reason trace naming the rule that fired.

Lemma (Hajos/Redei; Szabo & Sands 2009): on a Cayley graph of GF(q)+, as
every graph here is, omega = chi = k forces k | q and omega = chi = q/k on
the complement.  Proof: as omega * alpha <= q, each of the k color classes
has q/k vertices.  For a k-clique A and a class B, a + b = a' + b' with
a != a' would make b' - b = a - a' an edge inside B, so GF(q) = A + B and
the cliques A + b, b in B, color the complement around its clique B.  So an
omega not dividing q is "neq" untested; the walk searches one member per pair.

Witness (`invariants.factorization_certificate`): conversely, let A be an
F_p-subspace with A minus 0 inside the classes of S, and B one of size
q/|A| with no unit in them.  Then A is a clique of G_S, and two vertices of
one coset x + B differ by a unit of B, so the cosets color G_S properly with
|A| colors: omega = chi = |A|, and the row is NonSynchronizing with no
search.  A is taken to be a subfield GF(p^t), so S is the classes its units
hit.

Theta LP (the prune, rule "Delsarte LP"): for G = G_S, omega(G) <= theta of
the complement <= chi(G) (Lovasz 1979), so omega = chi = k forces both
theta = k and, by the lemma, k = p^t; a union whose theta is provably no
power of p is cleared.  theta of the complement of G_S is Delsarte's LP
(Delsarte 1973; Schrijver 1979): the largest sum of f over GF(q) for f with
f(0) = 1, f zero off 0 and the classes of S, and every character sum of f
nonnegative.  Class-constant weights are exact: multiplying by an m_bar-th
power fixes every class, so averaging f over those multipliers keeps it
feasible with the same sum.  With f = x_i on class i, of `size` elements,
the sum is 1 + size * sum(x) and the character of gamma^j gives the row
1 + sum_i x_i * eta_(i+j mod m_bar) >= 0.  On a vertex-transitive graph
theta(G) * theta(complement) = q (Lovasz 1979), and the complement of G_T
is G_S, so weights for S and for T, which give theta's lower bounds L_S
and L_T, put theta of the complement of G_S in [L_S, q/L_T]; one LP gives
both, the weights for T from its dual (`spectral.theta_bounds`).  A pair
{S, T} is cleared when that bracket, widened by THETA_MARGIN = 2^-40
relative, holds no power of p.  Each set of weights is checked in floats
with an explicit slop (`theta_bounds`); the margin lies far above the
rounding of the final products and quotients.  Frobenius
x -> x^p maps the class gamma^i * H onto gamma^(p*i) * H and G_S onto G_pS,
so a pair decides the family under i -> p^a * i + s as well.

Redei n=2 (a fast path): a row with n = 2 that reaches it has
gcd(m, p+1) = 1 and is Synchronizing.  Redei's theorem (Redei 1965, as
stated in Szabo & Sands, Factoring Groups into Subsets, 2009): "if a finite
abelian group is the direct sum of subsets, each of prime order and each
containing 0, then one of the subsets is a subgroup."  Proof: omega = chi =
k on a proper nonempty union G_S has 1 < k < q and k | q = p^2 (the lemma),
so k = p and GF(q) = A + B with a p-clique A and a color class B of size p,
both translated to contain 0.  By the theorem A or B is a subgroup of order
p, an F_p-line L, and L minus 0 is v * GF(p)*, the classes
log(v) + (p+1)j mod m_bar for j = 0..p-2.  As m_bar | (p-1)(p+1) and
gcd(m_bar, p+1) = 1, m_bar divides p - 1, so these p - 1 values hit every
class.  L = A would put every class in S, and L = B none: S is not proper.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field as dataclass_field
from math import gcd

from .errors import BadInputError
from .gf import FieldTables, build_field, is_prime
from .invariants import (
    InvariantCertificate,
    _Budget,
    clique_number,
    equal_certificate,
    factorization_certificate,
    k_colorable,
)
from .paley import (
    Graph,
    PaleyParams,
    iter_bits,
    normalize_params,
    orbital_family,
    union_graph,
)
from .spectral import (
    THETA_MARGIN,
    SpectralReport,
    feasible_clique_sizes,
    gauss_periods,
    theta_bounds,
    theta_pair,
)

SYNCHRONIZING = "Synchronizing"
NON_SYNCHRONIZING = "NonSynchronizing"
UNKNOWN = "Unknown"

# Stable rule identifiers used in reason traces and reports.
RULE_IMPRIMITIVE = "Lemma 3.1 imprimitive"
RULE_TWO_HOMOGENEOUS = "2-homogeneous"
RULE_PRIME_DEGREE = "prime degree"
RULE_GCD = "Thm 5.2(4)"
RULE_ODD_M2 = "Thm 5.2(5)"
RULE_QUADRATIC = "Thm 5.2(6)"
RULE_REPUNIT = "Thm 5.2(3)"
RULE_REDEI = "Redei n=2"
RULE_FACTORIZATION = "subspace factorization"
RULE_EXHAUSTIVE = "Lemma 2.3 exhaustive"
RULE_SPECTRAL = "Thm 4.6 spectral"
RULE_DELSARTE = "Delsarte LP"
RULE_BUDGET = "budget"
RULE_SKIPPED = "skipped"

# widest m_bar whose orbital walk a row past the exhaustive cap gets: the
# walk runs over 2^(m_bar-2) odd masks, so a wider one is skipped at once
LP_WALK_CAP = 16


@dataclass(frozen=True)
class Reason:
    rule: str
    detail: str

    def to_json_dict(self) -> dict:
        return {"rule": self.rule, "detail": self.detail}


@dataclass(frozen=True)
class Classification:
    q: int
    p: int
    n: int
    m: int
    verdict: str
    reasons: tuple[Reason, ...]
    witness: dict | None
    status: str  # "complete" | "budget_exhausted" | "skipped_exhaustive"
    certificate: InvariantCertificate | None = dataclass_field(default=None, repr=False)
    spectral: SpectralReport | None = dataclass_field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "n": self.n,
            "m": self.m,
            "verdict": self.verdict,
            "reasons": [r.to_json_dict() for r in self.reasons],
            "witness": self.witness,
            "status": self.status,
        }


def primitivity(q: int, m: int) -> bool:
    """True iff the residue multiplier group acts irreducibly: r = (q-1)/m
    divides no p^i - 1 for 1 <= i <= n-1 (vacuously true for prime q)."""
    params = normalize_params(q, m)
    return all((params.p**i - 1) % params.r for i in range(1, params.n))


def fast_paths(q: int, m: int) -> Classification | None:
    """Apply the first conclusive arithmetic rule; None when none fires."""
    params = normalize_params(q, m)
    p, n, r, mb = params.p, params.n, params.r, params.m_bar

    def done(verdict: str, rule: str, detail: str) -> Classification:
        return Classification(q, p, n, m, verdict, (Reason(rule, detail),), None, "complete")

    for i in range(1, n):
        if (p**i - 1) % r == 0:
            return done(
                NON_SYNCHRONIZING,
                RULE_IMPRIMITIVE,
                f"r={r} divides p^{i}-1={p**i - 1}: invariant partition exists",
            )
    if mb == 1:
        return done(
            SYNCHRONIZING,
            RULE_TWO_HOMOGENEOUS,
            "m_bar=1: the single undirected orbital is complete",
        )
    if n == 1:
        return done(
            SYNCHRONIZING,
            RULE_PRIME_DEGREE,
            f"degree {q} is prime: a uniform regular partition would need a part count"
            f" strictly between 1 and {q} dividing {q}",
        )
    if n % 2 == 0:
        half = p ** (n // 2) + 1
        d = gcd(m, half)
        if d != 1:
            rule = RULE_QUADRATIC if (n == 2 and m in (2, 3)) else RULE_GCD
            return done(
                NON_SYNCHRONIZING,
                rule,
                f"gcd(m={m}, p^(n/2)+1={half}) = {d} != 1",
            )
    if n % 2 == 1 and m == 2:
        return done(SYNCHRONIZING, RULE_ODD_M2, f"n={n} odd and m=2")
    if n == 2 and m == 3:
        return done(SYNCHRONIZING, RULE_QUADRATIC, f"3 does not divide p+1={p + 1}")
    if n == 2:
        return done(
            SYNCHRONIZING,
            RULE_REDEI,
            f"gcd(m={m}, p+1={p + 1}) = 1: by Redei's theorem no proper orbital union"
            " has omega = chi",
        )
    if m in (2, 3) and is_prime(n):
        repunit = (q - 1) // (p - 1)
        if repunit % m:
            return done(
                SYNCHRONIZING,
                RULE_REPUNIT,
                f"m={m} does not divide 1+p+...+p^(n-1)={repunit}",
            )
    return None


def _omega_equals_chi(g: Graph, meter: _Budget, k: int | None = None):
    """Decide omega(g) = chi(g), the one per-graph question of Lemma 2.3.

    Runs the maximum-clique search, then tests colorability at omega; both
    draw on the caller's meter.  Given the one feasible common value k of a
    residue graph (theta of its complement, so omega <= k), the clique
    search is capped at k.  An omega != k, or one not dividing q (the
    module's lemma), is "neq" with no coloring search.  Returns (outcome,
    omega_res, cert): outcome "eq" | "neq" | "timeout", omega_res the clique
    search (not exact when that search timed out), and, for "eq" only, the
    certificate of omega = chi that `equal_certificate` builds from the
    clique and coloring and checks against g: no witness leaves unverified.
    """
    omega_res = clique_number(g, upper_hint=k, budget=meter)
    if not omega_res.exact:
        return "timeout", omega_res, None
    omega = omega_res.value
    if (k is not None and omega != k) or g.n_vertices % omega:
        return "neq", omega_res, None
    status, coloring, _ = k_colorable(g, omega, budget=meter, clique_hint=omega_res.witness)
    if status != "sat":
        return ("neq" if status == "unsat" else "timeout"), omega_res, None
    return "eq", omega_res, equal_certificate(g, omega_res.witness, coloring)


def _non_synchronizing(
    field: FieldTables, params: PaleyParams, reasons, subset: list[int], cert: InvariantCertificate
) -> Classification:
    """The NonSynchronizing verdict witnessed by omega = chi on the union of
    the orbitals in `subset`; a single orbital also reports its theta pair."""
    witness = {
        "orbital_subset": subset,
        "omega": cert.omega,
        "chi": cert.chi,
        "alpha": cert.alpha,
        "certificate": cert.to_json_dict(),
    }
    return Classification(
        params.q, params.p, params.n, params.m, NON_SYNCHRONIZING, tuple(reasons), witness,
        "complete", certificate=cert,
        spectral=theta_pair(field, params.m_bar) if len(subset) == 1 else None,
    )


def _factorization_decision(
    field: FieldTables, params: PaleyParams, meter: _Budget
) -> Classification | None:
    """The NonSynchronizing verdict of a factorization witness on some proper
    union, found with no clique or coloring search; an Unknown when that
    search spent the budget, None when there is no witness."""
    found = factorization_certificate(field, params.m, meter)
    if found is None:
        if meter.spent <= meter.limit:
            return None
        spent = Reason(RULE_BUDGET, "budget spent in the factorization witness search")
        return Classification(params.q, params.p, params.n, params.m, UNKNOWN, (spent,), None,
                              "budget_exhausted")
    subset, cert = found
    detail = (f"Delta-subset {subset}: GF({cert.omega}) + B = GF({params.q}) with B an F_p-subspace"
              f" whose units avoid the subset, so omega=chi={cert.omega}")
    return _non_synchronizing(field, params, [Reason(RULE_FACTORIZATION, detail)], subset, cert)


def _canonical_pair_masks(width: int, mult: int = 1) -> Iterator[int]:
    """One representative per family of proper nonempty orbital subsets under
    the maps i -> u*i + s, u a power of mult, each with and without
    complement: the least member.  Rotating indices multiplies every
    difference coset by gamma and x -> x^p maps G_S onto G_pS, both graph
    isomorphisms, so one member decides its whole family.  The least member
    is odd with its top bit clear (else a rotation is smaller), so the walk
    keeps the odd masks below 2^(width-1) that are no larger than any
    rotation of themselves, of any image u*S or of their complements.  mult
    must be a unit mod width, as p is mod m_bar.  The masks come lazily, in
    increasing order."""
    full = (1 << width) - 1
    units = {pow(mult, a, width) for a in range(width)} - {1}
    frobenius = [[1 << u * i % width for i in range(width)] for u in units]

    def no_rotation_below(mask: int, y: int) -> bool:
        return all(mask <= (x << s | x >> (width - s)) & full for x in (y, full ^ y) for s in range(width))

    for mask in range(1, 1 << width - 1, 2):
        if no_rotation_below(mask, mask) and all(
            no_rotation_below(mask, sum(image[i] for i in iter_bits(mask))) for image in frobenius
        ):
            yield mask


def _canonical_pair_count(width: int, mult: int = 1) -> int:
    """How many masks _canonical_pair_masks(width, mult) yields, without the
    walk.  Burnside's lemma over the maps i -> u*i + s, each with and
    without complement, acting on all 2^width subsets: a map fixes the 2^c
    subsets that are unions of its c cycles, and the map then complement
    fixes 2^c of them when every cycle has even length (membership
    alternates around it), else none.  The orbit {empty set, full set} is
    the one not counted."""
    units = {pow(mult, a, width) for a in range(width)}
    fixed = 0
    for u in units:
        for s in range(width):
            seen, lengths = bytearray(width), []
            for i in range(width):
                j, length = i, 0
                while not seen[j]:
                    seen[j] = 1
                    j, length = (u * j + s) % width, length + 1
                if length:
                    lengths.append(length)
            fixed += 2 ** len(lengths) * (1 + all(c % 2 == 0 for c in lengths))
    return fixed // (2 * width * len(units)) - 1


def _lp_clears(periods: tuple[float, ...], params: PaleyParams, mask: int, meter: _Budget) -> bool:
    """One node: True when the theta LP clears the pair of `mask` and its
    complement (the module's prune).  One LP on the classes S of the mask
    gives checked lower bounds L_S and L_T for it and its complement T;
    theta of the complement of G_S lies in [L_S, q/L_T], and the pair is
    cleared when that bracket, widened by THETA_MARGIN, holds no power of p
    (k = p^t lies in it iff q/k does in T's)."""
    if not meter.step():
        return False
    low, rest = theta_bounds(periods, list(iter_bits(mask)), (params.q - 1) // params.m_bar)
    low, high = low * (1 - THETA_MARGIN), params.q / rest * (1 + THETA_MARGIN)
    return not any(low <= params.p**t <= high for t in range(params.n + 1))


def _orbital_walk(
    field: FieldTables, params: PaleyParams, meter: _Budget, prune: bool, cap: int | None = None
) -> Classification:
    """The pair walk of `exhaustive_decision`; with a cap, the walk of a row
    past it, which clears pairs with no search or leaves the row
    skipped_exhaustive, and does not start past LP_WALK_CAP."""
    q, p, n, m, mb = params.q, params.p, params.n, params.m, params.m_bar
    mult = p if prune else 1

    def skipped(why: str) -> Classification:
        detail = f"m_bar={mb} exceeds the exhaustive cap {cap}{why}"
        return Classification(q, p, n, m, UNKNOWN, (Reason(RULE_SKIPPED, detail),), None,
                              "skipped_exhaustive")

    if cap is not None and mb > LP_WALK_CAP:
        return skipped(f" and the LP walk cap {LP_WALK_CAP}")
    n_pairs = _canonical_pair_count(mb, mult)
    periods = gauss_periods(field, mb) if prune else ()
    family = None
    reasons: list[Reason] = []
    unreached, cleared, searched = n_pairs, 0, 0

    for mask in _canonical_pair_masks(mb, mult):
        if meter.spent > meter.limit:  # every later search would time out at once
            break
        unreached -= 1
        subset = sorted(iter_bits(mask))
        k = None
        if prune and mask == 1:
            feasible = feasible_clique_sizes(field, mb)
            if not feasible:
                reasons.append(Reason(
                    RULE_SPECTRAL,
                    "single orbitals and their complements cleared: no k=p^t passes the"
                    f" divisibility and least-eigenvalue filter for ({q},{mb})",
                ))
                continue
            (k,) = feasible
        elif prune and _lp_clears(periods, params, mask, meter):
            cleared += 1
            continue
        if meter.spent > meter.limit:  # no node was left for the LP test
            unreached += 1
            break
        if cap is not None:
            return skipped(f", and Delta-subset {subset} is not cleared without search")
        searched += 1
        family = family or orbital_family(field, m)
        kind, omega_res, cert = _omega_equals_chi(union_graph(family, subset), meter, k)
        if kind == "timeout":
            detail = (f"{omega_res.value}-colorability undecided" if omega_res.exact
                      else f"clique bounds [{omega_res.lower}, {omega_res.upper}]")
            reasons.append(Reason(RULE_BUDGET, f"Delta-subset {subset}: {detail}"))
        if kind == "eq":
            reasons.append(Reason(RULE_EXHAUSTIVE, f"Delta-subset {subset} has omega=chi={cert.omega}"))
            return _non_synchronizing(field, params, reasons, subset, cert)

    if meter.spent > meter.limit:
        detail = f"{unreached} of {n_pairs} canonical pairs not reached"
        reasons.append(Reason(RULE_BUDGET, f"exhaustive check incomplete: budget spent, {detail}"))
        return Classification(q, p, n, m, UNKNOWN, tuple(reasons), None, "budget_exhausted")
    by_lp = ""
    if prune:
        by_lp = (f", {cleared} pairs cleared by the theta LP and"
                 f" {n_pairs - cleared - searched} by the spectral filter")
    if cleared:
        reasons.append(Reason(
            RULE_DELSARTE,
            f"{cleared} canonical pairs cleared with no search: checked LP weights for S and"
            f" for its complement T put theta of the complement of G_S strictly between"
            f" consecutive powers of {p}",
        ))
    reasons.append(
        Reason(
            RULE_EXHAUSTIVE,
            f"all {2**mb - 2} proper nonempty orbital unions have omega != chi{by_lp}"
            f" ({n_pairs} canonical pairs, {searched} union graphs searched)",
        )
    )
    return Classification(q, p, n, m, SYNCHRONIZING, tuple(reasons), None, "complete")


def exhaustive_decision(
    field: FieldTables,
    m: int,
    budget: int | _Budget | None = None,
    spectral_prune: bool = True,
) -> Classification:
    """Exact decision of omega = chi on every proper nonempty union of
    undirected orbitals: a factorization witness on any union first, then
    one step per family of unions under rotation, Frobenius and complement
    on its canonical mask, as a union and its complement agree (the
    module's lemma).  The single orbital, mask 1, is cleared with no search
    when its feasible set (`feasible_clique_sizes`, Thm 4.6) is empty, else
    its one value k caps the clique search; any other pair is cleared by
    the theta LP (one node) or searched.

    spectral_prune=False skips the witness, the filter, the LP and the
    Frobenius reduction, and searches every pair of the rotation walk
    (slower, independent confirmation).

    The caller is expected to have ruled out imprimitivity; m_bar >= 2 is
    required.  A spent node meter ends the check with an honest Unknown."""
    params = normalize_params(field.q, m)
    if params.m_bar < 2:
        raise BadInputError(f"m_bar={params.m_bar} < 2: no proper orbital unions to check")
    meter = _Budget.of(budget)
    if spectral_prune:
        witnessed = _factorization_decision(field, params, meter)
        if witnessed is not None:
            return witnessed
    return _orbital_walk(field, params, meter, spectral_prune)


def classify(
    q: int,
    m: int,
    budget: int | None = None,
    exhaustive_cap: int | None = None,
) -> Classification:
    """Full pipeline: validate, fast paths, then the orbital walk; a row
    with m_bar past exhaustive_cap gets the walk's factorization witness,
    then, up to LP_WALK_CAP, its walk with no search: Unknown unless the
    filter and the theta LP clear every pair."""
    fp = fast_paths(q, m)  # validates (q, m)
    if fp is not None:
        return fp
    params = normalize_params(q, m)
    p, n, mb = params.p, params.n, params.m_bar
    meter = _Budget.of(budget)
    field = build_field(p, n)
    if exhaustive_cap is None or mb <= exhaustive_cap:
        return exhaustive_decision(field, m, meter)
    return _factorization_decision(field, params, meter) or _orbital_walk(
        field, params, meter, True, exhaustive_cap
    )
