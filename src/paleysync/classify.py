"""Synchronization decision engine for the 1-dimensional affine groups
generated by translations and multiplications by m-th power residues.

The pipeline is: input validation (`paley.normalize_params`), cheap
arithmetic fast paths (rule labels below), then the orbital walk,
`exhaustive_decision`, the one place where omega = chi is decided.  By
Lemma 2.3 a row is NonSynchronizing iff some proper union of undirected
orbitals has omega = chi.  The walk first looks for a factorization witness
on any union, then takes one union per canonical pair, each by one search,
`_omega_equals_chi`.  The residue graph (mask 1) is a pair like any other,
only first put through the spectral filter of Thm 4.6, whose one feasible
value caps its clique search; for m_bar <= 3 it is the walk's one pair, and
the walk is then Thm 5.2(2)'s single-graph criterion.  One builder,
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
from .spectral import SpectralReport, feasible_clique_sizes, theta_pair

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
RULE_BUDGET = "budget"
RULE_SKIPPED = "skipped"


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
    union, found with no clique or coloring search; None when there is none."""
    found = factorization_certificate(field, params.m, meter)
    if found is None:
        return None
    subset, cert = found
    detail = (f"Delta-subset {subset}: GF({cert.omega}) + B = GF({params.q}) with B an F_p-subspace"
              f" whose units avoid the subset, so omega=chi={cert.omega}")
    return _non_synchronizing(field, params, [Reason(RULE_FACTORIZATION, detail)], subset, cert)


def _canonical_pair_masks(width: int) -> Iterator[int]:
    """One representative per {rotation class, complement} family of proper
    nonempty orbital subsets: the least member, i.e. a mask no larger than
    any rotation of itself or of its complement.  Rotating indices
    multiplies every difference coset by gamma, which is a graph
    isomorphism, so one member decides its whole rotation class.  An even
    mask is never least: shifted right by one bit it is a smaller rotation
    of itself, so only odd masks are tried.  The masks come lazily, in
    increasing order: there are 2^(width-1) odd masks to walk."""
    full = (1 << width) - 1
    return (
        mask
        for mask in range(1, full, 2)
        if all(
            mask <= (x << s | x >> (width - s)) & full
            for x in (mask, full ^ mask)
            for s in range(width)
        )
    )


def _canonical_pair_count(width: int) -> int:
    """How many masks _canonical_pair_masks(width) yields, without the walk.

    Burnside's lemma over the 2*width rotations, each with and without
    complement, acting on all 2^width subsets: rotation by s fixes the
    2^g subsets that are unions of its g = gcd(s, width) cycles, and
    rotation by s then complement fixes 2^g of them when each cycle has
    even length width/g (membership alternates around it), else none.
    The orbit {empty set, full set} is the one not counted."""
    fixed = 0
    for s in range(width):
        g = gcd(s, width)
        fixed += 2**g * (2 if (width // g) % 2 == 0 else 1)
    return fixed // (2 * width) - 1


def exhaustive_decision(
    field: FieldTables,
    m: int,
    budget: int | _Budget | None = None,
    spectral_prune: bool = True,
) -> Classification:
    """Exact decision of omega = chi on every proper nonempty union of
    undirected orbitals: a factorization witness on any union first, then
    one search per rotation/complement family on its canonical mask, as a
    union and its complement agree (the module's lemma).  The single
    orbital, mask 1, is cleared with no search when its feasible set
    (`feasible_clique_sizes`, Thm 4.6) is empty, else its one value k caps
    the clique search.

    spectral_prune=False skips the witness and the filter, and searches
    every pair (slower, independent confirmation).

    The caller is expected to have ruled out imprimitivity; m_bar >= 2 is
    required.  A spent node meter ends the check with an honest Unknown."""
    q, p, n = field.q, field.p, field.n
    params = normalize_params(q, m)
    mb = params.m_bar
    if mb < 2:
        raise BadInputError(f"m_bar={mb} < 2: no proper orbital unions to check")
    meter = _Budget.of(budget)
    if spectral_prune:
        witnessed = _factorization_decision(field, params, meter)
        if witnessed is not None:
            return witnessed
    family = orbital_family(field, m)
    n_pairs = _canonical_pair_count(mb)

    reasons: list[Reason] = []
    unreached = n_pairs
    searched = 0

    for mask in _canonical_pair_masks(mb):
        if meter.spent > meter.limit:  # every later search would time out at once
            break
        unreached -= 1
        subset = sorted(iter_bits(mask))
        k = None
        if spectral_prune and mask == 1:
            feasible = feasible_clique_sizes(field, mb)
            if not feasible:
                reasons.append(Reason(
                    RULE_SPECTRAL,
                    "single orbitals and their complements cleared: no k=p^t passes the"
                    f" divisibility and least-eigenvalue filter for ({q},{mb})",
                ))
                continue
            (k,) = feasible
        searched += 1
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
    reasons.append(
        Reason(
            RULE_EXHAUSTIVE,
            f"all {2**mb - 2} proper nonempty orbital unions have omega != chi"
            f" ({n_pairs} canonical pairs, {searched} union graphs searched)",
        )
    )
    return Classification(q, p, n, m, SYNCHRONIZING, tuple(reasons), None, "complete")


def classify(
    q: int,
    m: int,
    budget: int | None = None,
    exhaustive_cap: int | None = None,
) -> Classification:
    """Full pipeline: validate, fast paths, then the orbital walk; a row
    with m_bar past exhaustive_cap gets only the walk's factorization
    witness, else Unknown."""
    fp = fast_paths(q, m)  # validates (q, m)
    if fp is not None:
        return fp
    params = normalize_params(q, m)
    p, n, mb = params.p, params.n, params.m_bar
    meter = _Budget.of(budget)
    field = build_field(p, n)
    if exhaustive_cap is None or mb <= exhaustive_cap:
        return exhaustive_decision(field, m, meter)
    skipped = Reason(RULE_SKIPPED, f"m_bar={mb} exceeds the exhaustive cap {exhaustive_cap}")
    return _factorization_decision(field, params, meter) or Classification(
        q, p, n, m, UNKNOWN, (skipped,), None, "skipped_exhaustive"
    )
