"""Synchronization decision engine for the 1-dimensional affine groups
generated by translations and multiplications by m-th power residues.

The pipeline is: input validation (`paley.normalize_params`), cheap
arithmetic fast paths (rule labels below), then `exhaustive_decision`, the
one place where omega = chi is decided.  By Lemma 2.3 a row is
NonSynchronizing iff some proper union of undirected orbitals has omega =
chi.  It first looks for a factorization witness on any union, then runs the
theta sweep below, which solves one LP per union it visits and searches,
with `_omega_equals_chi`, only a union whose LP bracket holds a power of p.
A search step costs one node and the LP of S costs |S| * m_bar, one per
coefficient, so the node budget bounds the LPs, the searches and the sets
the sweep holds; only the q-vertex graph that a search is run on is built
and relabelled outside the meter.  For m_bar <= 3 every proper union is a class or the
complement of one, so the sweep is Thm 5.2(2)'s single-graph criterion.
spectral_prune=False runs the reference walk instead: one search per pair
of a union and its complement, one pair per rotation class.  One builder,
`_non_synchronizing`, turns a certificate into a verdict.  Every verdict
carries an ordered reason trace naming the rule that fired.

Lemma (Hajos/Redei; Szabo & Sands 2009): on a Cayley graph of GF(q)+, as
every graph here is, omega = chi = k forces k | q and omega = chi = q/k on
the complement.  Proof: as omega * alpha <= q, each of the k color classes
has q/k vertices.  For a k-clique A and a class B, a + b = a' + b' with
a != a' would make b' - b = a - a' an edge inside B, so GF(q) = A + B and
the cliques A + b, b in B, color the complement around its clique B.  So an
omega not dividing q is "neq" untested, and one search decides a pair.

Witness (`invariants.factorization_certificate`): conversely, let A be an
F_p-subspace with A minus 0 inside the classes of S, and B one of size
q/|A| with no unit in them.  Then A is a clique of G_S, and two vertices of
one coset x + B differ by a unit of B, so the cosets color G_S properly with
|A| colors: omega = chi = |A|, and the row is NonSynchronizing with no
search.  A is taken to be a subfield GF(p^t), so S is the classes its units
hit.

Theta LP (rule "Delsarte LP"): for G = G_S, omega(G) <= theta of the
complement <= chi(G) (Lovasz 1979), so omega = chi = k forces both theta = k
and, by the lemma, k = p^t.  theta of the complement of G_S is Delsarte's LP
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
both, the weights for T from its dual (`spectral.theta_bounds`).  That
bracket is widened by THETA_MARGIN = 2^-40 relative, and S is open when it
holds a power of p; a closed S has omega != chi, and so has its complement.
Each set of weights is checked in floats with an explicit slop
(`theta_bounds`); the margin lies far above the rounding of the final
products and quotients.  Frobenius x -> x^p maps the class gamma^i * H onto
gamma^(p*i) * H and G_S onto G_pS, so S decides its family under
i -> p^a * i + s as well.

Theta sweep (`_sweep`): write f(S) = theta of the complement of G_S.  f
grows with S, as that complement loses edges, and f(S) * f(T) = q.  If
omega = chi = p^t on G_S, then f(S) = p^t and f(T) = p^(n-t), so one member
X of {S, T} has f(X) <= p^floor(n/2), and every Y inside X has a checked
L_Y <= f(Y) <= f(X) <= p^floor(n/2).  The sweep starts at the single class
{0} and grows each set it visits by one class at a time, keeping one set
per family under i -> p^a * i + s: the least of its images.  It stops
growing S once L_S, widened down, exceeds p^floor(n/2), widened up.  Adding
X's classes one at a time to one of them gives a chain of subsets of X, none
of which stops, whose families the sweep visits in turn; so X's family is
visited, and X's bracket holds f(X) = p^t: X is open and searched.  So an
open set is searched (its clique search capped at q/L_T, widened, a proven
bound on omega), and if no search finds omega = chi, no proper union has
it: the row is Synchronizing.

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

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field as dataclass_field
from math import gcd

from .errors import BadInputError
from .gf import FieldTables, build_field, is_prime, prime_power
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
RULE_DELSARTE = "Delsarte LP"
RULE_BUDGET = "budget"


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
    status: str  # "complete" | "budget_exhausted"
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


def _omega_equals_chi(g: Graph, meter: _Budget, low: float = 0.0, high: float | None = None):
    """Decide omega(g) = chi(g), the one per-graph question of Lemma 2.3.

    Runs the maximum-clique search, then tests colorability at omega; both
    draw on the caller's meter.  Given a bracket [low, high] that holds
    theta of the complement of g, which omega = chi would equal, the clique
    search is capped at high, a proven bound on omega.  An omega below the
    bracket, or one not dividing q (the module's lemma), is "neq" with no
    coloring search.  Returns (outcome, omega_res, cert): outcome "eq" |
    "neq" | "timeout", omega_res the clique search (not exact when that
    search timed out), and, for "eq" only, the certificate of omega = chi
    that `equal_certificate` builds from the clique and coloring and checks
    against g: no witness leaves unverified.
    """
    omega_res = clique_number(g, upper_hint=None if high is None else int(high), budget=meter)
    if not omega_res.exact:
        return "timeout", omega_res, None
    omega = omega_res.value
    if omega < low or g.n_vertices % omega:
        return "neq", omega_res, None
    status, coloring, _ = k_colorable(g, omega, budget=meter, clique_hint=omega_res.witness)
    if status != "sat":
        return ("neq" if status == "unsat" else "timeout"), omega_res, None
    return "eq", omega_res, equal_certificate(g, omega_res.witness, coloring)


def _undecided(subset: list[int], omega_res) -> Reason:
    """The budget reason of a union whose search timed out."""
    detail = (f"{omega_res.value}-colorability undecided" if omega_res.exact
              else f"clique bounds [{omega_res.lower}, {omega_res.upper}]")
    return Reason(RULE_BUDGET, f"Delta-subset {subset}: {detail}")


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


def _canonical_pair_masks(width: int) -> Iterator[int]:
    """One representative per pair of a proper nonempty orbital subset and
    its complement, up to rotation: the least member.  Rotating indices
    multiplies every difference coset by gamma, a graph isomorphism, so one
    member decides its whole family.  The least member is odd with its top
    bit clear (else a rotation is smaller), so the walk keeps the odd masks
    below 2^(width-1) that are no larger than any rotation of themselves or
    of their complements.  The masks come lazily, in increasing order."""
    full = (1 << width) - 1
    for mask in range(1, 1 << width - 1, 2):
        if all(mask <= (x << s | x >> (width - s)) & full for x in (mask, full ^ mask) for s in range(width)):
            yield mask


def _canonical_pair_count(width: int) -> int:
    """How many masks _canonical_pair_masks(width) yields, without the walk.
    Burnside's lemma over the rotations i -> i + s, each with and without
    complement, acting on all 2^width subsets: a rotation has c = gcd(s,
    width) cycles of length width/c and fixes the 2^c unions of them, and
    the rotation then complement fixes 2^c of them when that length is even
    (membership alternates around a cycle), else none.  The orbit {empty
    set, full set} is the one not counted."""
    cycles = [gcd(s, width) for s in range(width)]
    return sum(2**c * (2 - width // c % 2) for c in cycles) // (2 * width) - 1


def _orbital_walk(field: FieldTables, params: PaleyParams, meter: _Budget) -> Classification:
    """The reference walk of `exhaustive_decision`: one search per pair of a
    union and its complement, one pair per rotation class."""
    q, p, n, m, mb = params.q, params.p, params.n, params.m, params.m_bar
    n_pairs = _canonical_pair_count(mb)
    family = orbital_family(field, m)
    reasons: list[Reason] = []
    unreached = n_pairs
    for mask in _canonical_pair_masks(mb):
        if meter.spent > meter.limit:  # every later search would time out at once
            break
        unreached -= 1
        subset = list(iter_bits(mask))
        kind, omega_res, cert = _omega_equals_chi(union_graph(family, subset), meter)
        if kind == "timeout":
            reasons.append(_undecided(subset, omega_res))
        if kind == "eq":
            reasons.append(Reason(RULE_EXHAUSTIVE, f"Delta-subset {subset} has omega=chi={cert.omega}"))
            return _non_synchronizing(field, params, reasons, subset, cert)
    if meter.spent > meter.limit:
        detail = f"{unreached} of {n_pairs} canonical pairs not reached"
        reasons.append(Reason(RULE_BUDGET, f"exhaustive check incomplete: budget spent, {detail}"))
        return Classification(q, p, n, m, UNKNOWN, tuple(reasons), None, "budget_exhausted")
    reasons.append(Reason(
        RULE_EXHAUSTIVE,
        f"all {2**mb - 2} proper nonempty orbital unions have omega != chi"
        f" ({n_pairs} canonical pairs, {n_pairs} union graphs searched)",
    ))
    return Classification(q, p, n, m, SYNCHRONIZING, tuple(reasons), None, "complete")


def _least_image(mask: int, width: int, units: tuple[int, ...]) -> int:
    """The least image of the orbital subset `mask` under the maps
    i -> u*i + s, u in `units`.  Rotating indices multiplies every
    difference coset by gamma, and x -> x^p maps G_S onto G_pS, both graph
    isomorphisms, so with `units` the powers of p mod m_bar every image has
    the same omega, chi and theta.  The least image holds class 0, so only
    the shifts that move a member of u*mask to 0 are tried."""
    full, least = (1 << width) - 1, mask
    for u in units:
        members = [u * i % width for i in iter_bits(mask)]
        x = sum(1 << i for i in members)
        least = min(least, *((x >> i | x << (width - i)) & full for i in members))
    return least


def _sweep(field: FieldTables, params: PaleyParams, meter: _Budget) -> Classification:
    """The theta sweep of `exhaustive_decision` (the module's proof), layer
    by layer from the single class: one LP per set visited, the least
    member of its family, and one search per set whose bracket holds a
    power of p.  The LP of S costs |S| * m_bar nodes, one per coefficient
    of its matrix, so an LP node takes about as long as a search node, and
    the budget bounds the LPs however many orbitals there are.  A set is
    grown only once it is visited, and a layer's sets are told apart by
    their least images alone, so the sets held at once are no more than
    the sweep has paid for."""
    q, p, n, m, mb = params.q, params.p, params.n, params.m, params.m_bar
    periods, size, full = gauss_periods(field, mb), (q - 1) // mb, (1 << mb) - 1
    units = tuple(sorted({pow(p, a, mb) for a in range(mb)}))
    stop = p ** (n // 2) * (1 + THETA_MARGIN)
    family, visited, searched = None, 0, 0
    growing, seen, layer = deque([0]), set(), 0  # the empty set grows into the layer of {0}

    def unknown(reason: Reason) -> Classification:
        return Classification(q, p, n, m, UNKNOWN, (reason,), None, "budget_exhausted")

    while growing:
        parent = growing.popleft()
        if parent.bit_count() > layer:  # the sets of the last layer cannot recur
            seen, layer = set(), parent.bit_count()
        for rep in (_least_image(parent | 1 << i, mb, units) for i in range(mb) if not parent >> i & 1):
            if rep in seen or rep == full:
                continue
            seen.add(rep)
            subset = list(iter_bits(rep))
            if not meter.spend(mb * len(subset)):
                return unknown(Reason(RULE_BUDGET, f"exhaustive check incomplete: budget spent after"
                                                   f" {visited} sets visited, before Delta-subset {subset}"))
            visited += 1
            low, rest = theta_bounds(periods, subset, size)
            low, high = low * (1 - THETA_MARGIN), q / rest * (1 + THETA_MARGIN)
            if any(low <= p**t <= high for t in range(n + 1)):
                searched += 1
                family = family or orbital_family(field, m)
                kind, omega_res, cert = _omega_equals_chi(union_graph(family, subset), meter, low, high)
                if kind == "timeout":
                    return unknown(_undecided(subset, omega_res))
                if kind == "eq":
                    reason = Reason(RULE_EXHAUSTIVE, f"Delta-subset {subset} has omega=chi={cert.omega}")
                    return _non_synchronizing(field, params, [reason], subset, cert)
            if low <= stop:
                growing.append(rep)
    return Classification(q, p, n, m, SYNCHRONIZING, (
        Reason(RULE_DELSARTE, f"theta sweep: {visited} sets visited, one per family under"
                              f" i -> p^a*i + s; {visited - searched} cleared with no search, their"
                              f" checked bracket [L_S, q/L_T] holding no power of {p}"),
        Reason(RULE_EXHAUSTIVE, f"all {2**mb - 2} proper nonempty orbital unions have omega != chi"
                                f" ({visited} sets visited, {searched} union graphs searched)"),
    ), None, "complete")


def exhaustive_decision(
    field: FieldTables,
    m: int,
    budget: int | _Budget | None = None,
    spectral_prune: bool = True,
) -> Classification:
    """Exact decision of omega = chi on every proper nonempty union of
    undirected orbitals: a factorization witness on any union first, then
    the theta sweep, which solves one LP (|S| * m_bar nodes) per family of
    unions S it visits and searches only a union whose bracket holds a
    power of p.

    spectral_prune=False skips the witness and the LP, and searches one
    member of every pair of a union and its complement, one pair per
    rotation class (slower, independent confirmation).

    The caller is expected to have ruled out imprimitivity; m_bar >= 2 is
    required.  A spent node meter ends the check with an honest Unknown."""
    params = normalize_params(field.q, m)
    if params.m_bar < 2:
        raise BadInputError(f"m_bar={params.m_bar} < 2: no proper orbital unions to check")
    meter = _Budget.of(budget)
    if not spectral_prune:
        return _orbital_walk(field, params, meter)
    return _factorization_decision(field, params, meter) or _sweep(field, params, meter)


def classify(q: int, m: int, budget: int | None = None) -> Classification:
    """Full pipeline: validate, fast paths, then `exhaustive_decision`.
    A negative budget is refused before any path, a fast one included."""
    meter = _Budget.of(budget)
    fp = fast_paths(q, m)  # validates (q, m)
    if fp is not None:
        return fp
    return exhaustive_decision(build_field(*prime_power(q)), m, meter)
