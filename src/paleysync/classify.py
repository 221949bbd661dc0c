"""Synchronization decision engine for the 1-dimensional affine groups
generated by translations and multiplications by m-th power residues.

The pipeline is: input validation, cheap arithmetic fast paths (rule
labels below), a single-graph decision for m in {2, 3} where equality of
clique and chromatic number is an exact criterion, and finally the
exhaustive check of every proper union of undirected orbitals.  Every
verdict carries an ordered reason trace naming the rule that fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from math import gcd

from .errors import BadDivisorError, BadInputError
from .gf import FieldTables, build_field, is_prime, prime_power
from .invariants import (
    DEFAULT_BUDGET,
    InvariantCertificate,
    best_subfield_clique,
    clique_number,
    independence_number,
    k_colorable,
    paley_certificate,
    subfield_clique,
    verify_certificate,
)
from .paley import Graph, build_paley, iter_bits, normalize_params, orbital_family, union_graph
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
RULE_SINGLE_GRAPH = "Thm 5.2(2)"
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


def _validated(q: int, m: int):
    p, n = prime_power(q)
    if p == 2:
        raise BadInputError(f"q={q} must be odd")
    if m < 1 or (q - 1) % m:
        raise BadInputError(f"m={m} does not divide q-1={q - 1}")
    return p, n, normalize_params(q, m)


def primitivity(q: int, m: int) -> bool:
    """True iff the residue multiplier group acts irreducibly: r = (q-1)/m
    divides no p^i - 1 for 1 <= i <= n-1 (vacuously true for prime q)."""
    p, n = prime_power(q)
    if m < 1 or (q - 1) % m:
        raise BadDivisorError(f"m={m} does not divide q-1={q - 1}")
    r = (q - 1) // m
    return all((p**i - 1) % r for i in range(1, n))


def fast_paths(q: int, m: int) -> Classification | None:
    """Apply the first conclusive arithmetic rule; None when none fires."""
    p, n, params = _validated(q, m)
    r, mb = params.r, params.m_bar

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
    if m in (2, 3) and is_prime(n):
        repunit = (q - 1) // (p - 1)
        if repunit % m:
            return done(
                SYNCHRONIZING,
                RULE_REPUNIT,
                f"m={m} does not divide 1+p+...+p^(n-1)={repunit}",
            )
    return None


def _single_orbital_status(field: FieldTables, mb: int, budget: int, spectral_prune: bool = True):
    """Decide whether the residue graph with index mb has equal clique and
    chromatic numbers.  Returns (kind, certificate, detail) with kind one of
    "eq" | "neq" | "timeout"; the certificate is attached only for "eq".
    """
    q, n = field.q, field.n
    feas = feasible_clique_sizes(q, mb, field=field)
    if spectral_prune and not feas:
        return (
            "neq",
            None,
            f"no k=p^t passes the divisibility and least-eigenvalue filter for ({q},{mb})",
        )
    if n % 2 == 0 and subfield_clique(field, mb, n // 2) is not None:
        cert = paley_certificate(field, mb, budget)
        return (
            "eq",
            cert,
            f"omega=chi={cert.omega} by the subfield product certificate",
        )
    g = build_paley(field, mb)
    rep = theta_pair(field, mb)
    best_sub = best_subfield_clique(field, mb)
    omega_res = clique_number(
        g, upper_hint=int(rep.theta_complement + 1e-6), budget=budget, witness_hint=best_sub
    )
    if not omega_res.exact:
        return (
            "timeout",
            None,
            f"clique search exhausted budget with bounds [{omega_res.lower}, {omega_res.upper}]",
        )
    k = omega_res.value
    if spectral_prune and k not in feas:
        return (
            "neq",
            None,
            f"omega={k} is not in the feasible common-value set {sorted(feas)}",
        )
    status, coloring, _ = k_colorable(g, k, budget=budget, clique_hint=omega_res.witness)
    if status == "unsat":
        return ("neq", None, f"omega={k} but the graph is not {k}-colorable")
    if status == "timeout":
        return ("timeout", None, f"{k}-colorability undecided within budget")
    cert = _equal_invariants_certificate(g, omega_res, coloring, budget)
    return ("eq", cert, f"omega=chi={k} found by exact search")


def _equal_invariants_certificate(g: Graph, omega_res, coloring, budget: int) -> InvariantCertificate:
    """Certificate of omega = chi = k for g, from its exact maximum clique and
    a proper k-coloring, completed by an independence search.  It is checked
    against g before it leaves, so no unverified witness is ever emitted."""
    k = omega_res.value
    alpha_res = independence_number(g, budget=budget)
    cert = InvariantCertificate(
        omega=k,
        alpha=alpha_res.value if alpha_res.exact else None,
        chi=k,
        clique=omega_res.witness,
        independent_set=alpha_res.witness,
        coloring=coloring,
        status="exact",
        bounds={
            "omega": (k, k),
            "alpha": (alpha_res.lower, alpha_res.upper),
            "chi": (k, k),
        },
    )
    verify_certificate(g, cert)
    return cert


def _rotations(mask: int, width: int, full: int) -> list[int]:
    out = [mask]
    m = mask
    for _ in range(width - 1):
        m = ((m << 1) | (m >> (width - 1))) & full
        out.append(m)
    return out


def _pair_canonical(mask: int, width: int, full: int) -> int:
    return min(min(_rotations(mask, width, full)), min(_rotations(full ^ mask, width, full)))


def _canonical_pair_masks(width: int) -> list[int]:
    """One representative per {rotation class, complement} family of proper
    nonempty orbital subsets.  Rotating indices multiplies every difference
    coset by gamma, which is a graph isomorphism, so one member decides its
    whole rotation class."""
    full = (1 << width) - 1
    return [mask for mask in range(1, full) if _pair_canonical(mask, width, full) == mask]


def _witness_dict(subset: list[int], cert: InvariantCertificate) -> dict:
    return {
        "orbital_subset": subset,
        "omega": cert.omega,
        "chi": cert.chi,
        "alpha": cert.alpha,
        "certificate": cert.to_json_dict(),
    }


def exhaustive_decision(
    field: FieldTables, m: int, budget: int | None = None, spectral_prune: bool = True
) -> Classification:
    """Exact decision by checking omega = chi on every proper nonempty union
    of undirected orbitals (one representative per rotation/complement family;
    both members of genuinely multi-orbital complement pairs are searched).

    spectral_prune=False disables the eigenvalue filter on single orbitals and
    forces a search-based decision there (slower, independent confirmation).

    The caller is expected to have ruled out imprimitivity; m_bar >= 2 is
    required.  Budget exhaustion yields an honest Unknown."""
    q, p, n = field.q, field.p, field.n
    params = normalize_params(q, m)
    mb = params.m_bar
    if mb < 2:
        raise BadInputError(f"m_bar={mb} < 2: no proper orbital unions to check")
    budget = budget if budget is not None else DEFAULT_BUDGET
    family = orbital_family(field, m)
    pair_masks = _canonical_pair_masks(mb)
    full = (1 << mb) - 1
    n_graphs = sum(
        1 if spectral_prune and min(mask.bit_count(), mb - mask.bit_count()) == 1 else 2
        for mask in pair_masks
    )
    # Even split, but never below a useful floor (and never above the caller's
    # total when that total is itself tiny).
    per_graph = max(min(10_000, budget), budget // max(1, n_graphs))

    reasons: list[Reason] = []
    any_timeout = False
    searched = 0

    for mask in pair_masks:
        comp = full ^ mask
        if spectral_prune and min(mask.bit_count(), comp.bit_count()) == 1:
            # Pair {single orbital, its complement}: equality of the two
            # invariants transfers between a residue graph and its complement,
            # so the single-orbital decision settles both members.
            kind, cert, detail = _single_orbital_status(field, mb, per_graph, spectral_prune)
            single = mask if mask.bit_count() == 1 else comp
            subset = sorted(iter_bits(single))
            if kind == "eq":
                reasons.append(
                    Reason(RULE_EXHAUSTIVE, f"Delta-subset {subset} has omega=chi={cert.omega}")
                )
                return Classification(
                    q, p, n, m, NON_SYNCHRONIZING, tuple(reasons), _witness_dict(subset, cert),
                    "complete", certificate=cert, spectral=theta_pair(field, mb),
                )
            if kind == "neq":
                reasons.append(
                    Reason(
                        RULE_SPECTRAL if "filter" in detail else RULE_EXHAUSTIVE,
                        f"single orbitals and their complements cleared: {detail}",
                    )
                )
            else:
                any_timeout = True
                reasons.append(Reason(RULE_BUDGET, f"single-orbital check: {detail}"))
            continue
        for sub_mask in (mask, comp):
            subset = sorted(iter_bits(sub_mask))
            g = union_graph(family, subset)
            omega_res = clique_number(g, budget=per_graph)
            searched += 1
            if not omega_res.exact:
                any_timeout = True
                reasons.append(
                    Reason(
                        RULE_BUDGET,
                        f"Delta-subset {subset}: clique bounds [{omega_res.lower}, {omega_res.upper}]",
                    )
                )
                continue
            k = omega_res.value
            status, coloring, _ = k_colorable(g, k, budget=per_graph, clique_hint=omega_res.witness)
            if status == "sat":
                cert = _equal_invariants_certificate(g, omega_res, coloring, per_graph)
                reasons.append(
                    Reason(RULE_EXHAUSTIVE, f"Delta-subset {subset} has omega=chi={k}")
                )
                return Classification(
                    q, p, n, m, NON_SYNCHRONIZING, tuple(reasons), _witness_dict(subset, cert),
                    "complete", certificate=cert,
                    spectral=theta_pair(field, mb) if len(subset) == 1 else None,
                )
            if status == "timeout":
                any_timeout = True
                reasons.append(
                    Reason(RULE_BUDGET, f"Delta-subset {subset}: {k}-colorability undecided")
                )

    if any_timeout:
        reasons.append(
            Reason(RULE_BUDGET, "exhaustive check incomplete: some orbital unions undecided")
        )
        return Classification(q, p, n, m, UNKNOWN, tuple(reasons), None, "budget_exhausted")
    reasons.append(
        Reason(
            RULE_EXHAUSTIVE,
            f"all {2**mb - 2} proper nonempty orbital unions have omega != chi"
            f" ({len(pair_masks)} canonical pairs, {searched} union graphs searched)",
        )
    )
    return Classification(q, p, n, m, SYNCHRONIZING, tuple(reasons), None, "complete")


def classify(
    q: int,
    m: int,
    budget: int | None = None,
    exhaustive_cap: int | None = None,
) -> Classification:
    """Full pipeline: validate, fast paths, single-graph criterion for
    m in {2, 3}, exhaustive orbital-union check, else Unknown."""
    p, n, params = _validated(q, m)
    budget = budget if budget is not None else DEFAULT_BUDGET
    fp = fast_paths(q, m)
    if fp is not None:
        return fp
    field = build_field(p, n)
    mb = params.m_bar
    carried: list[Reason] = []
    if m in (2, 3):  # here m_bar == m, and equality on one graph is an iff
        kind, cert, detail = _single_orbital_status(field, m, budget)
        if kind == "eq":
            subset = [0]
            return Classification(
                q, p, n, m, NON_SYNCHRONIZING,
                (Reason(RULE_SINGLE_GRAPH, detail),),
                _witness_dict(subset, cert),
                "complete", certificate=cert, spectral=theta_pair(field, m),
            )
        if kind == "neq":
            return Classification(
                q, p, n, m, SYNCHRONIZING, (Reason(RULE_SINGLE_GRAPH, detail),), None, "complete"
            )
        carried.append(Reason(RULE_SINGLE_GRAPH, f"inconclusive within budget: {detail}"))
    if exhaustive_cap is not None and mb > exhaustive_cap:
        carried.append(
            Reason(RULE_SKIPPED, f"m_bar={mb} exceeds the exhaustive cap {exhaustive_cap}")
        )
        return Classification(q, p, n, m, UNKNOWN, tuple(carried), None, "skipped_exhaustive")
    result = exhaustive_decision(field, m, budget)
    return replace(result, reasons=tuple(carried) + result.reasons)
