"""Spectra of power-residue graphs via additive character sums, the closed-form
Lovasz theta for vertex- and edge-transitive graphs, and the divisibility /
eigenvalue filter for clique-number-equals-chromatic-number candidates.

A residue graph on GF(q) is a Cayley graph of the additive group, so its
nonprincipal eigenvalues are the m period sums eta_j = sum over the j-th
residue coset of cos(2*pi*Tr(s)/p), each with multiplicity (q-1)/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TooLargeError
from .gf import FieldTables, divisors
from .paley import Graph, iter_bits, validate_residue_params

EIGEN_CAP = 200
PRODUCT_TOL = 1e-9
THETA_MARGIN = 2.0**-40  # relative; far above the float error of one LP check


def gauss_periods(field: FieldTables, m: int) -> tuple[float, ...]:
    """The m period sums eta_j, j = 0..m-1.

    eta_j is the character sum over the coset gamma^j * {m-th powers}; the
    sums are real because every coset is negation-closed.  The exponent k of
    gamma^k picks the coset k mod m, so each period is the compensated sum
    (math.fsum) of every m-th term of the field's character row, built once
    per field: O(q) work, accuracy limited only by the cosine table.
    """
    validate_residue_params(field.q, m)
    row = field.character_row
    return tuple(math.fsum(row[j::m]) for j in range(m))


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue summary of one residue graph: degree (= largest eigenvalue),
    the m periods (each of multiplicity (q-1)/m), and the theta pair."""

    q: int
    m: int
    degree: int
    periods: tuple[float, ...]
    lambda_min: float
    theta: float
    theta_complement: float
    tolerance: float

    def eigenvalue_multiset(self) -> list[float]:
        mult = (self.q - 1) // self.m
        values = [float(self.degree)]
        for eta in self.periods:
            values.extend([eta] * mult)
        return sorted(values, reverse=True)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "degree": self.degree,
            "periods": list(self.periods),
            "lambda_min": self.lambda_min,
            "theta": self.theta,
            "theta_complement": self.theta_complement,
            "tolerance": self.tolerance,
        }


def theta_pair(field: FieldTables, m: int) -> SpectralReport:
    """Closed-form Lovasz theta of the residue graph and of its complement.

    For a regular edge-transitive graph theta = -n*lambda_min/(lambda_1 -
    lambda_min) with lambda_1 = degree; vertex-transitivity then gives
    theta(complement) = n / theta.
    """
    q = field.q
    validate_residue_params(q, m)
    periods = gauss_periods(field, m)
    degree = (q - 1) // m
    lam_min = min(periods)
    theta = -q * lam_min / (degree - lam_min)
    return SpectralReport(
        q=q,
        m=m,
        degree=degree,
        periods=periods,
        lambda_min=lam_min,
        theta=theta,
        theta_complement=q / theta,
        tolerance=PRODUCT_TOL,
    )


def _delsarte_lp(coefficients: list[tuple[float, ...]], size: int
                 ) -> tuple[list[float], list[float]]:
    """Delsarte's LP for theta of the complement of the union G_S of classes,
    each of `size` elements, where coefficients[j][i] is the period
    eta[(s_i + j) % w] of the i-th class s_i of S: maximise 1 + size*sum(x)
    subject to 1 + sum_i x_i*coefficients[j][i] >= 0 for every j, x free.
    A dense simplex on the dictionary of the slack rows, from x = 0;
    Bland's rule picks the least variable whose move raises the objective
    (a free x moves either way) and, among the tightest rows, the least one
    leaving; a free x, once basic, never leaves.  A step no row bounds, or
    the pivot cap, stops it at a feasible x all the same.  Returns x and
    the dual y >= 0, one multiplier per row: the objective's coefficients
    of the nonbasic slacks, negated."""
    w, k = len(coefficients), len(coefficients[0])
    rows = [[1.0, *row] for row in coefficients] + [[1.0] + [float(size)] * k]  # the objective last
    basic, nonbasic = list(range(k, k + w)), list(range(k))  # x_i is i, row j's slack k + j
    for _ in range(8 * (w + k)):
        cost = rows[w]
        moves = [(v, c) for c, v in enumerate(nonbasic, 1) if cost[c] > 1e-12 or v < k and cost[c] < -1e-12]
        if not moves:
            break
        col = min(moves)[1]
        sign = 1.0 if cost[col] > 0 else -1.0
        ratios = [(max(rows[r][0], 0.0) / -a, basic[r], r) for r in range(w)
                  if basic[r] >= k and (a := rows[r][col] * sign) < -1e-12]
        if not ratios:
            break
        out = min(ratios)[2]
        inv = 1.0 / rows[out][col]
        pivot = [-v * inv for v in rows[out]]
        pivot[col] = inv
        for r, row in enumerate(rows):
            if f := row[col]:
                row[col] = 0.0
                rows[r] = [a + f * b for a, b in zip(row, pivot)]
        rows[out] = pivot
        basic[out], nonbasic[col - 1] = nonbasic[col - 1], basic[out]
    value, reduced = dict(zip(basic, (row[0] for row in rows))), dict(zip(nonbasic, rows[w][1:]))
    return [value.get(i, 0.0) for i in range(k)], [max(-reduced.get(k + j, 0.0), 0.0) for j in range(w)]


def theta_bounds(periods: tuple[float, ...], subset: list[int], size: int) -> tuple[float, float]:
    """Lower bounds L_S and L_T on theta of the complements of G_S and of
    G_T, each union of classes of `size` elements, T the classes not in
    `subset`, from one LP.  Delsarte's LP for S gives x_S, and its dual y
    the weights for T: g = 1 at 0 and y_j/size on class j is nonnegative,
    and its character sums vanish on the classes of S (the dual's
    equalities), so the function of its character sums, divided by its
    value D = 1 + sum(y) at 0, is feasible for T: x_T[i] = (1 + sum_j
    y_j*eta[(i+j) % w] / size) / D.  theta of the two complements multiply
    to q (Lovasz), so theta of the complement of G_S lies in [L_S, q/L_T],
    which is tight at the optimum.  With S = {0}, L_S is theta_pair's
    theta_complement.

    Each side's weights x are checked here, whatever the solver did: the
    least slack s of its rows is recomputed from the periods, and x/t is
    feasible for t = max(1, 1 - s + slop), where slop = THETA_MARGIN*(1 +
    sum|x|*(size + max|eta|)) exceeds the float error of s (a period is a
    sum of `size` cosines, each off by under 1e-14).  A bound is never
    below 1, that of x = 0, so q over it stays finite."""
    w, twice = len(periods), periods * 2
    rest = [i for i in range(w) if i not in subset]
    x, y = _delsarte_lp(list(zip(*(twice[i:i + w] for i in subset))), size)
    scale = 1 + math.fsum(y)
    x_rest = [(1 + math.fsum(map(float.__mul__, y, twice[i:i + w])) / size) / scale for i in rest]
    bounds = []
    for side, weights in ((subset, x), (rest, x_rest)):
        rows = zip(*(twice[i:i + w] for i in side))  # row j: eta[(i + j) % w], i on this side
        slack = 1 + min(math.fsum(map(float.__mul__, weights, row)) for row in rows)
        slop = THETA_MARGIN * (1 + sum(map(abs, weights)) * (size + max(map(abs, periods))))
        bounds.append(max(1.0, 1 + size * math.fsum(weights) / max(1.0, 1 - slack + slop)))
    return bounds[0], bounds[1]


def eigen_oracle(g: Graph) -> list[float]:
    """Dense symmetric eigensolver on the adjacency matrix, descending order.
    Validation oracle only; capped at 200 vertices."""
    import numpy as np

    n = g.n_vertices
    if n > EIGEN_CAP:
        raise TooLargeError(f"{n} vertices exceeds the eigensolver cap {EIGEN_CAP}")
    mat = np.zeros((n, n))
    for u in range(n):
        for v in iter_bits(g.adjacency[u]):
            mat[u, v] = 1.0
    vals = np.linalg.eigvalsh(mat)
    return [float(x) for x in vals[::-1]]


def feasible_clique_sizes(field: FieldTables, m: int) -> frozenset[int]:
    """All k = p^t (t | n, t < n) that survive the necessary conditions for the
    residue graph to have clique number = chromatic number = k:
    (k-1) must divide the degree and the least eigenvalue must equal
    r = -degree/(k-1).  An empty result proves the two invariants differ.
    When no k passes the divisibility test (always so for prime q) the
    result is empty before any period is computed.
    The least eigenvalue fixes k, so at most one k survives, and for it
    theta(complement) = 1 + degree/(-r) = k exactly.

    The test is exact.  With c[j][t] the number of elements of coset j whose
    trace is t, eta_j = sum_t c[j][t] * zeta^t for a primitive p-th root of
    unity zeta; since 1, zeta, ..., zeta^(p-2) are linearly independent over
    Q and 1 + zeta + ... + zeta^(p-1) = 0, eta_j is rational iff
    c[j][1] = ... = c[j][p-1], and then eta_j = c[j][0] - c[j][1].  k is
    accepted when some rational period equals the integer r and no period
    lies below it.  An irrational period never equals r, so comparing its
    float value (from `gauss_periods`) with r decides only a strict
    inequality.
    """
    q, p, n = field.q, field.p, field.n
    validate_residue_params(q, m)
    degree = (q - 1) // m
    sizes = [k for k in (p**t for t in divisors(n)[:-1]) if degree % (k - 1) == 0]
    if not sizes:
        return frozenset()
    counts = [[0] * p for _ in range(m)]
    tr = field.trace
    for k, e in enumerate(field.exp):
        counts[k % m][tr[e]] += 1
    least_rational = least_irrational = math.inf
    for c, eta in zip(counts, gauss_periods(field, m)):
        if len(set(c[1:])) == 1:
            least_rational = min(least_rational, c[0] - c[1])
        else:
            least_irrational = min(least_irrational, eta)
    return frozenset(k for k in sizes if -degree // (k - 1) == least_rational < least_irrational)
