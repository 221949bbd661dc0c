"""Exact clique, independence, and chromatic numbers with verified witnesses.

The clique solver is a bitset branch-and-bound with greedy-coloring upper
bounds at every node (vertices pre-ordered by degeneracy).  The chromatic
solver tests k-colorability for k = lower, lower+1, ... with MRV branching,
canonical introduction of new colors, and clique-seeded pre-coloring.  Its
domains are kept transposed, as one allow-mask per color (the vertices that
may still take it), so coloring v with c is allow[c] &= ~adj[v], and
forcing, wipe-out and the MRV choice are a few mask operations per color
rather than a walk over neighbors.  Its depth-first search runs off an
explicit stack of branches, each holding k-long lists of masks, so its depth
is bounded by memory, not by the interpreter's recursion limit.
Both honor a node budget and report explicit timeout bounds instead of
guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .errors import (
    BadDivisorError,
    BadInputError,
    InvalidWitnessError,
    NotUndirectedError,
    TooLargeError,
)
from .gf import FieldTables, divisors, subfield_elements
from .paley import Graph, build_paley, complement, iter_bits
from .spectral import theta_pair

DEFAULT_BUDGET = 10**8
BRUTE_FORCE_CAP = 16


class _Exhausted(Exception):
    pass


class _Done(Exception):
    pass


class _Budget:
    __slots__ = ("remaining", "spent")

    def __init__(self, limit: int):
        self.remaining = limit
        self.spent = 0

    def step(self) -> None:
        self.remaining -= 1
        self.spent += 1
        if self.remaining < 0:
            raise _Exhausted


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one exact search: either exact (lower == upper) with a
    verified witness, or a timeout carrying sound bracketing bounds."""

    exact: bool
    lower: int
    upper: int
    witness: tuple[int, ...]
    nodes: int

    @property
    def value(self) -> int:
        if not self.exact:
            raise RuntimeError(f"search timed out with bounds [{self.lower}, {self.upper}]")
        return self.lower


def _degeneracy_order(adj: list[int], n: int) -> tuple[list[int], int]:
    """Min-degree elimination order (ties broken by smallest index)."""
    alive = (1 << n) - 1
    degs = [adj[v].bit_count() for v in range(n)]
    order = []
    degeneracy = 0
    for _ in range(n):
        best_v, best_d = -1, n + 1
        m = alive
        # inline bit loop: the iter_bits generator is measurably slower on this hot path
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            if degs[v] < best_d:
                best_d = degs[v]
                best_v = v
        degeneracy = max(degeneracy, best_d)
        order.append(best_v)
        alive ^= 1 << best_v
        for u in iter_bits(adj[best_v] & alive):
            degs[u] -= 1
    return order, degeneracy


def _greedy_clique(adj: list[int], n: int, seeds: list[int]) -> list[int]:
    """Deterministic greedy clique used to seed the branch-and-bound."""
    best: list[int] = []
    for seed in seeds:
        clique = [seed]
        cand = adj[seed]
        while cand:
            pick, pick_key = -1, (-1, 0)
            m = cand
            # inline bit loop: the iter_bits generator is measurably slower on this hot path
            while m:
                b = m & -m
                v = b.bit_length() - 1
                m ^= b
                key = ((adj[v] & cand).bit_count(), -v)
                if key > pick_key:
                    pick_key = key
                    pick = v
            clique.append(pick)
            cand &= adj[pick]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _dsatur_coloring(adj: list[int], n: int) -> list[int]:
    """Greedy saturation-degree coloring; deterministic tie-breaking."""
    colors = [-1] * n
    sat = [0] * n
    degs = [adj[v].bit_count() for v in range(n)]
    for _ in range(n):
        best_v, best_key = -1, (-1, -1, 1)
        for v in range(n):
            if colors[v] < 0:
                key = (sat[v].bit_count(), degs[v], -v)
                if key > best_key:
                    best_key = key
                    best_v = v
        c = 0
        used = sat[best_v]
        while (used >> c) & 1:
            c += 1
        colors[best_v] = c
        for u in iter_bits(adj[best_v]):
            if colors[u] < 0:
                sat[u] |= 1 << c
    return colors


def _check_clique(adj: list[int], vertices) -> bool:
    vs = list(vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if not (adj[u] >> v) & 1:
                return False
    return True


def _check_independent(adj: list[int], vertices) -> bool:
    vs = list(vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if (adj[u] >> v) & 1:
                return False
    return True


class _CliqueState:
    __slots__ = ("adj", "best_len", "best", "stack", "budget", "cap")

    def __init__(self, adj, best, budget, cap):
        self.adj = adj
        self.best = list(best)
        self.best_len = len(best)
        self.stack: list[int] = []
        self.budget = budget
        self.cap = cap


def _clique_expand(state: _CliqueState, r_len: int, cand: int) -> None:
    state.budget.step()
    adj = state.adj
    # Greedy color partition of the candidate set; the class index bounds the
    # clique size attainable from each vertex.
    order: list[int] = []
    bound: list[int] = []
    q = cand
    c = 0
    while q:
        c += 1
        avail = q
        while avail:
            b = avail & -avail
            v = b.bit_length() - 1
            order.append(v)
            bound.append(c)
            avail &= ~adj[v] & ~b
            q ^= b
    stack = state.stack
    for i in range(len(order) - 1, -1, -1):
        if r_len + bound[i] <= state.best_len:
            return
        v = order[i]
        cand &= ~(1 << v)
        sub = cand & adj[v]
        stack.append(v)
        if sub:
            _clique_expand(state, r_len + 1, sub)
        elif r_len + 1 > state.best_len:
            state.best_len = r_len + 1
            state.best = stack.copy()
            if state.best_len >= state.cap:
                raise _Done
        stack.pop()


def clique_number(
    g: Graph,
    lower_hint: int = 0,
    upper_hint: int | None = None,
    budget: int | None = None,
    witness_hint=None,
) -> SearchResult:
    """Exact maximum clique with witness.

    upper_hint must be a sound upper bound (it prunes; it is also used for
    early exit once matched).  witness_hint, when given, must be a clique and
    seeds the incumbent.  lower_hint is advisory only.
    """
    n = g.n_vertices
    adj = list(g.adjacency)
    if n == 0:
        return SearchResult(True, 0, 0, (), 0)
    order, degeneracy = _degeneracy_order(adj, n)
    cap = min(upper_hint if upper_hint is not None else n, degeneracy + 1, n)

    start = _greedy_clique(adj, n, list(reversed(order))[: min(n, 48)])
    if witness_hint:
        wit = sorted(witness_hint)
        if not _check_clique(adj, wit):
            raise InvalidWitnessError("witness_hint is not a clique")
        if len(wit) > len(start):
            start = wit
    if len(start) >= cap:
        return SearchResult(True, len(start), len(start), tuple(sorted(start)), 0)

    # Search in degeneracy-ranked labels.
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    adj2 = [0] * n
    for v in range(n):
        r = 0
        for u in iter_bits(adj[v]):
            r |= 1 << rank[u]
        adj2[rank[v]] = r
    bud = _Budget(budget if budget is not None else DEFAULT_BUDGET)
    state = _CliqueState(adj2, [rank[v] for v in start], bud, cap)
    exact = True
    try:
        _clique_expand(state, 0, (1 << n) - 1)
    except _Done:
        pass
    except _Exhausted:
        exact = False
    witness = tuple(sorted(order[i] for i in state.best))
    if exact:
        return SearchResult(True, len(witness), len(witness), witness, bud.spent)
    return SearchResult(False, len(witness), cap, witness, bud.spent)


def independence_number(g: Graph, budget: int | None = None, upper_hint: int | None = None,
                        witness_hint=None) -> SearchResult:
    """Exact independence number: maximum clique of the complement."""
    return clique_number(complement(g), upper_hint=upper_hint, budget=budget,
                         witness_hint=witness_hint)


def _assign(adj: list[int], k: int, allow: list[int], cls: list[int],
            uncol: int, used: int, v: int, c: int) -> tuple[int, int]:
    """Color v with c in place, then every vertex the assignment forces.

    State: allow[c] holds the vertices that may still take color c, cls[c]
    the vertices colored c, and uncol the uncolored vertices; colors from
    `used` on were never assigned, so their allow-masks are still full.
    Coloring v with c costs allow[c] &= ~adj[v].  The uncolored neighbors
    that lose c by it (`hit`) are pushed as one mask on a stack of pending
    masks, and the cascade takes the highest forced vertex of the top mask:
    while colors are left unused, one with no used color left (it takes the
    lowest fresh color, WLOG); once all k are used, one with a single color
    left.  Returns (uncol, used), with used = -1 when some vertex is left
    without an option.
    """
    pending: list[int] = []
    while True:
        bit = 1 << v
        uncol ^= bit
        cls[c] |= bit
        if c == used:
            used += 1
        nbrs = adj[v]
        hit = nbrs & uncol & allow[c]
        allow[c] &= ~nbrs
        if used == k:
            ones = twos = 0
            for a in allow:
                twos |= ones & a
                ones |= a
            if hit & ~ones:
                return uncol, -1
            forced = uncol & ones & ~twos
        else:
            some = 0
            for a in allow[:used]:
                some |= a
            forced = uncol & ~some
        if hit:
            pending.append(hit)
        while pending:
            top = pending.pop()
            found = top & forced
            if found:
                v = found.bit_length() - 1
                # Popping a pending vertex that is colored or not forced does
                # nothing, and the state does not change between pops, so the
                # bits of `top` above v would all be popped for nothing before
                # v is reached: dropping them keeps the cascade order.
                rest = top & ((1 << v) - 1)
                if rest:
                    pending.append(rest)
                break
        else:
            return uncol, used
        if used < k:
            c = used
        else:
            c = 0
            while not allow[c] >> v & 1:
                c += 1


def _fewest_options(allow: list[int], uncol: int, used: int) -> int:
    """The uncolored vertices with the fewest used colors left.

    Threshold masks: ge[j] holds the uncolored vertices with at least j of
    the `used` colors left, and the answer is the first nonempty
    ge[j] & ~ge[j + 1].
    """
    ge = [uncol] + [0] * used
    for c in range(used):
        a = allow[c]
        for j in range(c + 1, 0, -1):
            ge[j] |= ge[j - 1] & a
    ge.append(0)
    j = 0
    while ge[j] == ge[j + 1]:
        j += 1
    return ge[j] ^ ge[j + 1]


def _k_colorable(adj: list[int], n: int, k: int, seed_clique, budget: _Budget):
    """Decide proper k-colorability.  Returns ("sat", coloring) /
    ("unsat", None); raises _Exhausted on budget.

    Depth-first search over an explicit stack of pending branches
    (allow, cls, uncol, used, v, c): the parent's state as k allow-masks,
    k color-class masks and the uncolored set (see _assign), and the choice
    v := c.  Popping a branch copies the two k-long lists and applies the
    choice and everything it forces to the copies, so no state is ever
    undone.  A node that survives branches on its MRV vertex, the key
    (options, -degree, v) read off threshold masks, and spends one budget
    step; its choices are pushed in reverse so that the existing colors are
    tried in ascending order and the lowest fresh color last.
    """
    if n == 0:
        return "sat", ()
    if k <= 0 or len(seed_clique) > k:
        return "unsat", None
    if k >= n:
        return "sat", tuple(range(n))
    uncol = (1 << n) - 1
    allow = [uncol] * k
    cls = [0] * k
    for c, v in enumerate(seed_clique):
        cls[c] = 1 << v
        uncol ^= 1 << v
        allow[c] &= ~adj[v]
    used = len(seed_clique)
    if used == k:
        some = 0
        for a in allow:
            some |= a
        if uncol & ~some:
            return "unsat", None
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    degree_classes = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    stack = [(allow, cls, uncol, used, -1, 0)]  # the seeded root: no choice to apply
    while stack:
        allow, cls, uncol, used, v, c = stack.pop()
        if v >= 0:
            allow, cls = allow.copy(), cls.copy()
            uncol, used = _assign(adj, k, allow, cls, uncol, used, v, c)
            if used < 0:
                continue
        if not uncol:
            coloring = [0] * n
            for c, members in enumerate(cls):
                for u in iter_bits(members):
                    coloring[u] = c
            return "sat", tuple(coloring)
        # MRV key (options, -degree, v): the fewest options, then the
        # highest degree class, then the lowest vertex.
        fewest = _fewest_options(allow, uncol, used)
        for members in degree_classes:
            if fewest & members:
                fewest &= members
                break
        v = (fewest & -fewest).bit_length() - 1
        budget.step()
        if used < k:
            # Color `used` was never assigned anywhere, so v may take it;
            # introducing exactly the lowest unused color keeps the search
            # complete while killing color-permutation symmetry.
            stack.append((allow, cls, uncol, used, v, used))
        for c in range(used - 1, -1, -1):
            if allow[c] >> v & 1:
                stack.append((allow, cls, uncol, used, v, c))
    return "unsat", None


def k_colorable(g: Graph, k: int, budget: int | None = None, clique_hint=()):
    """Public k-colorability test: returns (status, coloring, nodes) with
    status "sat" | "unsat" | "timeout"."""
    adj = list(g.adjacency)
    seed = sorted(clique_hint)
    if seed and not _check_clique(adj, seed):
        raise InvalidWitnessError("clique_hint is not a clique")
    bud = _Budget(budget if budget is not None else DEFAULT_BUDGET)
    try:
        status, coloring = _k_colorable(adj, g.n_vertices, k, seed, bud)
    except _Exhausted:
        return "timeout", None, bud.spent
    return status, coloring, bud.spent


def _normalize_coloring(coloring) -> tuple[int, ...]:
    """Renumber colors in order of first appearance (deterministic witness)."""
    seen: dict[int, int] = {}
    out = []
    for c in coloring:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return tuple(out)


def chromatic_number(
    g: Graph,
    lower: int | None = None,
    upper: int | None = None,
    budget: int | None = None,
    clique_hint=None,
) -> SearchResult:
    """Exact chromatic number with a proper coloring witness.

    k-colorability is tested upward from the lower bound, so the first
    satisfiable k is exact.  `lower` must be sound if supplied; the clique
    witness (computed here when not passed in) seeds every k-test.  The
    search's own upper bound always comes from a greedy coloring it can
    exhibit; a supplied `upper` is only cross-checked, and a proved
    contradiction with it raises BadInputError instead of returning.
    """
    n = g.n_vertices
    if n == 0:
        return SearchResult(True, 0, 0, (), 0)
    adj = list(g.adjacency)
    bud_total = budget if budget is not None else DEFAULT_BUDGET
    spent = 0

    clique = sorted(clique_hint) if clique_hint else None
    if clique is not None and not _check_clique(adj, clique):
        raise InvalidWitnessError("clique_hint is not a clique")
    if clique is None:
        cres = clique_number(g, budget=bud_total)
        spent += cres.nodes
        clique = list(cres.witness)

    greedy = _dsatur_coloring(adj, n)
    ub = max(greedy) + 1
    ub_witness = _normalize_coloring(greedy)
    lo = max(lower if lower is not None else 1, len(clique), 1)
    if lo > ub:
        raise BadInputError(f"chromatic lower bound {lo} exceeds the verified upper bound {ub}")

    k = lo
    while k < ub:
        status, coloring, nodes = k_colorable(g, k, budget=bud_total - spent, clique_hint=clique)
        spent += nodes
        if status == "sat":
            return SearchResult(True, k, k, _normalize_coloring(coloring), spent)
        if status == "timeout":
            return SearchResult(False, k, ub, ub_witness, spent)
        if upper is not None and k >= upper:
            raise BadInputError(f"claimed upper bound {upper} refuted: not {k}-colorable")
        k += 1
    return SearchResult(True, ub, ub, ub_witness, spent)


@dataclass(frozen=True)
class InvariantCertificate:
    """Exact invariants of one graph with checkable witnesses.

    For status "timeout" the unknown numbers are None and `bounds` brackets
    them; witnesses always satisfy their defining conditions.
    """

    omega: int | None
    alpha: int | None
    chi: int | None
    clique: tuple[int, ...]
    independent_set: tuple[int, ...]
    coloring: tuple[int, ...] | None
    status: str  # "exact" | "timeout"
    bounds: dict

    def to_json_dict(self) -> dict:
        return {
            "omega": self.omega,
            "alpha": self.alpha,
            "chi": self.chi,
            "clique": list(self.clique),
            "independent_set": list(self.independent_set),
            "coloring": list(self.coloring) if self.coloring is not None else None,
            "status": self.status,
            "bounds": {key: list(val) for key, val in self.bounds.items()},
        }


def verify_certificate(g: Graph, cert: InvariantCertificate) -> None:
    """Raise InvalidWitnessError unless every witness checks out against g."""
    adj = list(g.adjacency)
    if not _check_clique(adj, cert.clique):
        raise InvalidWitnessError("clique witness is not a clique")
    if not _check_independent(adj, cert.independent_set):
        raise InvalidWitnessError("independent-set witness is not independent")
    if cert.omega is not None and len(cert.clique) != cert.omega:
        raise InvalidWitnessError("clique witness size differs from omega")
    if cert.alpha is not None and len(cert.independent_set) != cert.alpha:
        raise InvalidWitnessError("independent-set witness size differs from alpha")
    if cert.coloring is not None:
        if len(cert.coloring) != g.n_vertices:
            raise InvalidWitnessError("coloring length differs from vertex count")
        for u in range(g.n_vertices):
            for v in iter_bits(adj[u]):
                if v > u and cert.coloring[u] == cert.coloring[v]:
                    raise InvalidWitnessError(f"coloring is not proper on edge ({u},{v})")
        n_colors = len(set(cert.coloring))
        if cert.chi is not None and n_colors != cert.chi:
            raise InvalidWitnessError("coloring does not use exactly chi colors")
    if cert.omega is not None and cert.chi is not None and cert.omega > cert.chi:
        raise InvalidWitnessError("omega exceeds chi")


def product_certificate(g: Graph, clique, independent_set):
    """If |C|*|A| equals the vertex count of a vertex-transitive graph, C and A
    are extremal, so (omega, alpha) is exact without any search."""
    adj = list(g.adjacency)
    c = sorted(set(clique))
    a = sorted(set(independent_set))
    if not _check_clique(adj, c):
        raise InvalidWitnessError("supplied clique is not a clique")
    if not _check_independent(adj, a):
        raise InvalidWitnessError("supplied independent set is not independent")
    if len(c) * len(a) == g.n_vertices:
        return len(c), len(a)
    return None


def subfield_clique(field: FieldTables, m: int, t: int):
    """Subfield GF(p^t) as a clique of the m-th power residue graph, present
    exactly when (p^t - 1) | (q-1)/m (the subfield's units are residues)."""
    q = field.q
    if (q - 1) % (2 * m):
        raise NotUndirectedError(f"2m={2 * m} does not divide q-1={q - 1}")
    if t < 1 or field.n % t:
        raise BadDivisorError(f"t={t} does not divide n={field.n}")
    sub_order = field.p**t - 1
    if ((q - 1) // m) % sub_order:
        return None
    return tuple(sorted(subfield_elements(field, t)))


def best_subfield_clique(field: FieldTables, m: int) -> tuple[int, ...] | None:
    """Largest proper subfield GF(p^t), t | n and t < n, that is a clique of
    the m-th power residue graph; None when no proper subfield is one."""
    best = None
    for t in divisors(field.n):
        if t == field.n:
            continue
        sc = subfield_clique(field, m, t)
        if sc is not None and (best is None or len(sc) > len(best)):
            best = sc
    return best


def brute_force_invariants(g: Graph) -> InvariantCertificate:
    """Oracle: omega/alpha by full subset enumeration, chi by exhaustive
    sequential backtracking.  Hard-capped at 16 vertices."""
    n = g.n_vertices
    if n > BRUTE_FORCE_CAP:
        raise TooLargeError(f"{n} vertices exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    adj = list(g.adjacency)
    cadj = list(complement(g).adjacency)

    def max_subset(rows) -> tuple[int, ...]:
        best_mask, best_size = 0, 0
        for mask in range(1, 1 << n):
            size = mask.bit_count()
            if size <= best_size:
                continue
            if all((rows[v] & mask) == (mask & ~(1 << v)) for v in iter_bits(mask)):
                best_mask, best_size = mask, size
        return tuple(iter_bits(best_mask))

    clique = max_subset(adj)
    independent = max_subset(cadj)

    def colorable(k: int):
        colors = [-1] * n

        def rec(v: int, used: int):
            if v == n:
                return True
            cap = min(k, used + 1)
            for c in range(cap):
                ok = True
                for u in iter_bits(adj[v]):
                    if u < v and colors[u] == c:
                        ok = False
                        break
                if ok:
                    colors[v] = c
                    if rec(v + 1, max(used, c + 1)):
                        return True
                    colors[v] = -1
            return False

        if rec(0, 0):
            return tuple(colors)
        return None

    k = len(clique)
    while True:
        coloring = colorable(k)
        if coloring is not None:
            break
        k += 1
    cert = InvariantCertificate(
        omega=len(clique),
        alpha=len(independent),
        chi=k,
        clique=clique,
        independent_set=independent,
        coloring=_normalize_coloring(coloring),
        status="exact",
        bounds={"omega": (len(clique),) * 2, "alpha": (len(independent),) * 2, "chi": (k, k)},
    )
    verify_certificate(g, cert)
    return cert


def _coset_coloring(field: FieldTables, subgroup) -> tuple[int, ...]:
    """Color map whose classes are the additive cosets of `subgroup`."""
    q = field.q
    add = field.add
    members = sorted(subgroup)
    color = [-1] * q
    next_color = 0
    for v in range(q):
        if color[v] < 0:
            for a in members:
                color[add(v, a)] = next_color
            next_color += 1
    return tuple(color)


def paley_certificate(field: FieldTables, m: int, budget: int | None = None) -> InvariantCertificate:
    """Exact invariants of the m-th power residue graph on GF(q).

    Shortcut: when the half-degree subfield GF(p^(n/2)) is a clique, its
    gamma-multiple is an independent set of the same size, the product
    certificate pins omega = alpha = p^(n/2), and the additive cosets of the
    multiplied subfield give a proper coloring with exactly omega colors, so
    chi = omega with no search.  Otherwise: spectral bounds + search.
    """
    g = build_paley(field, m)
    q = field.q
    rep = theta_pair(field, m)
    omega_ub = int(rep.theta_complement + 1e-6)
    chi_lb_spectral = ceil(rep.theta_complement - 1e-6)
    alpha_ub = int(rep.theta + 1e-6)

    best_sub = best_subfield_clique(field, m)
    if best_sub is not None and len(best_sub) ** 2 == q:
        mul = field.mul
        gamma = field.gamma
        indep = tuple(sorted(mul(c, gamma) for c in best_sub))
        pair = product_certificate(g, best_sub, indep)
        if pair is None:  # unreachable: |C| * |A| = q by construction
            raise InvalidWitnessError("product certificate failed to fire")
        omega, alpha = pair
        coloring = _coset_coloring(field, indep)
        cert = InvariantCertificate(
            omega=omega,
            alpha=alpha,
            chi=omega,
            clique=best_sub,
            independent_set=indep,
            coloring=coloring,
            status="exact",
            bounds={"omega": (omega, omega), "alpha": (alpha, alpha), "chi": (omega, omega)},
        )
        verify_certificate(g, cert)
        return cert

    bud = budget if budget is not None else DEFAULT_BUDGET
    indep_hint = None
    if best_sub is not None:
        mul = field.mul
        gamma = field.gamma
        indep_hint = tuple(sorted(mul(c, gamma) for c in best_sub))
    omega_res = clique_number(g, upper_hint=omega_ub, budget=bud, witness_hint=best_sub)
    alpha_res = clique_number(complement(g), upper_hint=alpha_ub, budget=bud, witness_hint=indep_hint)
    chi_lo = chi_lb_spectral
    if omega_res.exact:
        chi_lo = max(chi_lo, omega_res.value)
    else:
        chi_lo = max(chi_lo, omega_res.lower)
    # chi >= q / alpha needs an upper bound on alpha; exact alpha is best.
    chi_lo = max(chi_lo, ceil(q / alpha_res.upper))
    chi_res = chromatic_number(g, lower=chi_lo, budget=bud, clique_hint=omega_res.witness)

    exact = omega_res.exact and alpha_res.exact and chi_res.exact
    cert = InvariantCertificate(
        omega=omega_res.value if omega_res.exact else None,
        alpha=alpha_res.value if alpha_res.exact else None,
        chi=chi_res.value if chi_res.exact else None,
        clique=omega_res.witness,
        independent_set=alpha_res.witness,
        coloring=chi_res.witness if chi_res.exact else None,
        status="exact" if exact else "timeout",
        bounds={
            "omega": (omega_res.lower, omega_res.upper),
            "alpha": (alpha_res.lower, alpha_res.upper),
            "chi": (chi_res.lower, chi_res.upper),
        },
    )
    if exact:
        verify_certificate(g, cert)
    return cert
