"""Exact clique, independence, and chromatic numbers with verified witnesses.

The clique solver is a bitset branch-and-bound with greedy-coloring upper
bounds at every node (vertices pre-ordered by degeneracy).  With no
multiplier its incumbent is the 48-seed greedy start, `_greedy_start`,
which chi also takes as its seed.  The chromatic solver tests
k-colorability for k = lower, lower+1, ... with MRV branching, canonical
introduction of new colors, and clique-seeded pre-coloring.  Its domains
are kept transposed, as one allow-mask per color (the vertices that may
still take it), so coloring v with c is allow[c] &= ~adj[v].  Beside them
lie threshold masks, lost[j] holding the vertices that have lost at least
j colors, which only the neighbors that just lost c move up: forcing is
lost[used] (lost[k - 1] once all k colors are used), wipe-out a neighbor
reaching lost[k], and the MRV choice the top level the uncolored vertices
meet, so a step walks the levels of the vertices it changed rather than
all k allow-masks, and no step walks the neighbors.  The DSATUR coloring
behind chi's upper bound keeps its saturation the same way, and picks its
vertex off the top level.  Both depth-first searches run off
explicit stacks (the clique search's frames hold a candidate set and its
color order, the coloring's branches k-long lists of masks), so their depth
is bounded by memory, not by the interpreter's recursion limit.  All searches
of one public call share one node meter, whose step returns False once the
budget is spent; the search that meets it returns its own timeout, with
explicit bounds.  One builder, `_certificate`, turns the clique,
independent-set and coloring results into an `InvariantCertificate`, for
the searched certificates and the no-search ones (brute force, omega = chi)
alike, and verifies it whenever all three are exact.

Before any k-test, chi closes its bound from above.  While lo < ub and
more than PROBE nodes are left, a Tabucol search (`_tabu_coloring`) looks
for a (ub - 1)-coloring, starting from the best coloring so far with its
top class squeezed (`_squeeze`: each vertex of color ub - 1 takes the
color the fewest of its neighbors hold), on at most min(PROBE, left -
PROBE) moves of the call's meter.  A coloring lowers ub and becomes the
timeout's witness; the first failure ends the phase.  So the first k-test
keeps a full probe, and with at most PROBE nodes left the phase does not
run.  On the q <= 81 sweep at budget 50,000 it closes 28 of the 31 graphs
that reach it, with no k-test and no `_chi_seed`.

Each k-test of chi is one k_colorable call on one meter (`_KTest`).  It
opens with a probe: the exhaustive search on PROBE (4,096) nodes, or on
what the meter has left when that is less, so with at most PROBE nodes
left the probe is the whole k-test.  Of the three k-tests left on the
q <= 81 sweep, the probe decides (41, 5)'s.  Past it, a Tabucol search
from a random coloring gets half the nodes left, at most TABU_MOVES
moves, on the meter the probe's timeout leaves, and a coloring it finds
is exact, since every smaller k is already excluded.  It runs in a forked
child (`_child.Child`) started at PROBE // 4 steps when it gets a move,
else, or when the child dies or the fork fails, here on the same meter
values.  A tabu coloring ends the k-test.  Else, since an exhaustive
search restarted from the root would first repeat the probe's PROBE
nodes, the meter charges them and the tabu moves at the probe's end and
lets the probe's search run on as that restart, taking the report once
written (polled every PROBE // 4 steps).  A tabu coloring still wins,
with the tabu search's count; an unsat result stands at once, since no
coloring exists.  So every result and count is that of the stages run in
turn, whichever process ran the tabu search, and every exit closes the
child.  The cap keeps an unsatisfiable k-test on a large budget from
spending half of it on colorings that do not exist.  At budget 50,000 the
phase decides chi(73, 3) = 10 and chi(79, 3) = 9, and the k-test's tabu
search chi(61, 3) = 8, all of which the exhaustive search leaves open at
300,000 nodes; chi(81, 4) stays in [6, 7] there, as the phase finds a
7-coloring and fails at 6.  It is 7: the exhaustive 6-test is unsat
after 3,122,536 nodes, so paley_certificate decides it at budget
3,300,000 (about 47 s on a 2-vCPU Xeon).

On a graph with a multiplier (`Graph.multiplier`: every residue graph,
complement and orbital union on GF(q)) the clique search fixes vertex 0 and
branches once per orbit (orbital branching: Ostrowski, Linderoth, Rossi &
Smriglio 2011).  A Cayley graph is vertex-transitive, so a translation
carries any maximum clique onto one through 0, whose other vertices lie in
N(0).  A multiplier (field, d) makes x -> a*x, a in the d-th powers H, an
automorphism fixing 0, so N(0) is a union of H-orbits gamma^i * H.  The
one branch-and-bound, `_max_clique`, searches N(0) in the degeneracy
labels of the whole graph, and at its root alone the first vertex v of
each orbit opens the subtree of the cliques through 0 and v, and then the
whole orbit leaves the candidates; every other node drops its vertices
one at a time.  A clique through 0 and h*v, h in H, maps by x -> x/h onto
one through 0 and v that misses the orbits dropped before, as their union
is H-invariant, so no maximum clique is lost.  A timeout keeps the cap as its
upper bound.  One incumbent rule serves every such search, omega's and
alpha's alike (alpha is omega of the complement, which keeps the
multiplier): one greedy dive per orbit, from 0 and gamma^i, which may meet
the cap, else the greedy coloring of G, then that of N(0), may close the
search; a timeout's lower bound also takes the 48-seed greedy start.  So an
exact witness contains 0.  chi seeds its k-tests with that start
(`_chi_seed`), not with omega's witness: on (81, 4), seeded with (0, 1, 2)
for the start's (5, 38, 80), the 6-test is open after 6,000,000 nodes,
where it is unsat after 3,122,536.

The factorization certificate (omega = chi = p^t on an orbital union)
takes no clique or coloring search and no digit-wise field addition: its
clique is a subfield GF(p^t), 0 and a subgroup coset, and its coloring the
additive cosets of an F_p-subspace B, read off the rows of one Cayley
graph; B is gamma*GF(p^(n/2)), or the common kernel of trace functionals
x -> Tr(gamma^j x), found by ANDs of rotated bitmasks (a metered search
past the first functional).
verify_certificate checks a coloring class by class, each with the test
every independent-set witness passes.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import ceil, gcd

from ._child import Child
from .errors import (
    BadInputError,
    InvalidWitnessError,
    TooLargeError,
)
from .gf import FieldTables, subfield_elements, subgroup_coset
from .paley import (Graph, _difference_graph, build_paley, complement, iter_bits,
                    normalize_params, relabel, validate_residue_params)
from .spectral import theta_pair

DEFAULT_BUDGET = 10**8
BRUTE_FORCE_CAP = 16
PROBE = 4096  # nodes an exhaustive k-test gets before the tabu search is tried
# most moves of one tabu search: under a second on the q <= 81 graphs, but
# 29 s on (729, 13) at k = 9 against 8 s for 10^5 exhaustive nodes (2-vCPU Xeon)
TABU_MOVES = 50_000
TABU_SEED = 4


class _Budget:
    """The node meter of one public call: the step past `limit` returns
    False and leaves `spent` at limit + 1, where it stays."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    @classmethod
    def of(cls, budget: _Budget | int | None) -> _Budget:
        """An enclosing call's meter itself, else a new one (None: DEFAULT_BUDGET)."""
        if isinstance(budget, _Budget):
            return budget
        return cls(DEFAULT_BUDGET if budget is None else budget)

    def step(self) -> bool:
        """Spend one node: True while the limit allows it, else False."""
        if self.spent >= self.limit:
            self.spent = self.limit + 1
            return False
        self.spent += 1
        return True

    def spend(self, nodes: int) -> bool:
        """Spend `nodes` nodes at once: True while the limit allows them
        all, else False, as the step past the limit."""
        if self.spent + nodes > self.limit:
            self.spent = self.limit + 1
            return False
        self.spent += nodes
        return True


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
    """Min-degree elimination order (ties broken by smallest index).

    bucket[d] holds the remaining vertices of degree d, so each step takes
    the lowest bit of the least nonempty bucket, and removing v moves its
    remaining neighbors down one bucket, a mask at a time.  The least
    degree falls by at most one per step, so its scan restarts one below.
    """
    bucket = [0] * n
    for v in range(n):
        bucket[adj[v].bit_count()] |= 1 << v
    alive = (1 << n) - 1
    order = []
    degeneracy = d = 0
    for _ in range(n):
        while not bucket[d]:
            d += 1
        low = bucket[d] & -bucket[d]
        bucket[d] ^= low
        alive ^= low
        v = low.bit_length() - 1
        order.append(v)
        degeneracy = max(degeneracy, d)
        nbrs = adj[v] & alive
        k = d
        while nbrs:
            moved = bucket[k] & nbrs
            if moved:
                bucket[k] ^= moved
                bucket[k - 1] |= moved
                nbrs ^= moved
            k += 1
        d = max(d - 1, 0)
    return order, degeneracy


def _greedy_clique(adj: list[int], seeds: list[int], cap: int, base: int = -1) -> list[int]:
    """Deterministic greedy clique used to seed the branch-and-bound: the
    longest of the cliques grown from each seed (from `base` and the seed,
    when base >= 0), the first on a tie.

    A later seed replaces the best only when strictly longer, so the seeds
    stop once the best reaches `cap`, a sound upper bound on omega, and a
    seed is dropped once its clique plus every candidate left cannot beat
    the best.  Neither changes the clique returned.
    """
    best: list[int] = []
    for seed in seeds:
        if len(best) >= cap:
            break
        clique = [seed] if base < 0 else [base, seed]
        cand = adj[seed] & adj[clique[0]]
        while cand and len(clique) + cand.bit_count() > len(best):
            # The most neighbors in cand, the lowest v on a tie (the scan
            # ascends); no candidate beats one adjacent to all the others.
            pick, pick_count = -1, -1
            full = cand.bit_count() - 1
            m = cand
            # inline bit loop: the iter_bits generator is measurably slower on this hot path
            while m:
                b = m & -m
                v = b.bit_length() - 1
                m ^= b
                count = (adj[v] & cand).bit_count()
                if count > pick_count:
                    pick_count = count
                    pick = v
                    if count == full:
                        break
            clique.append(pick)
            cand &= adj[pick]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _raise_levels(levels: list[int], hit: int) -> None:
    """Add one to the count of every vertex of `hit`, in place.

    levels[j] holds the vertices whose count is at least j (levels[0] = -1,
    every vertex), so the chain shrinks as j grows, and a vertex of `hit`
    moves up from its top level only.  The walk stops at the first level
    no `hit` vertex reaches, so `levels` needs an entry for every count the
    raise reaches and no more.
    """
    below = levels[0]
    j = 1
    while True:
        moved = below & hit
        if not moved:
            return
        below = levels[j]
        levels[j] = below | moved
        j += 1


def _degree_classes(adj: list[int], n: int) -> list[int]:
    """The vertex masks of equal degree, highest degree first."""
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    return [by_degree[d] for d in sorted(by_degree, reverse=True)]


def _most_constrained(levels: list[int], j: int, uncol: int, degree_classes: list[int]) -> int:
    """The vertex of `uncol` with the key (level, degree, -v) highest: the
    top one of levels[j], levels[j - 1], ... that `uncol` meets, then the
    highest degree class, then the lowest bit."""
    while not levels[j] & uncol:
        j -= 1
    pick = levels[j] & uncol
    for members in degree_classes:
        if pick & members:
            pick &= members
            break
    return (pick & -pick).bit_length() - 1


def _dsatur_coloring(adj: list[int], n: int) -> list[int]:
    """Greedy saturation-degree coloring; deterministic tie-breaking.

    The next vertex has the key (saturation, degree, -v) highest among the
    uncolored ones, read off threshold masks: sat[j] holds the vertices
    with at least j distinct neighbor colors, with one empty level on top.
    near[c] holds the vertices with a neighbor colored c, so coloring v
    with c raises the saturation of its uncolored neighbors outside near[c]
    alone, and v takes the lowest c whose near[c] misses it.
    """
    colors = [-1] * n
    sat = [-1, 0]
    near = [0] * n  # v takes a color below its degree + 1
    degree_classes = _degree_classes(adj, n)
    uncol = (1 << n) - 1
    while uncol:
        v = _most_constrained(sat, len(sat) - 1, uncol, degree_classes)
        uncol ^= 1 << v
        c = 0
        while near[c] >> v & 1:
            c += 1
        colors[v] = c
        _raise_levels(sat, adj[v] & uncol & ~near[c])
        near[c] |= adj[v]
        if sat[-1]:
            sat.append(0)
    return colors


def _is_witness(adj: list[int], vertices, adjacent: bool) -> bool:
    """True when `vertices` are distinct vertices of the graph and every pair
    of them is adjacent (a clique) or, with adjacent=False, none is (an
    independent set)."""
    n = len(adj)
    mask = 0
    for v in vertices:
        if not 0 <= v < n or mask >> v & 1:
            return False
        mask |= 1 << v
    for v in vertices:
        others = mask ^ (1 << v)
        if adj[v] & others != (others if adjacent else 0):
            return False
    return True


def _greedy_classes(adj: list[int], cand: int) -> tuple[list[int], list[int]]:
    """Greedy coloring of `cand`, lowest vertex first: (order, bound) lists
    the vertices class by class, bound[i] being the class index of
    order[i], so the last bound is the number of classes."""
    order: list[int] = []
    bound: list[int] = []
    c = 0
    while cand:
        c += 1
        avail = cand
        while avail:
            b = avail & -avail
            v = b.bit_length() - 1
            order.append(v)
            bound.append(c)
            avail &= ~adj[v] & ~b
            cand ^= b
    return order, bound


def _max_clique(adj: list[int], cand: int, floor: int, cap: int, budget: _Budget,
                orbit: Callable[[int], int] | None = None) -> tuple[list[int] | None, bool]:
    """Branch-and-bound for a clique inside the candidate set `cand` with
    more than `floor` vertices; returns (the largest one found, or None when
    none beats `floor`, and exact), exact False when the budget ran out first.

    A node greedily colors its candidate set, the class index bounding the
    clique through each vertex, and tries the vertices from the last class
    down until a bound cannot beat the incumbent.  The open node's (order,
    bound, i, cand) live in locals: going down pushes them with the chosen
    vertex, and closing a node pops them.  Each node opened spends one
    budget step; reaching `cap` ends the search.  A tried vertex v leaves
    the candidates, but at the root with `orbit` given its whole orbit(v),
    a mask holding v, leaves, and a root vertex already gone is skipped.
    """
    best = None
    best_len = floor
    frames: list[tuple[list[int], list[int], int, int]] = []
    clique: list[int] = []
    while True:
        if not budget.step():
            return best, False
        order, bound = _greedy_classes(adj, cand)
        r_len = len(clique)
        i = len(order)
        while True:
            i -= 1
            if i < 0 or r_len + bound[i] <= best_len:
                if not frames:
                    return best, True
                order, bound, i, cand = frames.pop()
                clique.pop()
                r_len -= 1
                continue
            v = order[i]
            sub = cand & adj[v]
            if frames or orbit is None:
                cand &= ~(1 << v)
            elif cand >> v & 1:
                cand &= ~orbit(v)
            else:
                continue
            if sub:
                frames.append((order, bound, i, cand))
                clique.append(v)
                cand = sub
                break
            if r_len + 1 > best_len:
                best = clique + [v]
                best_len = r_len + 1
                if best_len >= cap:
                    return best, True


def _greedy_start(adj: list[int], order: list[int], cap: int) -> list[int]:
    """The 48-seed greedy start: the greedy clique grown from each of the
    last 48 vertices of the degeneracy order (see _greedy_clique)."""
    return _greedy_clique(adj, list(reversed(order))[:48], cap)


def _chi_seed(adj: list[int], n: int) -> list[int]:
    """The clique chi seeds its k-tests with when given none."""
    order, degeneracy = _degeneracy_order(adj, n)
    return _greedy_start(adj, order, degeneracy + 1)


def clique_number(
    g: Graph,
    upper_hint: int | None = None,
    budget: int | _Budget | None = None,
) -> SearchResult:
    """Exact maximum clique with witness.

    upper_hint must be a sound upper bound (it prunes; it is also used for
    early exit once matched).  The incumbent is the 48-seed greedy start,
    or on a graph with a multiplier one greedy dive per orbit from 0 (see
    the module docstring).  Past it, the greedy coloring of the whole graph
    may close the search with no node; else one `_max_clique` call searches
    all vertices, or N(0) with 0 fixed and one branch per orbit at its
    root, and a timeout's lower bound also takes the 48-seed start.
    """
    n = g.n_vertices
    adj = list(g.adjacency)
    if n == 0:
        return SearchResult(True, 0, 0, (), 0)
    cap = n if upper_hint is None else upper_hint
    if g.multiplier is None:
        order, degeneracy = _degeneracy_order(adj, n)
        cap = min(cap, degeneracy + 1)
        best = _greedy_start(adj, order, cap)
    else:  # one greedy dive per orbit, from 0 and gamma^i
        field, d = g.multiplier
        cap = min(cap, adj[0].bit_count() + 1)
        best = _greedy_clique(adj, [v for v in field.exp[:d] if adj[0] >> v & 1], cap, 0) or [0]
    if len(best) >= cap:
        return SearchResult(True, len(best), len(best), tuple(best), 0)
    if g.multiplier is not None:
        order, _ = _degeneracy_order(adj, n)
    rank = [0] * n  # search in degeneracy-ranked labels
    for i, v in enumerate(order):
        rank[v] = i
    radj = relabel(g, rank).adjacency
    if g.multiplier is None:
        root, fixed, orbit = (1 << n) - 1, [], None
    else:  # vertex 0 and a clique of N(0), one H-orbit at a time at the root
        root, fixed = radj[rank[0]], [0]

        def orbit(v: int) -> int:
            return sum(1 << rank[x] for x in field.exp[field.log[order[v]] % d::d])
    meter = _Budget.of(budget)
    before = meter.spent
    if _greedy_classes(radj, (1 << n) - 1)[1][-1] <= len(best):
        exact = True  # G's coloring can bound omega tighter than that of the root
    else:
        found, exact = _max_clique(radj, root, len(best) - len(fixed), cap - len(fixed), meter,
                                   orbit)
        if found:
            best = sorted(fixed + [order[i] for i in found])
        if not exact:
            best = max(best, _greedy_start(adj, order, cap), key=len)
    return SearchResult(exact, len(best), len(best) if exact else cap, tuple(best),
                        meter.spent - before)


def independence_number(g: Graph, budget: int | _Budget | None = None,
                        upper_hint: int | None = None) -> SearchResult:
    """Exact independence number: the clique number of the complement."""
    return clique_number(complement(g), upper_hint=upper_hint, budget=budget)


def _assign(adj: list[int], k: int, allow: list[int], cls: list[int], lost: list[int],
            uncol: int, used: int, v: int, c: int) -> tuple[int, int]:
    """Color v with c in place, then every vertex the assignment forces.

    State: allow[c] holds the vertices that may still take color c, cls[c]
    the vertices colored c, lost[j] the vertices that have lost at least j
    colors (lost[0] = -1), and uncol the uncolored vertices; colors from
    `used` on were never assigned, so their allow-masks are still full and
    no vertex has lost them.  Coloring v with c costs allow[c] &= ~adj[v],
    and the uncolored neighbors that lose c by it (`hit`) move up one lost
    level; a vertex of `hit` in lost[k] is left without an option.  `hit`
    is pushed as one mask on a stack of pending masks, and the cascade
    takes the highest forced vertex of the top mask: while colors are left
    unused, one that has lost every used color (lost[used]; it takes the
    lowest fresh color, WLOG); once all k are used, one with a single color
    left (lost[k - 1]).  Returns (uncol, used), with used = -1 when some
    vertex is left without an option.
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
        if hit:
            # No vertex has lost more than `used` colors, and all k only
            # when some vertex of `hit` had lost k - 1.  Else lost[j] takes
            # the vertices of `hit` in lost[j - 1], from j = used down to the
            # first level whose lower neighbor already holds all of `hit`.
            if used == k and hit & lost[k - 1]:
                return uncol, -1
            j = used
            below = lost[j - 1]
            while below & hit != hit:
                lost[j] |= below & hit
                j -= 1
                below = lost[j - 1]
            lost[j] |= hit
            pending.append(hit)
        forced = uncol & lost[used if used < k else k - 1]
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


def _k_colorable(adj: list[int], n: int, k: int, seed_clique, budget: _Budget):
    """Decide proper k-colorability.  Returns ("sat", coloring),
    ("unsat", None), or ("timeout", None) once the budget is spent.

    Depth-first search over an explicit stack of pending branches
    (allow, cls, lost, uncol, used, v, c): the parent's state as k
    allow-masks, k color-class masks, k + 1 lost-color levels and the
    uncolored set (see _assign), and the choice v := c.  Popping a branch
    copies the three lists and applies the choice and everything it forces
    to the copies, so no state is ever undone.  A node that survives
    branches on its MRV vertex, the key (options, -degree, v) read off the
    lost levels (_most_constrained), and spends one budget step; its
    choices are pushed in reverse so that the existing colors are tried in
    ascending order and the lowest fresh color last.
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
    lost = [-1] + [0] * k
    for c, v in enumerate(seed_clique):
        cls[c] = 1 << v
        uncol ^= 1 << v
        _raise_levels(lost, adj[v])
        allow[c] &= ~adj[v]
    used = len(seed_clique)
    if uncol & lost[k]:
        return "unsat", None
    degree_classes = _degree_classes(adj, n)
    stack = [(allow, cls, lost, uncol, used, -1, 0)]  # the seeded root: no choice to apply
    while stack:
        allow, cls, lost, uncol, used, v, c = stack.pop()
        if v >= 0:
            allow, cls, lost = allow.copy(), cls.copy(), lost.copy()
            uncol, used = _assign(adj, k, allow, cls, lost, uncol, used, v, c)
            if used < 0:
                continue
        if not uncol:
            coloring = [0] * n
            for c, members in enumerate(cls):
                for u in iter_bits(members):
                    coloring[u] = c
            return "sat", tuple(coloring)
        v = _most_constrained(lost, used, uncol, degree_classes)
        if not budget.step():
            return "timeout", None
        if used < k:
            # Color `used` was never assigned anywhere, so v may take it;
            # introducing exactly the lowest unused color keeps the search
            # complete while killing color-permutation symmetry.
            stack.append((allow, cls, lost, uncol, used, v, used))
        for c in range(used - 1, -1, -1):
            if allow[c] >> v & 1:
                stack.append((allow, cls, lost, uncol, used, v, c))
    return "unsat", None


def k_colorable(g: Graph, k: int, budget: int | _Budget | None = None, clique_hint=()):
    """Public k-colorability test: returns (status, coloring, nodes) with
    status "sat" | "unsat" | "timeout"."""
    adj = list(g.adjacency)
    seed = sorted(clique_hint)
    if seed and not _is_witness(adj, seed, adjacent=True):
        raise InvalidWitnessError("clique_hint is not a clique")
    meter = _Budget.of(budget)
    before = meter.spent
    status, coloring = _k_colorable(adj, g.n_vertices, k, seed, meter)
    return status, coloring, meter.spent - before


class _Rng:
    """xorshift64 (Marsaglia 2003): the tabu search's random start and
    tie-breaks, the same on every run and Python version."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed

    def below(self, n: int) -> int:
        """A draw from 0 .. n - 1."""
        x = self.state
        x ^= x << 13 & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= x << 17 & 0xFFFFFFFFFFFFFFFF
        self.state = x
        return x % n


def _tabu_coloring(adj: list[int], n: int, k: int, meter: _Budget, moves: int,
                   start: list[int] | None = None):
    """Tabucol (Hertz & de Werra 1987): a proper k-coloring, or None once
    `moves` moves or the meter are spent.

    From `start`, else a random k-coloring, each move recolors one vertex
    that shares its color with a neighbor, to the color that lowers the
    count of conflicting edges most (ties drawn at random).  Taking v off color a makes (v, a)
    tabu for 0.6 * conflicts + r moves, r drawn from 0 .. 9, unless it would
    beat the fewest conflicts seen so far.  gamma[v][c] counts the
    neighbors of v colored c, and `bad` holds the conflicting vertices, so a
    move touches only v's neighbors.  The scan for a move first drops every
    color whose count lies above the best change found so far, the cheapest
    test, and only then tests the tabu.  Every move spends one meter step.
    """
    rng = _Rng(TABU_SEED)
    below = rng.below
    col = list(start) if start is not None else [below(k) for _ in range(n)]
    cls = [0] * k
    for v, c in enumerate(col):
        cls[c] |= 1 << v
    gamma = [[(row & members).bit_count() for members in cls] for row in adj]
    bad = conflicts = 0
    for v in range(n):
        if gamma[v][col[v]]:
            bad |= 1 << v
            conflicts += gamma[v][col[v]]
    conflicts //= 2
    tabu = [[0] * k for _ in range(n)]
    neighbors = [list(iter_bits(row)) for row in adj]
    step = meter.step
    best = conflicts
    it = 0
    while conflicts:
        if it >= moves or not step():
            return None
        it += 1
        pick_delta, picks = n, []
        m = bad
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            g = gamma[v]
            a = col[v]
            ga = g[a]
            top = pick_delta + ga  # the highest count whose move can be picked
            t = tabu[v]
            c = -1
            for gc in g:
                c += 1
                if gc > top or c == a or (t[c] >= it and conflicts + gc - ga >= best):
                    continue
                if gc < top:
                    pick_delta, picks = gc - ga, [(v, c)]
                    top = gc
                else:
                    picks.append((v, c))
        if not picks:  # every move is tabu: wait for a tenure to end
            continue
        v, c = picks[below(len(picks))]
        a = col[v]
        bit = 1 << v
        nbrs = adj[v]
        conflicts += pick_delta
        col[v] = c
        cls[a] ^= bit
        for u in neighbors[v]:
            g = gamma[u]
            g[a] -= 1
            g[c] += 1
        freed = nbrs & cls[a]
        while freed:
            b = freed & -freed
            freed ^= b
            if not gamma[b.bit_length() - 1][a]:
                bad ^= b
        bad |= nbrs & cls[c]
        cls[c] |= bit
        if gamma[v][c]:
            bad |= bit
        else:
            bad &= ~bit
        tabu[v][a] = it + conflicts * 3 // 5 + below(10)
        if conflicts < best:
            best = conflicts
    return tuple(col)


def _squeeze(adj: list[int], coloring, k: int) -> list[int]:
    """`coloring` with its color k taken out: each vertex of color k, in
    vertex order, takes the lowest color that the fewest of its neighbors
    hold (the tabu search's start at k colors)."""
    col = list(coloring)
    cls = [0] * k
    for v, c in enumerate(col):
        if c < k:
            cls[c] |= 1 << v
    for v, c in enumerate(col):
        if c == k:
            counts = [(adj[v] & members).bit_count() for members in cls]
            c = col[v] = counts.index(min(counts))
            cls[c] |= 1 << v
    return col


def _tabu_moves(limit: int, spent: int) -> int:
    """The moves of a k-test's tabu search on a meter at `spent` of `limit`:
    half of what is left, at most TABU_MOVES."""
    return min((limit - spent) // 2, TABU_MOVES)


class _KTest(_Budget):
    """The meter of one k-test of chi (see the module docstring): up to the
    probe's end it counts like _Budget(PROBE) on the caller's count, then,
    unless the tabu report is a coloring, on to the call's limit as the
    rerun.  `tabu` is that report, (spent, coloring), the coloring None
    when the search failed."""

    __slots__ = ("adj", "n", "k", "start", "call_limit", "moves", "mark", "past", "child",
                 "tabu")

    def __init__(self, adj: list[int], n: int, k: int, meter: _Budget):
        self.start = meter.spent
        super().__init__(self.start + min(PROBE, meter.limit - self.start))
        self.spent = self.start
        self.adj, self.n, self.k = adj, n, k
        self.call_limit = meter.limit
        self.moves = _tabu_moves(meter.limit, self.start + PROBE + 1)
        # the next step that is not a plain count: the fork point, else the probe's end
        self.mark = self.start + PROBE // 4 if self.moves > 0 else self.limit
        self.past = False  # past the probe's end, where the tabu report counts
        self.child = self.tabu = None

    def step(self) -> bool:
        if self.spent < self.mark:
            self.spent += 1
            return True
        return self._event()

    def _event(self) -> bool:
        if not self.past:
            if self.spent < self.limit:  # the fork point
                self.child = Child.start(self._tabu)
                self.mark = self.limit
                return self.step()
            if self.start + PROBE + 1 > self.call_limit:  # the probe was the whole k-test
                self.spent = self.limit + 1
                return False
            self.past = True
            if self.child is None or self.child.ready():
                self._take()
            if self.tabu and self.tabu[1] is not None:
                self.spent = self.limit + 1  # the probe's timeout
                return False
            # The rerun would restart from the root, and its first PROBE
            # nodes are the probe's: charge them and run on.
            self.spent = self.start + PROBE + 1 + self.moves + PROBE
            self.limit = self.call_limit
        elif self.tabu is None and self.spent < self.limit and self.child.ready():
            self._take()
            if self.tabu[1] is not None:
                return False
        if self.spent >= self.limit:
            self.spent = self.limit + 1
            return False
        self.mark = self.limit
        if self.tabu is None:
            self.mark = min(self.spent + max(PROBE // 4, 1), self.limit)
        self.spent += 1
        return True

    def _tabu(self) -> tuple[int, tuple[int, ...] | None]:
        """The tabu search on the meter the probe's timeout leaves:
        (spent, coloring)."""
        meter = _Budget(self.call_limit)
        meter.spent = self.start + PROBE + 1
        coloring = _tabu_coloring(self.adj, self.n, self.k, meter, self.moves)
        return meter.spent, coloring

    def _take(self) -> None:
        """Take the tabu report: the child's, waiting for it, else (no
        child, or a dead one) the search run here."""
        self.tabu = (self.child and self.child.result()) or self._tabu()

    def settle(self, status: str, coloring, meter: _Budget):
        """The k-test's (status, coloring), its count spent on the caller's
        meter.  Past the probe's end a tabu coloring wins, with the tabu
        search's count; an unsat result stands without the report, since no
        coloring exists."""
        if self.past and status != "unsat":
            if self.tabu is None:
                self._take()
            spent, tabu_coloring = self.tabu
            if tabu_coloring is not None:
                meter.spent = spent
                return "sat", tabu_coloring
        meter.spent = self.spent
        return status, coloring

    def close(self) -> None:
        """Kill and reap the child, if any, and close its pipe."""
        if self.child is not None:
            self.child.close()


def _normalize_coloring(coloring) -> tuple[int, ...]:
    """Renumber colors in order of first appearance (deterministic witness)."""
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(c, len(seen)) for c in coloring)


def chromatic_number(
    g: Graph,
    lower: int | None = None,
    budget: int | _Budget | None = None,
    clique_hint=None,
) -> SearchResult:
    """Exact chromatic number with a proper coloring witness.

    k-colorability is tested upward from the lower bound, so the first
    satisfiable k is exact.  `lower` must be sound if supplied; with neither
    it nor clique_hint, omega's search gives it.  clique_hint, else
    `_chi_seed`, seeds every k-test.  The upper bound comes from the DSATUR
    coloring, which tabu searches at one color fewer lower while they find
    colorings, before any k-test and with a full probe's nodes kept for the
    first; the bound is exact when it meets the lower one.  Each k-test is
    a probe, a tabu search and the probe's search run on (see the module
    docstring), all on the call's meter.
    """
    n = g.n_vertices
    if n == 0:
        return SearchResult(True, 0, 0, (), 0)
    adj = list(g.adjacency)
    meter = _Budget.of(budget)
    before = meter.spent

    clique = sorted(clique_hint or ())
    if clique and not _is_witness(adj, clique, adjacent=True):
        raise InvalidWitnessError("clique_hint is not a clique")
    if lower is None and not clique:
        lower = clique_number(g, budget=meter).lower

    best = _dsatur_coloring(adj, n)
    ub = max(best) + 1
    lo = max(lower or 1, len(clique))
    if lo > ub:
        raise BadInputError(f"chromatic lower bound {lo} exceeds the verified upper bound {ub}")
    # Close from above, leaving the first k-test a full probe.
    while lo < ub and meter.limit - meter.spent > PROBE:
        moves = min(PROBE, meter.limit - meter.spent - PROBE)
        coloring = _tabu_coloring(adj, n, ub - 1, meter, moves, _squeeze(adj, best, ub - 1))
        if coloring is None:
            break
        best, ub = coloring, ub - 1
    if not clique and lo < ub:
        clique = _chi_seed(adj, n)

    for k in range(lo, ub):
        # Every k below is excluded, so a k-coloring found here is exact.
        test = _KTest(adj, n, k, meter)
        try:
            status, coloring, _ = k_colorable(g, k, budget=test, clique_hint=clique)
            status, coloring = test.settle(status, coloring, meter)
        finally:
            test.close()
        if status == "sat":
            return SearchResult(True, k, k, _normalize_coloring(coloring), meter.spent - before)
        if status == "timeout":
            return SearchResult(False, k, ub, _normalize_coloring(best), meter.spent - before)
    return SearchResult(True, ub, ub, _normalize_coloring(best), meter.spent - before)


@dataclass(frozen=True)
class InvariantCertificate:
    """Exact invariants of one graph with checkable witnesses.

    For status "timeout" the unknown numbers are None and `bounds` brackets
    them; the coloring is then the one behind chi's upper bound.  Witnesses
    always satisfy their defining conditions.
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
    """Raise InvalidWitnessError unless every witness checks out against g and
    an exact certificate carries all three numbers."""
    if cert.status == "exact" and None in (cert.omega, cert.alpha, cert.chi):
        raise InvalidWitnessError("exact certificate is missing omega, alpha or chi")
    adj = list(g.adjacency)
    if not _is_witness(adj, cert.clique, adjacent=True):
        raise InvalidWitnessError("clique witness is not a clique")
    if not _is_witness(adj, cert.independent_set, adjacent=False):
        raise InvalidWitnessError("independent-set witness is not independent")
    if cert.omega is not None and len(cert.clique) != cert.omega:
        raise InvalidWitnessError("clique witness size differs from omega")
    if cert.alpha is not None and len(cert.independent_set) != cert.alpha:
        raise InvalidWitnessError("independent-set witness size differs from alpha")
    if cert.coloring is not None:
        if len(cert.coloring) != g.n_vertices:
            raise InvalidWitnessError("coloring length differs from vertex count")
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(cert.coloring):
            classes.setdefault(c, []).append(v)
        for c, members in classes.items():
            if not _is_witness(adj, members, adjacent=False):
                raise InvalidWitnessError(f"coloring is not proper: color {c} holds an edge")
        if cert.chi is not None and len(classes) != cert.chi:
            raise InvalidWitnessError("coloring does not use exactly chi colors")
        if cert.chi is None and len(classes) > cert.bounds.get("chi", (0, 0))[1]:
            raise InvalidWitnessError("coloring uses more colors than chi's upper bound")
    if cert.omega is not None and cert.chi is not None and cert.omega > cert.chi:
        raise InvalidWitnessError("omega exceeds chi")


def _certificate(g: Graph, omega: SearchResult, alpha: SearchResult,
                 chi: SearchResult) -> InvariantCertificate:
    """The certificate of g from its clique, independent-set and coloring
    searches.  A number is set only when its search is exact, while the
    coloring is chi's witness either way: on a timeout, the coloring behind
    chi's upper bound.  `bounds` holds every search's (lower, upper).  With
    all three exact, verify_certificate checks it before it leaves."""
    exact = omega.exact and alpha.exact and chi.exact
    cert = InvariantCertificate(
        omega=omega.lower if omega.exact else None,
        alpha=alpha.lower if alpha.exact else None,
        chi=chi.lower if chi.exact else None,
        clique=omega.witness,
        independent_set=alpha.witness,
        coloring=chi.witness,
        status="exact" if exact else "timeout",
        bounds={key: (res.lower, res.upper)
                for key, res in (("omega", omega), ("alpha", alpha), ("chi", chi))},
    )
    if exact:
        verify_certificate(g, cert)
    return cert


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
    return _certificate(
        g,
        SearchResult(True, len(clique), len(clique), clique, 0),
        SearchResult(True, len(independent), len(independent), independent, 0),
        SearchResult(True, k, k, _normalize_coloring(coloring), 0),
    )


def _coset_coloring(field: FieldTables, units: frozenset[int]) -> tuple[int, ...]:
    """Color map whose classes, numbered by least member, are the additive
    cosets of the F_p-subspace B with these units: the closed neighborhoods
    of the Cayley graph of B minus 0."""
    rows = _difference_graph(field, units, (field.q - 1) // 2).adjacency
    closed = (row | 1 << v for v, row in enumerate(rows))
    return _normalize_coloring(c & -c for c in closed)


def equal_certificate(g: Graph, clique, coloring) -> InvariantCertificate:
    """The omega = chi = k certificate of a Cayley graph on q vertices, from a
    k-clique and a proper k-coloring, with no search.

    A Cayley graph is vertex-transitive, so omega * alpha <= q, while a proper
    k-coloring has a class of at least q/k vertices: with omega = k, alpha is
    q/k and every color class is a maximum independent set.  The class of
    vertex 0 is the alpha witness.  verify_certificate checks every witness
    before it leaves.
    """
    k = len(clique)
    alpha = g.n_vertices // k
    independent = tuple(v for v, c in enumerate(coloring) if c == coloring[0])
    return _certificate(
        g,
        SearchResult(True, k, k, tuple(clique), 0),
        SearchResult(True, alpha, alpha, independent, 0),
        SearchResult(True, k, k, tuple(coloring), 0),
    )


def _kernel_units(field: FieldTables, d: int, t: int, meter: _Budget) -> frozenset[int] | None:
    """The units of an F_p-subspace B of codimension t holding no d-th
    power, cut out by t functionals x -> Tr(gamma^j x); None when there is
    none or the meter runs out.

    Over the exponents of gamma, the kernel of x -> Tr(gamma^j x) is Z - j,
    Z the exponents of trace 0, so B's units are the AND of t rotations of
    Z's bitmask, which must miss every multiple of d.  Multiplying B by a
    d-th power rotates each j alike, so the first j is taken below d, and
    GF(p)* scales a functional, so the others count modulo (q-1)/(p-1), in
    increasing order.  The first functional is free (t = 1: a hyperplane),
    each middle one a node.  The last is not tried j by j: each d-th power
    e still in the kernel rules out the j in Z - e, one node each, and the
    least j left is taken.  Such a kernel has dimension n - t exactly:
    GF(p^t), whose units are d-th powers, meets it in 0 alone.
    """
    exp, trace = field.exp, field.trace
    order = field.q - 1
    full = (1 << order) - 1
    zero = int("".join("0" if trace[x] else "1" for x in reversed(exp)), 2)
    powers = full // ((1 << d) - 1)  # bits 0, d, 2d, ...
    functionals = order // (field.p - 1)

    def ring(j: int) -> int:  # Z - j: bit e set when Tr(gamma^(e+j)) = 0
        return (zero >> j | zero << (order - j)) & full

    stack = [(full, iter(range(d)))]
    while stack:
        units, shifts = stack[-1]
        for j in shifts:
            if len(stack) > 1 and not meter.step():
                return None
            kernel = units & ring(j)
            start = j + 1 if len(stack) > 1 else 0
            if len(stack) == t:  # t = 1
                if not kernel & powers:
                    return frozenset(exp[e] for e in iter_bits(kernel))
            elif len(stack) + 1 < t:
                stack.append((kernel, iter(range(start, functionals))))
                break
            else:
                ruled_out = 0
                for e in iter_bits(kernel & powers):
                    if not meter.step():
                        return None
                    ruled_out |= ring(e)
                left = ((1 << functionals) - 1) >> start << start & ~ruled_out
                if left:
                    kernel &= ring((left & -left).bit_length() - 1)
                    return frozenset(exp[e] for e in iter_bits(kernel))
        else:
            stack.pop()
    return None


def factorization_certificate(field: FieldTables, m: int, meter: _Budget, single: bool = False
                              ) -> tuple[list[int], InvariantCertificate] | None:
    """(S, certificate) of omega = chi = p^t on the union G_S of orbitals,
    from GF(q) = A + B with no clique or coloring search, or None;
    single=True accepts only S = [0], the m-th power residue graph.

    A is a subfield GF(p^t), t | n, t < n, whose units are the s-th powers,
    s = (q-1)/(p^t-1): the classes S = {0, d, 2d, ...}, d = gcd(s, m_bar),
    proper when d > 1.  B is an F_p-subspace of dimension n - t with no
    d-th power among its units, so A is a clique of G_S and the cosets
    x + B, numbered by least member, color it with p^t colors.  B is
    gamma*GF(p^(n/2)) for t = n/2 (units in the classes 1 + S, so it always
    exists), else found by _kernel_units: t = 1 first, then the largest t.
    A spent meter returns None.  The coloring is built before G_S, so one
    q-row graph is alive at a time, and equal_certificate checks both.
    """
    q, p, n = field.q, field.p, field.n
    mb = normalize_params(q, m).m_bar
    proper = [t for t in range(1, n) if n % t == 0]
    for t in sorted(proper, key=lambda t: (2 * t != n, t != 1, -t)):  # the order above
        s = (q - 1) // (p**t - 1)
        d = gcd(s, mb)
        if d == 1 or (single and d != mb):
            continue
        if 2 * t == n:
            units = subgroup_coset(field, s, 1)
        else:
            units = _kernel_units(field, d, t, meter)
            if meter.spent > meter.limit:
                return None
        if units is not None:
            coloring = _coset_coloring(field, units)
            clique = sorted(subfield_elements(field, t))
            g = _difference_graph(field, subgroup_coset(field, d), d)
            return list(range(0, mb, d)), equal_certificate(g, clique, coloring)
    return None


def paley_certificate(field: FieldTables, m: int, budget: int | None = None) -> InvariantCertificate:
    """Exact invariants of the m-th power residue graph on GF(q).

    The factorization certificate with S = [0] when one exists (no clique
    or coloring search); otherwise search within the spectral bounds.
    """
    validate_residue_params(field.q, m)
    meter = _Budget.of(budget)
    found = factorization_certificate(field, m, meter, single=True)
    if found is not None:
        return found[1]
    g = build_paley(field, m)
    q = field.q
    rep = theta_pair(field, m)
    omega_ub = int(rep.theta_complement + 1e-6)
    alpha_ub = int(rep.theta + 1e-6)

    omega_res = clique_number(g, upper_hint=omega_ub, budget=meter)
    alpha_res = independence_number(g, budget=meter, upper_hint=alpha_ub)
    # chi >= q / alpha >= theta of the complement, as alpha's bound is <= theta
    chi_lo = max(omega_res.lower, ceil(q / alpha_res.upper))
    chi_res = chromatic_number(g, lower=chi_lo, budget=meter)
    return _certificate(g, omega_res, alpha_res, chi_res)
