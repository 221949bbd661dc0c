import os
import random
import sys
from contextlib import contextmanager

import pytest

from paleysync import build_field, build_paley, graph_from_edges, paley_certificate, prime_power
from paleysync.gf import odd_prime_powers


def field_for(q):
    p, n = prime_power(q)
    return build_field(p, n)


def valid_graph_ms(q):
    """All m >= 2 with 2m | q-1 (the residue graph exists and is undirected)."""
    return [m for m in range(2, q) if (q - 1) % (2 * m) == 0]


def residue_graph(q, m):
    return build_paley(field_for(q), m)


@contextmanager
def without_witness():
    """Take the factorization witness out of `classify` and
    `exhaustive_decision`, so that a union the sweep leaves open is settled
    by its clique and coloring search.
    The module is taken from sys.modules, since the package attribute
    `paleysync.classify` is the function, not the module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys.modules["paleysync.classify"], "factorization_certificate",
                      lambda *args: None)
        yield


@contextmanager
def without_lp():
    """Make the theta LP of the sweep leave every set open: both bounds are
    1, so every bracket [L_S, q/L_T] holds every power of p and no set stops
    growing.  The sweep then visits one union per family under
    i -> p^a*i + s and searches each, its clique search capped at q alone.
    Each LP still costs its |S| * m_bar nodes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys.modules["paleysync.classify"], "theta_bounds", lambda *args: (1.0, 1.0))
        yield


def assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """The number of open file descriptors of this process, or None where
    /proc/self/fd is missing."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def random_graph(n, seed, p_edge=0.5):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge]
    return graph_from_edges(n, edges)


@pytest.fixture(scope="session")
def square_field_sweep():
    """Exact certificates for every valid (q, m) with q in {9, 25, 49}.

    Shared by the quadratic-extension acceptance sweep, the eigenvalue
    necessity check, and several invariant property tests.
    """
    results = {}
    for q in (9, 25, 49):
        field = field_for(q)
        for m in valid_graph_ms(q):
            results[(q, m)] = paley_certificate(field, m)
    return results


@pytest.fixture(scope="session")
def sweep_q81():
    """Budgeted invariants plus spectral report for every valid (q, m),
    q <= 81.  At this budget chi's upper-bound phase decides (73,3) and
    (79,3) and the tabu search behind its k-tests (61,3); (81,4) alone
    times out, with chi in [6, 7], and is excluded wherever exactness is
    required (the checks say so)."""
    from paleysync import theta_pair

    results = {}
    for q in odd_prime_powers(81):
        field = field_for(q)
        for m in valid_graph_ms(q):
            cert = paley_certificate(field, m, budget=50_000)
            results[(q, m)] = (cert, theta_pair(field, m))
    return results
