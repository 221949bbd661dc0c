"""Finite fields GF(p^n) as dense lookup tables.

Elements are integer codes in [0, q): the element with polynomial
coordinates (c0, ..., c_{n-1}) over GF(p) has code sum(c_i * p**i).
Multiplication goes through exp/log tables for a fixed primitive element
gamma.  Tables over the additive group are filled along a walk that
reaches each code from an earlier one by a basis translation
(`translation_walk`), with the masks of the codes where that translation
carries (`carry_masks`).  All tables are immutable after construction, so
a FieldTables value can be shared freely; the one table built on first use,
the character row of the Gauss periods, is an array that no caller writes.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

from .errors import BadDivisorError, BadInputError, NotOddPrimeError, SizeLimitError

SIZE_LIMIT = 1 << 20  # tables are O(q)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p**n with p prime; BadInputError otherwise."""
    if q < 2:
        raise BadInputError(f"q={q} is not a prime power")
    f = factorize(q)
    if len(f) != 1:
        raise BadInputError(f"q={q} is not a prime power")
    [(p, n)] = f.items()
    return p, n


def odd_prime_power(q: int) -> tuple[int, int]:
    """Decompose an odd prime power q = p**n; BadInputError otherwise."""
    p, n = prime_power(q)
    if p == 2:
        raise BadInputError(f"q={q} must be odd")
    return p, n


def odd_prime_powers(limit: int) -> list[int]:
    """Every odd prime power q <= limit, ascending."""
    return [q for q in range(3, limit + 1, 2) if len(factorize(q)) == 1]


def is_prime(n: int) -> bool:
    """Deterministic primality test (inputs are desk scale)."""
    return factorize(n) == {n: 1}


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending ([] for n < 1)."""
    out = [1] if n >= 1 else []
    for p, e in factorize(n).items():
        out += [d * p**i for i in range(1, e + 1) for d in out]
    return sorted(out)


@dataclass(frozen=True)
class FieldSpec:
    """Construction parameters of one field: q = p**n, reduction modulus,
    and the code of the chosen primitive element gamma (= exp[1])."""

    p: int
    n: int
    q: int
    modulus: tuple[int, ...]  # n+1 coefficients, low degree first, monic
    gamma: int

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "q": self.q,
            "modulus": list(self.modulus),
            "gamma": self.gamma,
        }


@dataclass(frozen=True)
class FieldTables:
    """Complete arithmetic tables for GF(p^n).

    exp[k] is the code of gamma**k (length q-1), log is its inverse on
    nonzero codes (log[0] is a -1 sentinel), trace[a] is the absolute
    trace of the element with code a, reduced into [0, p).
    """

    spec: FieldSpec
    exp: tuple[int, ...]
    log: tuple[int, ...]
    trace: tuple[int, ...]

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def q(self) -> int:
        return self.spec.q

    @property
    def gamma(self) -> int:
        return self.spec.gamma

    @cached_property
    def character_row(self) -> array:
        """cos(2*pi*Tr(gamma^k)/p) for k = 0..q-2: the additive character of
        each power of gamma, built on first use and kept with the field.
        An array of doubles holds 8 bytes a term, where a tuple would hold a
        float object each; it is shared, so read it and never write it."""
        p = self.spec.p
        cos_t = [math.cos(2.0 * math.pi * t / p) for t in range(p)]
        tr = self.trace
        return array("d", [cos_t[tr[e]] for e in self.exp])

    def add(self, a: int, b: int) -> int:
        p = self.spec.p
        s = 0
        shift = 1
        while a or b:
            s += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return s

    def neg(self, a: int) -> int:
        p = self.spec.p
        s = 0
        shift = 1
        while a:
            s += ((p - a % p) % p) * shift
            a //= p
            shift *= p
        return s

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        e = self.log[a] + self.log[b]
        qm1 = self.spec.q - 1
        if e >= qm1:
            e -= qm1
        return self.exp[e]

    def inv(self, a: int) -> int:
        if a == 0:
            raise BadInputError("0 has no multiplicative inverse")
        return self.exp[(-self.log[a]) % (self.spec.q - 1)]

    def trace_of(self, a: int) -> int:
        if not 0 <= a < self.spec.q:
            raise BadInputError(f"element code {a} out of range [0, {self.spec.q})")
        return self.trace[a]


def _poly_mul_mod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int, n: int) -> list[int]:
    # a, b have length n (degree < n); modulus is monic of degree n.
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            off = d - n
            for j in range(n):
                if modulus[j]:
                    prod[off + j] = (prod[off + j] - c * modulus[j]) % p
    return prod[:n]


def _x_pow_mod(e: int, f: tuple[int, ...], p: int, n: int) -> list[int]:
    """x^e modulo the monic degree-n polynomial f over GF(p), read off the
    bits of e from the top: a squaring for each bit, then on a set bit a
    multiply by x, which is a shift and one reduction by f."""
    result = [1] + [0] * (n - 1)
    for bit in bin(e)[2:]:
        result = _poly_mul_mod(result, result, f, p, n)
        if bit == "1":
            lead = result[-1]
            result = [0] + result[:-1]
            if lead:
                result = [(r - lead * c) % p for r, c in zip(result, f)]
    return result


def _has_nonzero_root(f: tuple[int, ...], p: int) -> bool:
    """Whether the polynomial f (low degree first) vanishes at some a in GF(p)*."""
    for a in range(1, p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if acc == 0:
            return True
    return False


def _find_primitive_modulus(p: int, n: int, q: int) -> tuple[int, ...]:
    """Lexicographically smallest (low-degree coefficients first) monic degree-n
    polynomial over GF(p) whose root x generates the full multiplicative group.

    ord(x) = q-1 in GF(p)[x]/(f) forces f irreducible, so a single order test
    suffices: x^(q-1) = 1 and x^((q-1)/ell) != 1 for every prime ell | q-1.
    A root in GF(p) is a linear factor, so for n >= 2 such an f is reducible
    and is skipped before the (far dearer) order test.
    """
    one = [1] + [0] * (n - 1)
    prime_factors = list(factorize(q - 1))
    for tail in itertools.product(range(p), repeat=n):
        if tail[0] == 0:
            continue  # x would divide f
        f = tuple(tail) + (1,)
        if _has_nonzero_root(f, p):
            continue
        if _x_pow_mod(q - 1, f, p, n) != one:
            continue
        if any(_x_pow_mod((q - 1) // ell, f, p, n) == one for ell in prime_factors):
            continue
        return f
    raise BadInputError(f"no primitive polynomial of degree {n} over GF({p})")  # unreachable


def _smallest_primitive_root(p: int) -> int:
    prime_factors = list(factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in prime_factors):
            return g
    raise BadInputError(f"no primitive root mod {p}")  # unreachable for prime p


def translation_walk(p: int, n: int) -> Iterator[tuple[int, int]]:
    """The walk of GF(p^n)+ that reaches u = 1..q-1 in order: the pairs
    (u - p**i, i) with p**i the largest power of p not above u.  Digit i is
    u's leading digit, so u is that earlier code translated by the basis
    vector x^i, and digit i does not carry."""
    for i in range(n):
        step = p**i
        for u in range(step, step * p):
            yield u - step, i


def carry_masks(p: int, n: int) -> tuple[int, ...]:
    """For each basis vector x^i, the bitmask of the codes whose digit i is
    p - 1.  Translating by x^i moves every other code c to c + p**i and
    each of these to c - p**i * (p - 1)."""
    q = p**n
    masks = []
    for i in range(n):
        step = p**i
        every_period = ((1 << q) - 1) // ((1 << step * p) - 1)  # bit k * p**(i+1) for each k
        masks.append((((1 << step) - 1) << step * (p - 1)) * every_period)
    return tuple(masks)


@lru_cache(maxsize=None)
def build_field(p: int, n: int = 1) -> FieldTables:
    """Construct GF(p^n) deterministically.

    The reduction modulus is the lexicographically smallest primitive monic
    polynomial of degree n (for n = 1 the modulus is x - g with g the smallest
    primitive root mod p, so gamma is always that root).
    """
    if p == 2 or not is_prime(p):
        raise NotOddPrimeError(f"p={p} is not an odd prime")
    if n < 1:
        raise BadInputError(f"n={n} must be a positive integer")
    q = p**n
    if q > SIZE_LIMIT:
        raise SizeLimitError(f"q={q} exceeds the size limit {SIZE_LIMIT}")

    exp = [0] * (q - 1)
    if n == 1:
        g = _smallest_primitive_root(p)
        modulus = ((p - g) % p, 1)
        acc = 1
        for k in range(q - 1):
            exp[k] = acc
            acc = acc * g % p
    else:
        modulus = _find_primitive_modulus(p, n, q)
        # Repeatedly multiply the coefficient vector of gamma**k by x.
        coeffs = [1] + [0] * (n - 1)
        pow_p = [p**i for i in range(n)]
        for k in range(q - 1):
            code = 0
            for i in range(n):
                if coeffs[i]:
                    code += coeffs[i] * pow_p[i]
            exp[k] = code
            lead = coeffs[n - 1]
            coeffs = [0] + coeffs[: n - 1]
            if lead:
                for i in range(n):
                    if modulus[i]:
                        coeffs[i] = (coeffs[i] - lead * modulus[i]) % p
    log = [-1] * q
    for k, code in enumerate(exp):
        log[code] = k

    # Trace is GF(p)-linear: tabulate it on the basis x^i (code p**i), then
    # accumulate it along the translation walk.  Tr(x^i) is the trace of
    # multiplication by x^i, whose diagonal on the basis x^k is digit k of
    # x^(i+k) = exp[i + k]; for n = 1 that is exp[0] = 1.
    basis_trace = [sum(exp[i + k] // p**k % p for k in range(n)) % p for i in range(n)]
    trace = [0] * q
    for u, (prev, i) in enumerate(translation_walk(p, n), 1):
        trace[u] = (trace[prev] + basis_trace[i]) % p
    return FieldTables(FieldSpec(p, n, q, modulus, exp[1]), tuple(exp), tuple(log), tuple(trace))


def subgroup_coset(field: FieldTables, m: int, j: int = 0) -> frozenset[int]:
    """Coset gamma**j * {m-th powers}: the element codes {gamma^(m*i+j)}.

    The m cosets j = 0..m-1 partition the nonzero codes.
    """
    q = field.q
    if m < 1 or (q - 1) % m:
        raise BadDivisorError(f"m={m} does not divide q-1={q - 1}")
    if not 0 <= j < m:
        raise BadInputError(f"coset index j={j} out of range [0, {m})")
    exp = field.exp
    return frozenset(exp[m * i + j] for i in range((q - 1) // m))


def subfield_elements(field: FieldTables, t: int) -> frozenset[int]:
    """Element codes of the subfield GF(p^t) inside GF(p^n), requires t | n:
    0 and the units, the ((q-1)/(p^t-1))-th powers."""
    if t < 1 or field.n % t:
        raise BadDivisorError(f"t={t} does not divide n={field.n}")
    return frozenset([0]) | subgroup_coset(field, (field.q - 1) // (field.p**t - 1))
