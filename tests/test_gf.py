import hashlib
import math
import random

import pytest

from paleysync import (
    BadDivisorError,
    NotOddPrimeError,
    SizeLimitError,
    build_field,
    divisors,
    is_prime,
    subfield_elements,
    subgroup_coset,
)
from conftest import field_for, odd_prime_powers


def test_gf5_uses_smallest_primitive_root():
    f = build_field(5)
    assert f.q == 5
    assert f.gamma == 2
    # 2 has multiplicative order 4 mod 5
    assert f.exp == (1, 2, 4, 3)


def test_gf9_gamma_has_order_eight():
    f = build_field(3, 2)
    assert f.q == 9
    seen = {f.exp[k] for k in range(8)}
    assert len(seen) == 8
    assert f.mul(f.exp[7], f.gamma) == 1  # gamma^8 = 1, no earlier power repeats


def test_even_characteristic_rejected():
    with pytest.raises(NotOddPrimeError):
        build_field(2, 3)
    with pytest.raises(NotOddPrimeError):
        build_field(9, 1)


def test_size_limit():
    with pytest.raises(SizeLimitError):
        build_field(3, 13)  # q = 1,594,323 > 2^20: refused before any table is built


def test_prime_field_arithmetic_examples():
    f = build_field(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.neg(0) == 0


def test_sub_and_inverse():
    f = build_field(3, 2)
    for a in range(9):
        assert f.sub(a, a) == 0
        assert f.add(f.sub(5, a), a) == 5
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (13, 1), (3, 3), (5, 2), (7, 2), (3, 4)])
def test_exp_log_roundtrip(p, n):
    f = build_field(p, n)
    for k in range(f.q - 1):
        assert f.log[f.exp[k]] == k
    assert sorted(f.exp) == list(range(1, f.q))


@pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (7, 2), (3, 3), (5, 3)])
def test_distributivity_spot_check(p, n):
    f = build_field(p, n)
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4), (5, 1)])
def test_trace_linear_with_kernel_of_expected_size(p, n):
    f = build_field(p, n)
    rng = random.Random(1)
    for _ in range(300):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.trace_of(f.add(a, b)) == (f.trace_of(a) + f.trace_of(b)) % p
    assert sum(1 for a in range(f.q) if f.trace_of(a) == 0) == p ** (n - 1)


def test_trace_examples():
    assert build_field(3, 2).trace_of(1) == 2  # Tr(1) = n mod p
    assert build_field(5).trace_of(3) == 3  # identity on prime fields


def test_subgroup_coset_examples():
    f5 = build_field(5)
    assert subgroup_coset(f5, 2, 0) == frozenset({1, 4})

    f9 = build_field(3, 2)
    squares = subgroup_coset(f9, 2, 0)
    assert len(squares) == 4
    assert 1 in squares
    assert f9.neg(1) in squares  # -1 is a square since 4 | 8

    f13 = build_field(13)
    c0 = subgroup_coset(f13, 3, 0)
    c1 = subgroup_coset(f13, 3, 1)
    assert len(c1) == 4 and not (c0 & c1)


@pytest.mark.parametrize("p,n,m", [(13, 1, 3), (3, 2, 4), (5, 2, 6), (17, 1, 4)])
def test_cosets_partition_nonzero_codes(p, n, m):
    f = build_field(p, n)
    union = set()
    for j in range(m):
        coset = subgroup_coset(f, m, j)
        assert len(coset) == (f.q - 1) // m
        assert not (union & coset)
        union |= coset
    assert union == set(range(1, f.q))


def test_subgroup_coset_bad_divisor():
    with pytest.raises(BadDivisorError):
        subgroup_coset(build_field(13), 5, 0)


def test_subgroup_coset_index_range():
    from paleysync import BadInputError

    with pytest.raises(BadInputError):
        subgroup_coset(build_field(13), 3, 3)
    with pytest.raises(BadInputError):
        subgroup_coset(build_field(13), 3, -1)


def test_subfield_examples():
    f9 = build_field(3, 2)
    assert subfield_elements(f9, 1) == frozenset({0, 1, 2})
    assert subfield_elements(f9, 2) == frozenset(range(9))
    with pytest.raises(BadDivisorError):
        subfield_elements(f9, 3)


@pytest.mark.parametrize("p,n,t", [(5, 2, 1), (3, 4, 2), (3, 4, 1), (7, 2, 1)])
def test_subfield_closed_under_field_operations(p, n, t):
    f = build_field(p, n)
    sub = subfield_elements(f, t)
    assert len(sub) == p**t
    assert 0 in sub and 1 in sub
    for a in sub:
        assert f.neg(a) in sub
        for b in sub:
            assert f.add(a, b) in sub
            assert f.mul(a, b) in sub


def test_trace_table_matches_frobenius_sum():
    """trace[a] = a + a^p + ... + a^(p^(n-1)), computed with mul and add, for
    every field with q <= 729."""
    for q in odd_prime_powers(729):
        f = field_for(q)
        for a in range(q):
            total, conj = a, a
            for _ in range(f.n - 1):
                power = 1
                for _ in range(f.p):
                    power = f.mul(power, conj)
                conj = power
                total = f.add(total, conj)
            assert f.trace[a] == total, (q, a)


# sha256 of the lines "p,n:c0,...,cn" (the modulus, low degree first) of every
# field with n >= 2 and q <= 2187, ascending q; recorded before the linear-factor
# rejection was added to the modulus search.
MODULI_DIGEST = "13970eb74657515c9a26eee5796f0a357f833ee9a48d0cf476b00d98f7d9aa4e"


def test_primitive_moduli_are_pinned():
    lines = []
    for q in odd_prime_powers(2187):
        f = field_for(q)
        if f.n >= 2:
            lines.append(f"{f.p},{f.n}:" + ",".join(map(str, f.spec.modulus)))
    assert len(lines) == 22
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MODULI_DIGEST


def test_is_prime_and_divisors_match_trial_division():
    """Both read factorize; the reference divides by every d <= sqrt(n)."""
    for n in range(-5, 10**4 + 1):
        small = [d for d in range(1, math.isqrt(max(n, 0)) + 1) if n % d == 0]
        assert divisors(n) == sorted({*small, *(n // d for d in small)}), n
        assert is_prime(n) == (n > 1 and small == [1]), n
