"""Order/primitive-prime arithmetic: frozen small cases plus randomized
consistency against an independent brute-force oracle."""

import random

import pytest

from blockatlas.arith import (
    GoodnessFilter,
    GroupTypeTag,
    PrimePower,
    admissible_d,
    checked_power,
    divisors,
    is_good,
    is_prime,
    mult_order,
    prime_factors,
    primitive_prime,
)
from blockatlas.errors import BoundExceeded, DividesModulus


# ---------------------------------------------------------------- oracle

def oracle_order(q, ell):
    # literal definition, no modular exponent tricks
    x = q % ell
    for d in range(1, ell):
        if x == 1:
            return d
        x = (x * q) % ell
    raise AssertionError("no order found")


def oracle_has_order(q, ell, d):
    # the same literal walk, stopped after d multiplications: the order is d
    # exactly when q^d is the first power that is 1 mod ell
    x = 1
    for k in range(1, d + 1):
        x = (x * q) % ell
        if x == 1:
            return k == d
    return False


def oracle_primitive(q, d, limit=100_000):
    for ell in range(2, limit):
        if is_prime(ell) and q % ell != 0 and oracle_has_order(q, ell, d):
            return ell
    return None


# ---------------------------------------------------------------- basics

def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_factors_and_divisors():
    assert list(prime_factors(360)) == [2, 3, 5]
    assert list(prime_factors(8191)) == [8191]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_prime_power_parsing():
    assert PrimePower.from_q(8) == PrimePower(8, 2, 3)
    assert PrimePower.from_q(9) == PrimePower(9, 3, 2)
    assert PrimePower.from_q(13) == PrimePower(13, 13, 1)
    with pytest.raises(ValueError):
        PrimePower.from_q(12)
    with pytest.raises(ValueError):
        PrimePower(8, 4, 2)  # base not prime


@pytest.mark.parametrize("q,ell,d", [(2, 7, 3), (4, 5, 2), (3, 5, 4), (2, 3, 2), (5, 2, 1)])
def test_mult_order_frozen(q, ell, d):
    assert mult_order(q, ell) == d


def test_mult_order_rejects_dividing_prime():
    with pytest.raises(DividesModulus):
        mult_order(6, 3)


def test_mult_order_random_matches_oracle():
    rng = random.Random(20260819)
    primes = [p for p in range(3, 400) if is_prime(p)]
    for _ in range(200):
        ell = rng.choice(primes)
        q = rng.randrange(2, 1000)
        if q % ell == 0:
            continue
        got = mult_order(q, ell)
        assert got == oracle_order(q, ell)
        assert (ell - 1) % got == 0  # Lagrange


# ------------------------------------------------------- primitive primes

def test_primitive_prime_frozen():
    assert primitive_prime(2, 2) == 3
    assert primitive_prime(2, 3) == 7
    assert primitive_prime(2, 4) == 5
    assert primitive_prime(2, 5) == 31
    assert primitive_prime(2, 10) == 11
    assert primitive_prime(3, 4) == 5
    assert primitive_prime(4, 3) == 7  # 3 divides 4^3-1 but has order 1


def test_primitive_prime_classical_gap():
    # the lone gap: 2^6 - 1 = 63 = 3^2 * 7 has no prime of order six
    assert primitive_prime(2, 6) is None


def test_primitive_prime_q_minus_one_trivial():
    # d = 1 needs a prime dividing q - 1
    assert primitive_prime(2, 1) is None
    assert primitive_prime(3, 1) == 2
    assert primitive_prime(3, 1, GoodnessFilter(odd_only=True)) is None


def test_primitive_prime_random_matches_oracle():
    rng = random.Random(7)
    seen = set()
    for _ in range(60):
        q = rng.randrange(2, 12)
        d = rng.randrange(1, 9)
        if (q, d) in seen:
            continue
        seen.add((q, d))
        got = primitive_prime(q, d)
        if got is None:
            assert oracle_primitive(q, d, limit=3000) is None
        else:
            assert oracle_order(q, got) == d
            # and nothing smaller qualifies
            for ell in range(2, got):
                if is_prime(ell) and q % ell != 0:
                    assert not oracle_has_order(q, ell, d)


def test_primitive_prime_is_one_mod_d():
    for q in (2, 3, 4, 5, 8, 9):
        for d in range(2, 13):
            ell = primitive_prime(q, d)
            if ell is not None:
                assert ell % d == 1
                assert mult_order(q, ell) == d


def test_checked_power_bound():
    assert checked_power(2, 62) == 2**62
    with pytest.raises(BoundExceeded):
        checked_power(2, 64)
    with pytest.raises(BoundExceeded):
        primitive_prime(10, 20)


# ------------------------------------------------------------ good primes

def test_bad_prime_tables():
    assert is_good(2, GroupTypeTag("A", 4))
    assert is_good(2, GroupTypeTag("2A", 3))
    assert not is_good(2, GroupTypeTag("B", 3))
    assert not is_good(2, GroupTypeTag("2D", 4))
    assert is_good(3, GroupTypeTag("D", 5))
    assert not is_good(3, GroupTypeTag("G2", 2))
    assert not is_good(5, GroupTypeTag("E8", 8))
    assert is_good(5, GroupTypeTag("E7", 7))
    assert is_good(7, GroupTypeTag("E8", 8))


def test_goodness_filter():
    f = GoodnessFilter(group_type=GroupTypeTag("B", 2), odd_only=True)
    assert not f.passes(2)
    assert f.passes(3)


def test_group_type_tag_validation():
    with pytest.raises(ValueError):
        GroupTypeTag("Z", 3)
    with pytest.raises(ValueError):
        GroupTypeTag("D", 1)
    assert str(GroupTypeTag("2A", 5)) == "2A5"


# ------------------------------------------------------------- admissible

def test_admissible_d_frozen_tables():
    a5 = admissible_d(GroupTypeTag("A", 5), PrimePower.from_q(2), 6)
    assert a5 == {2: 3, 3: 7, 4: 5, 5: 31}

    b3 = admissible_d(GroupTypeTag("B", 3), PrimePower.from_q(4), 3)
    assert b3 == {1: 3, 2: 5, 3: 7}

    # q = 3: d = 1, 2 only have the even witness 2, so both drop out
    a1 = admissible_d(GroupTypeTag("A", 1), PrimePower.from_q(3), 6)
    assert a1 == {3: 13, 4: 5, 5: 11, 6: 7}


def test_admissible_witnesses_are_witnesses():
    tag = GroupTypeTag("B", 2)
    q = PrimePower.from_q(3)
    table = admissible_d(tag, q, 8)
    for d, ell in table.items():
        assert ell % 2 == 1
        assert is_good(ell, tag)
        assert mult_order(3, ell) == d
