"""Order/primitive-prime arithmetic: frozen small cases plus randomized
consistency against an independent brute-force oracle."""

import random
import signal
import time

import pytest

from blockatlas import arith
from blockatlas.arith import (
    CLASSICAL_FAMILIES,
    EXCEPTIONAL_FAMILIES,
    EXCEPTIONAL_RANKS,
    GroupTypeTag,
    PrimePower,
    _integer_root,
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


def oracle_candidates():
    yield 2
    yield 3
    c = 5
    while True:
        yield c
        yield c + 2
        c += 6


def oracle_prime_factors(n, bound=None):
    """The generator-based trial division that prime_factors replaced: each
    candidate in turn while its square is at most what is left and, with a
    bound, while it is below the bound; then what is left, when above 1."""
    for c in oracle_candidates():
        if c * c > n or (bound is not None and c >= bound):
            break
        if n % c == 0:
            yield c
            while n % c == 0:
                n //= c
    if n > 1:
        yield n


def oracle_primitive(q, d, limit=100_000):
    for ell in range(2, limit):
        if is_prime(ell) and q % ell != 0 and oracle_has_order(q, ell, d):
            return ell
    return None


# ---------------------------------------------------------------- basics

def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_matches_trial_division():
    def oracle(n):
        return n >= 2 and all(n % c for c in range(2, int(n ** 0.5) + 1))

    assert all(is_prime(n) == oracle(n) for n in range(-5, 5000))
    rng = random.Random(19)
    for n in [rng.randrange(5000, 10 ** 10) for _ in range(300)]:
        assert is_prime(n) == (next(oracle_prime_factors(n)) == n), n


def test_is_prime_is_deterministic_up_to_its_bound():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    # the two factors of the least strong pseudoprime to all 13 bases
    assert is_prime(1287836182261) and is_prime(2575672364521)
    assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 61 + 1)
    assert is_prime(3317044064679887385961981 - 2) is False
    with pytest.raises(BoundExceeded):
        is_prime(3317044064679887385961981)
    with pytest.raises(BoundExceeded):
        is_prime(2 ** 89 - 1)
    assert not is_prime(2 ** 200)    # a small factor decides at any size


def test_prime_power_parsing_past_trial_division():
    for q, p, r in [(43, 43, 1), (43 ** 2, 43, 2), (1000003 ** 3, 1000003, 3),
                    (2 ** 61 - 1, 2 ** 61 - 1, 1), (2 ** 200, 2, 200),
                    (43 ** 16, 43, 16), ((2 ** 61 - 1) ** 2, 2 ** 61 - 1, 2)]:
        assert PrimePower.from_q(q) == PrimePower(q, p, r)
    for q in (1000003 * 1000033, 43 ** 2 * 47, 3 ** 5 * 43):
        with pytest.raises(ValueError, match="is not a prime power"):
            PrimePower.from_q(q)
    with pytest.raises(BoundExceeded):
        PrimePower.from_q(2575672364521 * 1287836182261 * 1000003)
    # 43**300 * 47**300 has exact roots, all with composite bases, until the
    # roots pass the bound; a 1,000-digit q is answered at once
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match="is no power of a prime below"):
        PrimePower.from_q(43 ** 300 * 47 ** 300)
    assert time.perf_counter() - start < 2.0


def test_integer_root_is_the_floor_root():
    rng = random.Random(61)
    for _ in range(2000):
        k = rng.randrange(1, 40)
        n = rng.randrange(1, 2 ** (k * rng.randrange(1, 82)))
        x = _integer_root(n, k)
        assert x ** k <= n < (x + 1) ** k, (n, k)


def test_prime_factors_and_divisors():
    assert list(prime_factors(360)) == [2, 3, 5]
    assert list(prime_factors(8191)) == [8191]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_prime_factors_rejects_n_below_one():
    # the loop divides before it compares, so n = 0 would never end; an
    # alarm turns a hang into a failure
    def hang(signum, frame):
        raise AssertionError("prime_factors did not return at once")

    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        for n in (0, -1, -360):
            for bound in (None, 1000):
                with pytest.raises(ValueError, match=f"^cannot factor {n}:"):
                    list(prime_factors(n, bound))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert list(prime_factors(1)) == [] == list(prime_factors(1, 1000))


def two_prime_products(rng, digits):
    """Seeded p·q with p and q primes of the given numbers of digits."""
    def prime(k):
        while True:
            n = rng.randrange(10 ** (k - 1), 10 ** k)
            if is_prime(n):
                return n
    return [prime(a) * prime(b) for a in digits for b in digits if a <= b]


# (lowest q, highest q, largest d) of perfbench's witness_grid rectangles
WITNESS_RECTANGLES = ((2, 16, 14), (17, 64, 9), (65, 256, 7),
                      (257, 2048, 5), (2049, 4096, 4))


def test_prime_factors_match_the_old_trial_division():
    # the same sequence as the generator it replaced: small n, random n
    # below 10**13 at a random number of digits, products of two primes,
    # prime powers, and Phi_d(q) at the corners of the witness_grid
    # rectangles (lowest and highest prime power q, d = 3 and the largest)
    rng = random.Random(38)
    ns = list(range(1, 30_001))
    ns += [rng.randrange(1, 10 ** rng.randint(1, 13)) for _ in range(1000)]
    ns += two_prime_products(rng, (4, 5, 6))
    ns += [p ** k for p in (2, 3, 5, 7, 11, 13, 101, 9973, 1000003)
           for k in range(1, 7) if p ** k < 2 ** 63]
    ns += [c * c for c in (25, 35, 49, 77, 91, 1001, 9973 * 9967)]
    for lo, hi, d_max in WITNESS_RECTANGLES:
        qs = [q for q in range(lo, hi + 1)
              if len(list(oracle_prime_factors(q))) == 1]
        ns += [oracle_cyclotomic(q, d) for q in (qs[0], qs[-1])
               for d in (3, d_max)]
    for n in ns:
        assert list(prime_factors(n)) == list(oracle_prime_factors(n)), n


def test_bounded_prime_factors_match_the_old_trial_division():
    # the primes below the bound, then the cofactor; bounds at both members
    # of a pair 6k - 1, 6k + 1 and between them, and the trial limit
    rng = random.Random(1038)
    ns = list(range(1, 3001)) + two_prime_products(rng, (2, 3, 4))
    ns += [rng.randrange(1, 10 ** 9) for _ in range(300)]
    for bound in (1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 29, 30, 31, 32, 97,
                  arith._TRIAL_LIMIT):
        for n in ns:
            assert list(prime_factors(n, bound)) == list(
                oracle_prime_factors(n, bound)), (n, bound)


def test_prime_divisors_match_the_old_trial_division():
    # every value the bounded loop yields goes through is_prime, and a
    # composite cofactor of two primes above the trial limit through
    # Pollard–Brent
    rng = random.Random(2038)
    ns = list(range(1, 5001)) + two_prime_products(rng, (3, 4, 5, 6))
    ns += [2 ** 4 * 3 * 997 * n for n in two_prime_products(rng, (4, 5))]
    ns += [rng.randrange(1, 10 ** 11) for _ in range(200)]
    for n in ns:
        assert arith._prime_divisors(n) == set(oracle_prime_factors(n)), n


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


def test_mult_order_cache_matches_uncached():
    # seeded pairs with repeats, so that hits are compared as well as misses
    rng = random.Random(17)
    primes = [p for p in range(3, 180) if is_prime(p)]
    mult_order.cache_clear()
    for _ in range(300):
        ell = rng.choice(primes)
        q = rng.randrange(2, 50)
        if q % ell == 0:
            continue
        assert mult_order(q, ell) == mult_order.__wrapped__(q, ell), (q, ell)
    assert mult_order.cache_info().hits > 0


def divisor_walk_order(q, ell):
    """The order as mult_order found it before: the first divisor e of
    ell - 1, in increasing order, with q^e = 1 mod ell."""
    return next(e for e in divisors(ell - 1) if pow(q, e, ell) == 1)


def random_prime(rng, bits):
    while True:
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if is_prime(n):
            return n


def test_mult_order_matches_the_divisor_walk():
    # seeded primes up to 2**24, whose ell - 1 trial division splits alone
    # or leaves a prime cofactor above the trial bound
    rng = random.Random(20261019)
    for _ in range(300):
        ell = random_prime(rng, rng.randint(2, 24))
        q = rng.randrange(2, 2**20)
        if q % ell:
            assert mult_order.__wrapped__(q, ell) == divisor_walk_order(q, ell)


def test_mult_order_through_pollard_brent():
    # ell = 2·a·b + 1 with a, b primes of 14-24 bits: after trial division
    # ell - 1 leaves the composite a·b, which only Pollard–Brent splits
    rng = random.Random(61)
    done = 0
    while done < 12:
        bits = rng.randint(14, 24)
        a, b = random_prime(rng, bits), random_prime(rng, bits)
        ell = 2 * a * b + 1
        if a == b or not is_prime(ell):
            continue
        assert arith._prime_divisors(ell - 1) == {2, a, b}
        q = rng.randrange(2, 10**6)
        d = mult_order.__wrapped__(q, ell)
        assert (ell - 1) % d == 0 and pow(q, d, ell) == 1
        assert all(pow(q, d // r, ell) != 1 for r in (2, a, b) if d % r == 0)
        if bits <= 16:
            assert d == divisor_walk_order(q, ell)
        done += 1


def test_mult_order_stops_at_the_pollard_brent_bound(monkeypatch):
    # ell - 1 = 2·a·b with 20-bit primes a and b: about a thousand steps
    # split a·b, far more than a bound of 64 allows
    a, b = 1048583, 1048681
    ell = 2 * a * b + 1
    assert is_prime(ell)
    monkeypatch.setattr(arith, "_RHO_LIMIT", 64)
    for _ in range(2):
        with pytest.raises(BoundExceeded, match="within 64 Pollard–Brent"):
            mult_order(3, ell)
    monkeypatch.undo()
    d = mult_order(3, ell)
    assert (ell - 1) % d == 0 and pow(3, d, ell) == 1
    assert all(pow(3, d // r, ell) != 1 for r in (2, a, b) if d % r == 0)


def test_mult_order_raises_on_every_repeat():
    # a call that raises is not cached, so the check runs again each time
    for _ in range(3):
        with pytest.raises(ValueError, match="^9 is not prime$"):
            mult_order(2, 9)
        with pytest.raises(DividesModulus):
            mult_order(6, 3)


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
    assert primitive_prime(3, 1, frozenset({2})) is None


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


def test_checked_power_raises_exactly_above_the_limit():
    # the bit-length guard rejects some powers before computing them; it
    # must reject no power that fits
    for q in range(2, 65):
        for d in range(1, 72):
            if q ** d > 2**63 - 1:
                with pytest.raises(BoundExceeded,
                                   match=rf"^{q}\*\*{d} exceeds"):
                    checked_power(q, d)
            else:
                assert checked_power(q, d) == q ** d, (q, d)


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
    # an excluded prime is skipped, not fatal: 2^11 - 1 = 23 * 89
    assert primitive_prime(2, 11) == 23
    assert primitive_prime(2, 11, frozenset({23})) == 89
    assert primitive_prime(2, 11, frozenset({23, 89})) is None
    # admissible_d excludes 2 and the family's bad primes: 7 - 1 = 2 * 3
    assert primitive_prime(7, 1, frozenset({2})) == 3
    q7 = PrimePower.from_q(7)
    assert admissible_d(GroupTypeTag("B", 2), q7, 1) == {1: 3}
    assert admissible_d(GroupTypeTag("G2", 2), q7, 1) == {}


def test_group_type_tag_validation():
    with pytest.raises(ValueError):
        GroupTypeTag("Z", 3)
    with pytest.raises(ValueError):
        GroupTypeTag("D", 1)
    assert str(GroupTypeTag("2A", 5)) == "2A5"
    # an exceptional family takes its own rank and no other
    for family, rank in EXCEPTIONAL_RANKS.items():
        assert str(GroupTypeTag(family, rank)) == f"{family}{rank}"
        for other in (1, rank - 1, rank + 1, 9):
            if other != rank:
                with pytest.raises(ValueError, match=f"has rank {rank}, "):
                    GroupTypeTag(family, other)
    assert set(EXCEPTIONAL_FAMILIES) == set(EXCEPTIONAL_RANKS)


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


# ------------------------------------------------------- the witness cache

def oracle_cyclotomic(q, d):
    """Phi_d(q) as the Moebius product of the q^e - 1 over e | d."""
    def mobius(n):
        sign = 1
        for p in range(2, n + 1):
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
        return sign
    num = den = 1
    for e in range(1, d + 1):
        if d % e == 0:
            mu = mobius(d // e)
            if mu == 1:
                num *= q**e - 1
            elif mu == -1:
                den *= q**e - 1
    assert num % den == 0
    return num // den


# (q, d_max): small q up to d = 12, and the zsygmondy range of every prime
# power q <= 64 up to d = 24, cut where q^d passes 2^44 so that factoring
# each cyclotomic value by trial division stays cheap
BRUTE_FORCE_RANGE = tuple((q, 12) for q in (2, 3, 4, 5, 7, 8, 9)) + tuple(
    (q, max(d for d in range(1, 25) if q ** d <= 2 ** 44))
    for q in range(2, 65) if len(list(oracle_prime_factors(q))) == 1)


@pytest.mark.parametrize("family", CLASSICAL_FAMILIES + EXCEPTIONAL_FAMILIES)
def test_admissible_d_matches_brute_force_filter(family):
    tag = GroupTypeTag(family, EXCEPTIONAL_RANKS.get(family, 3))
    for q, d_max in BRUTE_FORCE_RANGE:
        expected = {}
        for d in range(1, d_max + 1):
            value = oracle_cyclotomic(q, d)
            ells = [ell for ell in oracle_prime_factors(value)
                    if ell % 2 and is_good(ell, tag)
                    and oracle_has_order(q, ell, d)]
            if ells:
                expected[d] = min(ells)
        assert admissible_d(tag, PrimePower.from_q(q), d_max) == expected, q


def test_classical_families_share_one_witness_search_per_d():
    # work counters: the cache keys are the question, not the group type, so
    # all six families at all ranks search once per distinct d and build
    # one admissible map per distinct (q, d_max)
    q = PrimePower.from_q(4)
    primitive_prime.cache_clear()
    arith._admissible.cache_clear()
    ds, d_maxes, calls = set(), set(), 0
    for family in CLASSICAL_FAMILIES:
        for rank in range(2 if family in ("D", "2D") else 1, 9):
            d_max = 2 * (rank + 1)   # the fusion closure's default
            admissible_d(GroupTypeTag(family, rank), q, d_max)
            ds.update(range(1, d_max + 1))
            d_maxes.add(d_max)
            calls += 1
    info = primitive_prime.cache_info()
    assert info.misses == len(ds) == 18, info
    maps = arith._admissible.cache_info()
    assert maps.misses == len(d_maxes) == 8, maps
    assert maps.hits == calls - maps.misses, maps


def test_admissible_maps_are_equal_but_independent():
    # the six classical families exclude the same primes, so they read one
    # map; each caller gets its own dict, which it may change freely
    q = PrimePower.from_q(4)
    maps = [admissible_d(GroupTypeTag(family, 3), q, 8)
            for family in CLASSICAL_FAMILIES]
    expected = {1: 3, 2: 5, 3: 7, 4: 17, 5: 11, 6: 13, 7: 43, 8: 257}
    assert maps == [expected] * 6
    assert len({id(m) for m in maps}) == 6
    for family, mine in zip(CLASSICAL_FAMILIES, maps):
        mine[1] = 99
        del mine[2]
        assert admissible_d(GroupTypeTag(family, 3), q, 8) == expected
