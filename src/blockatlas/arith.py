"""Multiplicative orders, primitive prime divisors, and good primes.

An integer d ≥ 1 is *admissible* for a group type at a prime power q when
some odd prime ℓ, good for the type and not dividing q, has multiplicative
order d at q.  Such primes witness that the d-series refine into actual
ℓ-block partitions, which is what the fusion engine consumes.

Primitive primes are located by factoring the cyclotomic value Φ_d(q),
which carries exactly the primes of order d (plus possibly the largest
prime factor of d, filtered out because it divides d).  Factoring is one
trial-division loop, ``prime_factors``: 2, 3, 5, then a mod-30 wheel, the
eight integers prime to 30 in each block of 30, up to the square root of
what is left.  ``primitive_prime`` runs it to the end on Φ_d(q),
``mult_order`` on ℓ − 1 below a bound.  Powers beyond 63 bits are rejected
rather than silently promoted, which keeps the search at desk scale.
``is_prime`` is a deterministic Miller–Rabin test, exact below 3.3·10²⁴
and BoundExceeded above, and ``PrimePower.from_q`` tries the 13 smallest
primes, then exact integer roots whose base is prime, so neither divides
up to √q.

``primitive_prime`` is memoized on the question it answers: (q, d, the
frozenset of primes the witness may not be), ``_cyclotomic_value`` on
(q, d), and ``mult_order`` on (q, ℓ), so a fusion certificate replays its
merge events with one order computation per distinct pair.  ``mult_order``
factors ℓ − 1 (the loop's candidates below 1000, then Miller–Rabin on the
last value it yields when that is at least 10⁶, the only case in which it
may be composite, and Pollard–Brent on composite parts, at most 2²² steps,
else BoundExceeded) and divides
each prime out of ℓ − 1 while the quotient is still a multiple of the
order, so it never walks the divisors of ℓ − 1.
``admissible_d`` excludes 2 and the family's bad primes, so the six
classical families share one witness search per (q, d) with each other and
with ``zsygmondy``, which excludes only 2; it builds one read-only map per
(q, d_max, excluded primes), so the six families share one map per
(q, d_max) too, and every caller reads that map itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from .errors import BoundExceeded, DividesModulus

CLASSICAL_FAMILIES = ("A", "2A", "B", "C", "D", "2D")
EXCEPTIONAL_RANKS = {"G2": 2, "F4": 4, "3D4": 4, "E6": 6, "2E6": 6, "E7": 7,
                     "E8": 8}
EXCEPTIONAL_FAMILIES = tuple(EXCEPTIONAL_RANKS)

_BAD_PRIMES = {
    "A": frozenset(), "2A": frozenset(),
    "B": frozenset({2}), "C": frozenset({2}),
    "D": frozenset({2}), "2D": frozenset({2}),
    "G2": frozenset({2, 3}), "F4": frozenset({2, 3}), "3D4": frozenset({2, 3}),
    "E6": frozenset({2, 3}), "2E6": frozenset({2, 3}), "E7": frozenset({2, 3}),
    "E8": frozenset({2, 3, 5}),
}

_POWER_LIMIT = 2**63 - 1  # largest accepted value of q**d

# the first 13 primes; as Miller–Rabin bases they decide primality below
# _MR_LIMIT, the least strong pseudoprime to all of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# mult_order factors ell - 1: trial division below _TRIAL_LIMIT, then
# Pollard–Brent, one gcd per _RHO_BATCH steps and at most _RHO_LIMIT steps
_TRIAL_LIMIT = 1000
_RHO_BATCH = 128
_RHO_LIMIT = 2**22


class GroupTypeTag:
    """A family token plus a rank, e.g. B3 or 2A5."""

    __slots__ = ("family", "rank", "_hash")

    def __init__(self, family: str, rank: int):
        if family not in CLASSICAL_FAMILIES + EXCEPTIONAL_FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if family in ("D", "2D") and rank < 2:
            raise ValueError(f"family {family} needs rank >= 2")
        if EXCEPTIONAL_RANKS.get(family, rank) != rank:
            raise ValueError(f"family {family} has rank "
                             f"{EXCEPTIONAL_RANKS[family]}, not {rank}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_hash", hash((family, rank)))

    def __setattr__(self, name, value):
        raise AttributeError("GroupTypeTag is immutable")

    def __eq__(self, other):
        return (type(other) is GroupTypeTag and self.family == other.family
                and self.rank == other.rank)

    def __hash__(self):
        return self._hash

    @property
    def is_classical(self) -> bool:
        return self.family in CLASSICAL_FAMILIES

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class PrimePower:
    """q = p**r with p prime and r >= 1."""

    __slots__ = ("q", "p", "r")

    def __init__(self, q: int, p: int, r: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if r < 1 or p ** r != q:
            raise ValueError(f"{q} != {p}**{r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError("PrimePower is immutable")

    def __eq__(self, other):
        return (type(other) is PrimePower and self.q == other.q
                and self.p == other.p and self.r == other.r)

    def __hash__(self):
        return hash((self.q, self.p, self.r))

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        if q < 2:
            raise ValueError("q must be >= 2")
        for p in _MR_BASES:
            if q % p == 0:
                n, r = q, 0
                while n % p == 0:
                    n //= p
                    r += 1
                if n != 1:
                    raise ValueError(f"{q} is not a prime power")
                return cls(q, p, r)
        # every prime factor exceeds 41 > 2**5, so q = p**r has r <= bits / 5.
        # Exponents go down and roots up; for q = p**r the first exact root
        # is p itself, so a prime power parses even above is_prime's bound,
        # and once roots reach that bound no answer is left to find.
        for r in range(q.bit_length() // 5, 0, -1):
            p = _integer_root(q, r)
            if p >= _MR_LIMIT:
                raise BoundExceeded(f"{q} is no power of a prime below "
                                    f"{_MR_LIMIT}, the bound of is_prime")
            if p ** r == q and is_prime(p):
                return cls(q, p, r)
        raise ValueError(f"{q} is not a prime power")


def _integer_root(n: int, k: int) -> int:
    """The largest x with x**k <= n, for a root below 2**1000: Newton's
    method from just above a floating-point estimate."""
    x = int(math.exp(math.log(n) / k) * (1 + 2 ** -30)) + 1
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin on the first 13 prime bases, exact below
    3.3·10²⁴ (Sorenson–Webster, Math. Comp. 86, 2017); a larger n without a
    factor among the bases raises BoundExceeded."""
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BASES[-1] ** 2:
        return n > 1
    if n >= _MR_LIMIT:
        raise BoundExceeded(f"primality of {n} is decided only below "
                            f"{_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int, bound: Optional[int] = None) -> Iterator[int]:
    """Distinct prime factors of n >= 1 in increasing order: trial division
    by 2, 3, 5, then on a mod-30 wheel by the eight candidates prime to 30
    in each block of 30 from 7 (c, c + 4, c + 6, c + 10, c + 12, c + 16,
    c + 22, c + 24) up to the square root of what is left, which comes last
    when it exceeds 1.  With ``bound`` only candidates below it are tried,
    so that last value may be composite."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    cap = n if bound is None else bound - 1  # the largest candidate
    block, c = (2, 3, 5), 7
    while True:
        for f in block:
            if f <= cap and n % f == 0:
                yield f
                n //= f
                while n % f == 0:
                    n //= f
        # scan block by block up to the square root: a candidate past it
        # divides n only when it is n, and one past cap is skipped above
        limit = min(math.isqrt(n), cap)
        while (c <= limit and n % c and n % (c + 4) and n % (c + 6)
               and n % (c + 10) and n % (c + 12) and n % (c + 16)
               and n % (c + 22) and n % (c + 24)):
            c += 30
        if c > limit:
            break
        block = (c, c + 4, c + 6, c + 10, c + 12, c + 16, c + 22, c + 24)
        c += 30
    if n > 1:
        yield n


def divisors(n: int) -> list[int]:
    small, large = [], []
    c = 1
    while c * c <= n:
        if n % c == 0:
            small.append(c)
            if c != n // c:
                large.append(n // c)
        c += 1
    return small + large[::-1]


def is_good(ell: int, group_type: GroupTypeTag) -> bool:
    """True when ell avoids the bad primes of the family."""
    return ell not in _BAD_PRIMES[group_type.family]


def _pollard_brent(n: int, budget: int) -> tuple:
    """(a proper factor of the composite n, steps left of budget): Brent's
    cycle search on x -> x² + c (Brent, BIT 20, 1980), with the differences
    multiplied into one gcd per _RHO_BATCH steps, for c = 1, 2, ... until
    one splits n.  BoundExceeded before a round that would overrun budget."""
    for c in itertools.count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r  # r steps to move x ahead, at most r to search
            if budget < 0:
                raise BoundExceeded(f"no factor of {n} within "
                                    f"{_RHO_LIMIT} Pollard–Brent steps")
            x, k = y, 0
            for _ in range(r):
                y = (y * y + c) % n
            while k < r and g == 1:
                saved, steps = y, min(_RHO_BATCH, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = math.gcd(acc, n)
                k += steps
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g, budget


def _prime_divisors(n: int) -> set:
    """The distinct primes of n >= 1: trial division below _TRIAL_LIMIT,
    then is_prime on a last value of at least _TRIAL_LIMIT**2 and
    Pollard–Brent splits of a composite one, at most _RHO_LIMIT steps in
    all."""
    # the loop divides out every prime below _TRIAL_LIMIT, so a composite
    # value it yields has two factors at or above it: only a value of at
    # least _TRIAL_LIMIT**2, which can only be the last one, needs the test
    primes = set(prime_factors(n, _TRIAL_LIMIT))
    parts = [m for m in primes if m >= _TRIAL_LIMIT ** 2]
    primes.difference_update(parts)
    budget = _RHO_LIMIT
    while parts:
        m = parts.pop()
        if is_prime(m):
            primes.add(m)
        else:
            f, budget = _pollard_brent(m, budget)
            parts += (f, m // f)
    return primes


@functools.lru_cache(maxsize=None)
def mult_order(q: int, ell: int) -> int:
    """Smallest d >= 1 with q**d = 1 mod ell (ell prime, ell not | q)."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if q % ell == 0:
        raise DividesModulus(f"{ell} divides {q}")
    # the order divides ell - 1 (Fermat): divide each prime out of ell - 1
    # for as long as the quotient is still a multiple of the order
    order = ell - 1
    for r in _prime_divisors(order):
        while order % r == 0 and pow(q, order // r, ell) == 1:
            order //= r
    return order


def checked_power(q: int, d: int) -> int:
    """q**d, rejected when it exceeds the native 63-bit budget."""
    if q < 2 or d < 1:
        raise ValueError("need q >= 2 and d >= 1")
    # q >= 2**(bits - 1), so q**d >= 2**63 once d * (bits - 1) >= 63: such
    # a power is rejected before it is computed
    if d * (q.bit_length() - 1) >= 63 or (value := q ** d) > _POWER_LIMIT:
        raise BoundExceeded(f"{q}**{d} exceeds the supported range")
    return value


@functools.lru_cache(maxsize=None)
def _cyclotomic_value(q: int, d: int) -> int:
    # Phi_d(q) via q^d - 1 = prod over e | d of Phi_e(q)
    value = checked_power(q, d) - 1
    for e in divisors(d):
        if e != d:
            value //= _cyclotomic_value(q, e)
    return value


@functools.lru_cache(maxsize=None)
def primitive_prime(q: int, d: int,
                    excluded: frozenset = frozenset()) -> Optional[int]:
    """Smallest prime of multiplicative order exactly d at q that is not in
    ``excluded``, or None when no such prime exists.

    A prime ell of Phi_d(q) has an order at q that divides d.  If ell does
    not divide d, x^d - 1 is separable mod ell, so q is a root of Phi_d
    alone and the order is d; if ell divides d, the order divides ell - 1,
    prime to ell, so it is not d."""
    for ell in prime_factors(_cyclotomic_value(q, d)):
        if ell not in excluded and d % ell:
            return ell
    return None


def admissible_d(group_type: GroupTypeTag, q: PrimePower,
                 d_max: int) -> Mapping[int, int]:
    """Map d -> smallest witnessing odd good prime, for 1 <= d <= d_max.

    A q**d_max past the power cap raises BoundExceeded before any search.
    The map is read-only and shared by every call with the same q, d_max
    and excluded primes."""
    return _admissible(q.q, d_max, _BAD_PRIMES[group_type.family] | {2})


@functools.lru_cache(maxsize=None)
def _admissible(q: int, d_max: int, excluded: frozenset) -> Mapping[int, int]:
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    # q >= 2, so q**d > _POWER_LIMIT for every d past this one
    limit = _POWER_LIMIT.bit_length() - 1
    if d_max > limit:
        raise BoundExceeded(f"d_max {d_max} exceeds {limit}: every q**d with "
                            f"d > {limit} exceeds the supported range")
    # fail before any search, at the first d whose power the search rejects
    for d in range(1, d_max + 1):
        checked_power(q, d)
    out: dict[int, int] = {}
    for d in range(1, d_max + 1):
        ell = primitive_prime(q, d, excluded)
        if ell is not None:
            out[d] = ell
    return MappingProxyType(out)
