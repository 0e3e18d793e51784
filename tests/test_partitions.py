"""Partitions, beta-sets, and d-cores.

The core oracle here is deliberately a different algorithm from the library's
abacus: it performs explicit single-hook moves on beta-sets, exhaustively over
every removal order (with memoization) on a small grid and in seeded random
order on a larger one.
"""

import random

import pytest

from blockatlas.errors import BoundExceeded, LengthTooShort
from blockatlas.partitions import (
    _partitions,
    as_partition,
    beta_core,
    d_core,
    ennola_dual,
    from_beta_set,
    partitions_of,
    staircase,
    staircase_parameter,
    to_beta_set,
)


# ---------------------------------------------------------------- oracles

def oracle_count(n, _memo={0: 1}):
    # Euler's pentagonal-number recurrence
    if n < 0:
        return 0
    if n in _memo:
        return _memo[n]
    total, k = 0, 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (oracle_count(n - g1) + oracle_count(n - g2))
        k += 1
    _memo[n] = total
    return total


def beta_moves(beta, d):
    # all single d-hook removals available on a frozen beta-set
    out = []
    for b in beta:
        if b >= d and (b - d) not in beta:
            out.append(frozenset(beta - {b}) | {b - d})
    return out


def oracle_all_terminals(lam, d, _memo=None):
    # every partition reachable by removing d-hooks until stuck, all orders
    if _memo is None:
        _memo = {}

    def rec(beta):
        if beta in _memo:
            return _memo[beta]
        moves = beta_moves(beta, d)
        if not moves:
            result = frozenset({from_beta_set(tuple(sorted(beta)))})
        else:
            result = frozenset().union(*(rec(m) for m in moves))
        _memo[beta] = result
        return result

    return rec(frozenset(to_beta_set(lam, len(lam))))


def oracle_random_order_core(lam, d, rng):
    beta = frozenset(to_beta_set(lam, len(lam)))
    while True:
        moves = beta_moves(beta, d)
        if not moves:
            return from_beta_set(tuple(sorted(beta)))
        beta = rng.choice(moves)


def oracle_counted_abacus_beta(beta, d):
    # the abacus as first written: a bead count on each of all d runners
    counts = [0] * d
    for b in beta:
        counts[b % d] += 1
    return tuple(sorted(r + d * i for r in range(d) for i in range(counts[r])))


def oracle_counted_abacus_core(lam, d):
    m = len(lam)
    if m == 0:
        return ()
    return from_beta_set(oracle_counted_abacus_beta(to_beta_set(lam, m), d))


# ----------------------------------------------------------- enumeration

def test_partitions_frozen():
    assert partitions_of(0) == [()]
    assert partitions_of(1) == [(1,)]
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(5)) == 7


def test_partitions_order_and_uniqueness():
    for m in range(9):
        ps = partitions_of(m)
        assert len(set(ps)) == len(ps)
        assert ps == sorted(ps, reverse=True)
        assert all(sum(p) == m for p in ps)


def test_partition_counts_match_pentagonal_recurrence():
    for m in range(21):
        assert len(partitions_of(m)) == oracle_count(m)


def test_partitions_bound():
    with pytest.raises(BoundExceeded):
        partitions_of(31)


def test_partitions_bound_env_override(monkeypatch):
    # the bound is a constant, inclusive, and no environment variable
    # lowers it
    monkeypatch.setenv("BLOCKATLAS_MAX_RANK", "2")
    assert len(partitions_of(3)) == 3
    assert len(partitions_of(4)) == oracle_count(4)
    assert len(partitions_of(30)) == oracle_count(30)


def test_as_partition():
    assert as_partition([3, 1, 0, 0]) == (3, 1)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, -1))


# -------------------------------------------------------------- beta sets

def test_beta_set_frozen():
    assert to_beta_set((2, 1), 2) == (1, 3)
    assert to_beta_set((), 3) == (0, 1, 2)
    assert from_beta_set((0, 1, 3)) == (1,)


def test_beta_set_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randrange(0, 10)
        lam = rng.choice(partitions_of(m)) if m else ()
        length = len(lam) + rng.randrange(0, 4)
        assert from_beta_set(to_beta_set(lam, length)) == lam


def test_beta_set_length_too_short():
    with pytest.raises(LengthTooShort):
        to_beta_set((2, 1, 1), 2)


def test_cached_readers_take_partition_tuples_only():
    # to_beta_set and d_core are caches keyed on the partition, so a list
    # is unhashable and raises rather than being copied
    with pytest.raises(TypeError):
        to_beta_set([2, 1], 2)
    with pytest.raises(TypeError):
        d_core([2, 1], 2)
    assert to_beta_set((2, 1), 3) is to_beta_set((2, 1), 3)


# ---------------------------------------------------------------- d-cores

def test_d_core_frozen():
    assert d_core((2, 1), 2) == (2, 1)
    assert d_core((3,), 2) == (1,)
    assert d_core((4, 2, 1), 3) == (1,)
    for m in range(8):
        for lam in partitions_of(m):
            assert d_core(lam, 1) == ()


def test_d_core_exhaustive_removal_orders():
    # every removal order reaches the abacus answer (m ≤ 8, d ≤ 4)
    for m in range(9):
        for lam in partitions_of(m):
            for d in range(2, 5):
                terminals = oracle_all_terminals(lam, d)
                assert terminals == {d_core(lam, d)}


def test_d_core_random_removal_orders():
    rng = random.Random(20260819)
    for m in range(13):
        for lam in partitions_of(m):
            for d in range(2, 7):
                expected = d_core(lam, d)
                for _ in range(3):
                    assert oracle_random_order_core(lam, d, rng) == expected


def test_d_core_matches_counted_abacus():
    # d past the beta-set's largest entry included: every bead on its own
    for m in range(9):
        for lam in partitions_of(m):
            for d in range(1, m + 3):
                assert d_core(lam, d) == oracle_counted_abacus_core(lam, d)


def test_beta_core_matches_counted_abacus():
    # beta-sets of every length up to three past the parts (so with and
    # without 0), shifted up by one (never 0), and d past the largest bead
    for m in range(8):
        for lam in partitions_of(m):
            for length in range(len(lam), len(lam) + 4):
                beta = to_beta_set(lam, length)
                for b in (beta, tuple(x + 1 for x in beta)):
                    top = b[-1] if b else 0
                    for d in range(1, top + 3):
                        core = beta_core(b, d)
                        assert core == oracle_counted_abacus_beta(b, d), (b, d)
                        assert len(core) == len(b)
                        assert from_beta_set(core) == \
                            d_core(from_beta_set(b), d)


def test_d_core_idempotent_and_size_drop():
    for m in range(13):
        for lam in partitions_of(m):
            for d in range(1, 7):
                core = d_core(lam, d)
                assert d_core(core, d) == core
                drop = sum(lam) - sum(core)
                assert drop >= 0 and drop % d == 0


def test_two_cores_are_staircases():
    seen = set()
    for m in range(13):
        for lam in partitions_of(m):
            core = d_core(lam, 2)
            assert staircase_parameter(core) is not None
            seen.add(core)
    # ... and every staircase of size ≤ 12 occurs
    k = 0
    while sum(staircase(k)) <= 12:
        assert staircase(k) in seen
        k += 1


def test_staircases():
    assert staircase(0) == ()
    assert staircase(3) == (3, 2, 1)
    assert staircase_parameter((3, 2, 1)) == 3
    assert staircase_parameter(()) == 0
    assert staircase_parameter((2, 2)) is None
    assert staircase_parameter((3, 1)) is None


# ------------------------------------------------------------------ ennola

def test_ennola_frozen():
    assert ennola_dual(3) == 6 and ennola_dual(6) == 3
    assert ennola_dual(1) == 2 and ennola_dual(2) == 1
    assert ennola_dual(4) == 4
    assert ennola_dual(12) == 12
    assert ennola_dual(10) == 5 and ennola_dual(5) == 10


def test_ennola_involution():
    for d in range(1, 101):
        assert ennola_dual(ennola_dual(d)) == d


# ------------------------------------------------------------------ caches

def test_cached_tables_and_cores_equal_uncached():
    for m in range(15):
        assert _partitions(m) == _partitions.__wrapped__(m)
        assert partitions_of(m) == list(_partitions.__wrapped__(m))
    for m in range(11):
        for lam in partitions_of(m):
            for d in range(1, 13):
                assert d_core(lam, d) == d_core.__wrapped__(lam, d), (lam, d)
    assert d_core.cache_info().hits > 0
    for beta in {to_beta_set(lam, len(lam) + 1) for m in range(9)
                 for lam in partitions_of(m)}:
        for d in range(1, 11):
            assert beta_core(beta, d) == beta_core.__wrapped__(beta, d)


def test_mutating_a_returned_table_leaves_the_cache_intact():
    ps = partitions_of(5)
    ps.clear()
    ps.append((9,))
    assert partitions_of(5) == list(_partitions.__wrapped__(5))
    assert len(partitions_of(5)) == 7


def test_d_core_raises_on_every_repeat():
    # a call that raises is not cached, so the check runs again each time;
    # the beta-set core checks d before it looks at any bead
    for core, arg in ((d_core, (2, 1)), (d_core, ()),
                      (beta_core, (1, 3)), (beta_core, ())):
        for d in (0, -1):
            for _ in range(3):
                with pytest.raises(ValueError, match="^d must be >= 1$"):
                    core(arg, d)
