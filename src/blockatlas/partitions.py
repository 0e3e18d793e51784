"""Integer partitions, beta-sets, d-cores, and the Ennola degree map.

A partition is a tuple of weakly decreasing positive integers; a beta-set of
length m encodes it as the m distinct values λ_i + (m − i).  Adding a part of
size 0 shifts every entry up by one and inserts a 0, which is why all
beta-set constructions below are insensitive to the chosen length.

The d-core is computed on the abacus: spread the beta entries over d runners
by residue, slide every bead down to the lowest free position on its runner,
and read the partition back off.  Sliding one step down a runner is exactly
the removal of one d-hook, so the abacus output is the common endpoint of
every removal order.  ``beta_core`` is that slide, the one home of the
d-hook closed form: ``d_core`` reads it, and so do the d-hook cores of
:mod:`symbols`, row by row, since a d-hook never leaves its row.

Each size's partition table, each β-set and each core is computed once
per process: ``partitions_of`` checks the size bound ``MAX_PARTITION_SIZE``
on every call and returns a fresh list copied from the size's table;
``to_beta_set`` caches each (λ, length), so a label table reads each β-set
once and the symbols built from one β-set share its row tuple;
``beta_core`` caches each (β-set, d), so a symbol row shared by many
symbols is slid once, and ``d_core`` each (λ, d).  The cached readers take
a partition as a tuple; a list is unhashable and raises TypeError.
"""

from __future__ import annotations

import functools
from itertools import repeat
from operator import add, lt, mod, sub

from .errors import BoundExceeded, LengthTooShort

MAX_PARTITION_SIZE = 30  # the enumeration bound; no option moves it

Partition = tuple  # weakly decreasing tuple of positive ints
BetaSet = tuple    # strictly increasing tuple of non-negative ints


def as_partition(parts) -> Partition:
    """Validate and normalize (drop trailing zeros)."""
    lam = tuple(map(int, parts))
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    if any(map(lt, lam, lam[1:])):
        raise ValueError(f"parts not weakly decreasing: {lam}")
    if lam and lam[-1] < 1:
        raise ValueError(f"parts must be positive: {lam}")
    return lam


def partitions_of(m: int) -> list[Partition]:
    """All partitions of m, largest-part-first lexicographic order."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m > MAX_PARTITION_SIZE:
        raise BoundExceeded(f"partitions of {m} exceed the configured bound "
                            f"{MAX_PARTITION_SIZE}")
    return list(_partitions(m))


@functools.lru_cache(maxsize=None)
def _partitions(m: int) -> tuple:
    """The partitions of m as one shared tuple, built once per size."""
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(min(max_part, remaining), 0, -1):
            prefix.append(k)
            rec(remaining - k, k, prefix)
            prefix.pop()

    rec(m, m, [])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def to_beta_set(lam: Partition, length: int) -> BetaSet:
    if length < len(lam):
        raise LengthTooShort(f"length {length} < {len(lam)} parts")
    # the parts, smallest first and padded with zeros, plus 0, 1, …
    return tuple(map(add, (0,) * (length - len(lam)) + lam[::-1],
                     range(length)))


def from_beta_set(beta: BetaSet) -> Partition:
    desc = sorted(beta, reverse=True)
    return as_partition(tuple(map(sub, desc, range(len(desc) - 1, -1, -1))))


@functools.lru_cache(maxsize=None)
def beta_core(beta: BetaSet, d: int) -> BetaSet:
    """The d-core of a beta-set, its length kept: every bead slid to the
    lowest free place on its runner."""
    if d < 1:
        raise ValueError("d must be >= 1")
    # the k-th bead on runner r slides to r + d*k; the sorted residues list
    # each runner's beads together, so a large d costs no more than a small
    out, prev, k = [], -1, 0
    for r in sorted(map(mod, beta, repeat(d))):
        k, prev = (k + 1 if r == prev else 0), r
        out.append(r + d * k)
    return tuple(sorted(out))


@functools.lru_cache(maxsize=None)
def d_core(lam: Partition, d: int) -> Partition:
    return from_beta_set(beta_core(to_beta_set(lam, len(lam)), d))


def ennola_dual(d: int) -> int:
    """The degree swap d ↦ 2d (d odd), d/2 (d ≡ 2 mod 4), d (4 | d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d % 2 == 1:
        return 2 * d
    if d % 4 == 2:
        return d // 2
    return d


def staircase(k: int) -> Partition:
    """δ_k = (k, k−1, …, 1); δ_0 is empty."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return tuple(range(k, 0, -1))


def staircase_parameter(lam: Partition) -> int | None:
    """k with lam = δ_k, or None."""
    k = len(lam)
    return k if tuple(lam) == staircase(k) else None
