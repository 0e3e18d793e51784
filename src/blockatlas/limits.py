"""Enumeration bounds: symbols up to rank 10, partitions up to size 30.

A rank-n label of the linear families is a partition of n + 1, so both
bounds admit rank 10 at most in every classical family.  The enumerators
check them before they build a table, and a check that raises leaves no
cache entry behind.
"""

from __future__ import annotations

from .errors import BoundExceeded

MAX_PARTITION_SIZE = 30
MAX_SYMBOL_RANK = 10


def check_partition_size(m: int) -> None:
    if m > MAX_PARTITION_SIZE:
        raise BoundExceeded(f"partitions of {m} exceed the configured bound "
                            f"{MAX_PARTITION_SIZE}")


def check_symbol_rank(n: int) -> None:
    if n > MAX_SYMBOL_RANK:
        raise BoundExceeded(f"rank {n} exceeds the configured bound "
                            f"{MAX_SYMBOL_RANK}")
