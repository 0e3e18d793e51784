"""Enumeration bounds, overridable through the BLOCKATLAS_MAX_RANK env var.

The variable names a rank: symbol enumeration is allowed up to that rank and
partition enumeration up to size rank + 1 (a rank-n label in the linear
families is a partition of n + 1).  Unset or unparsable values fall back to
the defaults below.  The checks read the variable on every call.
"""

from __future__ import annotations

import os

from .errors import BoundExceeded

DEFAULT_PARTITION_SIZE = 30
DEFAULT_SYMBOL_RANK = 10

_ENV_VAR = "BLOCKATLAS_MAX_RANK"


def _env_rank() -> int | None:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 1 else None


def check_partition_size(m: int) -> None:
    v = _env_rank()
    bound = DEFAULT_PARTITION_SIZE if v is None else v + 1
    if m > bound:
        raise BoundExceeded(f"partitions of {m} exceed the configured bound {bound}")


def check_symbol_rank(n: int) -> None:
    v = _env_rank()
    bound = DEFAULT_SYMBOL_RANK if v is None else v
    if n > bound:
        raise BoundExceeded(f"rank {n} exceeds the configured bound {bound}")
