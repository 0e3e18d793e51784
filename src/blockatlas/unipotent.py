"""Unipotent-character labels per classical family, d-series, and ℓ-blocks.

Label payloads: partitions of n+1 for families A/2A, symbols of rank n
otherwise (odd defect for B/C, defect ≡ 0 mod 4 for D, ≡ 2 mod 4 for 2D).
A degenerate D-symbol (equal rows) stands for two characters; the two labels
carry ′/″ markers but share every core invariant, so they always land in the
same series — reports flag their presence because the split pair cannot be
separated at this combinatorial level.

Series rule: family A groups by d-core, 2A by the ennola_dual(d)-core, and
the symbol families by d-hook-core for odd d or (d/2)-cohook-core for even d.
Each grouping drops the payload's measure by one removal step at a time, so
members differ from their core by a multiple of the step size (d, the ennola
image, or d/2 respectively) — validated on every constructed partition.

Each type's labels and each (type, d) series are built once per process,
the series validated before they are kept; every call still checks the
configured rank bound first and gets its own list or SeriesPartition.  A
series groups its labels by the value of their canonical core and renders
each distinct core once; validation recomputes every label's core itself
and renders each distinct core once more.  The 1-series also feeds the
defect bounds in :mod:`fusion`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Union

from .arith import GroupTypeTag, PrimePower, is_good, is_prime, mult_order
from .errors import BadPrimeHypothesis, InvariantViolation, NotSupported
from .limits import check_partition_size, check_symbol_rank
from .partitions import d_core, ennola_dual, partitions_of
from .symbols import (
    DEFECT_MOD4_0,
    DEFECT_MOD4_2,
    DEFECT_ODD,
    Symbol,
    cohook_core,
    enumerate_symbols,
    hook_core,
)

PRIME_MARK = "′"         # ′
DOUBLE_PRIME_MARK = "″"  # ″

_SYMBOL_DEFECTS = {"B": DEFECT_ODD, "C": DEFECT_ODD,
                   "D": DEFECT_MOD4_0, "2D": DEFECT_MOD4_2}


@dataclass(frozen=True)
class UnipotentLabel:
    group_type: GroupTypeTag
    payload: Union[tuple, Symbol]
    marker: str = ""

    @property
    def is_partition(self) -> bool:
        return not isinstance(self.payload, Symbol)

    def render(self) -> str:
        return self._text

    @functools.cached_property
    def _text(self) -> str:
        # labels live as long as the per-type cache, so each renders once
        return _render(self.payload) + self.marker

    def sort_key(self):
        if self.is_partition:
            # enumeration order of partitions is descending lex
            return (tuple(-x for x in self.payload), len(self.payload))
        s = self.payload
        return (s.defect, s.row_s, s.row_t, self.marker)

    def __str__(self) -> str:
        return self.render()


def series_step(family: str, d: int) -> int:
    """Measure dropped by one removal in the d-series rule."""
    if family == "A":
        return d
    if family == "2A":
        return ennola_dual(d)
    return d if d % 2 == 1 else d // 2


def series_core(label: UnipotentLabel, d: int):
    """The label's core under the family's d-rule: a partition, or the
    canonical Symbol of the core's swap class."""
    family, payload = label.group_type.family, label.payload
    if family == "A":
        return d_core(payload, d)
    if family == "2A":
        return d_core(payload, ennola_dual(d))
    core = hook_core(payload, d) if d % 2 == 1 else cohook_core(payload, d // 2)
    return core.canonical()


def _render(value) -> str:
    """Text of a partition or a Symbol; the one home of the partition text."""
    if isinstance(value, Symbol):
        return value.render()
    return "(" + ",".join(str(x) for x in value) + ")"


def _measure(payload) -> int:
    return payload.rank if isinstance(payload, Symbol) else sum(payload)


@dataclass
class SeriesPartition:
    group_type: GroupTypeTag
    d: int
    blocks: tuple  # ((core_key, (labels...)), ...) sorted by key
    context: dict = field(default_factory=dict)

    @property
    def class_count(self) -> int:
        return len(self.blocks)

    @property
    def touches_degenerate(self) -> bool:
        return any(lab.marker for _, members in self.blocks for lab in members)

    def validate(self) -> None:
        """Recompute every invariant; raise InvariantViolation on failure."""
        seen = set()
        texts: dict = {}  # recomputed core -> its text, rendered once per call
        step = series_step(self.group_type.family, self.d)
        for key, members in self.blocks:
            if not members:
                raise InvariantViolation(f"empty block {key!r}")
            for lab in members:
                if lab in seen:
                    raise InvariantViolation(f"label {lab} in two blocks")
                seen.add(lab)
                core = series_core(lab, self.d)
                if core not in texts:
                    texts[core] = _render(core)
                if texts[core] != key:
                    raise InvariantViolation(
                        f"label {lab} keyed {key!r} but core differs")
                drop = _measure(lab.payload) - _measure(core)
                if drop < 0 or drop % step != 0:
                    raise InvariantViolation(
                        f"label {lab}: drop {drop} not a multiple of {step}")
        expected = {lab for lab in enumerate_labels(self.group_type)}
        if seen != expected:
            raise InvariantViolation("blocks do not cover the label set")


def _check_bound(group_type: GroupTypeTag) -> None:
    """Raise BoundExceeded if the configured bound excludes the type's labels;
    read on every call, ahead of the caches below."""
    if group_type.family in ("A", "2A"):
        check_partition_size(group_type.rank + 1)
    elif group_type.family in _SYMBOL_DEFECTS:
        check_symbol_rank(group_type.rank)


@functools.lru_cache(maxsize=None)
def _labels(group_type: GroupTypeTag) -> tuple:
    family, n = group_type.family, group_type.rank
    if family in ("A", "2A"):
        return tuple(UnipotentLabel(group_type, lam) for lam in partitions_of(n + 1))
    if family in _SYMBOL_DEFECTS:
        out = []
        for sym in enumerate_symbols(n, _SYMBOL_DEFECTS[family]):
            if family == "D" and sym.is_degenerate:
                out.append(UnipotentLabel(group_type, sym, PRIME_MARK))
                out.append(UnipotentLabel(group_type, sym, DOUBLE_PRIME_MARK))
            else:
                out.append(UnipotentLabel(group_type, sym))
        return tuple(out)
    raise NotSupported(
        f"family {family} has no built-in label table; supply plugin data")


def enumerate_labels(group_type: GroupTypeTag) -> list[UnipotentLabel]:
    """Complete, duplicate-free, deterministically ordered label list."""
    _check_bound(group_type)
    return list(_labels(group_type))


@functools.lru_cache(maxsize=None)
def _blocks(group_type: GroupTypeTag, d: int) -> tuple:
    groups: dict = {}  # core value -> labels
    for lab in _labels(group_type):
        groups.setdefault(series_core(lab, d), []).append(lab)
    # sorted by core text, which is the order reports list the blocks in
    blocks = tuple(sorted(
        ((_render(core), tuple(sorted(members, key=UnipotentLabel.sort_key)))
         for core, members in groups.items()),
        key=lambda block: block[0]))
    SeriesPartition(group_type, d, blocks).validate()
    return blocks


def d_series(group_type: GroupTypeTag, d: int,
             context: Optional[dict] = None) -> SeriesPartition:
    if d < 1:
        raise ValueError("d must be >= 1")
    _check_bound(group_type)
    ctx = context if context is not None else {"kind": "d_series", "d": d}
    return SeriesPartition(group_type, d, _blocks(group_type, d), ctx)


def ell_blocks(group_type: GroupTypeTag, q: PrimePower, ell: int) -> SeriesPartition:
    """The ℓ-block partition of the unipotent labels, valid for odd good ℓ
    prime to q; the blocks are the d-series for d = ord of q mod ℓ."""
    if not is_prime(ell):
        raise BadPrimeHypothesis(f"ell = {ell} is not prime")
    if ell % 2 == 0:
        raise BadPrimeHypothesis(f"ell = {ell} is even; the block rule needs odd ell")
    if not is_good(ell, group_type):
        raise BadPrimeHypothesis(
            f"ell = {ell} is a bad prime for family {group_type.family}")
    if q.q % ell == 0:
        raise BadPrimeHypothesis(f"ell = {ell} divides q = {q.q}")
    d = mult_order(q.q, ell)
    return d_series(group_type, d,
                    context={"kind": "ell_blocks", "ell": ell, "q": q.q, "d": d})
