"""Unipotent-character labels per classical family, d-series, and ℓ-blocks.

Label payloads: partitions of n+1 for families A/2A, symbols of rank n
otherwise (odd defect for B/C, defect ≡ 0 mod 4 for D, ≡ 2 mod 4 for 2D).
A degenerate D-symbol (equal rows) stands for two characters; the two labels
carry ′/″ markers but share every core invariant, so they always land in the
same series — reports flag their presence because the split pair cannot be
separated at this combinatorial level.

Series rule: family A groups by d-core and the symbol families by
d-hook-core for odd d or (d/2)-cohook-core for even d.  Each grouping drops
the payload's measure by one removal step at a time, so members differ from
their core by a multiple of the step size (d or d/2) — validated on every
constructed partition.

``_model`` is the one place that knows the twin rule: C_n has the labels
and d-series of B_n, and 2A_n those of A_n at ennola_dual(d), so tables and
series are built for A, B, D and 2D only and a label carries no type.  Each
model type's label table and (type, d) series is one cached record per
process, and a build that raises is not cached: ``enumerate_labels``
returns the table's own tuple of labels, and each ``d_series`` call builds
its own SeriesPartition over the record's blocks.  A table's labels come in
the enumerators' order, checked against ``sort_key`` and, for symbols,
Lusztig's closed-form count; each gets its measure directly (the rank
``enumerate_symbols`` checked, or the size).  Cores are keyed on row
tuples, whose hash and equality run in C: ``d_core`` per (λ, d);
``_symbol_core`` per (symbol, d) the canonical rows from the rows' β-set
cores (odd d) or packed (d/2)-cohook runners (even d), reduced and ordered
once per distinct pair (``_rows_core``).  A series renders each distinct
core once; validation looks every core up again, renders and measures each
distinct one against its block's key and members, and checks coverage.
The 1-series also feeds :mod:`fusion`.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from itertools import chain, repeat
from operator import attrgetter, itemgetter, lt, neg
from typing import NamedTuple, Optional, Union

from .arith import GroupTypeTag, PrimePower, is_good, is_prime, mult_order
from .errors import BadPrimeHypothesis, InvariantViolation, NotSupported
from .partitions import beta_core, d_core, ennola_dual, partitions_of
from .symbols import (DEFECT_MOD4_0, DEFECT_MOD4_2, DEFECT_ODD, Symbol, _built,
                      _cohook_rows, _joined, _rank, _reduced_rows,
                      _render_rows, enumerate_symbols)

PRIME_MARK = "′"         # ′
DOUBLE_PRIME_MARK = "″"  # ″
_SPLIT = (PRIME_MARK, DOUBLE_PRIME_MARK)  # the two labels of a degenerate symbol
_FIRST, _TEXT = itemgetter(0), attrgetter("_text")
_PAYLOAD, _MEASURE = attrgetter("payload"), attrgetter("measure")

_SYMBOL_DEFECTS = {"B": DEFECT_ODD, "D": DEFECT_MOD4_0, "2D": DEFECT_MOD4_2}


def _model(group_type: GroupTypeTag, d: int = 1) -> tuple:
    """(model type, degree): the type and d whose label table and d-series
    the type has.  C_n has those of B_n, and 2A_n those of A_n at
    ennola_dual(d) (Broué–Malle–Michel); every other type is its own."""
    if d < 1:
        raise ValueError("d must be >= 1")
    family = group_type.family
    if family == "C":
        return GroupTypeTag("B", group_type.rank), d
    if family == "2A":
        return GroupTypeTag("A", group_type.rank), ennola_dual(d)
    return group_type, d


class UnipotentLabel:
    __slots__ = ("payload", "marker", "measure", "_text", "_hash")

    def __init__(self, payload: Union[tuple, Symbol], marker: str = ""):
        # the payload's size or rank, measured once; not a field
        if isinstance(payload, Symbol):
            measure, text = payload.rank, payload.render()
        else:
            measure, text = sum(payload), _partition_text(payload)
        _fill(self, payload, marker, measure, text + marker)

    def __setattr__(self, name, value):
        raise AttributeError("UnipotentLabel is immutable")

    def __eq__(self, other):
        return (type(other) is UnipotentLabel
                and self.payload == other.payload
                and self.marker == other.marker)

    def __hash__(self):
        return self._hash

    @property
    def is_partition(self) -> bool:
        return not isinstance(self.payload, Symbol)

    def render(self) -> str:
        return self._text

    def sort_key(self):
        s = self.payload
        if isinstance(s, Symbol):
            return (s.defect, s.row_s, s.row_t, self.marker)
        # enumeration order of partitions is descending lex
        return (tuple(map(neg, s)), len(s))

    def __str__(self) -> str:
        return self.render()


def _fill(lab: UnipotentLabel, payload, marker: str, measure: int,
          text: str) -> UnipotentLabel:
    """Set a label's fields: each label renders and hashes once."""
    object.__setattr__(lab, "payload", payload)
    object.__setattr__(lab, "marker", marker)
    object.__setattr__(lab, "measure", measure)
    object.__setattr__(lab, "_text", text)
    object.__setattr__(lab, "_hash", hash((payload, marker)))
    return lab


@functools.lru_cache(maxsize=None)
def _symbol_core(sym: Symbol, d: int) -> tuple:
    """The canonical rows of the d-hook core for odd d, (d/2)-cohook core
    for even d: the rows' β-set cores, or their cohook runners packed."""
    if d % 2 == 1:
        return _rows_core(beta_core(sym.row_s, d), beta_core(sym.row_t, d))
    return _rows_core(*_cohook_rows(sym, d // 2))


@functools.lru_cache(maxsize=None)
def _rows_core(row_s: tuple, row_t: tuple) -> tuple:
    """The canonical rows of the core with these rows, reduced and ordered
    as ``Symbol.canonical`` orders them, once per distinct pair."""
    s, t = _reduced_rows(row_s, row_t)
    return (t, s) if (len(t), s) > (len(s), t) else (s, t)


def _core_rule(family: str, d: int) -> tuple:
    """(core function, the measure one removal drops) of a model family's
    d-rule, once per series: a partition for A, canonical rows otherwise."""
    if family == "A":
        return d_core, d
    return _symbol_core, d if d % 2 == 1 else d // 2


def series_core(group_type: GroupTypeTag, label: UnipotentLabel, d: int):
    """The label's core under the type's d-rule: a partition, or the
    canonical Symbol of the core's swap class."""
    model, d = _model(group_type, d)
    core = _core_rule(model.family, d)[0](label.payload, d)
    return core if model.family == "A" else _built(*core)


def _partition_text(lam: tuple) -> str:
    """The one home of the partition text."""
    return "(" + _joined(lam) + ")"


def _core_text(family: str, core) -> str:
    return _partition_text(core) if family == "A" else _render_rows(*core)


class SeriesPartition(NamedTuple):
    group_type: GroupTypeTag
    d: int
    blocks: tuple  # ((core_key, (labels...)), ...) sorted by key
    context: dict

    @property
    def class_count(self) -> int:
        return len(self.blocks)

    @property
    def touches_degenerate(self) -> bool:
        return any(lab.marker for _, members in self.blocks for lab in members)

    def validate(self) -> None:
        """Recompute every invariant; raise InvariantViolation on failure.
        Every label's core is looked up again and must render to its
        block's key; each distinct core is rendered and measured once."""
        model, d = _model(self.group_type, self.d)
        core_of, step = _core_rule(model.family, d)
        for key, members in self.blocks:
            if not members:
                raise InvariantViolation(f"empty block {key!r}")
        labels = tuple(chain.from_iterable(ms for _, ms in self.blocks))
        seen = set(labels)
        if len(seen) != len(labels):
            dup = next(lab for i, lab in enumerate(labels) if lab in labels[:i])
            raise InvariantViolation(f"label {dup} in two blocks")
        if len({key for key, _ in self.blocks}) != len(self.blocks):
            raise InvariantViolation("two blocks share a core")
        if seen != _labels(model).members:
            raise InvariantViolation("blocks do not cover the label set")
        keys = chain.from_iterable(repeat(key, len(ms)) for key, ms in self.blocks)
        # (core, key, measure) -> a label: one entry per block when valid
        facts = dict(zip(zip(map(core_of, map(_PAYLOAD, labels), repeat(d)),
                             keys, map(_MEASURE, labels)), labels))
        for (core, key, measure), lab in facts.items():
            if _core_text(model.family, core) != key:
                raise InvariantViolation(
                    f"label {lab} keyed {key!r} but core differs")
            drop = measure - (sum(core) if model.family == "A" else _rank(*core))
            if drop < 0 or drop % step != 0:
                raise InvariantViolation(
                    f"label {lab}: drop {drop} not a multiple of {step}")


def _symbol_label_count(family: str, n: int) -> int:
    """Lusztig's closed form for the number of unipotent characters of the
    symbol family at rank n, from partition counts alone: p(m) partitions
    and p2(m) bipartitions of m; a degenerate D-symbol counts twice."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    p2 = [sum(p[i] * p[m - i] for i in range(m + 1)) for m in range(n + 1)]

    def over(costs):
        return sum(p2[n - c] for c in costs if c <= n)
    if family == "D":
        half = p[n // 2] if n % 2 == 0 else 0
        return (p2[n] + 3 * half) // 2 + over(4 * k * k for k in range(1, n + 1))
    if family == "2D":
        return over((2 * k + 1) ** 2 for k in range(n + 1))
    return over(s * (s + 1) for s in range(n + 1))


class _LabelTable(NamedTuple):
    labels: tuple       # in sort_key order
    renders: tuple      # each label's render, in that order
    members: frozenset  # the labels, for the coverage check of a series
    degenerate: bool    # whether a label carries a ′/″ marker


@functools.lru_cache(maxsize=None)
def _labels(group_type: GroupTypeTag) -> _LabelTable:
    """A model type's label table, strictly increasing in sort_key order."""
    family, n = group_type.family, group_type.rank
    if family == "A":
        entries = [(lam, "", sum(lam), _partition_text(lam))
                   for lam in partitions_of(n + 1)]
    elif family in _SYMBOL_DEFECTS:
        entries = []
        # enumerate_symbols checks that each symbol has rank n, its measure
        for sym in enumerate_symbols(n, _SYMBOL_DEFECTS[family]):
            text = sym.render()
            for mark in _SPLIT if sym.is_degenerate else ("",):
                entries.append((sym, mark, n, text + mark))
    else:
        raise NotSupported(
            f"family {family} has no built-in label table; supply plugin data")
    out = tuple([_fill(object.__new__(UnipotentLabel), *entry)
                 for entry in entries])
    if family in _SYMBOL_DEFECTS:
        expected = _symbol_label_count(family, n)
        if len(out) != expected:
            raise InvariantViolation(f"{group_type} has {len(out)} labels, "
                                     f"Lusztig's count is {expected}")
    keys = list(map(UnipotentLabel.sort_key, out))
    if not all(map(lt, keys, keys[1:])):
        raise InvariantViolation(f"{group_type} labels are not in sort_key order")
    return _LabelTable(out, tuple([entry[3] for entry in entries]),
                       frozenset(out), any(lab.marker for lab in out))


def label_table(group_type: GroupTypeTag) -> _LabelTable:
    """The type's label table: that of its model type."""
    return _labels(_model(group_type)[0])


def enumerate_labels(group_type: GroupTypeTag) -> tuple[UnipotentLabel, ...]:
    """Complete, duplicate-free, deterministically ordered labels: the
    table's own tuple."""
    return label_table(group_type).labels


class _Series(NamedTuple):
    blocks: tuple   # ((core render, (labels...)), ...) sorted by core render
    renders: tuple  # each block's member renders, in the same order


@functools.lru_cache(maxsize=None)
def _blocks(group_type: GroupTypeTag, d: int) -> _Series:
    """A model type's d-series: labels grouped by core, each distinct core
    rendered once."""
    family = group_type.family
    core_of = _core_rule(family, d)[0]
    labels = _labels(group_type).labels
    groups = defaultdict(list)  # core -> labels, in table (sort_key) order
    for lab, core in zip(labels, map(core_of, map(_PAYLOAD, labels), repeat(d))):
        groups[core].append(lab)
    # sorted by core text, which is the order reports list the blocks in
    blocks = tuple(sorted(((_core_text(family, core), tuple(members))
                           for core, members in groups.items()), key=_FIRST))
    SeriesPartition(group_type, d, blocks, {}).validate()
    return _Series(blocks, tuple(tuple(map(_TEXT, members))
                                 for _key, members in blocks))


def series_renders(group_type: GroupTypeTag, d: int) -> tuple:
    """Each block's member renders, blocks and members in d_series order."""
    return _blocks(*_model(group_type, d)).renders


def d_series(group_type: GroupTypeTag, d: int,
             context: Optional[dict] = None) -> SeriesPartition:
    ctx = context if context is not None else {"kind": "d_series", "d": d}
    return SeriesPartition(group_type, d, _blocks(*_model(group_type, d)).blocks,
                           ctx)


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
