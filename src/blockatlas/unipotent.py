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
and d-series of B_n, and 2A_n those of A_n at ennola_dual(d).  Every entry
point resolves its type through it, so the label tables and series are
built for A, B, D and 2D only, and a label carries no type: a C or 2A
label is its model's label.  Each model type's label table is one cached
record per process: the labels, their renders, their frozenset and whether
a label is degenerate (``label_table`` reads it).  Each model (type, d)
series is one cached record too: its blocks, validated before they are
kept, and each block's member renders (``series_renders`` reads them).
Each call gets its own list or SeriesPartition.  The enumerators that
build a label table check their rank bounds; a build that raises is not
cached, so it raises again on the next call.  The label table is built in
``UnipotentLabel.sort_key`` order, checked once when it is built, so a
series keeps each block's members in table order; a symbol family's table
must also have the length of Lusztig's closed form, computed from
partition counts.  Cores are cached per (payload, d): ``d_core`` per
(λ, d), and the canonical symbol core per (symbol, d) in ``_symbol_core``.
That core is read from per-row data: for odd d the pair of the rows' β-set
cores (``partitions.beta_core``), for even d the packed rows of the (d/2)-
cohook runners (``symbols._packed``).  ``_rows_core`` caches the core per
pair of rows, so the shift reduction, the choice of row order and the
interning run once per distinct pair; ``_core_symbol`` interns it per
canonical rows, so equal symbol cores are one object and dict lookups on
them stop at identity instead of calling ``Symbol.__eq__``.  A series
groups its labels by the value of their core and renders each distinct
core once.  Each label measures its payload once, when it is built.
Validation looks up every label's core again, renders and measures each
distinct core once more, checks each label's stored measure against it,
and compares coverage with the frozenset of the model's table.  The
1-series also feeds the defect bounds in :mod:`fusion`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Union

from .arith import GroupTypeTag, PrimePower, is_good, is_prime, mult_order
from .errors import BadPrimeHypothesis, InvariantViolation, NotSupported
from .partitions import d_core, ennola_dual, partitions_of
from .symbols import (
    DEFECT_MOD4_0,
    DEFECT_MOD4_2,
    DEFECT_ODD,
    Symbol,
    _built,
    _cohook_rows,
    _hook_rows,
    _reduced,
    enumerate_symbols,
)

PRIME_MARK = "′"         # ′
DOUBLE_PRIME_MARK = "″"  # ″

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
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "marker", marker)
        # the payload's size or rank, measured once; not a field
        object.__setattr__(self, "measure", _measure(payload))
        # labels live as long as the per-type cache, so each renders once
        object.__setattr__(self, "_text", _render(payload) + marker)
        object.__setattr__(self, "_hash", hash((payload, marker)))

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
        if self.is_partition:
            # enumeration order of partitions is descending lex
            return (tuple(-x for x in self.payload), len(self.payload))
        s = self.payload
        return (s.defect, s.row_s, s.row_t, self.marker)

    def __str__(self) -> str:
        return self.render()


@functools.lru_cache(maxsize=None)
def _symbol_core(sym: Symbol, d: int) -> Symbol:
    """The canonical d-hook core for odd d, (d/2)-cohook core for even d,
    read from the row data of the closed forms: the β-set cores of both
    rows, or the packing of both rows' cohook runners."""
    if d % 2 == 1:
        return _rows_core(*_hook_rows(sym, d))
    return _rows_core(*_cohook_rows(sym, d // 2))


@functools.lru_cache(maxsize=None)
def _rows_core(row_s: tuple, row_t: tuple) -> Symbol:
    """The interned canonical core of the symbol with these rows: shift
    reduction and the choice of row order run once per distinct pair."""
    core = _reduced(row_s, row_t).canonical()
    return _core_symbol(core.row_s, core.row_t)


@functools.lru_cache(maxsize=None)
def _core_symbol(row_s: tuple, row_t: tuple) -> Symbol:
    """The one core Symbol with these rows: keyed on the row tuples, so
    equal cores are one object and dict lookups on cores stop at identity
    instead of calling Symbol.__eq__."""
    return _built(row_s, row_t)


def _core_rule(family: str, d: int) -> tuple:
    """(core function, the measure one removal drops) of a model family's
    d-rule, resolved once per series rather than once per label."""
    if family == "A":
        return d_core, d
    return _symbol_core, d if d % 2 == 1 else d // 2


def series_core(group_type: GroupTypeTag, label: UnipotentLabel, d: int):
    """The label's core under the type's d-rule: a partition, or the
    canonical Symbol of the core's swap class."""
    model, d = _model(group_type, d)
    return _core_rule(model.family, d)[0](label.payload, d)


def _render(value) -> str:
    """Text of a partition or a Symbol; the one home of the partition text."""
    if isinstance(value, Symbol):
        return value.render()
    return "(" + ",".join(map(str, value)) + ")"


def _measure(payload) -> int:
    return payload.rank if isinstance(payload, Symbol) else sum(payload)


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
        """Recompute every invariant; raise InvariantViolation on failure."""
        seen = set()
        cores: dict = {}  # core -> (text, measure), once per distinct core
        model, d = _model(self.group_type, self.d)
        core_of, step = _core_rule(model.family, d)
        for key, members in self.blocks:
            if not members:
                raise InvariantViolation(f"empty block {key!r}")
            for lab in members:
                size = len(seen)
                seen.add(lab)
                if len(seen) == size:
                    raise InvariantViolation(f"label {lab} in two blocks")
                core = core_of(lab.payload, d)
                known = cores.get(core)
                if known is None:
                    known = cores[core] = (_render(core), _measure(core))
                if known[0] != key:
                    raise InvariantViolation(
                        f"label {lab} keyed {key!r} but core differs")
                drop = lab.measure - known[1]
                if drop < 0 or drop % step != 0:
                    raise InvariantViolation(
                        f"label {lab}: drop {drop} not a multiple of {step}")
        if len({key for key, _ in self.blocks}) != len(self.blocks):
            raise InvariantViolation("two blocks share a core")
        if seen != _labels(model).members:
            raise InvariantViolation("blocks do not cover the label set")


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
        entries = [(lam, "") for lam in partitions_of(n + 1)]
    elif family in _SYMBOL_DEFECTS:
        entries = []
        for sym in enumerate_symbols(n, _SYMBOL_DEFECTS[family]):
            if family == "D" and sym.is_degenerate:
                entries += [(sym, PRIME_MARK), (sym, DOUBLE_PRIME_MARK)]
            else:
                entries.append((sym, ""))
    else:
        raise NotSupported(
            f"family {family} has no built-in label table; supply plugin data")
    out = tuple(UnipotentLabel(payload, marker) for payload, marker in entries)
    if family in _SYMBOL_DEFECTS:
        expected = _symbol_label_count(family, n)
        if len(out) != expected:
            raise InvariantViolation(f"{group_type} has {len(out)} labels, "
                                     f"Lusztig's count is {expected}")
    keys = [lab.sort_key() for lab in out]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise InvariantViolation(f"{group_type} labels are not in sort_key order")
    return _LabelTable(out, tuple(lab.render() for lab in out),
                       frozenset(out), any(lab.marker for lab in out))


def label_table(group_type: GroupTypeTag) -> _LabelTable:
    """The type's label table: that of its model type."""
    return _labels(_model(group_type)[0])


def enumerate_labels(group_type: GroupTypeTag) -> list[UnipotentLabel]:
    """Complete, duplicate-free, deterministically ordered label list."""
    return list(label_table(group_type).labels)


class _Series(NamedTuple):
    blocks: tuple   # ((core render, (labels...)), ...) sorted by core render
    renders: tuple  # each block's member renders, in the same order


@functools.lru_cache(maxsize=None)
def _blocks(group_type: GroupTypeTag, d: int) -> _Series:
    """A model type's d-series."""
    core_of = _core_rule(group_type.family, d)[0]
    groups: dict = {}  # core value -> labels, in table (sort_key) order
    for lab in _labels(group_type).labels:
        groups.setdefault(core_of(lab.payload, d), []).append(lab)
    # sorted by core text, which is the order reports list the blocks in
    blocks = tuple(sorted(
        ((_render(core), tuple(members)) for core, members in groups.items()),
        key=lambda block: block[0]))
    SeriesPartition(group_type, d, blocks, {}).validate()
    return _Series(blocks, tuple(tuple(lab.render() for lab in members)
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
