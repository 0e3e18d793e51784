"""Two-row symbols: rank, defect, the involution phi, hook and cohook cores,
and bounded enumeration.

A symbol is a pair of strictly increasing rows of non-negative integers,
considered up to simultaneous shift (prepend 0 to both rows, bump everything
by one) and up to row swap.  Instances always store the shift-reduced form —
never 0 in both rows — but keep their row order as constructed; `canonical`
picks the distinguished representative of the swap class (larger row first,
ties by lexicographically smaller row).  Each instance hashes its rows once.
Rank, text and reduction are functions of the rows (:mod:`unipotent` reads
them on row tuples), and each row's text is written once (``_joined``).
Enumeration builds each swap class once, already canonical, and checks each
kept symbol's rank and defect.

Moves:
  * d-hook at x: x and x−d in the same row, x−d absent there; replace.
    Rank drops by d, defect unchanged.
  * d-cohook at x: x in one row, x−d ≥ 0 absent from the *other* row; move it
    across.  Rank drops by d, defect moves by ±2.
Cores are the fixed points of these moves, computed in closed form on the
abacus (James–Kerber §2.7): a d-hook slides a bead one level down its
d-runner within its row, so a hook core's rows are the rows' β-set cores
(``partitions.beta_core``); a cohook slides a bead one level down a chain
that alternates between the rows, so a cohook core adds both rows' chain
runners (``_runners``, per (row, d, side)) and packs them once (``_packed``,
per (runners, d)).  ``hook_core`` and ``cohook_core`` cache the core per
(symbol, d); the test suite checks them against move-by-move removal.
"""

from __future__ import annotations

import functools
from operator import attrgetter

from .errors import BoundExceeded, InvariantViolation
from .partitions import beta_core, partitions_of, to_beta_set

MAX_SYMBOL_RANK = 10  # the enumeration bound; no option moves it

DEFECT_ODD = frozenset({1, 3})      # types B and C
DEFECT_MOD4_0 = frozenset({0})      # type D
DEFECT_MOD4_2 = frozenset({2})      # type 2D


def _clean_row(row) -> tuple:
    out = tuple(sorted(int(x) for x in row))
    if any(x < 0 for x in out):
        raise ValueError(f"negative entry in row {out}")
    if len(set(out)) != len(out):
        raise ValueError(f"repeated entry in row {out}")
    return out


class Symbol:
    __slots__ = ("row_s", "row_t", "_hash")

    def __init__(self, row_s, row_t):
        object.__setattr__(self, "row_s", row_s)
        object.__setattr__(self, "row_t", row_t)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "row_s", _clean_row(self.row_s))
        object.__setattr__(self, "row_t", _clean_row(self.row_t))
        if self.row_s and self.row_t and self.row_s[0] == 0 and self.row_t[0] == 0:
            raise ValueError("not reduced: 0 in both rows (use make_symbol)")
        object.__setattr__(self, "_hash", hash((self.row_s, self.row_t)))

    def __setattr__(self, name, value):
        raise AttributeError("Symbol is immutable")

    def __eq__(self, other):
        return (type(other) is Symbol and self.row_s == other.row_s
                and self.row_t == other.row_t)

    def __hash__(self):
        return self._hash

    @property
    def rank(self) -> int:
        return _rank(self.row_s, self.row_t)

    @property
    def defect(self) -> int:
        return abs(len(self.row_s) - len(self.row_t))

    @property
    def is_degenerate(self) -> bool:
        return self.row_s == self.row_t

    def swap(self) -> "Symbol":
        return _built(self.row_t, self.row_s)

    def canonical(self) -> "Symbol":
        a, b = self.row_s, self.row_t
        if (len(b), a) > (len(a), b):  # larger row first; tie -> lex smaller
            return self.swap()
        return self

    def render(self) -> str:
        return _render_rows(self.row_s, self.row_t)

    def __str__(self) -> str:
        return self.render()


def _built(row_s: tuple, row_t: tuple) -> Symbol:
    """A Symbol from rows already clean and reduced: skips __post_init__."""
    sym = object.__new__(Symbol)
    object.__setattr__(sym, "row_s", row_s)
    object.__setattr__(sym, "row_t", row_t)
    object.__setattr__(sym, "_hash", hash((row_s, row_t)))
    return sym


def _rank(row_s: tuple, row_t: tuple) -> int:
    m = len(row_s) + len(row_t)
    return sum(row_s) + sum(row_t) - ((m - 1) ** 2) // 4


def _render_rows(row_s: tuple, row_t: tuple) -> str:
    return "({" + _joined(row_s) + "},{" + _joined(row_t) + "})"


@functools.lru_cache(maxsize=None)
def _joined(ints: tuple) -> str:
    """A row's or a partition's comma-joined text, once per process."""
    return ",".join(map(str, ints))


def _reduced_rows(s: tuple, t: tuple) -> tuple:
    """Clean rows, shift-reduced: both rows start 0, 1, …, m − 1, so m
    shifts at once drop those entries and lower the rest by m."""
    m = 0
    for a, b in zip(s, t):
        if a != m or b != m:
            break
        m += 1
    if m:
        return tuple([x - m for x in s[m:]]), tuple([x - m for x in t[m:]])
    return s, t


def make_symbol(row_s, row_t) -> Symbol:
    """Construct with shift reduction applied."""
    return _built(*_reduced_rows(_clean_row(row_s), _clean_row(row_t)))


def phi(sym: Symbol) -> Symbol:
    """Regroup entries by parity: ({S_e ∪ T_o}, {T_e ∪ S_o}), re-reduced."""
    s_e = [x for x in sym.row_s if x % 2 == 0]
    s_o = [x for x in sym.row_s if x % 2 == 1]
    t_e = [x for x in sym.row_t if x % 2 == 0]
    t_o = [x for x in sym.row_t if x % 2 == 1]
    return make_symbol(s_e + t_o, t_e + s_o)


# ------------------------------------------------------------------- cores

@functools.lru_cache(maxsize=None)
def _runners(row: tuple, d: int, side: int) -> tuple:
    """The d-cohook runner of each bead of one row, sorted with repeats, so
    a runner's repeats count the row's beads on it and two rows' counts add
    by merging their tuples.  A bead at x = r + k·d in row ``side`` lies on
    runner (r, (side + k) mod 2), written 2·r + c, whose level k sits in
    row (c + k) mod 2 for runner (r, c), so a d-cohook moves a bead one
    level down into the other row."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return tuple(sorted([2 * (x % d) + (side + x // d) % 2 for x in row]))


@functools.lru_cache(maxsize=None)
def _packed(runners: tuple, d: int) -> tuple:
    """The rows of the d-cohook core with beads on these runners: the k-th
    bead on runner (r, c) packs down to level k, r + k·d in row c + k mod 2."""
    rows, prev, k = ([], []), -1, 0
    for runner in runners:
        k, prev = (k + 1 if runner == prev else 0), runner
        rows[(runner + k) % 2].append(runner // 2 + k * d)
    return tuple(sorted(rows[0])), tuple(sorted(rows[1]))


def _cohook_rows(sym: Symbol, d: int) -> tuple:
    """The d-cohook core's rows: both rows' runner counts, added, packed."""
    return _packed(tuple(sorted(_runners(sym.row_s, d, 0)
                                + _runners(sym.row_t, d, 1))), d)


def _core(sym: Symbol, rows: tuple) -> Symbol:
    """The core with these rows; a symbol with no move left is its own core
    and keeps its object."""
    if rows == (sym.row_s, sym.row_t):
        return sym
    return _built(*_reduced_rows(*rows))


@functools.lru_cache(maxsize=None)
def hook_core(sym: Symbol, d: int) -> Symbol:
    # a d-hook slides a bead one level down its d-runner within its row, so
    # each row goes to its β-set core
    return _core(sym, (beta_core(sym.row_s, d), beta_core(sym.row_t, d)))


@functools.lru_cache(maxsize=None)
def cohook_core(sym: Symbol, d: int) -> Symbol:
    return _core(sym, _cohook_rows(sym, d))


# ------------------------------------------------------------- enumeration

def _symbol_from_pair(alpha, beta, defect: int) -> Symbol:
    """The canonical symbol of the β-set pair, α's row the longer.  At this
    length α's or β's β-set holds no 0, so the rows are reduced; at defect
    0 the lexicographically smaller row goes first."""
    length = max(len(beta), len(alpha) - defect)
    s, t = to_beta_set(alpha, length + defect), to_beta_set(beta, length)
    return _built(t, s) if defect == 0 and t < s else _built(s, t)


def enumerate_symbols(n: int, defect_filter: frozenset | set) -> list[Symbol]:
    """All reduced symbols of rank n with defect ≡ r (mod 4) for some r in
    the filter, one canonical representative per swap class, sorted by
    (defect, rows); each weight's partitions are read once."""
    if n < 0:
        raise ValueError("rank must be >= 0")
    if n > MAX_SYMBOL_RANK:
        raise BoundExceeded(f"rank {n} exceeds the configured bound "
                            f"{MAX_SYMBOL_RANK}")
    residues = {r % 4 for r in defect_filter}
    out: list[Symbol] = []
    defect = 0
    while defect ** 2 // 4 <= n:
        if defect % 4 in residues:
            weight = n - defect ** 2 // 4
            tables = [partitions_of(w) for w in range(weight + 1)]
            found = []
            # at defect 0, (α, β) and (β, α) give one class: each pair once
            for wa in range(weight // 2 + 1 if defect == 0 else weight + 1):
                betas = tables[weight - wa]
                for i, alpha in enumerate(tables[wa]):
                    for beta in (betas[i:] if 2 * wa == weight and defect == 0
                                 else betas):
                        found.append(_symbol_from_pair(alpha, beta, defect))
            found.sort(key=attrgetter("row_s", "row_t"))
            for sym in found:
                if sym.rank != n or sym.defect != defect:
                    raise InvariantViolation(
                        f"symbol {sym} has rank {sym.rank} and defect "
                        f"{sym.defect}, not {n} and {defect}")
            out += found
        defect += 1
    return out
