"""Two-row symbols: rank, defect, the involution phi, hook and cohook cores,
and bounded enumeration.

A symbol is a pair of strictly increasing rows of non-negative integers,
considered up to simultaneous shift (prepend 0 to both rows, bump everything
by one) and up to row swap.  Instances always store the shift-reduced form —
never 0 in both rows — but keep their row order as constructed; `canonical`
picks the distinguished representative of the swap class (larger row first,
ties by lexicographically smaller row), so two symbols are in one class when
their canonical forms are equal.  Each instance hashes its rows once, when
it is built.  Enumeration builds its table from β-sets that are already
clean and keeps nothing: the label tables of :mod:`unipotent` are cached,
and each reads its table once.

Moves:
  * d-hook at x: x and x−d in the same row, x−d absent there; replace.
    Rank drops by d, defect unchanged.
  * d-cohook at x: x in one row, x−d ≥ 0 absent from the *other* row; move it
    across.  Rank drops by d, defect moves by ±2.
Cores are the fixed points of these moves, computed in closed form on the
abacus (James–Kerber §2.7): a d-hook slides a bead one level down its
d-runner within its row, and a cohook slides a bead one level down a chain
that alternates between the rows, so a core packs every runner or chain onto
its lowest levels.  Both closed forms start from per-row data: a hook
core's rows are each row's β-set core, from the cache of
``partitions.beta_core`` (``_hook_rows``); a cohook core's rows come in two
steps (``_cohook_rows``), each row's chain runners, cached per (row, d,
row side) in ``_runners``, added, and that runner multiset packed once,
cached per (runners, d) in ``_packed``.  ``hook_core`` and ``cohook_core``
cache the core per (symbol, d) and return the symbol itself when nothing
moves; the series cores of :mod:`unipotent` read the same row data and
have their own caches.  The move-by-move recursion lives in the test
suite, which checks confluence on it and that the closed forms and the
two cohook steps agree with it row for row.
"""

from __future__ import annotations

import functools
from itertools import groupby

from .errors import BoundExceeded
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
        m = len(self.row_s) + len(self.row_t)
        return sum(self.row_s) + sum(self.row_t) - ((m - 1) ** 2) // 4

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
        return ("({" + ",".join(map(str, self.row_s)) + "},{"
                + ",".join(map(str, self.row_t)) + "})")

    def __str__(self) -> str:
        return self.render()


def _built(row_s: tuple, row_t: tuple) -> Symbol:
    """A Symbol from rows already clean and reduced: skips __post_init__."""
    sym = object.__new__(Symbol)
    object.__setattr__(sym, "row_s", row_s)
    object.__setattr__(sym, "row_t", row_t)
    object.__setattr__(sym, "_hash", hash((row_s, row_t)))
    return sym


def _reduced(s: tuple, t: tuple) -> Symbol:
    """A Symbol from clean rows, shift-reduced: both rows start 0, 1, …,
    m − 1, so m shifts at once drop those entries and lower the rest by m."""
    m = 0
    for a, b in zip(s, t):
        if a != m or b != m:
            break
        m += 1
    if m:
        s = tuple([x - m for x in s[m:]])
        t = tuple([x - m for x in t[m:]])
    return _built(s, t)


def make_symbol(row_s, row_t) -> Symbol:
    """Construct with shift reduction applied."""
    return _reduced(_clean_row(row_s), _clean_row(row_t))


def phi(sym: Symbol) -> Symbol:
    """Regroup entries by parity: ({S_e ∪ T_o}, {T_e ∪ S_o}), re-reduced."""
    s_e = [x for x in sym.row_s if x % 2 == 0]
    s_o = [x for x in sym.row_s if x % 2 == 1]
    t_e = [x for x in sym.row_t if x % 2 == 0]
    t_o = [x for x in sym.row_t if x % 2 == 1]
    return make_symbol(s_e + t_o, t_e + s_o)


# ------------------------------------------------------------------- cores

def _hook_rows(sym: Symbol, d: int) -> tuple:
    """The d-hook core's rows: a d-hook slides a bead one level down its
    d-runner within its row, so each row goes to its beta-set core."""
    return beta_core(sym.row_s, d), beta_core(sym.row_t, d)


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
    return tuple(sorted(2 * (x % d) + (side + x // d) % 2 for x in row))


@functools.lru_cache(maxsize=None)
def _packed(runners: tuple, d: int) -> tuple:
    """The rows of the d-cohook core with beads on these runners: every
    runner's beads packed onto its lowest levels."""
    rows = ([], [])
    for runner, beads in groupby(runners):
        r, c = divmod(runner, 2)
        for k, _ in enumerate(beads):
            rows[(c + k) % 2].append(r + k * d)
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
    return _reduced(*rows)


@functools.lru_cache(maxsize=None)
def hook_core(sym: Symbol, d: int) -> Symbol:
    return _core(sym, _hook_rows(sym, d))


@functools.lru_cache(maxsize=None)
def cohook_core(sym: Symbol, d: int) -> Symbol:
    return _core(sym, _cohook_rows(sym, d))


# ------------------------------------------------------------- enumeration

def _symbol_from_pair(alpha, beta, defect: int) -> Symbol:
    # beta-set pair construction; the reduction makes it length-independent
    length = max(len(beta), len(alpha) - defect)
    return _reduced(to_beta_set(alpha, length + defect),
                    to_beta_set(beta, length))


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
    seen = {}
    defect = 0
    while defect ** 2 // 4 <= n:
        if defect % 4 in residues:
            weight = n - defect ** 2 // 4
            tables = [partitions_of(w) for w in range(weight + 1)]
            for wa in range(weight + 1):
                for alpha in tables[wa]:
                    for beta in tables[weight - wa]:
                        sym = _symbol_from_pair(alpha, beta, defect).canonical()
                        assert sym.rank == n and sym.defect == defect
                        seen.setdefault((sym.row_s, sym.row_t), sym)
        defect += 1
    return sorted(seen.values(), key=lambda s: (s.defect, s.row_s, s.row_t))
