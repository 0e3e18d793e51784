"""Exact integer linear algebra and finitely generated abelian groups.

Groups are represented as subquotients K/L of a fixed ambient lattice Z^n,
with K and L given by integer basis matrices (columns).  Bases, solves,
kernels and inverses come from one elimination, the reduced column Hermite
normal form (Cohen, GTM 138, §2.4): M @ V = [H | 0] with V unimodular.  H
is the lattice's unique reduced basis, so equal lattices get equal bases
and its entries stay bounded; triangular substitution on H solves, the
tail of V spans the kernel, and a unimodular M has H = I and inverse V.
The Smith normal form is read only for invariant factors and the change of
basis they come with.  Pivots are chosen by least |value| in a fixed
order, so every result is reproducible bit for bit.  Determinants use
fraction-free Bareiss elimination, so all arithmetic stays in Z.

Pure functions of immutable values are memoized with ``functools.lru_cache``:
``smith_normal_form``, the Hermite form and ``lattice_basis`` on their
frozen matrices, and ``IntMatrix.identity`` on n, so each distinct matrix
is factored at most once per form and process; ``lattice_basis``,
``kernel_basis``, ``solve_in_lattice`` (so ``lattice_contains``),
``IntMatrix.is_unimodular`` and ``IntMatrix.inverse_unimodular`` read the
cached Hermite form.
``FGAbelianGroup`` is an immutable value built once per (n,
lattice_basis(K), lattice_basis(L)); ``torsion``, ``p_torsion``,
``coinvariants`` (on a tuple of operators) and ``fixed_points`` are
memoized on the group and their operators or prime.  A call that raises is
not cached and raises again.
One preimage routine, the x in K whose image under a map lies in a lattice,
read from one kernel, gives the Frobenius fixed points and the injectivity
test of ``injects``, which answers its question about the map that the
identity of the ambient lattice induces between subquotients and builds no
group.

Two exact shortcuts skip elimination where its answer is known.  A product
with an identity factor is the other factor, and the SNF of an identity is
(I, I, I), which the pivot loop would also produce.  A zero module K/K has
only zero sub- and quotient modules: ``p_torsion`` for a p that divides no
invariant factor is L/L, ``coinvariants`` and ``fixed_points`` of a zero
module return it, and a map from a zero module is injective.  Each result
spans the same lattices K and L as the general path's, so it is the same
interned group.

An entry past ``MAX_ENTRY_BITS`` bits in the input or the results of
either elimination raises BoundExceeded, so a datum command fails fast
instead of computing with it.

The public ``IntMatrix`` constructor validates its input: it converts every
entry with ``int()`` and rejects ragged rows.  Matrices that this module
computes from other matrices (products, sums, stacks, transposes, the Smith
and Hermite forms and what is read from them) skip that re-check.
"""

from __future__ import annotations

import functools
from math import prod
from operator import add, mul, neg, sub
from typing import Optional, Sequence

from .arith import is_prime
from .errors import BoundExceeded

# per entry of an elimination's input and results; no option moves it
MAX_ENTRY_BITS = 4096


class IntMatrix:
    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Sequence[Sequence[int]],
                 rows: Optional[int] = None, cols: Optional[int] = None):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        r = len(data) if rows is None else rows
        if data:
            c = len(data[0])
            if any(len(row) != c for row in data):
                raise ValueError("ragged matrix")
        else:
            c = 0
        if cols is not None:
            c = cols
        if rows is not None and r != len(data) and data:
            raise ValueError("row count mismatch")
        if r and not data:
            data = tuple(() for _ in range(r))
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "cols", c)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __eq__(self, other):
        return (type(other) is IntMatrix and self.entries == other.entries
                and self.rows == other.rows and self.cols == other.cols)

    def __hash__(self):
        return hash((self.entries, self.rows, self.cols))

    @classmethod
    def _of(cls, entries: tuple, rows: int, cols: int) -> "IntMatrix":
        """Wrap a rectangular tuple of int tuples that this module built
        itself, with ``rows`` empty rows when ``cols`` is 0; skips the
        conversion and shape checks of the public constructor."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        return m

    @classmethod
    @functools.lru_cache(maxsize=None)
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(tuple(tuple(int(i == j) for j in range(n))
                             for i in range(n)), n, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(((0,) * cols,) * rows, rows, cols)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], dim: int) -> "IntMatrix":
        for v in cols:
            if len(v) != dim:
                raise ValueError("column length mismatch")
        return cls([[v[i] for v in cols] for i in range(dim)],
                   rows=dim, cols=len(cols))

    def columns(self) -> list:
        return list(zip(*self.entries)) if self.rows else [()] * self.cols

    def _first_rows(self, k: int) -> "IntMatrix":
        return IntMatrix._of(self.entries[:k], k, self.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(self.columns()), self.cols, self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
        if not self.cols:
            return IntMatrix.zeros(self.rows, other.cols)
        one = IntMatrix.identity(self.cols).entries
        if self.entries == one:
            return other
        if other.entries == one:
            return self
        cols = tuple(zip(*other.entries))
        return IntMatrix._of(
            tuple(tuple(sum(map(mul, row, col)) for col in cols)
                  for row in self.entries),
            self.rows, other.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._of(tuple(tuple(map(sub, ra, rb)) for ra, rb
                                   in zip(self.entries, other.entries)),
                             self.rows, self.cols)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(tuple(tuple(map(neg, row)) for row in self.entries),
                             self.rows, self.cols)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return IntMatrix._of(tuple(map(add, self.entries, other.entries)),
                             self.rows, self.cols + other.cols)

    def det(self) -> int:
        """Bareiss fraction-free elimination; every division is exact."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        a = [list(row) for row in self.entries]
        sign, prev = 1, 1
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k]), None)
            if piv is None:
                return 0
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            p = a[k][k]
            for i in range(k + 1, n):
                f = a[i][k]
                a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], a[k])]
            prev = p
        return sign * prev

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse; requires det = ±1.  The Hermite form of a
        unimodular M is I, so M @ V = I gives V."""
        if self.rows != self.cols:
            raise ValueError("inverse needs a square matrix")
        pivots, _rest = _hermite(self)
        if len(pivots) < self.rows:
            raise ValueError("matrix is singular")
        if any(col[i] != 1 for i, col in pivots):
            raise ValueError("matrix is not unimodular")
        return _cols_matrix([col for _i, col in pivots], self.rows, self.cols)

    def is_unimodular(self) -> bool:
        """Square with Hermite form I, the form that inverts it."""
        if self.rows != self.cols:
            return False
        pivots, _rest = _hermite(self)
        return (len(pivots) == self.rows
                and all(col[i] == 1 for i, col in pivots))


@functools.lru_cache(maxsize=None)
def smith_normal_form(M: IntMatrix) -> tuple:
    """(U, S, V) with U @ M @ V = S diagonal, d_1 | d_2 | ..., d_i > 0.

    U and V are unimodular.  Pivot choice is (|value|, row, col)-minimal,
    making the whole decomposition deterministic.  An entry of M, U, S or V
    past ``MAX_ENTRY_BITS`` bits raises BoundExceeded.
    """
    r, c = M.rows, M.cols
    one = IntMatrix.identity(r)
    if M == one:
        return one, M, one
    _check_bits(M.entries, "Smith", r, c)
    A = [list(row) for row in M.entries]
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):  # row i -= q * row j
        A[i] = [x - q * y for x, y in zip(A[i], A[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def col_sub(i, j, q):  # col i -= q * col j
        for row in A:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    t = 0
    while t < min(r, c):
        # re-select the minimal pivot on every round: remainder steps then
        # strictly shrink the submatrix minimum, which keeps entries small
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if A[i][j] != 0 and (best is None
                                     or (abs(A[i][j]), i, j) < best):
                    best = (abs(A[i][j]), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        p = A[t][t]
        i = next((i for i in range(t + 1, r) if A[i][t] % p), None)
        if i is not None:
            row_sub(i, t, A[i][t] // p)   # leaves |remainder| < |p|
            continue
        j = next((j for j in range(t + 1, c) if A[t][j] % p), None)
        if j is not None:
            col_sub(j, t, A[t][j] // p)
            continue
        for i in range(t + 1, r):         # exact elimination
            if A[i][t]:
                row_sub(i, t, A[i][t] // p)
        for j in range(t + 1, c):
            if A[t][j]:
                col_sub(j, t, A[t][j] // p)
        bad = next((i for i in range(t + 1, r)
                    for j in range(t + 1, c) if A[i][j] % p), None)
        if bad is not None:
            A[t] = [x + y for x, y in zip(A[t], A[bad])]
            U[t] = [x + y for x, y in zip(U[t], U[bad])]
            continue
        if p < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    _check_bits(U + A + V, "Smith", r, c)
    return (IntMatrix._of(tuple(map(tuple, U)), r, r),
            IntMatrix._of(tuple(map(tuple, A)), r, c),
            IntMatrix._of(tuple(map(tuple, V)), c, c))


def _check_bits(rows, form: str, r: int, c: int) -> None:
    limit = 1 << MAX_ENTRY_BITS
    if not all(-limit < min(row) and max(row) < limit for row in rows if row):
        raise BoundExceeded(f"{form} normal form of a {r}x{c} matrix: an "
                            f"entry exceeds {MAX_ENTRY_BITS} bits")


def _snf_diagonal(S: IntMatrix) -> list:
    return [S.entries[i][i] for i in range(min(S.rows, S.cols))
            if S.entries[i][i] != 0]


@functools.lru_cache(maxsize=None)
def _hermite(M: IntMatrix) -> tuple:
    """Reduced column Hermite normal form of M by column operations.

    Rows are cleared from the last up.  The columns with a nonzero entry in
    row i trade Euclid steps, each reduced by the one of least |entry|,
    until one is left: made positive, it is the pivot of row i, and each
    pivot column found before it is reduced to an entry in [0, pivot) on
    row i.  Each column carries below its M.rows entries the M.cols
    coordinates of the operations.  Returns (pivots, rest): the pivot
    columns as (row, column) pairs, rows ascending, whose heads are H and
    tails V with M @ V = H, then the zeroed columns, whose tails span the
    kernel of M.  An entry of M or of a result past ``MAX_ENTRY_BITS`` bits
    raises BoundExceeded.
    """
    n, m = M.rows, M.cols
    _check_bits(M.entries, "Hermite", n, m)
    cols = []
    for j, col in enumerate(M.columns()):
        cols.append(list(col) + [0] * m)
        cols[j][n + j] = 1
    pivots = []                      # (row, column), rows descending
    for i in reversed(range(n)):
        live, zero = [], []
        for col in cols:
            (live if col[i] else zero).append(col)
        if not live:
            continue
        cols = zero
        while len(live) > 1:
            piv = min(live, key=lambda col: abs(col[i]))
            p, rest = piv[i], [piv]
            for col in live:
                if col is not piv:
                    q = col[i] // p      # leaves |remainder| < |p|
                    col = [x - q * y for x, y in zip(col, piv)]
                    (rest if col[i] else cols).append(col)
            live = rest
        piv = live[0]
        if piv[i] < 0:
            piv = [-x for x in piv]
        p = piv[i]
        for k, (row, col) in enumerate(pivots):
            q = col[i] // p
            if q:
                pivots[k] = row, [x - q * y for x, y in zip(col, piv)]
        pivots.append((i, piv))
    _check_bits([col for _i, col in pivots] + cols, "Hermite", n, m)
    return (tuple((i, tuple(col)) for i, col in reversed(pivots)),
            tuple(map(tuple, cols)))


def _cols_matrix(cols: list, start: int, rows: int) -> IntMatrix:
    """The matrix whose columns are coordinates start .. start + rows of
    ``cols``."""
    if not cols:
        return IntMatrix.zeros(rows, 0)
    return IntMatrix._of(tuple(zip(*(col[start:start + rows] for col in cols))),
                         rows, len(cols))


@functools.lru_cache(maxsize=None)
def lattice_basis(M: IntMatrix) -> IntMatrix:
    """The reduced Hermite basis (columns) of the lattice generated by the
    columns of M: column j has its last nonzero entry, positive, in row r_j,
    r_1 < r_2 < ..., and every later column's entry in row r_j lies in
    [0, that pivot).  Equal lattices have equal bases."""
    pivots, _rest = _hermite(M)
    return _cols_matrix([col for _i, col in pivots], 0, M.rows)


def solve_in_lattice(B: IntMatrix, targets: IntMatrix) -> Optional[IntMatrix]:
    """X with B @ X = targets over Z, or None.  Back substitution down the
    pivot rows of B's Hermite form H = B @ V gives Y with H @ Y = targets;
    X = V @ Y.  For a basis B the solution is unique."""
    if B.rows != targets.rows:
        raise ValueError(f"shape mismatch {B.rows} vs {targets.rows}")
    n = B.rows
    pivots, _rest = _hermite(B)
    out = []
    for target in targets.columns():
        # t - H @ y above, -V @ y below, with y growing one pivot at a time
        t = list(target) + [0] * B.cols
        for i, col in reversed(pivots):
            q, r = divmod(t[i], col[i])
            if r:
                return None
            if q:
                t = [x - q * y for x, y in zip(t, col)]
        if any(t[:n]):
            return None
        out.append([-x for x in t[n:]])
    return _cols_matrix(out, 0, B.cols)


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """Basis (columns) of {x : M @ x = 0}: the transforms of the columns
    that the Hermite form zeroes."""
    _pivots, rest = _hermite(M)
    return _cols_matrix(rest, M.rows, M.cols)


def lattice_contains(B: IntMatrix, vectors: IntMatrix) -> bool:
    return solve_in_lattice(B, vectors) is not None


def _preimage(sub: IntMatrix, image: IntMatrix, target: IntMatrix) -> IntMatrix:
    """Basis of the sub @ x whose image @ x lies in the lattice of
    ``target``; ``sub`` and ``image`` have one column per coordinate of x."""
    top = kernel_basis(image.hstack(-target))._first_rows(sub.cols)
    return sub @ lattice_basis(top)


class FGAbelianGroup:
    """Subquotient K/L of Z^n; K and L are column-basis matrices, L ⊆ K.
    An immutable value: equal inputs give the same object."""

    def __new__(cls, ambient_dim: int, sub: IntMatrix, rel: IntMatrix):
        if sub.rows != ambient_dim or rel.rows != ambient_dim:
            raise ValueError("basis matrices must live in the ambient lattice")
        return _group(ambient_dim, lattice_basis(sub), lattice_basis(rel))

    def __setattr__(self, name, value):
        raise AttributeError("FGAbelianGroup is immutable")

    # ------------------------------------------------------------- basics

    @classmethod
    def free(cls, n: int) -> "FGAbelianGroup":
        return cls(n, IntMatrix.identity(n), IntMatrix.zeros(n, 0))

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> Optional[int]:
        if not self.is_finite:
            return None
        return prod(self.invariant_factors)

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FGAbelianGroup({self.describe()})"

    # ------------------------------------------------------------ functors

    @functools.lru_cache(maxsize=None)
    def torsion(self) -> "FGAbelianGroup":
        """Subgroup of elements with m·x ∈ L for some m ≥ 1 (mod L)."""
        cols = tuple(tuple(x // d for x in col) for col, d in self._scaled_gens)
        sat = IntMatrix._of(cols, len(cols), self.sub.cols).transpose()
        return FGAbelianGroup(self.ambient_dim, self.sub @ sat, self.rel)

    @functools.lru_cache(maxsize=None)
    def p_torsion(self, p: int) -> "FGAbelianGroup":
        """Subgroup of elements of p-power order (mod L)."""
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if all(d % p for d in self.invariant_factors):
            return FGAbelianGroup(self.ambient_dim, self.rel, self.rel)
        cols = []
        for col, d in self._scaled_gens:
            v = d
            while v % p == 0:
                v //= p
            # col / p-part = v·e_i, of exact order p^{v_p(d)} (v prime to p)
            cols.append(tuple(x // (d // v) for x in col))
        gens = IntMatrix._of(tuple(cols), len(cols), self.sub.cols).transpose()
        return FGAbelianGroup(self.ambient_dim, self.sub @ gens, self.rel)


@functools.lru_cache(maxsize=None)
def _group(ambient_dim: int, sub: IntMatrix, rel: IntMatrix) -> FGAbelianGroup:
    coords = solve_in_lattice(sub, rel)
    if coords is None:
        raise ValueError("relation lattice is not contained in the subgroup")
    _U, S, V = smith_normal_form(coords)
    diag = _snf_diagonal(S)
    group = object.__new__(FGAbelianGroup)
    # column i of coords @ V is d_i times column i of U^-1: the i-th
    # cyclic factor's generator, scaled to a relation
    vars(group).update(
        ambient_dim=ambient_dim, sub=sub, rel=rel,
        _scaled_gens=tuple(zip((coords @ V).columns(), diag)),
        free_rank=sub.cols - len(diag),
        invariant_factors=tuple(d for d in diag if d > 1))
    return group


@functools.lru_cache(maxsize=None)
def coinvariants(A: FGAbelianGroup, gens: tuple) -> FGAbelianGroup:
    """A / <(g-1)a : g in gens>.  Unchecked precondition: each g is n x n
    and maps K and L into themselves.  Datum validation proves it for each
    K and L built from a datum: every operator is unimodular and permutes
    the coroots, Frobenius normalizes the inertia image, and the wild image
    is normal under inertia and Frobenius."""
    if A.is_trivial:
        return A
    rel = A.rel
    one = IntMatrix.identity(A.ambient_dim)
    for g in gens:
        rel = rel.hstack((g - one) @ A.sub)
    return FGAbelianGroup(A.ambient_dim, A.sub, rel)


@functools.lru_cache(maxsize=None)
def fixed_points(A: FGAbelianGroup, f: IntMatrix) -> FGAbelianGroup:
    """{a in A : f(a) = a}.  Unchecked precondition, proved by datum
    validation as for ``coinvariants``: f is n x n and preserves K and L."""
    if A.is_trivial:
        return A
    moved = (f - IntMatrix.identity(A.ambient_dim)) @ A.sub
    return FGAbelianGroup(A.ambient_dim, _preimage(A.sub, moved, A.rel), A.rel)


def injects(source: FGAbelianGroup, target: FGAbelianGroup) -> bool:
    """Is the map source -> target injective?  It is induced by the identity
    of the shared ambient lattice, from K1/L1 to K2/L2 with K1 ⊆ K2 and
    L1 ⊆ L2."""
    if source.is_trivial:
        return True
    meet = _preimage(source.sub, source.sub, target.rel)
    return meet.cols == 0 or lattice_contains(source.rel, meet)

