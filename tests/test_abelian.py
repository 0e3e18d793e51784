import itertools
import random
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from operator import add, sub

import pytest
from conftest import (
    clear_process_caches,
    cokernel,
    functor_corpus,
    general_exact,
    lattice_meet,
    lattice_sum,
    preserves,
    same_lattice,
    well_defined,
)

from blockatlas import abelian
from blockatlas.abelian import (
    FGAbelianGroup,
    IntMatrix,
    coinvariants,
    fixed_points,
    injects,
    kernel_basis,
    lattice_basis,
    lattice_contains,
    smith_normal_form,
    solve_in_lattice,
)
from blockatlas.errors import BoundExceeded


# --------------------------------------------------------------- oracles

def perm_sign(perm):
    sign, seen = 1, set()
    for start in range(len(perm)):
        if start in seen:
            continue
        ln, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def det_perm(rows):
    """Determinant by permutation expansion — independent of Gauss."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        p = perm_sign(perm)
        for i, j in enumerate(perm):
            p *= rows[i][j]
        total += p
    return total


def oracle_snf_diagonal(M):
    """Nonzero SNF diagonal via determinantal divisors gcd(k-minors)."""
    out, prev = [], 1
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for rr in itertools.combinations(range(M.rows), k):
            for cc in itertools.combinations(range(M.cols), k):
                minor = det_perm([[M.entries[i][j] for j in cc] for i in rr])
                g = gcd(g, minor)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)]
                      for _ in range(rows)])


def random_unimodular(rng, n, steps=14):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        op = rng.randrange(3)
        if op == 0:
            q = rng.randint(-3, 3)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntMatrix(m)


# ------------------------------------------------------------- IntMatrix

def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.identity(2) @ IntMatrix.identity(3)
    z = IntMatrix.zeros(3, 0)
    assert (z.rows, z.cols) == (3, 0) and z == IntMatrix([[], [], []])
    assert (IntMatrix.identity(2) @ IntMatrix.zeros(2, 0)).cols == 0


def test_det_and_inverse():
    m = IntMatrix([[2, 1], [1, 1]])
    assert m.det() == 1 and m.is_unimodular()
    assert m.inverse_unimodular() @ m == IntMatrix.identity(2)
    assert IntMatrix([[2, 4], [1, 2]]).det() == 0
    with pytest.raises(ValueError):
        IntMatrix([[2]]).inverse_unimodular()
    rng = random.Random(7)
    for _ in range(25):
        u = random_unimodular(rng, 4)
        assert abs(u.det()) == 1
        assert u @ u.inverse_unimodular() == IntMatrix.identity(4)


def test_det_matches_permutation_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, -5, 5)
        assert m.det() == det_perm([list(r) for r in m.entries])
    # sparse matrices hit zero pivots, which force a row swap
    for _ in range(120):
        n = rng.randint(2, 6)
        density = rng.choice((0.25, 0.4, 0.6))
        m = IntMatrix([[rng.randint(-5, 5) if rng.random() < density else 0
                        for _ in range(n)] for _ in range(n)])
        assert m.det() == det_perm([list(r) for r in m.entries])
    for rows in ([[0, 1], [1, 0]], [[0, 2, 0], [0, 0, 3], [5, 0, 0]],
                 [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]):
        assert IntMatrix(rows).det() == det_perm(rows) != 0


# ------------------------------------------------------------------- SNF

def test_snf_frozen_diag_4_6():
    u, s, v = smith_normal_form(IntMatrix([[4, 0], [0, 6]]))
    assert s == IntMatrix([[2, 0], [0, 12]])
    assert u @ IntMatrix([[4, 0], [0, 6]]) @ v == s
    assert abs(u.det()) == 1 and abs(v.det()) == 1


def test_snf_roundtrip_random():
    rng = random.Random(23)
    for _ in range(150):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        u, s, v = smith_normal_form(m)
        assert u @ m @ v == s
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
        for i in range(s.rows):
            for j in range(s.cols):
                if i != j:
                    assert s.entries[i][j] == 0
        nonzero = [d for d in diag if d]
        assert all(d > 0 for d in nonzero)
        assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_snf_matches_determinantal_divisors():
    rng = random.Random(31)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), -6, 6)
        _u, s, _v = smith_normal_form(m)
        diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))
                if s.entries[i][i]]
        assert diag == oracle_snf_diagonal(m)


def test_snf_deterministic():
    # the cache would make a repeated call compare a result with itself, so
    # compare the cached factors with an uncached and a re-filled factoring
    # of an equal matrix built afresh
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix(rng, 4, 5)
        cached = smith_normal_form(m)
        fresh = IntMatrix([list(row) for row in m.entries])
        assert fresh is not m
        assert smith_normal_form.__wrapped__(fresh) == cached
        smith_normal_form.cache_clear()
        assert smith_normal_form(fresh) == cached


def test_snf_empty_shapes():
    for shape in [(0, 0), (3, 0), (0, 3)]:
        m = IntMatrix.zeros(*shape)
        u, s, v = smith_normal_form(m)
        assert (s.rows, s.cols) == shape
        assert u @ m @ v == s


def test_snf_rejects_entries_past_the_bit_bound():
    # every entry of the input and of U, S and V has at most MAX_ENTRY_BITS
    # bits; the input is checked before any elimination
    limit = 2 ** abelian.MAX_ENTRY_BITS
    for entry in (limit - 1, 1 - limit):
        _u, s, _v = smith_normal_form(IntMatrix([[entry, 0], [0, 1]]))
        assert s == IntMatrix([[1, 0], [0, limit - 1]])
    for entries in ([[limit]], [[-limit]], [[1, 0], [0, limit]]):
        with pytest.raises(BoundExceeded, match=f"exceeds "
                           f"{abelian.MAX_ENTRY_BITS} bits$"):
            smith_normal_form(IntMatrix(entries))


def test_hermite_rejects_entries_past_the_bit_bound():
    # bases, solves, kernels and inverses check their input and results
    # against the same bound, before and after the one elimination
    limit = 2 ** abelian.MAX_ENTRY_BITS
    m = IntMatrix([[1, limit - 1], [0, 1]])
    assert lattice_basis(m) == IntMatrix.identity(2)
    assert m.inverse_unimodular() == IntMatrix([[1, 1 - limit], [0, 1]])
    assert kernel_basis(IntMatrix([[1, 1 - limit]])) == IntMatrix(
        [[limit - 1], [1]])
    for entry in (limit, -limit):
        m = IntMatrix([[1, entry], [0, 1]])
        for call in (lambda: lattice_basis(m), lambda: kernel_basis(m),
                     m.inverse_unimodular,
                     lambda: solve_in_lattice(m, IntMatrix.identity(2))):
            with pytest.raises(BoundExceeded, match="^Hermite normal form "
                               "of a 2x2 matrix: an entry exceeds "
                               f"{abelian.MAX_ENTRY_BITS} bits$"):
                call()


# ------------------------------------- internal results vs the public path

def shaped_matrix(rng, rows, cols):
    """Random rows x cols matrix through the public constructor; unlike
    random_matrix it also builds the 0 x n shapes."""
    return IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                      for _ in range(rows)], rows=rows, cols=cols)


def assert_same_as_validated(m):
    """m equals, with the same hash, the matrix the validating constructor
    builds from its entries, and holds a rectangular tuple of int tuples."""
    v = IntMatrix([list(row) for row in m.entries], rows=m.rows, cols=m.cols)
    assert m == v and hash(m) == hash(v)
    assert type(m.entries) is tuple and len(m.entries) == m.rows
    for row in m.entries:
        assert type(row) is tuple and len(row) == m.cols
        assert all(type(x) is int for x in row)


def naive_product(a, b):
    return [[sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols))
             for j in range(b.cols)] for i in range(a.rows)]


def test_internal_results_match_validating_constructor():
    rng = random.Random(73)
    dims = (0, 1, 2, 3, 5)
    for r, k, c in itertools.product(dims, repeat=3):
        a, a2, b = (shaped_matrix(rng, r, k), shaped_matrix(rng, r, k),
                    shaped_matrix(rng, k, c))
        product = a @ b
        assert_same_as_validated(product)
        assert product == IntMatrix(naive_product(a, b), rows=r, cols=c)
        rows = list(zip(a.entries, a2.entries))
        cases = [
            (a - a2, [[x - y for x, y in zip(p, q)] for p, q in rows]),
            (-a, [[-x for x in p] for p in a.entries]),
            (a.hstack(product),
             [list(p) + list(q) for p, q in zip(a.entries, product.entries)]),
            (a.transpose(), [[a.entries[i][j] for i in range(r)]
                             for j in range(k)]),
        ]
        for m, expected in cases:
            assert_same_as_validated(m)
            assert m == IntMatrix(expected, rows=m.rows, cols=m.cols)
        for m in smith_normal_form(a) + smith_normal_form(b):
            assert_same_as_validated(m)
    for n in dims:
        assert_same_as_validated(IntMatrix.identity(n))
        for c in dims:
            assert_same_as_validated(IntMatrix.zeros(n, c))


def test_public_constructor_still_validates():
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="row count"):
        IntMatrix([[1, 2]], rows=2)
    m = IntMatrix([[True, 2.0], ["3", -4]])
    assert m.entries == ((1, 2), (3, -4))
    assert all(type(x) is int for row in m.entries for x in row)
    assert m == IntMatrix([[1, 2], [3, -4]])
    assert hash(m) == hash(IntMatrix([[1, 2], [3, -4]]))


# ------------------------------------------------------ memoized functions

SHAPES = [(r, c) for r in (0, 1, 2, 3, 4) for c in (0, 1, 2, 3, 5)]


def memoized_calls(rng, rows, cols):
    """(function, args) for every memoized matrix function on one seeded
    random rows x cols matrix."""
    m = shaped_matrix(rng, rows, cols)
    return [(smith_normal_form, (m,)), (lattice_basis, (m,))]


def test_memoized_results_equal_uncached():
    rng = random.Random(91)
    clear_process_caches()
    for rows, cols in SHAPES * 3:
        for fn, args in memoized_calls(rng, rows, cols):
            result = fn(*args)
            assert result == fn.__wrapped__(*args), (fn.__name__, args)
            assert fn(*args) is result, (fn.__name__, args)


def test_constructor_and_trusted_matrices_share_cache_entries():
    rng = random.Random(97)
    for rows, cols in SHAPES:
        public = shaped_matrix(rng, rows, cols)
        trusted = IntMatrix._of(public.entries, rows, cols)
        assert public is not trusted
        for fn in (smith_normal_form, lattice_basis):
            fn.cache_clear()
            result = fn(public)
            assert fn(trusted) is result, (fn.__name__, rows, cols)
            info = fn.cache_info()
            assert (info.misses, info.hits) == (1, 1), (fn.__name__, rows, cols)
        target = IntMatrix._of(tuple((x,) for x in range(rows)), rows, 1)
        assert solve_in_lattice(public, target) == solve_in_lattice(
            trusted, IntMatrix([[x] for x in range(rows)], rows=rows, cols=1))


def test_equal_entries_with_other_shapes_do_not_collide():
    # the 0 x n matrices all hold (); only their shapes tell them apart
    assert IntMatrix.zeros(0, 2).entries == IntMatrix.zeros(0, 3).entries
    clear_process_caches()
    for a, b in [((0, 2), (0, 3)), ((2, 0), (3, 0))]:
        for fn in (smith_normal_form, lattice_basis):
            for shape in (a, b):
                m = IntMatrix.zeros(*shape)
                assert fn(m) == fn.__wrapped__(m), (fn.__name__, shape)
        assert smith_normal_form(IntMatrix.zeros(*a)) != smith_normal_form(
            IntMatrix.zeros(*b))
        assert (kernel_basis(IntMatrix.zeros(*a)).cols,
                kernel_basis(IntMatrix.zeros(*b)).cols) == (a[1], b[1])
        assert (lattice_basis(IntMatrix.zeros(*a)).rows,
                lattice_basis(IntMatrix.zeros(*b)).rows) == (a[0], b[0])
    for fn in (smith_normal_form, lattice_basis):
        assert fn.cache_info().currsize == 4, fn.__name__


def test_solve_in_lattice_shape_errors_are_not_cached():
    # a shape error raises on every call, the first and the repeats
    clear_process_caches()
    for basis_rows, target_rows in [(2, 3), (0, 2), (3, 0)]:
        basis = IntMatrix.identity(basis_rows)
        targets = IntMatrix.zeros(target_rows, 1)
        for _attempt in range(3):
            with pytest.raises(ValueError, match="shape mismatch"):
                solve_in_lattice(basis, targets)
            with pytest.raises(ValueError, match="shape mismatch"):
                lattice_contains(basis, targets)


# ---------------------------------------------------------- group basics

def test_cokernel_frozen_examples():
    g = cokernel(IntMatrix([[2, 0], [0, 3]]))
    assert g.invariant_factors == (6,) and g.free_rank == 0
    assert g.order() == 6 and g.describe() == "Z/6"

    g = cokernel(IntMatrix([[2, 0], [0, 2]]))
    assert g.invariant_factors == (2, 2) and g.order() == 4

    g = cokernel(IntMatrix([[1, 0], [0, 5]]))
    assert g.invariant_factors == (5,)

    g = cokernel(IntMatrix([[2], [4]]))
    assert g.free_rank == 1 and g.invariant_factors == (2,)
    assert g.order() is None and g.describe() == "Z + Z/2"


def test_order_matches_determinant_oracle():
    rng = random.Random(43)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, -5, 5)
        d = det_perm([list(r) for r in m.entries])
        if d == 0:
            continue
        assert cokernel(m).order() == abs(d)
        done += 1


def test_free_and_trivial():
    f = FGAbelianGroup.free(3)
    assert f.free_rank == 3 and not f.is_finite and f.order() is None
    t = cokernel(IntMatrix.identity(2))
    assert t.is_trivial and t.describe() == "0"


def test_subquotient_and_p_torsion():
    # Z + Z/12 inside ambient Z^2
    g = FGAbelianGroup(2, IntMatrix.identity(2),
                       IntMatrix.from_columns([(0, 12)], 2))
    assert g.free_rank == 1 and g.invariant_factors == (12,)
    assert g.p_torsion(2).invariant_factors == (4,)
    assert g.p_torsion(2).order() == 4
    assert g.p_torsion(3).invariant_factors == (3,)
    assert g.p_torsion(5).is_trivial
    assert g.torsion().invariant_factors == (12,)
    assert g.torsion().free_rank == 0
    with pytest.raises(ValueError):
        g.p_torsion(4)


def test_torsion_random_properties():
    rng = random.Random(59)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = random_matrix(rng, n, n, -6, 6)
        g = cokernel(m)
        t = g.torsion()
        assert t.free_rank == 0
        assert t.invariant_factors == g.invariant_factors
        if g.is_finite:
            # the p-primary parts multiply back to the full order
            residue = g.order()
            parts = 1
            for p in (2, 3, 5, 7, 11, 13):
                parts *= g.p_torsion(p).order()
                while residue % p == 0:
                    residue //= p
            if residue == 1:
                assert parts == g.order()


def test_rel_must_sit_inside_sub():
    with pytest.raises(ValueError):
        FGAbelianGroup(2, IntMatrix.from_columns([(2, 0)], 2),
                       IntMatrix.from_columns([(1, 0)], 2))


# ------------------------------------------------------------- functors

def test_coinvariants_frozen():
    z = FGAbelianGroup.free(1)
    g = coinvariants(z, (IntMatrix([[-1]]),))
    assert g.invariant_factors == (2,) and g.free_rank == 0

    z2 = FGAbelianGroup.free(2)
    swap = IntMatrix([[0, 1], [1, 0]])
    g = coinvariants(z2, (swap,))
    assert g.free_rank == 1 and g.invariant_factors == ()

    z5 = cokernel(IntMatrix([[5]]))
    assert coinvariants(z5, (IntMatrix([[2]]),)).is_trivial

    # a zero module K/K, K = 2Z + Z, comes back unchanged
    k = IntMatrix.from_columns([(2, 0), (0, 1)], 2)
    zero = FGAbelianGroup(2, k, k)
    neg = IntMatrix([[-1, 0], [0, -1]])
    assert coinvariants(zero, (neg,)) is zero
    assert fixed_points(zero, neg) is zero


def test_h1_cyclic_frozen():
    # H^1 of <f> on a finite module is its f-coinvariants, as langlands
    # reads it for the component lemma
    z3 = cokernel(IntMatrix([[3]]))
    assert coinvariants(z3, (IntMatrix([[2]]),)).is_trivial
    z8 = cokernel(IntMatrix([[8]]))
    assert coinvariants(z8, (IntMatrix([[3]]),)).invariant_factors == (2,)


def test_fixed_points_frozen():
    z5 = cokernel(IntMatrix([[5]]))
    assert fixed_points(z5, IntMatrix([[2]])).is_trivial

    z2 = FGAbelianGroup.free(2)
    swap = IntMatrix([[0, 1], [1, 0]])
    fp = fixed_points(z2, swap)
    assert fp.free_rank == 1 and fp.invariant_factors == ()

    z4 = cokernel(IntMatrix([[4]]))
    fp = fixed_points(z4, IntMatrix([[3]]))  # 3x = x  <=>  2x = 0
    assert fp.invariant_factors == (2,)


def test_herbrand_quotient_on_random_finite_modules():
    rng = random.Random(67)
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        m = random_matrix(rng, n, n, -5, 5)
        dv = m.det()
        if dv == 0 or abs(dv) > 64:
            continue
        u, s, _v = smith_normal_form(m)
        diag = [s.entries[i][i] for i in range(n)]
        h = [[rng.randint(-2, 2) * (diag[i] // gcd(diag[i], diag[j]))
              for j in range(n)] for i in range(n)]
        uinv = u.inverse_unimodular()
        g = uinv @ IntMatrix(h) @ u
        a = cokernel(m)
        assert fixed_points(a, g).order() == coinvariants(a, (g,)).order()
        done += 1


def test_cokernel_invariants_are_basis_independent():
    rng = random.Random(71)
    for _ in range(30):
        m = random_matrix(rng, 4, 3, -4, 4)
        base = cokernel(m)
        p = random_unimodular(rng, 4)
        q = random_unimodular(rng, 3)
        left = cokernel(p @ m)
        right = cokernel(m @ q)
        assert left.invariant_factors == base.invariant_factors
        assert left.free_rank == base.free_rank
        assert right.invariant_factors == base.invariant_factors
        assert right.free_rank == base.free_rank


# ------------------------------------------------------- lattices & maps

def test_solve_and_contains():
    b = IntMatrix([[2, 0], [0, 3]])
    x = solve_in_lattice(b, IntMatrix.from_columns([(4, 3)], 2))
    assert x is not None and b @ x == IntMatrix.from_columns([(4, 3)], 2)
    assert solve_in_lattice(b, IntMatrix.from_columns([(1, 0)], 2)) is None
    assert lattice_contains(b, IntMatrix.from_columns([(2, -3)], 2))
    assert not lattice_contains(b, IntMatrix.from_columns([(2, 2)], 2))


def test_kernel_basis_annihilates():
    m = IntMatrix([[1, 1, 1]])
    k = kernel_basis(m)
    assert k.cols == 2 and m @ k == IntMatrix.zeros(1, 2)
    m = IntMatrix([[2, 4]])
    k = kernel_basis(m)
    assert k.cols == 1 and m @ k == IntMatrix.zeros(1, 1)
    assert lattice_contains(k, IntMatrix.from_columns([(2, -1)], 2))


def test_lattice_sum_and_intersection():
    a = IntMatrix.from_columns([(2, 0), (0, 3)], 2)
    b = IntMatrix.from_columns([(1, 1)], 2)
    meet = lattice_meet(a, b)
    assert meet.cols == 1
    assert lattice_contains(meet, IntMatrix.from_columns([(6, 6)], 2))
    assert lattice_contains(b, meet) and lattice_contains(a, meet)
    join = lattice_sum(IntMatrix.from_columns([(2, 0)], 2),
                       IntMatrix.from_columns([(0, 3)], 2))
    assert lattice_contains(join, IntMatrix.from_columns([(2, 3)], 2))
    assert not lattice_contains(join, IntMatrix.from_columns([(1, 0)], 2))


def test_lattice_basis_idempotent_and_spanning():
    rng = random.Random(83)
    for _ in range(25):
        m = random_matrix(rng, 3, rng.randint(1, 5), -5, 5)
        b = lattice_basis(m)
        assert lattice_contains(b, m)
        assert lattice_contains(m, b)
        # basis columns are independent: kernel is trivial
        assert kernel_basis(b).cols == 0
        assert lattice_basis(b).cols == b.cols


def reduced_hermite(cols, n):
    """The tests' echelon basis with each column reduced, from the right,
    by the columns before it: its entry on an earlier pivot row lands in
    [0, that pivot).  Pivot rows ascend; the result is unique per lattice."""
    basis = [(i, h) for i, h in enumerate(hermite_basis(cols, n)) if h]
    out = []
    for i, h in basis:
        for j, g in reversed(out):
            q = h[j] // g[j]
            h = [a - q * b for a, b in zip(h, g)]
        out.append((i, h))
    return [tuple(h) for _i, h in out]


def test_equal_lattices_get_equal_bases():
    # two seeded generator sets of one lattice: a unimodular change of the
    # generators, redundant integer combinations and a shuffle; both give
    # one basis, the reduced echelon basis of the tests' own elimination
    rng = random.Random(109)
    for _ in range(60):
        n, k, extra = rng.randint(1, 5), rng.randint(2, 6), rng.randint(0, 3)
        gens = random_matrix(rng, n, k)
        combos = IntMatrix([[rng.randint(-3, 3) for _ in range(extra)]
                            for _ in range(k)], rows=k, cols=extra)
        cols = (gens @ random_unimodular(rng, k)).hstack(gens @ combos)
        cols = cols.columns()
        rng.shuffle(cols)
        basis = lattice_basis(gens)
        assert lattice_basis(IntMatrix.from_columns(cols, n)) == basis
        assert basis.columns() == reduced_hermite(gens.columns(), n)


def test_injects_frozen():
    amb = 2
    k1 = IntMatrix.from_columns([(2, 0), (0, 1)], amb)
    l_shared = IntMatrix.from_columns([(2, 0)], amb)
    a = FGAbelianGroup(amb, k1, l_shared)          # iso to Z
    b = FGAbelianGroup(amb, IntMatrix.identity(2), l_shared)  # Z + Z/2
    zero = FGAbelianGroup(amb, l_shared, l_shared)
    assert well_defined(a, b) and injects(a, b)
    assert well_defined(b, b) and injects(b, b)
    # a misses (1, 0) of b; the identity of b is onto with a zero kernel
    assert not general_exact(zero, a, b) and general_exact(zero, b, b)
    assert not well_defined(FGAbelianGroup.free(2), a)

    with pytest.raises(ValueError):
        injects(FGAbelianGroup.free(2), FGAbelianGroup.free(3))


def test_exact_frozen():
    # the two exactness oracles, on lattices and on elements
    def cyclic(k, l):
        return FGAbelianGroup(1, IntMatrix([[k]]), IntMatrix([[l]]))
    # in Z: 2Z/4Z -> Z/4Z -> Z/2Z -> 0 is exact; after the zero module the
    # kernel 2Z/4Z is not an image; and 2Z/4Z in the middle is its own
    # kernel to Z/2Z but does not cover it
    two_four, z4, z2 = cyclic(2, 4), cyclic(1, 4), cyclic(1, 2)
    for sequence, clauses in [((two_four, z4, z2), (True, True)),
                              ((cyclic(4, 4), z4, z2), (True, False)),
                              ((two_four, two_four, z2), (False, True))]:
        assert exactness_on_elements(*sequence) == clauses
        assert general_exact(*sequence) == all(clauses)

    # in Z^2, with a free part: k1 = 2Z + Z maps onto the kernel of
    # Z^2/(4,0) -> Z^2/k1, which is onto; a = k1/(4,0) injects into b but
    # does not cover it
    amb = 2
    k1 = IntMatrix.from_columns([(2, 0), (0, 1)], amb)
    rel = IntMatrix.from_columns([(4, 0)], amb)
    a = FGAbelianGroup(amb, k1, rel)                        # Z/2 + Z
    b = FGAbelianGroup(amb, IntMatrix.identity(2), rel)     # Z/4 + Z
    c = FGAbelianGroup(amb, k1, IntMatrix.zeros(amb, 0))    # Z + Z
    quotient = FGAbelianGroup(amb, IntMatrix.identity(2), k1)  # Z/2
    assert general_exact(c, b, quotient) and general_exact(a, b, quotient)
    assert injects(a, b) and not injects(c, b)
    assert not general_exact(FGAbelianGroup(amb, rel, rel), a, b)


# ------------------------------------- interned groups, memoized functors

def signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    return IntMatrix([[rng.choice((-1, 1)) if perm[i] == j else 0
                       for j in range(n)] for i in range(n)])


def stable_relations(rng, f, n, orbits):
    """Columns: the f-orbits of a few random vectors, so f preserves their
    span (a signed permutation has finite order)."""
    cols = []
    for _ in range(orbits):
        v = w = tuple(rng.randint(-6, 6) for _ in range(n))
        while True:
            cols.append(w)
            w = tuple(sum(a * b for a, b in zip(row, w)) for row in f.entries)
            if w == v:
                break
    return cols


def seeded_modules(seed, count, finite=True):
    """(cols, f, group): Z^n modulo the span of cols, n <= 3, with an
    operator f preserving that span; finite of order 2 to 1728, or else
    (finite=False) any, free parts included."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((1, 2, 2, 3, 3))
        f = signed_permutation(rng, n)
        cols = stable_relations(rng, f, n, rng.randint(not finite, 2))
        if finite:
            module = FiniteModule(cols, n)
            if not module.full_rank or not 2 <= len(module.elements) <= 1728:
                continue
        out.append((cols, f, cokernel(IntMatrix.from_columns(cols, n))))
    return out


def value(result):
    """What a functor's result holds, for comparing distinct objects."""
    if isinstance(result, FGAbelianGroup):
        return (result.ambient_dim, result.sub, result.rel, result.free_rank,
                result.invariant_factors, result._scaled_gens)
    return result


def memoized_functor_calls(group, f):
    calls = [(FGAbelianGroup.torsion, (group,)),
             (coinvariants, (group, (f,))),
             (fixed_points, (group, f)),
             (abelian._group, (group.ambient_dim, group.sub, group.rel)),
             (IntMatrix.identity.__func__, (IntMatrix, group.ambient_dim))]
    calls += [(FGAbelianGroup.p_torsion, (group, p)) for p in (2, 3, 5)]
    return calls


def test_memoized_functors_equal_uncached():
    clear_process_caches()
    for _cols, f, group in (seeded_modules(101, 30)
                            + seeded_modules(103, 30, finite=False)):
        for fn, args in memoized_functor_calls(group, f):
            result = fn(*args)
            assert value(result) == value(fn.__wrapped__(*args)), fn
            assert fn(*args) is result, fn


def test_equal_inputs_give_the_same_group():
    clear_process_caches()
    for cols, f, group in seeded_modules(107, 30, finite=False):
        n = group.ambient_dim
        fresh = IntMatrix([list(row) for row in
                           IntMatrix.from_columns(cols, n).entries],
                          rows=n, cols=len(cols))
        assert cokernel(fresh) is group
        assert FGAbelianGroup(n, IntMatrix.identity(n), fresh) is group
        f2 = IntMatrix([list(row) for row in f.entries])
        assert coinvariants(group, (f2,)) is coinvariants(group, (f,))
        assert fixed_points(group, f2) is fixed_points(group, f)
        assert group.p_torsion(2) is group.p_torsion(2)
    with pytest.raises(AttributeError):
        group.free_rank = 0
    assert IntMatrix.identity(3) is IntMatrix.identity(3)


def test_functor_errors_raise_on_every_repeat_and_are_not_cached():
    clear_process_caches()
    z4 = cokernel(IntMatrix([[4]]))
    built = abelian._group.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError):
            z4.p_torsion(4)
        with pytest.raises(ValueError):
            FGAbelianGroup(2, IntMatrix.from_columns([(2, 0)], 2),
                           IntMatrix.from_columns([(1, 0)], 2))
    info = FGAbelianGroup.p_torsion.cache_info()
    assert (info.currsize, info.misses, info.hits) == (0, 3, 0), info
    # the failed builds stored nothing
    assert abelian._group.cache_info().currsize == built


# ------------------------------------------ SNF-independent module oracle

def hermite_basis(cols, n):
    """Echelon basis of the span of cols, by gcd steps on one row at a
    time: basis[i] has a positive pivot in coordinate i and zeros above it,
    or is None when no vector of the span pivots there.  Independent of the
    Smith normal form."""
    cols = [list(c) for c in cols]
    basis = [None] * n
    for i in reversed(range(n)):
        active = [c for c in cols if c[i]]
        cols = [c for c in cols if not c[i]]
        while len(active) > 1:
            active.sort(key=lambda c: abs(c[i]))
            pivot, rest = active[0], []
            for c in active[1:]:
                k = c[i] // pivot[i]
                c = [a - k * b for a, b in zip(c, pivot)]
                (rest if c[i] else cols).append(c)
            active = [pivot] + rest
        if active:
            basis[i] = active[0] if active[0][i] > 0 else [-a for a in active[0]]
    return basis


class FiniteModule:
    """sat(R)/R, the torsion of Z^n modulo the span R of cols, element by
    element.  A vector of R ⊗ Q is fixed by its pivot coordinates, those of
    R's echelon basis h; the elements are the integral vectors of R ⊗ Q whose
    pivot coordinates fill the box 0 <= x_i < h[i][i].  For a full-rank R
    that is all of Z^n/R.  The box is enumerated on first use of
    ``elements``: reducing and spanning read h alone, so a large box costs
    nothing until a test asks for every element."""

    def __init__(self, cols, n):
        self.n = n
        self.basis = hermite_basis(cols, n)
        self.pivots = [i for i in range(n) if self.basis[i] is not None]
        self.full_rank = len(self.pivots) == n
        self.checked = set()    # reduced vectors found to be elements

    @cached_property
    def elements(self):
        boxes = itertools.product(*(range(self.basis[i][i])
                                    for i in self.pivots))
        if self.full_rank:
            return set(boxes)
        lifts = (self.lift(dict(zip(self.pivots, box))) for box in boxes)
        return {tuple(int(a) for a in x) for x in lifts
                if all(a.denominator == 1 for a in x)}

    def lift(self, coords):
        """The vector of R ⊗ Q with these pivot coordinates, in fractions:
        h[i] vanishes above coordinate i, so solve from the top down."""
        x = [Fraction(0)] * self.n
        for i in reversed(self.pivots):
            c = (coords[i] - x[i]) / self.basis[i][i]
            x = [a + c * b for a, b in zip(x, self.basis[i])]
        return x

    def reduce(self, v):
        """The element of v + R, for v in sat(R)."""
        v = list(v)
        for i in reversed(self.pivots):
            k = v[i] // self.basis[i][i]
            if k:
                v = [a - k * b for a, b in zip(v, self.basis[i])]
        v = tuple(v)
        if not self.full_rank and v not in self.checked:
            # v is an element when it lies in R ⊗ Q: its pivot coordinates,
            # now in the box, fix all of it
            assert self.lift({i: v[i] for i in self.pivots}) == list(v), \
                f"{v} is not torsion modulo R"
            self.checked.add(v)
        return v

    def scale(self, m, x):
        return self.reduce(m * a for a in x)

    def apply(self, f, x):
        return self.reduce(sum(a * b for a, b in zip(row, x))
                           for row in f.entries)

    def span(self, vectors):
        gens = [self.reduce(v) for v in vectors]
        seen = {self.reduce((0,) * self.n)}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.reduce(map(add, x, g))
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen


def prime_divisors(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % r for r in range(2, p))]


def factors_from_counts(order, count):
    """Invariant factors (> 1, ascending) of a finite abelian group of this
    order from m -> |G[m]|: |G[p^k]| / |G[p^(k-1)]| is p to the number of
    invariant factors divisible by p^k."""
    factors = []                      # largest first
    for p in prime_divisors(order):
        k, previous = 1, 1
        while True:
            current = count(p**k)
            r, ratio = 0, current // previous
            while ratio > 1:
                ratio //= p
                r += 1
            if not r:
                break
            factors += [1] * (r - len(factors))
            for j in range(r):
                factors[j] *= p
            k, previous = k + 1, current
    return tuple(sorted(factors))


def subgroup_factors(module, members):
    zero = module.reduce((0,) * module.n)
    return factors_from_counts(len(members), lambda m: sum(
        module.scale(m, x) == zero for x in members))


def quotient_factors(module, moved, members):
    """Invariant factors of members / moved, subgroups given by elements."""
    return factors_from_counts(len(members) // len(moved), lambda m: sum(
        module.scale(m, x) in moved for x in members) // len(moved))


def assert_subgroup(module, group, members):
    """group, a subquotient with the module's relations, has exactly these
    elements."""
    assert all(module.reduce(c) == module.reduce((0,) * module.n)
               for c in group.rel.columns())
    assert module.span(group.sub.columns()) == members
    assert group.order() == len(members)
    assert group.invariant_factors == subgroup_factors(module, members)


def assert_quotient(module, group, moved, members=None):
    """group is members (by default every element) modulo moved."""
    members = module.elements if members is None else members
    assert module.span(group.sub.columns()) == members
    assert module.span(group.rel.columns()) == moved
    assert group.order() * len(moved) == len(members)
    assert group.invariant_factors == quotient_factors(module, moved, members)


def test_functors_match_element_oracle():
    modules = seeded_modules(109, 100)
    assert {g.ambient_dim for _c, _f, g in modules} == {1, 2, 3}
    assert max(g.order() for _c, _f, g in modules) > 100
    for cols, f, group in modules:
        module = FiniteModule(cols, group.ambient_dim)
        everything = set(module.elements)
        assert group.order() == len(everything)
        assert group.invariant_factors == subgroup_factors(module, everything)
        assert_subgroup(module, group.torsion(), everything)
        for p in (2, 3, 5):
            e = len(module.elements).bit_length()
            assert_subgroup(module, group.p_torsion(p), {
                x for x in everything if module.scale(p**e, x) ==
                module.reduce((0,) * module.n)})
        assert_subgroup(module, fixed_points(group, f),
                        {x for x in everything if module.apply(f, x) == x})
        moved = module.span(tuple(map(sub, col, e_i)) for col, e_i in
                            zip(f.columns(), IntMatrix.identity(
                                module.n).columns()))
        assert_quotient(module, coinvariants(group, (f,)), moved)


def seeded_relations(seed, count):
    """count spans R of 1-3 random vectors in Z^n, n <= 4, of rank below n,
    whose torsion sat(R)/R has 2 to 500 elements."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        base = [[rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(1, n - 1))]
        cols = [tuple(sum(rng.randint(-3, 3) * b[i] for b in base)
                      for i in range(n)) for _ in range(len(base))]
        pivots = [h[i] for i, h in enumerate(hermite_basis(cols, n)) if h]
        if prod(pivots) <= 2000:
            module = FiniteModule(cols, n)
            if 2 <= len(module.elements) <= 500:
                out.append((cols, module))
    return out


def test_saturation_elements_are_the_torsion():
    # sat(R)/R through the pivot coordinates of R ⊗ Q, for R of rank < n
    for cols, module in seeded_relations(127, 40):
        n = module.n
        group = cokernel(IntMatrix.from_columns(cols, n))
        assert group.free_rank == n - len(module.pivots)
        assert_subgroup(module, group.torsion(), module.elements)
        zero = module.reduce((0,) * n)
        e = len(module.elements).bit_length()
        for p in (2, 3, 5):
            assert_subgroup(module, group.p_torsion(p), {
                x for x in module.elements if module.scale(p**e, x) == zero})


def inertia_relations(datum):
    """Generators of R = sum of (g - 1)Z^n over inertia, so X_I = Z^n/R."""
    one = IntMatrix.identity(datum.rank)
    return [col for g in datum.inertia_matrices for col in (g - one).columns()]


def test_torsors_match_the_element_oracle():
    # (X_I)^F[p^∞] and (X_I[p^∞])_F on the torsion sat(R)/R of X_I
    from blockatlas.langlands import dual_side_torsor, group_side_torsor
    nontrivial = 0
    for name, datum in lattice_data():
        module = FiniteModule(inertia_relations(datum), datum.rank)
        zero = module.reduce((0,) * module.n)
        e = len(module.elements).bit_length()
        frob = datum.frobenius_matrix
        for p in (2, 3, 5):
            part = {x for x in module.elements
                    if module.scale(p**e, x) == zero}
            assert_subgroup(module, group_side_torsor(datum, p),
                            {x for x in part if module.apply(frob, x) == x})
            moved = module.span(tuple(map(sub, module.apply(frob, x), x))
                                for x in part)
            assert_quotient(module, dual_side_torsor(datum, p), moved, part)
            nontrivial += len(part) > 1
    assert nontrivial >= 10


def assert_injects_matches_elements(a, b):
    """injects(a, b), for finite subquotients a = K1/L1 and b = K2/L2,
    agrees with the map x + L1 -> x + L2 on elements; (that map as a dict,
    b's module, its kernel)."""
    source = FiniteModule(a.rel.columns(), a.ambient_dim)
    target = FiniteModule(b.rel.columns(), b.ambient_dim)
    image = {x: target.reduce(x) for x in source.span(a.sub.columns())}
    zero = target.reduce((0,) * target.n)
    kernel = {x for x, y in image.items() if y == zero}
    assert well_defined(a, b)
    assert injects(a, b) == (kernel == {source.reduce((0,) * source.n)})
    return image, target, kernel


def exactness_on_elements(a, b, c):
    """(b covers c, the image of a is the kernel of b -> c), read from the
    maps of finite subquotients on elements; injects on a -> b and b -> c
    agrees with them."""
    into, _module, _kernel = assert_injects_matches_elements(a, b)
    onto, target, kernel = assert_injects_matches_elements(b, c)
    covers = set(onto.values()) == target.span(c.sub.columns())
    middle = set(into.values()) == kernel
    return covers, middle


def seeded_sequences(seed, count):
    """count finite subquotients a = K1/L1, b = K2/L2 and c = K3/L3 of Z^n,
    n <= 3, with K1 ⊆ K2 ⊆ K3 and L1 ⊆ L2 ⊆ L3, all inside the span of r
    random vectors.  The lower lattices are drawn from multiples m·v and
    m²·v, so every outcome of injects and of exactness occurs, and K1 = L1,
    and K2 = L2, in many."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        base = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]

        def vectors(k, m=1):
            return [tuple(m * sum(rng.randint(-3, 3) * b[i] for b in base)
                          for i in range(n)) for _ in range(k)]
        m = rng.choice((2, 3, 4))
        l1 = vectors(r, m * m)
        l2 = l1 + vectors(1, m)
        l3 = l2 + vectors(1, m)
        k1 = l1 + vectors(rng.randint(0, 1), m)
        k2 = k1 + l2 + vectors(rng.randint(0, 1), rng.choice((1, m)))
        k3 = k2 + l3 + vectors(rng.randint(0, 1))
        ranks = {sum(h is not None for h in hermite_basis(c, n))
                 for c in (l1, k3)}
        pivots = [h[i] for i, h in enumerate(hermite_basis(l1, n)) if h]
        if len(ranks) == 1 and 0 not in ranks and prod(pivots) <= 2000:
            out.append(tuple(FGAbelianGroup(n, IntMatrix.from_columns(k, n),
                                            IntMatrix.from_columns(l, n))
                             for k, l in ((k1, l1), (k2, l2), (k3, l3))))
    return out


def test_injects_and_exact_match_the_element_oracle(tmp_path):
    from blockatlas.langlands import cornqs_check
    from blockatlas.rootdata import derived_and_abelianized, pi1
    sequences = seeded_sequences(131, 80)
    # zero modules first and in the middle, where the shortcuts answer
    assert sum(a.is_trivial for a, _b, _c in sequences) >= 10
    assert sum(b.is_trivial for _a, b, _c in sequences) >= 5
    injective, exactness = set(), set()
    for a, b, c in sequences:
        clauses = exactness_on_elements(a, b, c)
        assert general_exact(a, b, c) == all(clauses)
        exactness.add(clauses)
        injective |= {injects(a, b), injects(b, c)}
    # the p-parts the component lemma compares
    for _name, datum in lattice_data():
        inert, frob = datum.inertia_matrices, datum.frobenius_matrix
        torus = coinvariants(FGAbelianGroup.free(datum.rank), inert)
        fundamental = coinvariants(pi1(datum), inert)
        for p in (2, 3, 5):
            pairs = [(torus.p_torsion(p), fundamental.p_torsion(p))]
            pairs.append(tuple(fixed_points(g, frob) for g in pairs[-1]))
            for a, b in pairs:
                assert_injects_matches_elements(a, b)
                injective.add(injects(a, b))
    # the derived sequence whose exactness on p-parts the triviality
    # criterion states, and the order of pi1(G_der) it reads, counted as
    # the elements of sat(Q∨)/Q∨
    for datum in functor_corpus(tmp_path):
        inert = datum.inertia_matrices
        da = derived_and_abelianized(datum)
        coroots = FiniteModule(datum.coroots, datum.rank)
        for p in (2, 3, 5, 7):
            assert (cornqs_check(datum, p).derived_pi1_order
                    == len(coroots.elements))
            parts = [coinvariants(g, inert).p_torsion(p)
                     for g in (pi1(datum).torsion(), pi1(datum), da.cochar_ab)]
            assert exactness_on_elements(*parts) == (True, True)
    # maps that are not injective, and sequences that fail either clause
    # of exactness or both, are among them
    assert injective == {True, False}
    assert exactness == {(True, True), (True, False), (False, True),
                         (False, False)}


# ------------------------------- exact shortcuts vs the general paths

# The general paths as they ran before abelian.py learned to skip work on
# identity factors and zero modules; the shortcuts must give the same
# modules, possibly on other bases.

def general_p_torsion(group, p):
    cols = []
    for col, d in group._scaled_gens:
        v = d
        while v % p == 0:
            v //= p
        cols.append(tuple(x // (d // v) for x in col))
    gens = IntMatrix._of(tuple(cols), len(cols), group.sub.cols).transpose()
    return FGAbelianGroup(group.ambient_dim, group.sub @ gens, group.rel)


def general_coinvariants(group, gens):
    rel = group.rel
    one = IntMatrix.identity(group.ambient_dim)
    for g in gens:
        assert preserves(group, g)
        rel = rel.hstack((g - one) @ group.sub)
    return FGAbelianGroup(group.ambient_dim, group.sub, rel)


def general_fixed_points(group, f):
    assert preserves(group, f)
    one = IntMatrix.identity(group.ambient_dim)
    stacked = ((f - one) @ group.sub).hstack(-group.rel)
    top = kernel_basis(stacked)._first_rows(group.sub.cols)
    return FGAbelianGroup(group.ambient_dim, group.sub @ lattice_basis(top),
                          group.rel)


def general_injective(source, target):
    meet = lattice_meet(source.sub, target.rel)
    return meet.cols == 0 or lattice_contains(source.rel, meet)


def assert_same_module(got, expected, what):
    assert same_lattice(got.sub, expected.sub), what
    assert same_lattice(got.rel, expected.rel), what
    assert got.free_rank == expected.free_rank, what
    assert got.invariant_factors == expected.invariant_factors, what


def lattice_data():
    """Every catalog datum, six seeded sums of them and 20 seeded tori."""
    from conftest import seeded_catalog_sums, seeded_tori

    from blockatlas.rootdata import catalog
    data = [(name, e.datum) for name, e in sorted(catalog().items())]
    data += [("+".join(names), d) for names, d in seeded_catalog_sums(20)]
    data += [(f"torus {summands} m={m}", d)
             for summands, m, _p, d in seeded_tori(21, 20)]
    return data


def test_shortcuts_give_the_general_modules():
    from blockatlas.rootdata import derived_and_abelianized, pi1
    zero_cells = nonzero_cells = 0
    for name, datum in lattice_data():
        inert, frob = datum.inertia_matrices, datum.frobenius_matrix
        wild = datum.wild_matrices
        lattice, fundamental = FGAbelianGroup.free(datum.rank), pi1(datum)
        da = derived_and_abelianized(datum)
        bases = {"descent": coinvariants(lattice, inert),
                 "pi1_descent": coinvariants(fundamental, inert),
                 "ab_descent": coinvariants(da.cochar_ab, inert),
                 "der_descent": coinvariants(fundamental.torsion(), inert),
                 "wild_lattice": coinvariants(lattice, wild),
                 "wild_pi1": coinvariants(fundamental, wild)}
        for key, base in bases.items():
            assert_same_module(fixed_points(base, frob),
                               general_fixed_points(base, frob), (name, key))
            assert_same_module(coinvariants(base, inert),
                               general_coinvariants(base, inert), (name, key))
        for p in (2, 3, 5, 7):
            parts = {}
            for key, base in bases.items():
                what = (name, key, p)
                part = parts[key] = base.p_torsion(p)
                assert_same_module(part, general_p_torsion(base, p), what)
                zero_cells += part.is_trivial
                nonzero_cells += not part.is_trivial
                for got, expected in [
                        (coinvariants(part, inert),
                         general_coinvariants(part, inert)),
                        (coinvariants(part, (frob,)),
                         general_coinvariants(part, [frob])),
                        (fixed_points(part, frob),
                         general_fixed_points(part, frob))]:
                    assert_same_module(got, expected, what)
            for source, target in [("der_descent", "pi1_descent"),
                                   ("descent", "pi1_descent"),
                                   ("pi1_descent", "ab_descent")]:
                for a, b in [(parts[source], parts[target]),
                             (fixed_points(parts[source], frob),
                              fixed_points(parts[target], frob))]:
                    what = (name, source, target, p)
                    assert injects(a, b) == general_injective(a, b), what
            sequence = [parts[key] for key in
                        ("der_descent", "pi1_descent", "ab_descent")]
            assert general_exact(*sequence), (name, p)
    # the shortcuts serve most cells, and the general path still runs
    assert zero_cells > 2 * nonzero_cells > 0


def test_p_torsion_takes_the_general_path_when_p_divides_a_factor():
    # Z + Z/12: the shortcut fits p = 5 and 7 only
    g = FGAbelianGroup(2, IntMatrix.identity(2),
                       IntMatrix.from_columns([(0, 12)], 2))
    for p, factors in [(2, (4,)), (3, (3,)), (5, ()), (7, ())]:
        part = g.p_torsion(p)
        assert part.invariant_factors == factors and part.free_rank == 0
        assert_same_module(part, general_p_torsion(g, p), p)
    # the zero subgroup is L/L, with L the relations
    assert g.p_torsion(5) is FGAbelianGroup(2, g.rel, g.rel)
    assert same_lattice(g.p_torsion(5).sub, g.rel)


def test_injective_and_kernel_on_nonzero_sources():
    # Z/4 -> Z/2 along the identity of Z: not injective, its kernel Z/2 is
    # the image of 2Z/4Z; a zero source maps injectively, and a zero middle
    # is exact only before a zero module
    z4, z2 = cokernel(IntMatrix([[4]])), cokernel(IntMatrix([[2]]))
    assert well_defined(z4, z2) and not injects(z4, z2)
    two = FGAbelianGroup(1, IntMatrix([[2]]), z4.rel)
    assert general_exact(two, z4, z2) and not general_exact(z4, z4, z2)
    zero = FGAbelianGroup(1, z2.rel, z2.rel)
    assert injects(zero, z4) and general_injective(zero, z4)
    for c, expected in ((zero, True), (z2, False)):
        assert general_exact(zero, zero, c) == expected


def test_identity_factors_keep_shape_errors_and_products():
    rng = random.Random(113)
    for n, c in itertools.product((1, 2, 3, 5), (0, 1, 2, 4)):
        one = IntMatrix.identity(n)
        m = shaped_matrix(rng, n, c)
        assert one @ m == m == IntMatrix(naive_product(one, m), rows=n, cols=c)
        left = shaped_matrix(rng, c, n)
        assert left @ one == left == IntMatrix(naive_product(left, one),
                                               rows=c, cols=n)
        with pytest.raises(ValueError, match="shape mismatch"):
            one @ shaped_matrix(rng, n + 1, c)
        with pytest.raises(ValueError, match="shape mismatch"):
            shaped_matrix(rng, c, n + 1) @ one
        with pytest.raises(ValueError, match="shape mismatch"):
            IntMatrix.identity(n + 1) @ one
    for n in range(6):
        u, s, v = smith_normal_form(IntMatrix.identity(n))
        assert u == s == v == IntMatrix.identity(n)
        assert u @ IntMatrix.identity(n) @ v == s


def test_components_grid_factors_fewer_matrices(tmp_path, capsys):
    # a work counter: from cold caches, the components grid over the
    # catalog at p = 2, 3, 5 reduces 22 distinct matrices to Hermite bases,
    # builds 14 distinct groups and factors 9 matrices to Smith form
    from blockatlas.cli import main
    from blockatlas.rootdata import catalog
    cfg = tmp_path / "components.cfg"
    data = ", ".join(f"catalog:{name}" for name in sorted(catalog()))
    cfg.write_text(f"command = components\ndata = {data}\nprimes = 2, 3, 5\n")
    clear_process_caches()
    assert main(["grid", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert lattice_basis.cache_info().misses == 22
    assert abelian._group.cache_info().misses == 14
    assert smith_normal_form.cache_info().misses == 9


def test_cornqs_grid_factors_fewer_matrices(tmp_path, capsys):
    # a work counter: from cold caches, the cornqs grid over the catalog at
    # p = 2, 3, 5 reduces 18 distinct matrices to Hermite bases, builds 13
    # distinct groups and factors 8 matrices to Smith form
    from blockatlas.cli import main
    from blockatlas.rootdata import catalog
    cfg = tmp_path / "cornqs.cfg"
    data = ", ".join(f"catalog:{name}" for name in sorted(catalog()))
    cfg.write_text(f"command = cornqs\ndata = {data}\nprimes = 2, 3, 5\n")
    clear_process_caches()
    assert main(["grid", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert lattice_basis.cache_info().misses == 18
    assert abelian._group.cache_info().misses == 13
    assert smith_normal_form.cache_info().misses == 8
