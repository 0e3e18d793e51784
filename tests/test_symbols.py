"""Symbols: rank/defect arithmetic, phi, hooks/cohooks, cores, enumeration.

Three independent oracles: a bounded brute-force enumeration over raw entry
sets (no beta-set machinery); the move-by-move cores, which remove one hook
or cohook at a time until none is left; and an exhaustive all-orders removal
walker on plain frozenset pairs (no Symbol class) for core confluence.  The
library computes cores in closed form on the abacus; they must equal the
move-by-move cores row for row.
"""

import functools
import itertools
import json
import random

import pytest
from conftest import DEFECT_ANY, clear_process_caches

from blockatlas import symbols
from blockatlas.cli import main
from blockatlas.errors import BoundExceeded
from blockatlas.symbols import (
    DEFECT_MOD4_0,
    DEFECT_MOD4_2,
    DEFECT_ODD,
    Symbol,
    _packed,
    _runners,
    cohook_core,
    enumerate_symbols,
    hook_core,
    make_symbol,
    phi,
)

P = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]  # partition numbers


# ---------------------------------------------------------------- oracles

def oracle_rank(s, t):
    m = len(s) + len(t)
    return sum(s) + sum(t) - ((m - 1) ** 2) // 4


def oracle_reduced(s, t):
    return not (0 in s and 0 in t)


def oracle_classes_brute(n, residues):
    # raw subset search; entry/size bounds generous for n <= 3
    universe = range(n + 6)
    classes = set()
    for a in range(6):
        for b in range(a + 1):  # larger row first is enough up to swap
            for s in itertools.combinations(universe, a):
                for t in itertools.combinations(universe, b):
                    if not oracle_reduced(s, t):
                        continue
                    if abs(a - b) % 4 not in residues:
                        continue
                    if oracle_rank(s, t) != n:
                        continue
                    classes.add(tuple(sorted((s, t))))
    return classes


def oracle_pair_count(n, defect):
    # reduced defect-D symbols of rank n <-> pairs of partitions
    w = n - defect ** 2 // 4
    if w < 0:
        return 0
    pairs = sum(P[a] * P[w - a] for a in range(w + 1))
    if defect == 0:
        diag = P[w // 2] if w % 2 == 0 else 0
        return (pairs + diag) // 2
    return pairs


def hook_removals(sym, d):
    """Every symbol obtained by removing one d-hook."""
    out = []
    for which, row in ((0, sym.row_s), (1, sym.row_t)):
        for x in row:
            if x >= d and (x - d) not in row:
                new = tuple(y for y in row if y != x) + (x - d,)
                if which == 0:
                    out.append(make_symbol(new, sym.row_t))
                else:
                    out.append(make_symbol(sym.row_s, new))
    return out


def cohook_removals(sym, d):
    """Every symbol obtained by removing one d-cohook (cross-row move)."""
    out = []
    for x in sym.row_s:
        if x >= d and (x - d) not in sym.row_t:
            out.append(make_symbol(tuple(y for y in sym.row_s if y != x),
                                   sym.row_t + (x - d,)))
    for x in sym.row_t:
        if x >= d and (x - d) not in sym.row_s:
            out.append(make_symbol(sym.row_s + (x - d,),
                                   tuple(y for y in sym.row_t if y != x)))
    return out


@functools.lru_cache(maxsize=None)
def oracle_hook_core(sym, d):
    moves = hook_removals(sym, d)
    return sym if not moves else oracle_hook_core(moves[0], d)


@functools.lru_cache(maxsize=None)
def oracle_cohook_core(sym, d):
    moves = cohook_removals(sym, d)
    return sym if not moves else oracle_cohook_core(moves[0], d)


def oracle_moves(rows, d, cohook):
    s, t = rows
    out = []
    if cohook:
        for x in s:
            if x >= d and (x - d) not in t:
                out.append((s - {x}, t | {x - d}))
        for x in t:
            if x >= d and (x - d) not in s:
                out.append((s | {x - d}, t - {x}))
    else:
        for x in s:
            if x >= d and (x - d) not in s:
                out.append(((s - {x}) | {x - d}, t))
        for x in t:
            if x >= d and (x - d) not in t:
                out.append((s, (t - {x}) | {x - d}))
    return [(frozenset(a), frozenset(b)) for a, b in out]


def oracle_cohook_rows(sym, d):
    """The rows left by removing d-cohooks one at a time, with no shift
    between moves."""
    rows = (frozenset(sym.row_s), frozenset(sym.row_t))
    while True:
        moves = oracle_moves(rows, d, cohook=True)
        if not moves:
            return tuple(sorted(rows[0])), tuple(sorted(rows[1]))
        rows = moves[0]


def oracle_reduce(rows):
    s, t = rows
    while 0 in s and 0 in t:
        s = frozenset(x - 1 for x in s if x != 0)
        t = frozenset(x - 1 for x in t if x != 0)
    return (s, t)


def oracle_all_terminals(sym, d, cohook):
    memo = {}

    def rec(rows):
        if rows in memo:
            return memo[rows]
        moves = [oracle_reduce(m) for m in oracle_moves(rows, d, cohook)]
        if not moves:
            result = frozenset({tuple(sorted((tuple(sorted(rows[0])),
                                              tuple(sorted(rows[1])))))})
        else:
            result = frozenset().union(*(rec(m) for m in moves))
        memo[rows] = result
        return result

    return rec((frozenset(sym.row_s), frozenset(sym.row_t)))


def key_of(sym):
    return tuple(sorted((sym.row_s, sym.row_t)))


# ------------------------------------------------------------ rank/defect

def test_rank_defect_frozen():
    assert Symbol((0, 1), (2,)).rank == 2
    assert Symbol((0, 1), (2,)).defect == 1
    assert Symbol((), ()).rank == 0
    assert Symbol((), ()).defect == 0
    assert Symbol((1,), ()).rank == 1
    assert Symbol((1,), ()).defect == 1
    assert Symbol((0, 1, 2), (1, 2)).rank == 2


def test_construction_and_reduction():
    assert make_symbol((0, 1), (0, 2)) == Symbol((0,), (1,))
    assert make_symbol((0,), (0,)) == Symbol((), ())
    with pytest.raises(ValueError):
        Symbol((0, 1), (0, 2))  # unreduced direct construction
    with pytest.raises(ValueError):
        Symbol((1, 1), ())
    with pytest.raises(ValueError):
        Symbol((-1,), ())


def test_reduction_preserves_rank_and_defect():
    rng = random.Random(3)
    for _ in range(300):
        s = tuple(sorted(rng.sample(range(10), rng.randrange(0, 5))))
        t = tuple(sorted(rng.sample(range(10), rng.randrange(0, 5))))
        reduced = make_symbol(s, t)
        m = len(s) + len(t)
        assert reduced.rank == sum(s) + sum(t) - ((m - 1) ** 2) // 4
        assert reduced.defect == abs(len(s) - len(t))


def test_canonical_and_render():
    assert Symbol((2,), (0,)).canonical() == Symbol((0,), (2,))
    assert Symbol((), (1,)).canonical() == Symbol((1,), ())
    assert Symbol((0, 2), (1,)).canonical() == Symbol((0, 2), (1,))
    assert Symbol((0, 2), (1,)).render() == "({0,2},{1})"
    assert Symbol((1,), ()).render() == "({1},{})"
    assert Symbol((), ()).render() == "({},{})"
    assert Symbol((2,), (0,)).canonical() == Symbol((0,), (2,)).canonical()


# -------------------------------------------------------------------- phi

def test_phi_frozen():
    assert phi(Symbol((0, 1), (2,))) == Symbol((0,), (1, 2))
    assert phi(Symbol((0, 1), (2,))).rank == 2


def test_phi_involution_and_invariants():
    for n in range(7):
        for sym in enumerate_symbols(n, DEFECT_ANY):
            image = phi(sym)
            assert image.rank == sym.rank
            assert image.defect % 2 == sym.defect % 2
            assert phi(image).canonical() == sym.canonical()


def test_phi_defect_jump_constant_on_mod4_fibers():
    # for even defect, defect(phi) - defect depends only on
    # (defect mod 4, rank mod 2)
    jumps = {}
    for n in range(9):
        for sym in enumerate_symbols(n, {0, 2}):
            fiber = (sym.defect % 4, sym.rank % 2)
            jump = (phi(sym).defect - sym.defect) % 4
            assert jumps.setdefault(fiber, jump) == jump
    assert len(jumps) == 4


# ---------------------------------------------------------- hooks/cohooks

def test_hook_core_frozen():
    assert hook_core(Symbol((1,), ()), 1) == Symbol((0,), ())
    assert hook_core(Symbol((0, 1), (1,)), 1).canonical() == Symbol((0,), ())
    for n in range(5):
        for sym in enumerate_symbols(n, DEFECT_ANY):
            # 1-hook-cores are the minimal-defect ladders ({0..k-1},{})
            core = hook_core(sym, 1)
            k = core.defect
            assert key_of(core) == ((), tuple(range(k)))


def test_cohook_core_frozen():
    assert cohook_core(Symbol((2,), ()), 1).canonical() == Symbol((0,), ())
    assert cohook_core(Symbol((0, 2), (1,)), 1) == Symbol((0, 2), (1,))
    assert cohook_core(Symbol((0, 2), (1,)), 2).canonical() == Symbol((0,), ())


def test_removal_rank_and_defect_steps():
    for n in range(7):
        for sym in enumerate_symbols(n, DEFECT_ANY):
            for d in range(1, 5):
                for new in hook_removals(sym, d):
                    assert new.rank == sym.rank - d
                    assert new.defect == sym.defect
                for new in cohook_removals(sym, d):
                    assert new.rank == sym.rank - d
                    assert new.defect in {sym.defect + 2, abs(sym.defect - 2)}


def test_core_confluence_exhaustive():
    # every removal order ends at the same class (rank <= 4, d <= 3), so
    # the first-move-first cores are well defined
    for n in range(5):
        for sym in enumerate_symbols(n, DEFECT_ANY):
            for d in range(1, 4):
                assert oracle_all_terminals(sym, d, cohook=False) == \
                    {key_of(oracle_hook_core(sym, d))}
                assert oracle_all_terminals(sym, d, cohook=True) == \
                    {key_of(oracle_cohook_core(sym, d))}


@pytest.mark.parametrize("n", range(9))
def test_closed_form_cores_equal_move_by_move_cores(n):
    # row for row, not only up to swap: both row orders, every d up to
    # past the rank, where no move exists and the core is the symbol
    for sym in enumerate_symbols(n, DEFECT_ANY):
        for x in (sym, sym.swap()):
            for d in range(1, 2 * n + 4):
                for core, oracle in ((hook_core, oracle_hook_core),
                                     (cohook_core, oracle_cohook_core)):
                    got, want = core(x, d), oracle(x, d)
                    assert (got.row_s, got.row_t) == (want.row_s, want.row_t), \
                        (core.__name__, x.render(), d)
                    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("n", range(9))
def test_cohook_core_steps_equal_move_by_move_rows(n):
    # cohook_core's two steps: each row's runners, read per (row, d, side)
    # and added, are the runners of the move-by-move core's rows, since a
    # cohook keeps a bead on its runner; packing them gives those rows.
    # Every defect the rank allows occurs, so rows of unequal length too.
    defects = set()
    for sym in enumerate_symbols(n, DEFECT_ANY):
        defects.add(sym.defect)
        for x in (sym, sym.swap()):
            for d in range(1, 2 * n + 4):
                want = oracle_cohook_rows(x, d)
                runners = tuple(sorted(_runners(x.row_s, d, 0)
                                       + _runners(x.row_t, d, 1)))
                assert runners == tuple(sorted(_runners(want[0], d, 0)
                                               + _runners(want[1], d, 1)))
                assert _packed(runners, d) == want, (x.render(), d)
    assert defects == {k for k in range(2 * n + 3) if k * k // 4 <= n}


@pytest.mark.parametrize("core", [hook_core, cohook_core])
@pytest.mark.parametrize("d", [0, -1])
def test_cores_reject_nonpositive_step(core, d):
    # a call that raises is not cached, so the check runs again each time
    for sym in (Symbol((0, 2), (1,)), Symbol((), ())):
        for _ in range(3):
            with pytest.raises(ValueError, match="^d must be >= 1$"):
                core(sym, d)


def test_phi_transports_hook_cores_to_cohook_cores():
    # phi carries the 1-hook-core partition to the 1-cohook-core partition
    # and leaves the 2-cohook-core partition stable
    for n in range(9):
        by_hook, by_pull, by_co2, by_co2_phi = {}, {}, {}, {}
        for sym in enumerate_symbols(n, DEFECT_ODD):
            k = key_of(sym)
            by_hook.setdefault(key_of(oracle_hook_core(sym, 1)), set()).add(k)
            by_pull.setdefault(
                key_of(oracle_cohook_core(phi(sym), 1)), set()).add(k)
            by_co2.setdefault(key_of(oracle_cohook_core(sym, 2)), set()).add(k)
            by_co2_phi.setdefault(
                key_of(oracle_cohook_core(phi(sym), 2)), set()).add(k)
        assert {frozenset(v) for v in by_hook.values()} == \
            {frozenset(v) for v in by_pull.values()}
        assert {frozenset(v) for v in by_co2.values()} == \
            {frozenset(v) for v in by_co2_phi.values()}


def test_core_idempotent():
    for n in range(7):
        for sym in enumerate_symbols(n, DEFECT_ANY):
            for d in range(1, 5):
                hc = hook_core(sym, d)
                cc = cohook_core(sym, d)
                assert hook_core(hc, d) == hc
                assert cohook_core(cc, d) == cc
                assert (sym.rank - hc.rank) % d == 0
                assert (sym.rank - cc.rank) % d == 0


# ------------------------------------------------------------ enumeration

def test_enumerate_frozen_small():
    r1 = enumerate_symbols(1, DEFECT_ODD)
    assert {key_of(s) for s in r1} == {((), (1,)), ((0, 1), (1,))}

    r2 = enumerate_symbols(2, DEFECT_ODD)
    assert len(r2) == 6
    assert {key_of(s) for s in r2} == {
        ((), (2,)), ((0, 1), (2,)), ((0, 2), (1,)), ((0,), (1, 2)),
        ((), (0, 1, 2)), ((0, 1, 2), (1, 2)),
    }

    d2 = enumerate_symbols(2, DEFECT_MOD4_0)
    assert len(d2) == 3
    assert sum(1 for s in d2 if s.is_degenerate) == 1
    assert {key_of(s) for s in d2} == {((0,), (2,)), ((1,), (1,)), ((0, 1), (1, 2))}

    td2 = enumerate_symbols(2, DEFECT_MOD4_2)
    assert {key_of(s) for s in td2} == {((), (0, 2)), ((0, 1, 2), (1,))}


def test_enumerate_matches_brute_force():
    for n in range(4):
        for residues in (DEFECT_ODD, DEFECT_MOD4_0, DEFECT_MOD4_2, DEFECT_ANY):
            got = {key_of(s) for s in enumerate_symbols(n, residues)}
            expect = set()
            for s, t in oracle_classes_brute(n, residues):
                expect.add(tuple(sorted((s, t))))
            assert got == expect, (n, residues)


def test_enumerate_counts_match_pair_formula():
    for n in range(8):
        syms = enumerate_symbols(n, DEFECT_ANY)
        by_defect = {}
        for s in syms:
            by_defect[s.defect] = by_defect.get(s.defect, 0) + 1
        for defect in range(6):
            assert by_defect.get(defect, 0) == oracle_pair_count(n, defect)


def test_enumerate_sorted_and_canonical():
    for n in range(6):
        syms = enumerate_symbols(n, DEFECT_ANY)
        assert syms == sorted(syms, key=lambda s: (s.defect, s.row_s, s.row_t))
        for s in syms:
            assert s == s.canonical()
            assert s.rank == n


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_symbols(11, DEFECT_ODD)


def test_a_kept_symbol_of_the_wrong_rank_fails_fusion(monkeypatch, capsys):
    # enumerate_symbols checks each kept symbol's rank and defect with an
    # InvariantViolation, which python -O keeps: a pair construction that
    # returns a symbol of rank 10 makes a rank-3 fusion exit 1
    monkeypatch.setattr(symbols, "_symbol_from_pair",
                        lambda alpha, beta, defect: Symbol((0, 1, 9), (2,)))
    clear_process_caches()
    assert main(["fusion", "--type", "B", "--rank", "3", "--q", "3"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "InvariantViolation"
    assert error["message"] == ("symbol ({0,1,9},{2}) has rank 10 and "
                                "defect 2, not 3 and 1")
    monkeypatch.undo()
    clear_process_caches()


def test_symbol_tables_depend_only_on_the_residues_mod_4():
    # a defect filter names residues mod 4: every set naming the same ones
    # gives an equal table, and the table of several residues is the
    # sorted union of their single tables
    for n in range(8):
        for residues, again in ((DEFECT_ODD, {5, 3, 7}),
                                (DEFECT_MOD4_0, {4, 8}), (DEFECT_MOD4_2, {6}),
                                (DEFECT_ANY, set(range(4, 8)))):
            table = enumerate_symbols(n, residues)
            assert enumerate_symbols(n, again) == table, (n, residues)
            assert table == sorted(
                (sym for r in residues for sym in enumerate_symbols(n, {r})),
                key=lambda s: (s.defect, s.row_s, s.row_t)), (n, residues)


def test_enumerate_bound_env(monkeypatch):
    # the bound is the constant rank 10: no environment variable lowers it
    monkeypatch.setenv("BLOCKATLAS_MAX_RANK", "3")
    with pytest.raises(BoundExceeded):
        enumerate_symbols(11, DEFECT_ODD)
    assert enumerate_symbols(3, DEFECT_ODD)
    assert enumerate_symbols(4, DEFECT_ODD)
