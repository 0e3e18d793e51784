"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``-s`` to see the lines as they happen; without it pytest shows
them for failing criteria only.  The grid-driven criteria (1, 4, 7, 8) go
through the CLI so that criterion 9 can re-run the same configs and compare
the emitted bytes.
"""
import io
import json
import random
import time
from contextlib import redirect_stdout
from itertools import product as iproduct
from math import gcd, prod
from types import SimpleNamespace

import pytest
from conftest import DEFECT_ANY, cokernel

from blockatlas import cli
from blockatlas.abelian import (
    IntMatrix,
    coinvariants,
    fixed_points,
    smith_normal_form,
)
from blockatlas.arith import GroupTypeTag
from blockatlas.fusion import (
    defect_bound_report,
    derived_inequality_check,
    is_single_D_series,
)
from blockatlas.rootdata import catalog, permutes_standard_basis
from blockatlas.symbols import (
    DEFECT_ODD,
    cohook_core,
    enumerate_symbols,
    hook_core,
    phi,
)

SEED = 20260819


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _criterion(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" — {detail}" if detail else ""
    print(f"[{status}] criterion {num}: {label}{extra}")
    assert ok, f"criterion {num} failed: {label}{extra}"


# ------------------------------------------------------------ grid fixture

_DATA = ", ".join("catalog:" + name for name in sorted(catalog()))

GRID_CONFIGS = {
    # up to the default symbol bound, rank 10; at q = 8 up to rank 9, as
    # rank 10 needs d up to 22 and 8**21 already exceeds the 63-bit power cap
    "fusion_abc": ("command = fusion\nfamilies = A, 2A, B, C\n"
                   "ranks = 1-10\nqs = 2, 4\n"),
    "fusion_abc_q8": ("command = fusion\nfamilies = A, 2A, B, C\n"
                      "ranks = 1-9\nqs = 8\n"),
    "fusion_d": ("command = fusion\nfamilies = D, 2D\n"
                 "ranks = 2-10\nqs = 2, 4\n"),
    "fusion_d_q8": ("command = fusion\nfamilies = D, 2D\n"
                    "ranks = 2-9\nqs = 8\n"),
    "zsygmondy": "command = zsygmondy\nqs = 2-16\nds = 3-12\n",
    "bijection": (f"command = bijection\ndata = {_DATA}\n"
                  "primes = 2, 3, 5\n"),
    "cornqs": (f"command = cornqs\ndata = {_DATA}\n"
               "primes = 2, 3, 5\n"),
}


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance_grids")
    runs = {}
    for name, text in GRID_CONFIGS.items():
        path = base / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        start = time.monotonic()
        code, body = run_cli("grid", "--config", str(path))
        runs[name] = SimpleNamespace(
            path=path, code=code, body=body,
            elapsed=time.monotonic() - start,
            doc=json.loads(body))
    return runs


def _jobs(run):
    assert run.code == 0 and run.doc["status"] == "ok", run.doc
    return run.doc["result"]["jobs"]


# ------------------------------------------------------------- criterion 1

def test_criterion_1_fusion_single_class(grids):
    runs = [grids[name] for name in
            ("fusion_abc", "fusion_abc_q8", "fusion_d", "fusion_d_q8")]
    elapsed = sum(run.elapsed for run in runs)
    jobs = [job for run in runs for job in _jobs(run)]
    bad = [j["key"] for j in jobs
           if j["status"] != "ok" or j["result"]["class_count"] != 1
           or j["result"]["verdict"] != "single_class"]
    ok = len(jobs) == 168 and not bad and elapsed < 60.0
    _criterion(1, "fusion closure is a single class on all 6 families, "
                  "ranks <= 10 at q in {2,4}, ranks <= 9 at q = 8", ok,
               f"{len(jobs)} cells in {elapsed:.1f}s (budget 60s)"
               + (f"; failures {bad}" if bad else ""))


# ------------------------------------------------------------- criterion 2

def test_criterion_2_d_series_joins():
    start = time.monotonic()
    checks = [("2A", n, (1, 6)) for n in range(1, 12)]
    for family in ("B", "C"):
        for n in range(1, 9):
            checks.append((family, n, (2, 4)))
            checks.append((family, n, (1, 4)))
    for family in ("D", "2D"):
        for n in range(2, 9):
            checks.append((family, n, (2, 4)))
    bad = [c for c in checks
           if not is_single_D_series(GroupTypeTag(c[0], c[1]), c[2]).single]
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 30.0
    _criterion(2, "the stated d-series joins are single classes", ok,
               f"{len(checks)} joins in {elapsed:.1f}s (budget 30s)"
               + (f"; failures {bad}" if bad else ""))


# ------------------------------------------------------------- criterion 3

def _sym_key(sym):
    return tuple(sorted((sym.row_s, sym.row_t)))


def test_criterion_3_phi_suite():
    start = time.monotonic()
    problems = []
    jumps = {}
    total = 0
    for n in range(9):
        for sym in enumerate_symbols(n, DEFECT_ANY):
            total += 1
            image = phi(sym)
            if image.rank != sym.rank:
                problems.append(("rank", n, sym.render()))
            if image.defect % 2 != sym.defect % 2:
                problems.append(("parity", n, sym.render()))
            if phi(image).canonical() != sym.canonical():
                problems.append(("involution", n, sym.render()))
            if sym.defect % 2 == 0:
                fiber = (sym.defect % 4, sym.rank % 2)
                jump = (image.defect - sym.defect) % 4
                if jumps.setdefault(fiber, jump) != jump:
                    problems.append(("mod4-fiber", n, sym.render()))
        by_hook, by_pull, by_co2, by_co2_phi = {}, {}, {}, {}
        for sym in enumerate_symbols(n, DEFECT_ODD):
            k = _sym_key(sym)
            by_hook.setdefault(_sym_key(hook_core(sym, 1)), set()).add(k)
            by_pull.setdefault(
                _sym_key(cohook_core(phi(sym), 1)), set()).add(k)
            by_co2.setdefault(_sym_key(cohook_core(sym, 2)), set()).add(k)
            by_co2_phi.setdefault(
                _sym_key(cohook_core(phi(sym), 2)), set()).add(k)
        if ({frozenset(v) for v in by_hook.values()}
                != {frozenset(v) for v in by_pull.values()}):
            problems.append(("hook-to-cohook", n))
        if ({frozenset(v) for v in by_co2.values()}
                != {frozenset(v) for v in by_co2_phi.values()}):
            problems.append(("2-cohook-stability", n))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 30.0
    _criterion(3, "phi suite: involution, rank, defect parity, mod-4 "
                  "fibers, hook<->cohook transport (rank <= 8)", ok,
               f"{total} symbols in {elapsed:.1f}s (budget 30s)"
               + (f"; failures {problems[:5]}" if problems else ""))


# ------------------------------------------------------------- criterion 4

def test_criterion_4_zsygmondy_grid(grids):
    g = grids["zsygmondy"]
    jobs = _jobs(g)
    misses = [(j["key"]["q"], j["key"]["d"]) for j in jobs
              if j["status"] != "ok" or not j["result"]["exists"]]
    ok = len(jobs) == 150 and misses == [(2, 6)] and g.elapsed < 5.0
    _criterion(4, "odd witness exists on 2<=q<=16, 3<=d<=12 except "
                  "exactly (2,6)", ok,
               f"{len(jobs)} cells in {g.elapsed:.1f}s (budget 5s); "
               f"witnessless: {misses}")


# ------------------------------------------------------------- criterion 5

def test_criterion_5_defect_bounds():
    ranges = [("2A", 1, 11), ("B", 1, 8), ("C", 1, 8),
              ("D", 2, 8), ("2D", 2, 8)]
    bad = []
    count = 0
    for family, lo, hi in ranges:
        for n in range(lo, hi + 1):
            tag = GroupTypeTag(family, n)
            count += 1
            if not defect_bound_report(tag).all_ok:
                bad.append(("primary", family, n))
            if n >= 2 and not derived_inequality_check(tag).all_ok:
                bad.append(("derived", family, n))
    _criterion(5, "defect bounds and the derived inequality hold on the "
                  "stated rank ranges", not bad,
               f"{count} types checked"
               + (f"; failures {bad}" if bad else ""))


# ------------------------------------------------------------- criterion 6

def _random_unimodular(rng, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(8):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:        # shear
            t = rng.randint(-3, 3)
            rows[i] = [a + t * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:                 # swap
            rows[i], rows[j] = rows[j], rows[i]
        else:                           # sign flip
            rows[i] = [-a for a in rows[i]]
    return IntMatrix(rows)


def test_criterion_6_abelian_kernel():
    start = time.monotonic()
    rng = random.Random(SEED)
    problems = []

    # SNF round-trip and unimodularity, 500 matrices
    for trial in range(500):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        M = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                       for _ in range(rows)])
        U, S, V = smith_normal_form(M)
        if U @ M @ V != S:
            problems.append(("roundtrip", trial))
        if not (U.is_unimodular() and V.is_unimodular()):
            problems.append(("unimodular", trial))
        diag = [S.entries[i][i] for i in range(min(rows, cols))]
        if any(S.entries[i][j] for i in range(rows) for j in range(cols)
               if i != j):
            problems.append(("off-diagonal", trial))
        if any(d < 0 for d in diag):
            problems.append(("sign", trial))
        nonzero = [d for d in diag if d]
        if diag[:len(nonzero)] != nonzero:
            problems.append(("zero-order", trial))
        if any(b % a for a, b in zip(nonzero, nonzero[1:])):
            problems.append(("divisibility", trial))

    # |ker(f-1)| = |coker(f-1)| brute-forced, 200 finite groups
    done = 0
    while done < 200:
        ds = []
        total = 1
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(2, 16)
            if total * d <= 64:
                ds.append(d)
                total *= d
        if not ds:
            continue
        done += 1
        k = len(ds)
        F = [[(ds[i] // gcd(ds[i], ds[j])) * rng.randint(-3, 3)
              for j in range(k)] for i in range(k)]
        A = cokernel(
            IntMatrix([[ds[i] if i == j else 0 for j in range(k)]
                       for i in range(k)]))
        Fmat = IntMatrix(F)
        lib_ker = fixed_points(A, Fmat).order()
        lib_coker = coinvariants(A, (Fmat,)).order()
        kernel = 0
        image = set()
        for x in iproduct(*[range(d) for d in ds]):
            y = tuple((sum(F[i][j] * x[j] for j in range(k)) - x[i]) % ds[i]
                      for i in range(k))
            if not any(y):
                kernel += 1
            image.add(y)
        brute_coker = total // len(image)
        if not (lib_ker == kernel == brute_coker == lib_coker):
            problems.append(("herbrand", ds, F,
                             (lib_ker, kernel, brute_coker, lib_coker)))

    # cokernel basis-independence, 100 unimodular conjugations
    for trial in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        M = IntMatrix([[rng.randint(-6, 6) for _ in range(cols)]
                       for _ in range(rows)])
        P = _random_unimodular(rng, rows)
        Q = _random_unimodular(rng, cols)
        a = cokernel(M)
        b = cokernel(P @ M @ Q)
        if (a.invariant_factors != b.invariant_factors
                or a.free_rank != b.free_rank):
            problems.append(("basis", trial))

    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 30.0
    _criterion(6, "SNF round-trip x500, brute-forced Herbrand x200, "
                  "cokernel basis-independence x100", ok,
               f"{elapsed:.1f}s (budget 30s)"
               + (f"; failures {problems[:3]}" if problems else ""))


# ------------------------------------------------------------- criterion 7

def test_criterion_7_torsor_bijection(grids):
    g = grids["bijection"]
    jobs = _jobs(g)
    permutation = {name for name, e in catalog().items()
                   if permutes_standard_basis(e.datum.inertia_matrices)}
    problems = []
    for job in jobs:
        key = job["key"]
        if job["status"] != "ok":
            problems.append((key, "job failed"))
            continue
        r = job["result"]
        name = key["datum"][len("catalog:"):]
        orders = (r["group_side"]["order"], r["dual_side"]["order"])
        if orders[0] != orders[1]:
            problems.append((key, f"orders differ {orders}"))
        if name == "norm_one_ramified" and key["p"] == 2 and orders != (2, 2):
            problems.append((key, f"expected (2, 2), got {orders}"))
        if name in permutation and orders != (1, 1):
            problems.append((key, f"permutation lattice not trivial: "
                                  f"{orders}"))
    ok = (len(jobs) == 3 * len(catalog()) and not problems
          and g.elapsed < 5.0)
    _criterion(7, "torsor orders agree on all catalog entries x p in "
                  "{2,3,5}; ramified norm-one is Z/2 at 2; entries whose "
                  "inertia permutes the standard basis trivial", ok,
               f"{len(jobs)} cells in {g.elapsed:.1f}s (budget 5s)"
               + (f"; failures {problems[:5]}" if problems else ""))


# ------------------------------------------------------------- criterion 8

def test_criterion_8_cornqs_consistency(grids):
    g = grids["cornqs"]
    jobs = _jobs(g)
    problems = []
    both_held = 0
    pgl2_at_2_flagged = False
    for job in jobs:
        key = job["key"]
        if job["status"] != "ok":
            problems.append((key, "job failed"))
            continue
        r = job["result"]
        if r["hypothesis_a"] and r["hypothesis_b"]:
            both_held += 1
            if not r["conclusion"]:
                problems.append((key, "hypotheses hold but p-part nontrivial"))
        if not r["implication_holds"]:
            problems.append((key, "implication violated"))
        if key["datum"] == "catalog:pgl2_split" and key["p"] == 2:
            pgl2_at_2_flagged = not r["hypothesis_a"]
    ok = (len(jobs) == 3 * len(catalog()) and not problems
          and both_held > 0 and pgl2_at_2_flagged)
    _criterion(8, "hypotheses imply trivial p-part of pi1 on the whole "
                  "catalog; split PGL2 at p=2 fails hypothesis A", ok,
               f"{len(jobs)} cells, hypotheses held in {both_held}"
               + (f"; failures {problems[:5]}" if problems else ""))


# ------------------------------------------------------------- criterion 9

def test_criterion_9_determinism(grids):
    diffs = []
    for name, g in grids.items():
        code, body = run_cli("grid", "--config", str(g.path))
        if code != g.code or body != g.body:
            diffs.append(name)
    _criterion(9, "re-running the full acceptance grid is byte-identical",
               not diffs,
               f"{len(grids)} grids re-run"
               + (f"; drifted {diffs}" if diffs else ""))
