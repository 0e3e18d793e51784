"""Helpers shared by the test modules.

``clear_process_caches`` empties every ``functools.lru_cache`` of the
library, so a test that wants a cold process gets one, whatever caches a
later change adds.  ``tests/test_caches.py`` checks that it finds them all.
The ``fresh_pass`` fixture runs ``tests/reach.py`` once per session.
"""
import functools
import importlib
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import blockatlas


def _caches_in(namespace, module_name):
    for obj in list(vars(namespace).values()):
        if isinstance(obj, (classmethod, staticmethod)):
            obj = obj.__func__
        if isinstance(obj, functools._lru_cache_wrapper):
            yield obj
        elif isinstance(obj, type) and obj.__module__ == module_name:
            yield from _caches_in(obj, module_name)


def process_caches() -> list:
    """Every lru_cache held by a blockatlas module or by one of its classes."""
    caches = {}
    for info in pkgutil.iter_modules(blockatlas.__path__):
        module = importlib.import_module(f"blockatlas.{info.name}")
        for cache in _caches_in(module, module.__name__):
            caches[id(cache)] = cache
    return list(caches.values())


def clear_process_caches() -> None:
    for cache in process_caches():
        cache.cache_clear()


@pytest.fixture(scope="session")
def fresh_pass(tmp_path_factory) -> tuple:
    """(manifest text, unreached names) of one run of ``tests/reach.py`` in
    a fresh interpreter under another ``PYTHONHASHSEED``."""
    out = tmp_path_factory.mktemp("reach")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(blockatlas.__file__).parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "reach.py", str(out)],
                          cwd=Path(__file__).parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    unreached = json.loads((out / "unreached.json").read_text(encoding="utf-8"))
    return proc.stdout, unreached


# ------------------------------------------------------- test-only routines

DEFECT_ANY = frozenset({0, 1, 2, 3})    # every defect residue mod 4


def cokernel(m):
    """Z^rows modulo the column span of the IntMatrix m."""
    from blockatlas.abelian import FGAbelianGroup, IntMatrix
    return FGAbelianGroup(m.rows, IntMatrix.identity(m.rows), m)


def well_defined(source, target) -> bool:
    """Does the identity of the ambient lattice induce a map from source =
    K1/L1 to target = K2/L2: does it take K1 into K2 and L1 into L2?"""
    from blockatlas.abelian import lattice_contains
    return (lattice_contains(target.sub, source.sub)
            and (source.rel.cols == 0
                 or lattice_contains(target.rel, source.rel)))


def lattice_sum(a, b):
    """Basis of the sum of the lattices of the IntMatrices a and b."""
    from blockatlas.abelian import lattice_basis
    return lattice_basis(a.hstack(b))


def lattice_meet(a, b):
    """Basis of the intersection of the lattices of a and b: the a @ x of
    the kernel vectors (x, y) of [a | -b]."""
    from blockatlas.abelian import kernel_basis, lattice_basis
    ker = kernel_basis(a.hstack(-b))
    return lattice_basis(a @ ker._first_rows(a.cols))


def same_lattice(a, b) -> bool:
    from blockatlas.abelian import lattice_contains
    return lattice_contains(a, b) and lattice_contains(b, a)


def general_exact(a, b, c) -> bool:
    """Is a -> b -> c -> 0 exact, for the maps the identity of the ambient
    lattice induces: does b cover c, and is the image of a the kernel of
    b -> c?  Read from lattice sums and meets alone."""
    from blockatlas.abelian import lattice_contains
    kernel = lattice_sum(lattice_meet(b.sub, c.rel), b.rel)
    return (lattice_contains(lattice_sum(b.sub, c.rel), c.sub)
            and same_lattice(lattice_sum(a.sub, b.rel), kernel))


def preserves(group, g) -> bool:
    """Is the ambient operator g n x n, and does it map K and L of group =
    K/L into themselves, so that it induces an endomorphism of K/L?"""
    from blockatlas.abelian import lattice_contains
    n = group.ambient_dim
    return ((g.rows, g.cols) == (n, n)
            and lattice_contains(group.sub, g @ group.sub)
            and (group.rel.cols == 0
                 or lattice_contains(group.rel, g @ group.rel)))


# ------------------------------------------------------------ datum files

def datum_to_dict(datum) -> dict:
    """The JSON object of a datum file; ``rootdata.datum_from_dict``
    inverts it."""
    return {
        "rank": datum.rank,
        "coroots": [list(v) for v in datum.coroots],
        "roots": [list(v) for v in datum.roots],
        "galois": [{"label": label, "matrix": [list(row) for row in mat.entries]}
                   for label, mat in datum.galois],
        "inertia": list(datum.inertia),
        "wild": list(datum.wild),
        "frobenius": datum.frobenius,
    }


# ------------------------------------------------------ seeded lattice data

def _block_diag(blocks) -> list:
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def _eye(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def catalog_sum(names):
    """Block-diagonal direct sum of catalog data, as the lattice benchmark
    builds its rank 3-8 sums: summand i's operators act on block i and
    fix the others, under labels ``s<i>_…``, and the summands' Frobenius
    lifts form one Frobenius ``F``."""
    from blockatlas.rootdata import RootDatumWithAction, catalog
    parts = [catalog()[name].datum for name in names]
    ranks = [d.rank for d in parts]
    offsets = [sum(ranks[:i]) for i in range(len(parts))]

    def embed(vectors, i):
        return [[0] * offsets[i] + list(v) + [0] * (sum(ranks) - offsets[i]
                                                    - ranks[i])
                for v in vectors]

    coroots, roots, galois, inertia, wild = [], [], [], [], []
    for i, d in enumerate(parts):
        coroots += embed(d.coroots, i)
        roots += embed(d.roots, i)
        for label, mat in d.galois:
            if label != d.frobenius:
                blocks = [_eye(r) for r in ranks]
                blocks[i] = [list(row) for row in mat.entries]
                galois.append((f"s{i}_{label}", _block_diag(blocks)))
        inertia += [f"s{i}_{x}" for x in d.inertia]
        wild += [f"s{i}_{x}" for x in d.wild]
    galois.append(("F", _block_diag([[list(row) for row in d.frobenius_matrix
                                      .entries] for d in parts])))
    return RootDatumWithAction(sum(ranks), coroots=coroots, roots=roots,
                               galois=galois, inertia=inertia, wild=wild,
                               frobenius="F")


def permutation_datum(n: int, u=None, u_inv=None) -> dict:
    """The datum file of the rank-n permutation torus: inertia = wild = ⟨s⟩
    with s = P₄ and Frobenius F = P₂, where P_k cycles each run of k
    consecutive coordinates and fixes the rest; conjugated by U when the
    matrices u and u_inv = U⁻¹ are given."""
    u = u or _eye(n)
    u_inv = u_inv or _eye(n)

    def conjugated(k):
        blocks = [_permutation_block(k)] * (n // k) + [[[1]]] * (n % k)
        middle = _block_diag(blocks)
        return [[sum(u[i][a] * middle[a][b] * u_inv[b][j]
                     for a in range(n) for b in range(n) if middle[a][b])
                 for j in range(n)] for i in range(n)]

    return {"rank": n, "coroots": [], "roots": [],
            "galois": [{"label": "s", "matrix": conjugated(4)},
                       {"label": "F", "matrix": conjugated(2)}],
            "inertia": ["s"], "wild": ["s"], "frobenius": "F"}


def seeded_unimodular(n: int, seed: int) -> tuple:
    """(U, U⁻¹) as lists of rows: U is 5n row operations row i += c·row j
    on the identity, (i, j) from ``rng.sample(range(n), 2)`` and c from
    ``rng.randint(-3, 3)``."""
    rng = random.Random(seed)
    u, u_inv = _eye(n), _eye(n)
    for _ in range(5 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in u_inv:       # the inverse: column j -= c·column i
            row[j] -= c * row[i]
    return u, u_inv


def conjugated_permutation_datum(n: int, seed: int) -> dict:
    """``permutation_datum(n)`` conjugated by ``seeded_unimodular(n,
    seed)``.  It is isomorphic to the permutation datum, but its operators'
    entries, and those of the bases any unreduced elimination reads from
    its lattices, grow with n."""
    return permutation_datum(n, *seeded_unimodular(n, seed))


def conjugated_datum(datum, seed: int):
    """``datum`` written in the basis U e_1, ..., U e_n, U from
    ``seeded_unimodular``: coroots v ↦ U·v, roots a ↦ U⁻ᵀ·a and operators
    M ↦ U·M·U⁻¹.  It is isomorphic to ``datum``."""
    from blockatlas.abelian import IntMatrix
    from blockatlas.rootdata import RootDatumWithAction
    u, u_inv = (IntMatrix(m) for m in seeded_unimodular(datum.rank, seed))

    def moved(m, vectors):
        return (m @ IntMatrix.from_columns(vectors, datum.rank)).columns()

    return RootDatumWithAction(
        datum.rank, coroots=moved(u, datum.coroots),
        roots=moved(u_inv.transpose(), datum.roots),
        galois=[(label, (u @ m @ u_inv).entries)
                for label, m in datum.galois],
        inertia=datum.inertia, wild=datum.wild, frobenius=datum.frobenius)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def benchmark_sums(workdir, seed):
    """The six direct-sum data of round 0 of the benchmark's lattice_grid
    at this seed, read from the files its generator writes."""
    import importlib.util

    from blockatlas.rootdata import load_datum
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    refs = workloads.lattice_data(str(workdir), seed, 0)
    return [load_datum((workdir / ref).read_text(encoding="utf-8"))
            for ref in refs if not ref.startswith("catalog:")]


def functor_corpus(workdir) -> list:
    """The 49 data the lattice functors' preconditions are checked on: the
    catalog, the seeded sums at seeds 1 and 2, the benchmark's round-0 sums
    at seeds 2 and 7 and the conjugated permutation data of ranks 2-8."""
    from blockatlas.rootdata import catalog, datum_from_dict
    data = [e.datum for _name, e in sorted(catalog().items())]
    data += [d for seed in (1, 2) for _names, d in seeded_catalog_sums(seed)]
    data += [d for seed in (2, 7) for d in benchmark_sums(workdir, seed)]
    data += [datum_from_dict(conjugated_permutation_datum(n, 0))
             for n in range(2, 9)]
    return data


def seeded_catalog_sums(seed: int, count: int = 6) -> list:
    """count sums of 2-4 catalog entries each, at most one of them wild,
    of total rank 3-8."""
    from blockatlas.rootdata import catalog
    entries = catalog()
    names = sorted(entries)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        chosen = rng.sample(names, rng.randint(2, 4))
        rank = sum(entries[n].datum.rank for n in chosen)
        if (3 <= rank <= 8
                and sum(bool(entries[n].datum.wild) for n in chosen) <= 1):
            out.append((chosen, catalog_sum(chosen)))
    return out


def _permutation_block(m: int) -> list:
    """s on Z[C_m]: the cyclic shift of the basis."""
    return [[int(i == (j + 1) % m) for j in range(m)] for i in range(m)]


def _norm_one_block(m: int) -> list:
    """s on Z[x]/(1 + x + ... + x^(m-1)): the companion matrix, i.e. the
    cocharacters of the norm-one torus of a degree-m extension."""
    n = m - 1
    return [[-1 if j == n - 1 else int(i == j + 1) for j in range(n)]
            for i in range(n)]


def _sign_block(m: int) -> list:
    """s on Z as -1: the sign character, for an even degree."""
    return [[-1]]


TORUS_SUMMANDS = {"perm": _permutation_block, "norm_one": _norm_one_block,
                  "sign": _sign_block}


def _cyclic_inertia(blocks, order: int, p: int, coroots=(), roots=(),
                    frobenius_power=None):
    """The datum on the direct sum of the blocks, with inertia generated by
    s acting on every block at once.  For the order p^a·e of s, e prime to
    p, the wild part is <s^e>; the Frobenius is s^frobenius_power, or the
    identity for None."""
    from blockatlas.abelian import IntMatrix
    from blockatlas.rootdata import RootDatumWithAction
    s = IntMatrix(_block_diag(blocks))
    e = order
    while e % p == 0:
        e //= p
    power = IntMatrix.identity(s.rows)
    for _ in range(e):
        power = power @ s
    galois = [("s", s), ("w", power)]
    frob = IntMatrix.identity(s.rows)
    for _ in range(frobenius_power or 0):
        frob = frob @ s
    galois.append(("F", frob))
    return RootDatumWithAction(s.rows, coroots=coroots, roots=roots,
                               galois=galois, inertia=("s", "w"),
                               wild=("w",), frobenius="F")


def torus(summands, m: int, p: int, frobenius_power=None):
    """The torus whose cocharacter lattice is the direct sum of the given
    (kind, degree) summands, with inertia generated by s acting on every
    block at once.  For m = p^a·e with e prime to p the wild part is
    <s^e>; the Frobenius is s^frobenius_power, or the identity for None."""
    return _cyclic_inertia([TORUS_SUMMANDS[kind](k) for kind, k in summands],
                           m, p, frobenius_power=frobenius_power)


def seeded_tori(seed: int, count: int, primes=(2, 3, 5, 7)) -> list:
    """count (summands, m, p, datum) cells: for each a prime p and a degree
    m <= 12, then 1-3 summands whose degree divides m (a sign character
    needs an even m) and whose ranks sum to at most 12, and a Frobenius
    that is the identity or a power of s."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, m = rng.choice(primes), rng.randint(2, 12)
        kinds = ["perm", "norm_one"] + (["sign"] if m % 2 == 0 else [])
        summands = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(kinds)
            k = 2 if kind == "sign" else m
            if kind != "sign" and rng.random() < 0.3:
                k = rng.choice([d for d in range(2, m + 1) if m % d == 0])
            summands.append((kind, k))
        if sum(len(TORUS_SUMMANDS[kind](k)) for kind, k in summands) > 12:
            continue
        frob = rng.choice([None, rng.randrange(m)])
        out.append((summands, m, p, torus(summands, m, p, frob)))
    return out


# --------------------------------------------------- ramified unitary groups

def unitary(n: int, p: int):
    """The ramified unitary group U_n at p: the roots of GL_n, with inertia
    generated by σ(e_i) = −e_{n+1−i}, which permutes the roots e_i − e_j.
    σ has order 2, so it is wild at p = 2 and tame at odd p; Frobenius is
    the identity."""
    from blockatlas.abelian import IntMatrix
    from blockatlas.rootdata import RootDatumWithAction
    basis = _eye(n)
    roots = [[a - b for a, b in zip(basis[i], basis[j])]
             for i in range(n) for j in range(n) if i != j]
    sigma = [[-int(i == n - 1 - j) for j in range(n)] for i in range(n)]
    return RootDatumWithAction(
        n, coroots=roots, roots=roots,
        galois=[("s", sigma), ("F", IntMatrix.identity(n))],
        inertia=("s",), wild=("s",) if p == 2 else (), frobenius="F")


# ------------------------------------------------ Weil restrictions with roots

SPLIT_GROUPS = ("sl2_split", "pgl2_split", "gl2_split", "sl3_split",
                "pgl3_split", "sp4_split")


def weil_restriction(name: str, m: int, p: int, summands=()):
    """Res_{E/F} H for the split catalog group H = name and a totally
    ramified E/F of degree m: m copies of H's cocharacter lattice, with
    inertia generated by s cycling them and Frobenius the identity.  The
    torus summands (kind, degree) of ``torus`` follow under the same s, so
    one inertia generator acts on a semisimple and a torus part at once."""
    from blockatlas.rootdata import catalog
    h = catalog()[name].datum
    r = h.rank
    cycle = [[int(i // r == (j // r + 1) % m and i % r == j % r)
              for j in range(m * r)] for i in range(m * r)]
    blocks = [cycle] + [TORUS_SUMMANDS[kind](k) for kind, k in summands]
    rank = sum(len(b) for b in blocks)

    def copies(vectors):
        return [[0] * (c * r) + list(v) + [0] * (rank - (c + 1) * r)
                for c in range(m) for v in vectors]
    order = math.lcm(m, *(k for _kind, k in summands))
    return _cyclic_inertia(blocks, order, p, coroots=copies(h.coroots),
                           roots=copies(h.roots))
