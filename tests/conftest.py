"""Helpers shared by the test modules.

``clear_process_caches`` empties every ``functools.lru_cache`` of the
library, so a test that wants a cold process gets one, whatever caches a
later change adds.  ``tests/test_caches.py`` checks that it finds them all.
"""
import functools
import importlib
import math
import pkgutil
import random

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
