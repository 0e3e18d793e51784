"""Seeded input generator for the three benchmark workloads.

Each workload is a sequence of *rounds*.  A round is a list of CLI
invocations whose total work does not depend on the seed, so run-to-run
spread comes from timing noise rather than from the draw:

* ``fusion_grid``: the seed draws three q values from {2, 3, 4, 5, 7, 8};
  a round runs that triple and then its complement, each as one grid over
  A/2A/B/C at ranks 1-8 and one over D/2D at ranks 2-8.
* ``lattice_grid``: for every round the seed builds six direct-sum datum
  files (ranks 3-8) from one fixed multiset of catalog summands; the round
  runs the bijection, cornqs and components grids over them and the 18
  catalog entries at p in {2, 3, 5}.
* ``witness_grid``: five rectangles inside {prime power q <= 4096, d >= 3,
  q^d <= 2^56}; the seed splits each rectangle's q values into two halves,
  one q of each neighbouring pair in each, and a round runs both halves.

Only generated files and argv reach the program; nothing here imports it.
"""
from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("fusion_grid", "lattice_grid", "witness_grid")

FUSION_QS = (2, 3, 4, 5, 7, 8)
LATTICE_PRIMES = (2, 3, 5)
DIRECT_SUM_RANKS = (3, 4, 5, 6, 7, 8)
WITNESS_LIMIT = 2 ** 56
# (lowest q, highest q, largest d); every cell keeps q^d <= 2^56.
WITNESS_RECTANGLES = ((2, 16, 14), (17, 64, 9), (65, 256, 7),
                      (257, 2048, 5), (2049, 4096, 4))

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_HERE, "catalog_summands.json"), encoding="utf-8") as _fh:
    CATALOG = json.load(_fh)


@dataclass
class Invocation:
    argv: list            # CLI arguments after the program name
    ops: int              # grid cells, or 1 for a single command
    expect: dict = field(default_factory=dict)  # what checks.py needs


# ------------------------------------------------------------ arithmetic

def prime_power_base(q: int):
    """The prime p with q = p^k, or None."""
    p = 2
    while q % p:
        p += 1
    while q % p == 0:
        q //= p
    return p if q == 1 else None


# --------------------------------------------------------------- configs

def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _grid(workdir: str, name: str, lines: dict) -> str:
    """Write a grid config; return its name relative to ``workdir``, which
    is the working directory of every invocation, so that reports do not
    depend on where the benchmark runs."""
    body = "".join(f"{k} = {v}\n" for k, v in lines.items())
    _write(os.path.join(workdir, name + ".cfg"), body)
    return name + ".cfg"


def _ints(values) -> str:
    return ", ".join(str(v) for v in values)


# ----------------------------------------------------------- fusion_grid

FUSION_GROUPS = ((("A", "2A", "B", "C"), range(1, 9)),
                 (("D", "2D"), range(2, 9)))


def _fusion_round(workdir: str, seed: int, r: int) -> list:
    rng = random.Random(f"fusion_grid:{seed}:{r}")
    first = sorted(rng.sample(FUSION_QS, 3))
    second = [q for q in FUSION_QS if q not in first]
    out = []
    for half, qs in enumerate((first, second)):
        for g, (families, ranks) in enumerate(FUSION_GROUPS):
            path = _grid(workdir, f"fusion_{r}_{half}_{g}", {
                "command": "fusion", "families": ", ".join(families),
                "ranks": f"{ranks[0]}-{ranks[-1]}", "qs": _ints(qs)})
            cells = [{"family": f, "rank": n, "q": q}
                     for f in families for n in ranks for q in qs]
            out.append(Invocation(["grid", "--config", path], len(cells),
                                  {"command": "fusion", "cells": cells}))
    return out


# ---------------------------------------------------------- lattice_grid

def _block_diag(blocks) -> list:
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def _identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def direct_sum(names) -> dict:
    """Block-diagonal direct sum of catalog data.  Each summand's inertia
    labels get the prefix ``s<i>_``; all summands share one Frobenius F."""
    parts = [CATALOG[n] for n in names]
    ranks = [p["rank"] for p in parts]
    total = sum(ranks)
    offsets = [sum(ranks[:i]) for i in range(len(ranks))]

    def embed(vec, i):
        out = [0] * total
        out[offsets[i]:offsets[i] + ranks[i]] = vec
        return out

    coroots, roots, galois, inertia, wild = [], [], [], [], []
    frob_blocks, witness_blocks = [], []
    for i, part in enumerate(parts):
        coroots += [embed(v, i) for v in part["coroots"]]
        roots += [embed(v, i) for v in part["roots"]]
        mats = {g["label"]: g["matrix"] for g in part["galois"]}
        frob_blocks.append(mats[part["frobenius"]])
        for g in part["galois"]:
            if g["label"] == part["frobenius"]:
                continue
            blocks = [_identity(n) for n in ranks]
            blocks[i] = g["matrix"]
            galois.append({"label": f"s{i}_{g['label']}",
                           "matrix": _block_diag(blocks)})
        inertia += [f"s{i}_{x}" for x in part["inertia"]]
        wild += [f"s{i}_{x}" for x in part["wild"]]
        witness_blocks.append(part.get("induced_witness")
                              or (None if part["wild"] else _identity(ranks[i])))
    galois.append({"label": "F", "matrix": _block_diag(frob_blocks)})
    datum = {"rank": total, "coroots": coroots, "roots": roots,
             "galois": galois, "inertia": inertia, "wild": wild,
             "frobenius": "F"}
    if wild and all(b is not None for b in witness_blocks):
        datum["induced_witness"] = _block_diag(witness_blocks)
    return datum


def _partition_summands(rng: random.Random) -> list:
    """Split a fixed multiset of summands into one group per rank in
    DIRECT_SUM_RANKS, each of 2-4 summands with at most one wild summand.
    The multiset is every catalog entry once plus three tame rank-1
    entries, so the seed decides which summands share a file but hardly how
    much work the round holds."""
    tame1 = sorted(n for n, d in CATALOG.items()
                   if d["rank"] == 1 and not d["wild"])
    pool = sorted(CATALOG) + [rng.choice(tame1) for _ in range(3)]
    assert sum(CATALOG[n]["rank"] for n in pool) == sum(DIRECT_SUM_RANKS)
    while True:
        rng.shuffle(pool)
        groups, rest = [], list(pool)
        for rank in DIRECT_SUM_RANKS:
            group, total, wild = [], 0, False
            for name in list(rest):
                r, w = CATALOG[name]["rank"], bool(CATALOG[name]["wild"])
                if total + r <= rank and len(group) < 4 and not (w and wild):
                    group.append(name)
                    rest.remove(name)
                    total, wild = total + r, wild or w
                if total == rank:
                    break
            if total != rank or len(group) < 2:
                break
            groups.append(group)
        if len(groups) == len(DIRECT_SUM_RANKS) and not rest:
            return groups


def lattice_data(workdir: str, seed: int, r: int) -> list:
    """The 18 catalog refs and six direct-sum files drawn for round r."""
    rng = random.Random(f"lattice_grid:{seed}:{r}")
    refs = [f"catalog:{n}" for n in sorted(CATALOG)]
    for rank, names in zip(DIRECT_SUM_RANKS, _partition_summands(rng)):
        path = f"sum{r}_{rank}_{'+'.join(names)}.json"
        _write(os.path.join(workdir, path),
               json.dumps(direct_sum(names), indent=1) + "\n")
        refs.append(path)
    return refs


def _lattice_round(workdir: str, seed: int, r: int) -> list:
    refs = lattice_data(workdir, seed, r)
    out = []
    for command in ("bijection", "cornqs", "components"):
        path = _grid(workdir, f"lattice_{r}_{command}", {
            "command": command, "data": ", ".join(refs),
            "primes": _ints(LATTICE_PRIMES)})
        cells = [{"datum": ref, "p": p} for ref in refs for p in LATTICE_PRIMES]
        out.append(Invocation(["grid", "--config", path], len(cells),
                              {"command": command, "cells": cells}))
    return out


# ---------------------------------------------------------- witness_grid

@functools.lru_cache(maxsize=None)
def witness_qs(lo: int, hi: int) -> tuple:
    return tuple(q for q in range(lo, hi + 1) if prime_power_base(q))


def _witness_round(workdir: str, seed: int, r: int) -> list:
    rng = random.Random(f"witness_grid:{seed}:{r}")
    halves = ([], [])
    for lo, hi, dmax in WITNESS_RECTANGLES:
        qs = witness_qs(lo, hi)
        # Neighbouring q values cost about the same, so the seed picks one
        # q of each neighbouring pair: the halves differ in their q values
        # but hardly in their cost.
        first = {rng.choice(qs[i:i + 2]) for i in range(0, len(qs), 2)}
        halves[0].append((sorted(first), dmax))
        halves[1].append((sorted(q for q in qs if q not in first), dmax))
    out = []
    for h, rects in enumerate(halves):
        for i, (qs, dmax) in enumerate(rects):
            path = _grid(workdir, f"witness_{r}_{h}_{i}", {
                "command": "zsygmondy", "qs": _ints(qs), "ds": f"3-{dmax}"})
            cells = [{"q": q, "d": d} for q in qs for d in range(3, dmax + 1)]
            out.append(Invocation(["grid", "--config", path], len(cells),
                                  {"command": "zsygmondy", "cells": cells}))
    return out


# ------------------------------------------------------------------ API

class Workload:
    """Seeded inputs of one workload, written under ``workdir``."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; "
                             f"choices: {', '.join(WORKLOADS)}")
        self.name, self.seed, self.workdir = name, seed, workdir

    def round(self, r: int) -> list:
        """The invocations of round ``r``; the same (seed, r) gives the same
        inputs."""
        if self.name == "fusion_grid":
            return _fusion_round(self.workdir, self.seed, r)
        if self.name == "lattice_grid":
            return _lattice_round(self.workdir, self.seed, r)
        return _witness_round(self.workdir, self.seed, r)
