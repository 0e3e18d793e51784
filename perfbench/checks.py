"""Independent output checks for every benchmark operation.

Each check re-derives what it can from the report itself with its own
arithmetic and union-find, so it shares no code with the program:

* fusion: replaying the certificate must reproduce ``classes``; every event
  must be backed by its ``admissible`` witness, an odd prime of order
  exactly d at q; the verdict must match ``class_count``.
* zsygmondy: the witness must be an odd prime of multiplicative order
  exactly d at q; ``exists`` is false exactly at (2, 6) (Zsigmondy).
* bijection: the two torsor orders must be equal.
* cornqs: ``implication_holds`` must be true and agree with the fields.
* components and unipotent (the set-up probe): structural invariants
  (``tame_order_coprime`` against the tame order, the label count).

``check_output`` returns ``(ok_ops, problems)``: the operations of one
invocation that passed, and a message per failed operation.
"""
from __future__ import annotations

import json

EXCEPTION_CELL = (2, 6)  # the only witnessless (q, d) with d >= 3


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the twelve prime bases are exact for
    n < 3.3e24 (Sorenson and Webster, 2017), far above any input here."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list:
    out, k = [], 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    return out + ([n] if n > 1 else [])


def has_order(q: int, ell: int, d: int) -> bool:
    """True when ell is prime, ell does not divide q, and q has order
    exactly d modulo ell."""
    if not is_prime(ell) or q % ell == 0 or pow(q, d, ell) != 1:
        return False
    return all(pow(q, d // f, ell) != 1 for f in _prime_factors(d))


def _partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _disjoint(groups) -> bool:
    members = [m for group in groups for m in group]
    return len(members) == len(set(members))


# ----------------------------------------------------------- per command

def check_fusion(r: dict, q: int) -> list:
    problems = []
    classes = [list(c) for c in r["classes"]]
    labels = [lab for c in classes for lab in c]
    if not _disjoint(classes):
        problems.append("classes overlap")
    admissible = {int(d): ell for d, ell in r["admissible"].items()}
    for d, ell in admissible.items():
        if ell % 2 == 0 or not has_order(q, ell, d):
            problems.append(f"admissible witness {ell} for d={d} is wrong")
    uf = _UnionFind()
    for lab in labels:
        uf.find(lab)
    for ev in r["certificate"]:
        if admissible.get(ev["d"]) != ev["ell"]:
            problems.append(f"event {ev} has no witness")
        if ev["a"] not in uf.parent or ev["b"] not in uf.parent:
            problems.append(f"event {ev} names an unknown label")
        elif not uf.union(ev["a"], ev["b"]):
            problems.append(f"event {ev} merges nothing")
    replayed = {}
    for lab in labels:
        replayed.setdefault(uf.find(lab), set()).add(lab)
    if sorted(map(sorted, replayed.values())) != sorted(map(sorted, classes)):
        problems.append("certificate replay does not reproduce classes")
    if r["class_count"] != len(classes):
        problems.append("class_count differs from classes")
    verdict = "single_class" if len(classes) == 1 else "inconclusive"
    if r["verdict"] != verdict:
        problems.append(f"verdict {r['verdict']!r} with {len(classes)} classes")
    if r["q"] != q:
        problems.append("q differs from the input")
    return problems


def check_zsygmondy(r: dict, q: int, d: int) -> list:
    problems = []
    if (r["q"], r["d"]) != (q, d):
        problems.append("cell differs from the input")
    witness = r["witness"]
    if r["exists"] != (witness is not None):
        problems.append("exists disagrees with witness")
    if (witness is None) != ((q, d) == EXCEPTION_CELL):
        problems.append(f"witness {witness} at ({q}, {d}) contradicts Zsigmondy")
    if witness is not None and (witness % 2 == 0 or not has_order(q, witness, d)):
        problems.append(f"witness {witness} is not an odd prime of order {d}")
    return problems


def check_bijection(r: dict, p: int) -> list:
    problems = []
    if r["p"] != p:
        problems.append("p differs from the input")
    if r["group_side"]["order"] != r["dual_side"]["order"]:
        problems.append("torsor orders differ")
    return problems


def check_cornqs(r: dict, p: int) -> list:
    problems = []
    if r["p"] != p:
        problems.append("p differs from the input")
    b = r["wild_ab_induced"] and r["ab_coinvariants_p_free"]
    if r["hypothesis_b"] != b:
        problems.append("hypothesis_b disagrees with its parts")
    if r["implication_holds"] != (not (r["hypothesis_a"] and b) or r["conclusion"]):
        problems.append("implication_holds disagrees with its parts")
    if r["implication_holds"] is not True:
        problems.append("implication fails")
    return problems


def check_components(r: dict, p: int) -> list:
    problems = []
    if r["p"] != p:
        problems.append("p differs from the input")
    if r["tame_order_coprime"] != (r["tame_action_order"] % p != 0):
        problems.append("tame_order_coprime disagrees with tame_action_order")
    return problems


def _label_total(family: str, rank: int):
    """Number of unipotent labels when it has a closed form, else None."""
    return _partition_count(rank + 1) if family in ("A", "2A") else None


def check_unipotent(r: dict, family: str, rank: int) -> list:
    problems = []
    if r["count"] != len(r["labels"]) or not _disjoint([r["labels"]]):
        problems.append("count differs from the distinct labels")
    total = _label_total(family, rank)
    if total is not None and r["count"] != total:
        problems.append(f"{r['count']} labels, expected {total}")
    return problems


def check_result(command: str, r: dict, args: dict) -> list:
    """Problems with one command's (or one grid cell's) result."""
    try:
        if command == "fusion":
            return check_fusion(r, int(args["q"]))
        if command == "zsygmondy":
            return check_zsygmondy(r, int(args["q"]), int(args["d"]))
        if command == "bijection":
            return check_bijection(r, int(args["p"]))
        if command == "cornqs":
            return check_cornqs(r, int(args["p"]))
        if command == "components":
            return check_components(r, int(args["p"]))
        if command == "unipotent":
            return check_unipotent(r, args["type"], int(args["rank"]))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed result: {type(exc).__name__}: {exc}"]
    return [f"no check for command {command!r}"]


def check_output(argv: list, expect: dict, returncode: int,
                 stdout: bytes) -> tuple:
    """(ok_ops, problems) for one invocation; a grid counts per cell."""
    cells = expect.get("cells")
    ops = len(cells) if cells is not None else 1
    if returncode != 0:
        return 0, [f"exit code {returncode}"] * ops
    try:
        doc = json.loads(stdout)
    except ValueError:
        return 0, ["stdout is not one JSON document"] * ops
    if not isinstance(doc, dict) or doc.get("status") != "ok":
        return 0, ['report status is not "ok"'] * ops
    command = expect["command"]
    if cells is None:
        args = {k.lstrip("-"): v for k, v in zip(argv[1::2], argv[2::2])}
        problems = check_result(command, doc["result"], args)
        return (0 if problems else 1), problems
    jobs = doc["result"].get("jobs", [])
    if len(jobs) != len(cells):
        return 0, [f"{len(jobs)} grid jobs, expected {len(cells)}"] * ops
    ok, problems = 0, []
    for job, cell in zip(jobs, cells):
        if job.get("key") != cell:
            found = [f"job key {job.get('key')} differs from {cell}"]
        elif job.get("status") != "ok":
            found = [f"error cell {cell}: {job.get('error')}"]
        else:
            found = check_result(command, job["result"], cell)
        if found:
            problems.append(f"{cell}: {found[0]}")
        else:
            ok += 1
    return ok, problems
