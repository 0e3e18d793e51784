"""Fixed reference program that run.py times between CLI invocations.

    python3 perfbench/reference.py

It does what a blockatlas invocation does, without blockatlas: start an
interpreter, import the standard modules the package imports, then build,
sort, group and hash many small tuples and reduce integer rows modulo a
prime on a small thread pool, and print a JSON report.  Its work never
changes, so the time it takes measures how fast the host runs this kind of
code at that moment; run.py scales the CLI's times by it.
"""
import argparse  # noqa: F401  (imported for its start-up cost, as the CLI is)
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import json
import sys
from concurrent.futures import ThreadPoolExecutor

BLOCK = 6000
BLOCKS = 4
MODULUS = 1000003


def block(start: int) -> dict:
    groups = {}
    acc = 0
    for i in range(start, start + BLOCK):
        t = tuple(sorted(((i * 7919) % 97, (i * 104729) % 89, i % 13,
                          (i >> 3) % 11, (i * 31) % 7)))
        groups.setdefault(t[:2], []).append(t)
        row = [(i * k + 3) % 101 for k in range(10)]
        acc = (acc + sum(a * b for a, b in zip(row, t + t))) % MODULUS
    biggest = sorted(groups.values(), key=len)[-1]
    return {"acc": acc, "groups": len(groups), "biggest": len(biggest)}


def main() -> int:
    with ThreadPoolExecutor(max_workers=BLOCKS) as pool:
        results = list(pool.map(block, range(0, BLOCKS * BLOCK, BLOCK)))
    json.dump({"blocks": results}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
