"""Tests of the benchmark itself: seeded inputs, output checks and the
determinism of the traced counters.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import check_output, has_order  # noqa: E402
from workloads import WITNESS_LIMIT, WORKLOADS, Workload  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _cli(argv, cwd, trace_out=None) -> bytes:
    if trace_out is None:
        cmd = [sys.executable, "-m", "blockatlas.cli"] + argv
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_out,
               "--"] + argv
    return subprocess.run(cmd, cwd=cwd, env=ENV, capture_output=True,
                          check=True, timeout=300).stdout


def _rounds(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir(parents=True)
    w = Workload(name, seed, str(workdir))
    return [(inv.argv, inv.ops, inv.expect) for inv in w.round(0)], workdir


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    a, dir_a = _rounds(name, 7, tmp_path / "a")
    b, dir_b = _rounds(name, 7, tmp_path / "b")
    assert a == b
    files_a = {p: (dir_a / p).read_text() for p in os.listdir(dir_a)}
    files_b = {p: (dir_b / p).read_text() for p in os.listdir(dir_b)}
    assert files_a == files_b
    c, _ = _rounds(name, 8, tmp_path / "c")
    assert a != c


@pytest.mark.parametrize("name", ["fusion_grid", "witness_grid"])
def test_round_size_does_not_depend_on_seed(name, tmp_path):
    sizes = set()
    for seed in (1, 2, 3):
        invs, _ = _rounds(name, seed, tmp_path)
        cells = sorted(json.dumps(c, sort_keys=True)
                       for _, _, e in invs for c in e["cells"])
        sizes.add(tuple(cells))
    assert len(sizes) == 1


def test_witness_cells_stay_in_range(tmp_path):
    invs, _ = _rounds("witness_grid", 1, tmp_path)
    for _, _, expect in invs:
        for cell in expect["cells"]:
            assert cell["d"] >= 3 and cell["q"] ** cell["d"] <= WITNESS_LIMIT


def test_direct_sums_load_and_validate(tmp_path):
    from blockatlas.rootdata import load_datum
    _, workdir = _rounds("lattice_grid", 3, tmp_path)
    sums = [p for p in os.listdir(workdir) if p.startswith("sum0_")]
    assert len(sums) == 6
    ranks = sorted(load_datum((workdir / p).read_text()).rank for p in sums)
    assert ranks == [3, 4, 5, 6, 7, 8]


# ------------------------------------------------------------------ checks

def _single(argv, tmp_path):
    out = _cli(argv, str(tmp_path))
    doc = json.loads(out)
    expect = {"command": argv[0]}
    assert check_output(argv, expect, 0, out) == (1, [])
    return doc, expect


def _rejects(argv, expect, doc) -> bool:
    ok, problems = check_output(argv, expect, 0, json.dumps(doc).encode())
    return ok == 0 and bool(problems)


def test_fusion_check_rejects_dropped_event(tmp_path):
    argv = ["fusion", "--type", "B", "--rank", "3", "--q", "2"]
    doc, expect = _single(argv, tmp_path)
    tampered = copy.deepcopy(doc)
    tampered["result"]["certificate"].pop()
    assert _rejects(argv, expect, tampered)
    tampered = copy.deepcopy(doc)
    tampered["result"]["verdict"] = "inconclusive"
    assert _rejects(argv, expect, tampered)


def test_zsygmondy_check_rejects_wrong_witness(tmp_path):
    argv = ["zsygmondy", "--q", "3", "--d", "5"]
    doc, expect = _single(argv, tmp_path)
    witness = doc["result"]["witness"]
    assert has_order(3, witness, 5)
    for wrong in (witness + 2, 13, None):
        tampered = copy.deepcopy(doc)
        tampered["result"]["witness"] = wrong
        assert _rejects(argv, expect, tampered), wrong


def test_zsygmondy_check_knows_the_exception(tmp_path):
    argv = ["zsygmondy", "--q", "2", "--d", "6"]
    doc, expect = _single(argv, tmp_path)
    assert doc["result"]["witness"] is None
    tampered = copy.deepcopy(doc)
    tampered["result"].update(witness=7, exists=True)
    assert _rejects(argv, expect, tampered)


def test_bijection_check_rejects_unequal_orders(tmp_path):
    argv = ["bijection", "--datum", "catalog:norm_one_ramified", "--p", "2"]
    doc, expect = _single(argv, tmp_path)
    tampered = copy.deepcopy(doc)
    tampered["result"]["dual_side"]["order"] += 1
    assert _rejects(argv, expect, tampered)


def test_cornqs_check_rejects_failed_implication(tmp_path):
    argv = ["cornqs", "--datum", "catalog:pgl2_split", "--p", "3"]
    doc, expect = _single(argv, tmp_path)
    tampered = copy.deepcopy(doc)
    tampered["result"].update(hypothesis_a=True, wild_ab_induced=True,
                              ab_coinvariants_p_free=True, hypothesis_b=True,
                              conclusion=False, implication_holds=False)
    assert _rejects(argv, expect, tampered)


def test_grid_check_rejects_error_cell(tmp_path):
    (tmp_path / "g.cfg").write_text("command = zsygmondy\nqs = 2, 3\nds = 5-6\n")
    argv = ["grid", "--config", "g.cfg"]
    out = _cli(argv, str(tmp_path))
    cells = [{"q": q, "d": d} for q in (2, 3) for d in (5, 6)]
    expect = {"command": "zsygmondy", "cells": cells}
    assert check_output(argv, expect, 0, out) == (4, [])
    doc = json.loads(out)
    doc["result"]["jobs"][1] = {"key": cells[1], "status": "error",
                                "error": {"code": "X", "message": "x"}}
    ok, problems = check_output(argv, expect, 0, json.dumps(doc).encode())
    assert ok == 3 and len(problems) == 1


# ----------------------------------------------------------------- tracing

GRIDS = {
    "fusion.cfg": "command = fusion\nfamilies = B, C, D\nranks = 5-6\n"
                  "qs = 2, 4, 8\n",
    "witness.cfg": "command = zsygmondy\nqs = 2-16\nds = 3-9\n",
    "lattice.cfg": "command = cornqs\ndata = catalog:sp4_split, "
                   "catalog:wild_plus_tame_rank2, catalog:su3_unramified\n"
                   "primes = 2, 3, 5\n",
}


def _deterministic(trace: dict) -> dict:
    """Everything in a trace except times."""
    return {"calls": {k: v["calls"] for k, v in trace["layers"].items()},
            "counts": {k: v for k, v in trace["counts"].items()
                       if not k.endswith("_s")},
            "distinct": trace["distinct"], "caches": trace["caches"]}


@pytest.mark.parametrize("config", sorted(GRIDS))
def test_traced_counters_repeat_exactly(config, tmp_path):
    (tmp_path / config).write_text(GRIDS[config])
    argv = ["grid", "--config", config]
    plain = _cli(argv, str(tmp_path))
    runs = []
    for i in (1, 2):
        out = tmp_path / f"trace{i}.json"
        assert _cli(argv, str(tmp_path), trace_out=str(out)) == plain
        runs.append(_deterministic(json.loads(out.read_text())))
    assert runs[0] == runs[1]
    assert runs[0]["calls"]["cli"] > 1
