"""Mutation kill list: each entry breaks the library on purpose, and the
tier-1 tests it names must fail.

Run from the repository root (about 18 s; not collected by pytest, since
the name does not start with ``test_``)::

    python3 tests/mutations.py

The runner copies ``src/``, ``tests/``, ``pyproject.toml`` and
``perfbench/`` (some tests read the data its input generator writes) to a
temporary directory and first runs every named test on the unmutated copy,
which must pass.  Then, per mutation, it replaces the one occurrence of
the old text by the new text in the copy, runs the named tests against it,
and restores the file.  A mutation is killed only when
every named test fails on an ``AssertionError`` (pytest's ``DID NOT
RAISE`` included) or an ``InvariantViolation``; an import error, a crash
of another kind or a passing test leaves it alive.  Exit status 0 when
the unmutated copy passes and every mutation is killed, 1 otherwise.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/blockatlas, old text, new text, tests that must fail)
MUTATIONS = [
    ("replay accepts an event that merges nothing", "fusion.py",
     "if root_a == root_b:", "if False:",
     ["tests/test_fusion.py::test_validate_rejects_tampering"]),
    ("witness hypotheses not checked", "fusion.py",
     "if ev.ell % 2 == 0 or not is_good(ev.ell, self.group_type):",
     "if False:",
     ["tests/test_fusion.py::"
      "test_validate_rejects_a_witness_that_fails_hypotheses"]),
    ("trial division skips the 30k + 11 candidates", "arith.py",
     "while (c <= limit and n % c and n % (c + 4) and n % (c + 6)",
     "while (c <= limit and n % c and n % (c + 6)",
     ["tests/test_arith.py::test_prime_factors_match_the_old_trial_division",
      "tests/test_manifest.py::"
      "test_manifest_cold_warm_and_under_another_hash_seed"]),
    ("one Miller-Rabin base dropped", "arith.py",
     "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
     "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
     ["tests/test_arith.py::test_is_prime_is_deterministic_up_to_its_bound"]),
    ("p_torsion divides out one p, not the p-part", "abelian.py",
     "            while v % p == 0:\n                v //= p",
     "            if v % p == 0:\n                v //= p",
     ["tests/test_abelian.py::test_subquotient_and_p_torsion",
      "tests/test_abelian.py::test_functors_match_element_oracle"]),
    ("coinvariants drop the first operator's relations", "abelian.py",
     "    for g in gens:\n        rel = rel.hstack(",
     "    for g in gens[1:]:\n        rel = rel.hstack(",
     ["tests/test_abelian.py::test_coinvariants_frozen",
      "tests/test_abelian.py::test_functors_match_element_oracle"]),
    ("injects always true", "abelian.py",
     "    return meet.cols == 0 or lattice_contains(source.rel, meet)",
     "    return True",
     ["tests/test_abelian.py::test_injective_and_kernel_on_nonzero_sources",
      "tests/test_abelian.py::test_injects_and_exact_match_the_element_oracle"]),
    # pi1(G_der) is pi1's torsion, so its order is the product of all of
    # pi1's invariant factors
    ("derived pi1 order drops pi1's last invariant factor", "langlands.py",
     "der_order = prod(pi1(datum).invariant_factors)",
     "der_order = prod(pi1(datum).invariant_factors[:-1])",
     ["tests/test_langlands.py::test_criterion_report_dict",
      "tests/test_abelian.py::test_injects_and_exact_match_the_element_oracle"]),
    # coinvariants and fixed_points take operator compatibility from these
    # two checks of datum validation
    ("Frobenius-normality check skipped", "rootdata.py",
     "            if (f @ g @ finv).entries not in closure:",
     "            if False:",
     ["tests/test_rootdata.py::test_frobenius_must_normalize_inertia"]),
    ("wild-normality check skipped", "rootdata.py",
     "                if (outer @ w @ inv).entries not in wild_closure:",
     "                if False:",
     ["tests/test_rootdata.py::test_wild_image_must_be_normal"]),
    # another basis of the abelianized lattice, equally valid, moves
    # wild_ab_induced on some data
    ("derived change of basis reads the saturation's rows reversed",
     "rootdata.py",
     "    U, _S, _V = smith_normal_form(saturation)\n",
     "    U, _S, _V = smith_normal_form(\n"
     "        IntMatrix._of(saturation.entries[::-1], rank, s))\n"
     "    U = U @ IntMatrix._of(IntMatrix.identity(rank).entries[::-1],\n"
     "                          rank, rank)\n",
     ["tests/test_langlands.py::"
      "test_wild_ab_induced_frozen_on_conjugated_weil_restrictions"]),
    # without it the Hermite basis is still an echelon basis of the
    # lattice, but no longer the unique one
    ("Hermite form skips the off-diagonal reduction", "abelian.py",
     "            q = col[i] // p\n", "            q = 0\n",
     ["tests/test_abelian.py::test_equal_lattices_get_equal_bases"]),
    ("SNF pivot sign flipped", "abelian.py",
     "        if p < 0:\n            A[t] = [-x for x in A[t]]",
     "        if p > 0:\n            A[t] = [-x for x in A[t]]",
     ["tests/test_abelian.py::test_snf_frozen_diag_4_6",
      "tests/test_abelian.py::test_snf_roundtrip_random"]),
    ("C served from the closure of D, not of its model B", "fusion.py",
     "result = _b_closure(group_type.rank, q, d_max)",
     "result = (_b_closure(group_type.rank, q, d_max)\n"
     "              if group_type.family == \"B\" else\n"
     "              _closure(GroupTypeTag(\"D\", group_type.rank), q, d_max,\n"
     "                       None))",
     ["tests/test_fusion.py::test_c_reports_are_b_reports_but_for_the_type"]),
    # SeriesPartition.validate accepts every series this builds: it looks
    # up the cores it checks in the same cache.  Defect-0 cores (D, and 2D
    # at even d) then split each swap class in two
    ("series core rows lose the tie-break of equal lengths", "unipotent.py",
     "return (t, s) if (len(t), s) > (len(s), t) else (s, t)",
     "return (t, s) if len(t) > len(s) else (s, t)",
     ["tests/test_unipotent.py::test_block_sizes_count_e_multipartitions[D]"]),
    # SeriesPartition.validate accepts every series this builds: it reads
    # the cores it checks from the same runners
    ("cohook runner parity flipped for beads past 3·d", "symbols.py",
     "(side + x // d) % 2", "(side + x // d + (x > 3 * d)) % 2",
     ["tests/test_unipotent.py::"
      "test_phi_maps_each_series_onto_its_ennola_partner",
      "tests/test_symbols.py::"
      "test_closed_form_cores_equal_move_by_move_cores[8]"]),
    # no caller in the library writes into the map, so only the read-only
    # check of its readers sees a writable one
    ("admissible map handed out as a plain dict", "arith.py",
     "    return MappingProxyType(out)", "    return out",
     ["tests/test_caches.py::"
      "test_cached_readers_hand_out_one_read_only_value[admissible_d]",
      "tests/test_caches.py::"
      "test_cached_readers_hand_out_one_read_only_value[fusion-B]",
      "tests/test_caches.py::"
      "test_cached_readers_hand_out_one_read_only_value[fusion-C]"]),
]

KILLS = ("AssertionError", "InvariantViolation", "DID NOT RAISE")


class _Recorder:
    """pytest plugin: node id -> None for a pass, else the kind of the
    first exception of its setup, call or teardown."""

    def __init__(self):
        self.outcomes = {}

    def pytest_runtest_makereport(self, item, call):
        if call.excinfo is not None:
            kind = call.excinfo.type.__name__
            if str(call.excinfo.value).startswith("DID NOT RAISE"):
                kind = "DID NOT RAISE"
            self.outcomes.setdefault(item.nodeid, kind)
        elif call.when == "call":
            self.outcomes.setdefault(item.nodeid, None)


def run_tests(copy: Path, tests: list) -> dict:
    """The outcomes of the tests on the copy, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    out = copy / "outcomes.json"
    out.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(copy / "tests" / "mutations.py"),
                    "--record", str(out), *tests], cwd=copy, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=False)
    if not out.exists():  # the interpreter died before pytest reported
        return {}
    return json.loads(out.read_text(encoding="utf-8"))


def record(out: str, tests: list) -> None:
    import pytest
    recorder = _Recorder()
    pytest.main(["-q", "-p", "no:cacheprovider", *tests], plugins=[recorder])
    Path(out).write_text(json.dumps(recorder.outcomes), encoding="utf-8")


def by_test(outcomes: dict, test: str) -> list:
    """The outcomes of one named test, every parametrized case of it; a
    test that did not run reads as a crash."""
    return [kind for node, kind in outcomes.items()
            if node == test or node.startswith(test + "[")] or ["not run"]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src")
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "perfbench", copy / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        named = sorted({t for *_, tests in MUTATIONS for t in tests})
        outcomes = run_tests(copy, named)
        clean = all(kind is None for t in named
                    for kind in by_test(outcomes, t))
        print(f"{'pass' if clean else 'FAIL'}  unmutated copy")
        alive = 0
        for name, file, old, new, tests in MUTATIONS:
            path = copy / "src" / "blockatlas" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{name}: old text occurs "
                                 f"{text.count(old)} times in {file}")
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                outcomes = run_tests(copy, tests)
            finally:
                path.write_text(text, encoding="utf-8")
            kinds = [kind for t in tests for kind in by_test(outcomes, t)]
            killed = all(kind in KILLS for kind in kinds)
            alive += not killed
            print(f"{'kill' if killed else 'LIVE'}  {name} ({file}): "
                  f"{', '.join(sorted(set(map(str, kinds))))}")
        return 0 if clean and not alive else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--record"]:
        record(sys.argv[2], sys.argv[3:])
    else:
        sys.exit(main())
