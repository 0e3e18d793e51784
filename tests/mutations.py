"""Mutation kill list: each entry breaks the library on purpose, and the
tier-1 tests it names must fail.

Run from the repository root (about 3 s; not collected by pytest, since
the name does not start with ``test_``)::

    python3 tests/mutations.py

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory and first runs every named test on the unmutated
copy, which must pass.  Then, per mutation, it replaces the one
occurrence of the old text by the new text in the copy, runs the named
tests against it, and restores the file.  A mutation is killed only when
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
    ("one Miller-Rabin base dropped", "arith.py",
     "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
     "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
     ["tests/test_arith.py::test_is_prime_is_deterministic_up_to_its_bound"]),
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
